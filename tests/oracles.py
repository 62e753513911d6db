"""Test oracles shared by the test modules: they evolve and expand full
n x n arrays without calling the plyap code under test."""

import numpy as np


def gather_baker_kernel(f):
    """The baker pushforward by explicit preimage gathers, kept as the oracle."""
    n = f.shape[0]
    half = n // 2
    out = np.empty_like(f)
    i = np.arange(n)
    jlo = np.arange(half)
    jhi = np.arange(half, n)
    out[:, :half] = 0.5 * (f[i // 2][:, 2 * jlo] + f[i // 2][:, 2 * jlo + 1])
    out[:, half:] = 0.5 * (f[(i + n) // 2][:, 2 * jhi - n] + f[(i + n) // 2][:, 2 * jhi - n + 1])
    return out


def repeat_blocks(values, shape):
    """Values on equal blocks repeated out to one value per cell of shape."""
    for axis, (k, s) in enumerate(zip(values.shape, shape)):
        values = np.repeat(values, s // k, axis=axis)
    return values
