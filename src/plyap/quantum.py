"""Quadratic-potential wavepacket dynamics and the quantized baker map.

Gaussian dynamics are exact: the Moebius evolution of the complex width
parameter gives the autocorrelation in closed form, with no grid.  The test
suite checks that form against an independent split-operator grid
propagator (tests/oracles.py).  The quantized baker lives on an
N-dimensional position grid q_j = (j+1/2)/N with the antiperiodic discrete
Fourier transform between position and momentum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import DiscreteBasis, ProjectiveState

__all__ = [
    "QuadraticSystem",
    "GaussianState",
    "gaussian_autocorrelation",
    "bvs_baker",
    "bvs_coherent_state",
]


@dataclass(frozen=True)
class QuadraticSystem:
    """Quadratic Hamiltonian p^2/2 + sign * omega^2 x^2 / 2, in units m = hbar = 1.

    sign = +1 is the harmonic oscillator, -1 the parabolic barrier (the
    inverted potential, classical stretching rate omega).
    """

    omega: float
    sign: int = 1

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError("omega must be positive")
        if self.sign not in (+1, -1):
            raise DomainError("sign must be +1 (oscillator) or -1 (barrier)")


@dataclass(frozen=True)
class GaussianState:
    """Centered Gaussian wavefunction exp(-omega0 x^2 / 2), in units m = hbar = 1."""

    omega0: float

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise DomainError("width parameter omega0 must be positive")


def _width_param(sys: QuadraticSystem, omega0: float, t) -> np.ndarray:
    """Complex width a(t) of the evolving centered Gaussian, a(0) = omega0.

    a obeys da/dt = -i (a^2 - sign * omega^2).  With u = a / omega,
    u0 = omega0 / omega and tau = omega t, the oscillator's Moebius solution
    is u = (u0 cos tau + i sin tau) / (cos tau + i u0 sin tau), which holds
    u(0) = u0 exactly however far u0 lies from 1; the barrier's is written
    with expm1, free of cancellation at small t.
    """
    t = np.asarray(t, dtype=float)
    w = sys.omega
    u0 = omega0 / w
    if sys.sign > 0:
        c, s = np.cos(w * t), np.sin(w * t)
        u = (u0 * c + 1j * s) / (c + 1j * u0 * s)
    else:
        decay = np.exp(-2.0 * w * t)
        one_m = -np.expm1(-2.0 * w * t)
        one_p = 1.0 + decay
        denom = one_p * one_p + u0 * u0 * one_m * one_m
        u = (4.0 * u0 * decay - 1j * one_m * one_p * (1.0 + u0 * u0)) / denom
    return w * u


def gaussian_autocorrelation(sys: QuadraticSystem, g: GaussianState, t):
    """|<psi(0)|psi(t)>| for the Gaussian under the quadratic flow.

    Closed form from the width evolution: with a0 = omega0 and a = a(t),

        |overlap|^2 = 2 sqrt(a0 Re a) / |a0 + a| = 2 sqrt(Re r) / |1 + r|,  r = a / a0.

    Periodic with period pi/omega for the oscillator (identically 1 when
    omega0 = omega, the stationary ray); decays like exp(-omega t / 2) for
    the barrier.
    """
    a = _width_param(sys, g.omega0, t)
    # r part by part (a complex quotient would round r(0) off 1), with a0
    # rounded as _width_param rounds a(0): r(0) = 1 exactly, and there is no
    # product a0 Re a to overflow or underflow
    a0 = sys.omega * (g.omega0 / sys.omega)
    r = a.real / a0 + 1j * (a.imag / a0)
    out = np.sqrt(2.0 * np.sqrt(r.real) / np.abs(1.0 + r))
    return float(out) if out.ndim == 0 else out


def bvs_baker(N: int):
    """Quantized baker map B = G_N^(-1) diag(G_{N/2}, G_{N/2}) as a step function.

    The half transforms send position kets of each half interval to the
    matching half of momentum space; the inverse full transform returns to
    the position representation.  Each transform is a phase-twisted FFT,

        G_n x = n^(-1/2) exp(-i pi/2n) D_n fft(D_n x),  D_n = diag(exp(-i pi k/n)),

    so one step costs O(N log N): an FFT over both halves, then an inverse
    FFT of full size, with the twists and scales folded into three vectors
    computed here once.  The returned function acts along axis 0, so
    bvs_baker(N)(np.eye(N)) is the dense matrix.  N must be even.
    """
    if N < 2 or N % 2:
        raise DomainError("baker quantization needs even N >= 2")
    h = N // 2
    d_half = np.exp(-1j * np.pi * np.arange(h) / h)
    d_full_inv = np.exp(1j * np.pi * np.arange(N) / N)
    mid = np.tile(d_half, 2) * d_full_inv * (np.exp(-0.5j * np.pi / h) / np.sqrt(h))
    post = d_full_inv * (np.exp(0.5j * np.pi / N) * np.sqrt(N))

    def step(x):
        x = np.asarray(x)
        along = (slice(None),) + (None,) * (x.ndim - 1)  # twists broadcast along axis 0
        y = np.fft.fft(x.reshape((2, h) + x.shape[1:]) * d_half[along], axis=1)
        y = np.fft.ifft(y.reshape(x.shape) * mid[along], axis=0)
        y *= post[along]
        return y

    return step


def bvs_coherent_state(N: int, q0: float, p0: float, alpha: float) -> ProjectiveState:
    """Gaussian packet exp(-(q0-q_j)^2/2 alpha + i p0 q_j / alpha) on the q grid.

    alpha plays the role of the effective Planck constant 1/(2 pi N): the
    packet width is sqrt(alpha/2) in position, and the phase centers the
    momentum at p0 when alpha equals 1/(2 pi N) exactly.  Normalization is
    left to the distance operations.
    """
    if N < 1:
        raise DomainError("dimension must be positive")
    if not 0.0 <= q0 < 1.0 or not 0.0 <= p0 < 1.0:
        raise DomainError("packet center must lie in [0, 1)^2")
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    q = (np.arange(N) + 0.5) / N
    amp = np.exp(-((q0 - q) ** 2) / (2.0 * alpha) + 1j * p0 * q / alpha)
    return ProjectiveState(amp, DiscreteBasis(N))
