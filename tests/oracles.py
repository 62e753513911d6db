"""Test oracles shared by the test modules.

The baker oracle evolves and expands full n x n arrays, and the r-adic
oracle gathers each output cell, without calling the plyap code under
test.  The linear-map transfer and the split-operator propagator are grid
realisations of flows that plyap evolves in closed form; they take and
return plyap's state types (GridDensity, ProjectiveState) but share no
evolution code with it.
"""

import numpy as np

from plyap import DomainError, GridBasis1D, GridDensity, ProjectiveState
from plyap.quantum import _width_param


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


def gather_r_adic(values, r):
    """The r-adic pushforward cell by cell, kept as the oracle.

    Output cell i averages the input cells (i + j n) // r, j = 0 .. r - 1,
    the one cell each branch's preimage of cell i lies in.
    """
    n = values.size
    i = np.arange(n)
    acc = np.zeros(n)
    for j in range(r):
        acc += values[(i + j * n) // r]
    return acc / r


def repeat_blocks(values, shape):
    """Values on equal blocks repeated out to one value per cell of shape."""
    for axis, (k, s) in enumerate(zip(values.shape, shape)):
        values = np.repeat(values, s // k, axis=axis)
    return values


def linear_transfer(rho, r):
    """One exact transfer step of x -> r x for a density on a 1D grid from 0.

    rho'(x) = rho(x/r)/r; cell averages via the exact piecewise-linear
    cumulative integral (np.interp on the cumulative is exact for
    piecewise-constant densities).  Mass pushed beyond x_hi raises
    DomainError.
    """
    grid = rho.geometry
    if grid.x_lo != 0.0:
        raise DomainError("linear transfer expects a grid starting at 0")
    values = repeat_blocks(rho.values, grid.shape)
    dx = grid.cell_width
    edges = np.arange(grid.n + 1) * dx
    cum = np.concatenate([[0.0], np.cumsum(values) * dx])
    pulled = np.interp(edges / r, edges, cum)
    out = np.diff(pulled) / dx
    lost = (cum[-1] - pulled[-1]) / cum[-1]
    if lost > 1e-12:
        raise DomainError(
            f"linear map pushed {lost:.3e} of the mass beyond x_hi; enlarge the domain"
        )
    return GridDensity(np.maximum(out, 0.0), grid)


def barrier_overlap_paper(omega0, omega, t):
    """The quoted closed form (cosh^2 wt + (w/w0 - w0/w)^2 sinh^2 wt)^(-1/4).

    Reduces to (cosh wt)^(-1/2) at omega0 = omega.  For omega0 != omega the
    independent Gaussian dynamics match this form only with the cross
    coefficient halved (barrier_half_form); the discrepancy is exercised by
    a dedicated diagnostic test rather than reconciled.
    """
    if omega0 <= 0.0 or omega <= 0.0:
        raise DomainError("frequencies must be positive")
    t = np.asarray(t, dtype=float)
    chi = omega / omega0 - omega0 / omega
    c = np.cosh(omega * t)
    s = np.sinh(omega * t)
    out = (c * c + chi * chi * s * s) ** -0.25
    return float(out) if out.ndim == 0 else out


def barrier_half_form(omega0, omega, t):
    """The quoted closed form with the cross coefficient halved."""
    chi = 0.5 * (omega / omega0 - omega0 / omega)
    return (np.cosh(omega * t) ** 2 + chi**2 * np.sinh(omega * t) ** 2) ** -0.25


def oscillator_form(omega0, omega, t):
    """The oscillator's autocorrelation (cos^2 wt + ((u0 + 1/u0) / 2)^2 sin^2 wt)^(-1/4).

    u0 = omega0 / omega; the oscillator counterpart of barrier_half_form.
    """
    u0 = omega0 / omega
    chi = 0.5 * (u0 + 1.0 / u0)
    return (np.cos(omega * t) ** 2 + chi**2 * np.sin(omega * t) ** 2) ** -0.25


def _centers(grid):
    return grid.x_lo + (np.arange(grid.n) + 0.5) * grid.cell_width


def plan_split_grid(sys, g, duration):
    """Size a grid that holds the state of QuadraticSystem sys over the run.

    Barrier evolutions spread exponentially in both position and momentum,
    so the box and the cell size both come from the analytic width at the
    final time, padded by 8 standard deviations.
    """
    ts = np.linspace(0.0, max(duration, 1e-12), 17)
    a = _width_param(sys, g.omega0, ts)
    sx = np.sqrt(1.0 / (2.0 * a.real))
    sp = np.sqrt(0.5) * np.abs(a) / np.sqrt(a.real)
    half_width = 8.0 * float(np.max(sx))
    p_max = 8.0 * float(np.max(sp))
    dx = np.pi / (1.25 * p_max)
    n = 1 << int(np.ceil(np.log2(max(2.0 * half_width / dx, 64.0))))
    return GridBasis1D(n, -half_width, half_width)


def gaussian_on_grid(g, grid):
    """Sample the GaussianState g's wavefunction on the grid centers."""
    return ProjectiveState(np.exp(-0.5 * g.omega0 * _centers(grid) ** 2), grid)


def split_operator_propagate(psi, sys, dt, steps):
    """Symmetric kinetic/potential splitting on a uniform grid.

    Half potential phase, full kinetic phase in Fourier space, half
    potential phase per step; unitary up to rounding, so the norm is
    preserved to ~1e-14 per step.  Requires dt * omega <= 0.01.  After the
    run, more than 1e-8 of the probability mass in the outer 10% of the
    grid raises DomainError (the box was too small and overlaps are
    untrustworthy).
    """
    grid = psi.basis
    if not isinstance(grid, GridBasis1D):
        raise DomainError("split-operator propagation needs a 1D grid state")
    if steps < 0:
        raise DomainError("step count must be non-negative")
    if dt * sys.omega > 0.01 + 1e-12:
        raise DomainError("dt * omega must not exceed 0.01")
    potential = 0.5 * sys.sign * sys.omega**2 * _centers(grid) ** 2
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.cell_width)
    half_v = np.exp(-0.5j * dt * potential)
    kinetic = np.exp(-0.5j * dt * k * k)
    amp = psi.amplitudes.astype(np.complex128)
    for _ in range(steps):
        amp *= half_v
        amp = np.fft.ifft(kinetic * np.fft.fft(amp, norm="ortho"), norm="ortho")
        amp *= half_v
    out = ProjectiveState(amp, grid)
    edge = max(1, grid.n // 20)
    prob = np.abs(amp) ** 2
    outer = (prob[:edge].sum() + prob[-edge:].sum()) / prob.sum()
    if outer > 1e-8:
        raise DomainError(
            f"{outer:.2e} of the mass sits in the outer 10% of the grid; enlarge the domain"
        )
    return out
