"""Test oracles shared by the test modules.

The baker oracle evolves and expands full n x n arrays, and the r-adic
oracle gathers each output cell, without calling the plyap code under
test.  The linear-map transfer and the split-operator propagator are grid
realisations of flows that plyap evolves in closed form; they take and
return plyap's state types (GridDensity, ProjectiveState) but share no
evolution code with it.  The trajectory exponent is the classical
Lyapunov exponent of a point map, which plyap's density and ray exponents
are compared against; the distances state the ray-space metric and the
flat metric that the identities in the tests are written in.
"""

import numpy as np

from plyap import (
    BasisMismatchError,
    DegeneratePathError,
    DomainError,
    GridBasis1D,
    GridDensity,
    PlyapError,
    ProjectiveState,
    SaturationError,
    overlap_magnitude,
)
from plyap.quantum import _width_param


class NumericalOverflowError(PlyapError):
    """A trajectory left the range of double precision."""


def fubini_study_distance(a, b):
    """Geodesic distance 2 arccos |<a, b>| between the rays of a and b, in [0, pi]."""
    return 2.0 * float(np.arccos(overlap_magnitude(a, b)))


def hilbert_distance(a, b):
    """Weighted 2-norm ||a - b|| of the raw amplitude vectors (no ray normalization).

    Unitaries preserve this distance for every pair, which is exactly why it
    carries no sensitivity information.
    """
    if a.basis != b.basis:
        raise BasisMismatchError(f"bases differ: {a.basis!r} vs {b.basis!r}")
    diff = a.amplitudes.ravel() - b.amplitudes.ravel()
    return float(np.sqrt(np.vdot(diff, diff).real * a.weight))


def bounded_euclidean_distance(d):
    """Map an unbounded distance d >= 0 to pi*d/(1+d) in [0, pi): monotone, 0 iff d == 0."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise DomainError("distance must be finite and non-negative")
    out = np.pi * d / (1.0 + d)
    return float(out) if out.ndim == 0 else out


def classical_divergence(d_b):
    """Invert the bounding: d_b / (pi - d_b) for d_b in [0, pi), so cd(bd(d)) = d."""
    d_b = np.asarray(d_b, dtype=float)
    if np.any(d_b < 0.0):
        raise DomainError("bounded distance must be non-negative")
    if np.any(d_b >= np.pi):
        raise SaturationError("bounded distance reached pi; divergence undefined")
    out = d_b / (np.pi - d_b)
    return float(out) if out.ndim == 0 else out


def linear_map(r):
    """The point step x -> r x."""
    return lambda x: r * x


def rotation_map(c):
    """The point step x -> x + c mod 1."""
    return lambda x: np.mod(x + c, 1.0)


def apply_map(m, x):
    """One step of plyap's r-adic or baker MapDescriptor m on a point x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m.kind == "r_adic":
        return np.mod(m.r * x, 1.0)
    # baker: stretch x by 2, cut, and stack in y
    two_x = 2.0 * x[0]
    cut = np.floor(two_x)
    return np.array([two_x - cut, (x[1] + cut) / 2.0])


def trajectory_lyapunov(step, x0, epsilon=1e-9, steps=400, method="direct"):
    """Two-trajectory exponent of the point map step.

    Tracks a companion point offset by epsilon, renormalizing the separation
    back to epsilon after every step and accumulating the log stretch.
    Each coordinate of a separation is taken by minimal image, so a wrap of
    a periodic coordinate is not an O(1) jump; a separation of a few epsilon
    is left as it is.  A step that takes the point out of the unit box must
    be homogeneous, step(a x) = a step(x) for a > 0, as x -> r x is: the
    point is scaled back to unit size, so that x + epsilon stays
    representable.  method "direct" uses the Euclidean separation;
    "divergence" pushes each separation through the bounded metric and its
    divergence (an algebraic identity makes the two agree to rounding).
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if method not in ("direct", "divergence"):
        raise DomainError(f"unknown method {method!r}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    offset = np.zeros_like(x)
    offset[0] = epsilon
    y = x + offset

    def log_stretch(d):
        if method == "direct":
            return np.log(d / epsilon)
        lam_d = classical_divergence(bounded_euclidean_distance(d))
        lam_e = classical_divergence(bounded_euclidean_distance(epsilon))
        return np.log(lam_d / lam_e)

    total = 0.0
    for _ in range(steps):
        x = step(x)
        y = step(y)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NumericalOverflowError("trajectory left double-precision range")
        delta = y - x
        delta -= np.round(delta)
        d = float(np.linalg.norm(delta))
        if d == 0.0:
            raise DegeneratePathError("trajectories coincide; cannot renormalize")
        total += log_stretch(d)
        delta *= epsilon / d
        scale = float(np.max(np.abs(x)))
        if scale > 1.0:
            x = x / scale
        y = x + delta
    return total / steps


def gather_baker_kernel(f):
    """The baker pushforward by explicit preimage gathers, kept as the oracle.

    Output row i, column j < n/2 averages cells 2j and 2j + 1 of row i // 2;
    column j >= n/2 averages cells 2j - n and 2j - n + 1 of row (i + n) // 2.
    """
    n = f.shape[0]
    half = n // 2
    out = np.empty_like(f)
    i = np.arange(n)
    for cols, rows in ((slice(None, half), f[i // 2]), (slice(half, None), f[(i + n) // 2])):
        out[:, cols] = 0.5 * (rows[:, 0::2] + rows[:, 1::2])
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
