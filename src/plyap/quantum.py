"""Quadratic-potential wavepacket dynamics and the quantized baker map.

Two independent routes to the same physics: exact Gaussian dynamics via the
Moebius evolution of the complex width parameter (closed form, no grid), and
a split-operator grid propagator used as a numerical oracle.  The quantized
baker lives on an N-dimensional position grid q_j = (j+1/2)/N with the
antiperiodic discrete Fourier transform between position and momentum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DomainOverflowError
from .geometry import DiscreteBasis, GridBasis1D, ProjectiveState

__all__ = [
    "QuadraticSystem",
    "GaussianState",
    "gaussian_autocorrelation",
    "barrier_overlap_paper",
    "plan_split_grid",
    "gaussian_on_grid",
    "split_operator_propagate",
    "bvs_transform",
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

    def potential(self, x):
        return 0.5 * self.sign * self.omega**2 * np.asarray(x) ** 2


@dataclass(frozen=True)
class GaussianState:
    """Centered Gaussian wavefunction exp(-omega0 x^2 / 2), in units m = hbar = 1."""

    omega0: float

    def __post_init__(self):
        if not self.omega0 > 0.0:
            raise DomainError("width parameter omega0 must be positive")


def _width_param(sys: QuadraticSystem, omega0: float, t) -> np.ndarray:
    """Complex width a(t) of the evolving centered Gaussian, a(0) = omega0.

    a obeys da/dt = -i (a^2 - sign * omega^2); the Moebius solution is
    written in overflow- and cancellation-free form.
    """
    t = np.asarray(t, dtype=float)
    w = sys.omega
    u0 = omega0 / w
    if sys.sign > 0:
        k = (u0 - 1.0) / (u0 + 1.0)
        z = k * np.exp(-2j * w * t)
        u = (1.0 + z) / (1.0 - z)
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

        |overlap|^2 = 2 sqrt(a0 Re a) / |a0 + a|.

    Periodic with period pi/omega for the oscillator (identically 1 when
    omega0 = omega, the stationary ray); decays like exp(-omega t / 2) for
    the barrier.
    """
    a = _width_param(sys, g.omega0, t)
    out = np.sqrt(2.0 * np.sqrt(g.omega0 * a.real) / np.abs(g.omega0 + a))
    return float(out) if out.ndim == 0 else out


def barrier_overlap_paper(omega0: float, omega: float, t):
    """The quoted closed form (cosh^2 wt + (w/w0 - w0/w)^2 sinh^2 wt)^(-1/4).

    Reduces to (cosh wt)^(-1/2) at omega0 = omega.  For omega0 != omega the
    independent Gaussian dynamics match this form only with the cross
    coefficient halved; the discrepancy is exercised by a dedicated
    diagnostic test rather than reconciled here.
    """
    if omega0 <= 0.0 or omega <= 0.0:
        raise DomainError("frequencies must be positive")
    t = np.asarray(t, dtype=float)
    chi = omega / omega0 - omega0 / omega
    c = np.cosh(omega * t)
    s = np.sinh(omega * t)
    out = (c * c + chi * chi * s * s) ** -0.25
    return float(out) if out.ndim == 0 else out


def plan_split_grid(sys: QuadraticSystem, g: GaussianState, duration: float) -> GridBasis1D:
    """Size a grid that holds the state over the run.

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


def gaussian_on_grid(g: GaussianState, grid: GridBasis1D) -> ProjectiveState:
    """Sample the Gaussian wavefunction on the grid centers."""
    x = grid.centers()
    return ProjectiveState(np.exp(-0.5 * g.omega0 * x**2), grid)


def split_operator_propagate(
    psi: ProjectiveState, sys: QuadraticSystem, dt: float, steps: int
) -> ProjectiveState:
    """Symmetric kinetic/potential splitting on a uniform grid.

    Half potential phase, full kinetic phase in Fourier space, half
    potential phase per step; unitary up to rounding, so the norm is
    preserved to ~1e-14 per step.  Requires dt * omega <= 0.01.  After the
    run, more than 1e-8 of the probability mass in the outer 10% of the
    grid raises DomainOverflowError (the box was too small and overlaps are
    untrustworthy).
    """
    grid = psi.basis
    if not isinstance(grid, GridBasis1D):
        raise DomainError("split-operator propagation needs a 1D grid state")
    if steps < 0:
        raise DomainError("step count must be non-negative")
    if dt * sys.omega > 0.01 + 1e-12:
        raise DomainError("dt * omega must not exceed 0.01")
    x = grid.centers()
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.cell_width)
    half_v = np.exp(-0.5j * dt * sys.potential(x))
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
        raise DomainOverflowError(
            f"{outer:.2e} of the mass sits in the outer 10% of the grid; enlarge the domain"
        )
    return out


def bvs_transform(N: int) -> np.ndarray:
    """Position-to-momentum transform on the half-integer grid q_j = (j+1/2)/N.

    (G_N)_{kj} = N^(-1/2) exp(-2 pi i (k+1/2)(j+1/2) / N) - the discrete
    Fourier transform with antiperiodic boundary conditions.  Unitary.
    """
    if N < 1:
        raise DomainError("dimension must be positive")
    j = np.arange(N) + 0.5
    return np.exp(-2j * np.pi * np.outer(j, j) / N) / np.sqrt(N)


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
