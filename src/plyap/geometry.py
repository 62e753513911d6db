"""Ray-space states and the distance/divergence primitives.

States are finite amplitude vectors over a declared basis, understood as
representatives of rays: every distance here is invariant under
multiplication by a nonzero complex scalar.  The geodesic distance between
rays is

    d_P(a, b) = 2 arccos |<a/||a||, b/||b||>|,

bounded by pi.  The divergence transform d / (pi - d) maps it back to an
unbounded quantity whose growth rate carries the sensitivity exponent; a
log-domain path is provided because the divergence grows like the inverse
overlap and overlaps underflow long before exponents stop being finite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatchError,
    DomainError,
    InvalidStateError,
    SaturationError,
)

__all__ = [
    "DiscreteBasis",
    "GridBasis1D",
    "GridBasis2D",
    "ProjectiveState",
    "overlap_magnitude",
    "fubini_study_distance",
    "bounded_euclidean_distance",
    "classical_divergence",
    "log_projective_divergence",
    "log_abs_exp_diff",
    "hilbert_distance",
]


@dataclass(frozen=True)
class DiscreteBasis:
    """N-dimensional basis with unit integration weight per component."""

    n: int

    @property
    def shape(self):
        return (self.n,)

    @property
    def cell_weight(self) -> float:
        return 1.0


@dataclass(frozen=True)
class GridBasis1D:
    """Uniform 1D grid of n cells over [x_lo, x_hi); weight = cell width."""

    n: int
    x_lo: float = 0.0
    x_hi: float = 1.0

    def __post_init__(self):
        if self.n <= 0 or not self.x_hi > self.x_lo:
            raise DomainError("grid needs n > 0 and x_hi > x_lo")

    @property
    def shape(self):
        return (self.n,)

    @property
    def cell_width(self) -> float:
        return (self.x_hi - self.x_lo) / self.n

    @property
    def cell_weight(self) -> float:
        return self.cell_width

    def centers(self) -> np.ndarray:
        return self.x_lo + (np.arange(self.n) + 0.5) * self.cell_width


@dataclass(frozen=True)
class GridBasis2D:
    """Uniform nx-by-ny grid on the unit square; arrays are indexed [ix, iy]."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx <= 0 or self.ny <= 0:
            raise DomainError("grid needs positive cell counts")

    @property
    def shape(self):
        return (self.nx, self.ny)

    @property
    def cell_weight(self) -> float:
        return 1.0 / (self.nx * self.ny)


Basis = DiscreteBasis | GridBasis1D | GridBasis2D


@dataclass(frozen=True, eq=False)
class ProjectiveState:
    """Representative amplitude vector of a ray over a declared basis.

    Amplitudes need not be normalized; normalization happens inside the
    distance operations.  Immutable by convention: operations return new
    states and never write into ``amplitudes``.
    """

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != self.basis.shape:
            raise InvalidStateError(
                f"amplitude shape {amp.shape} does not match basis {self.basis.shape}"
            )
        if not np.all(np.isfinite(amp.view(np.float64))):
            raise InvalidStateError("amplitudes must be finite")
        n2 = self.norm_squared()
        if not (np.isfinite(n2) and n2 > 0.0):
            raise InvalidStateError("state must have strictly positive finite norm")

    @property
    def weight(self) -> float:
        """Per-cell integration weight of the basis."""
        return self.basis.cell_weight

    def norm_squared(self) -> float:
        a = self.amplitudes.ravel()
        return float(np.vdot(a, a).real * self.weight)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))


def _require_same_basis(a: ProjectiveState, b: ProjectiveState):
    if a.basis != b.basis:
        raise BasisMismatchError(f"bases differ: {a.basis!r} vs {b.basis!r}")


def overlap_magnitude(a: ProjectiveState, b: ProjectiveState) -> float:
    """|<a, b>| / (||a|| ||b||), clamped to [0, 1].

    The clamp absorbs rounding at the endpoints so arccos never sees 1 + eps.
    """
    _require_same_basis(a, b)
    inner = np.vdot(a.amplitudes.ravel(), b.amplitudes.ravel()) * a.weight
    return float(min(1.0, abs(inner) / (a.norm() * b.norm())))


def fubini_study_distance(a: ProjectiveState, b: ProjectiveState) -> float:
    """Geodesic distance 2 arccos |<a, b>| between the rays of a and b, in [0, pi]."""
    return 2.0 * float(np.arccos(overlap_magnitude(a, b)))


def bounded_euclidean_distance(d) -> float:
    """Map an unbounded distance d >= 0 to pi*d/(1+d) in [0, pi).

    Monotone, 0 iff d == 0, topology-preserving.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0) or not np.all(np.isfinite(d)):
        raise DomainError("distance must be finite and non-negative")
    out = np.pi * d / (1.0 + d)
    return float(out) if out.ndim == 0 else out


def classical_divergence(d_b) -> float:
    """Invert the bounding: d_b / (pi - d_b) for d_b in [0, pi).

    Composed with bounded_euclidean_distance this recovers the original
    distance exactly: cd(bd(d)) = d.
    """
    d_b = np.asarray(d_b, dtype=float)
    if np.any(d_b < 0.0):
        raise DomainError("bounded distance must be non-negative")
    if np.any(d_b >= np.pi):
        raise SaturationError("bounded distance reached pi; divergence undefined")
    out = d_b / (np.pi - d_b)
    return float(out) if out.ndim == 0 else out


_SMALL_OVERLAP = 1e-8


def log_projective_divergence(log_overlap):
    """ln of the divergence of d_P = 2 arccos(v), taking ln v, without forming v's inverse.

    Uses pi - 2 arccos(v) = 2 arcsin(v), so the divergence is
    arccos(v)/arcsin(v); for v << 1 a series in v keeps full relative
    accuracy even when the divergence itself would overflow.
    Returns -inf at v = 1 (coincident rays).
    """
    lv = np.asarray(log_overlap, dtype=float)
    if np.any(lv > 1e-12):
        raise DomainError("log overlap must be <= 0")
    lv = np.minimum(lv, 0.0)
    v = np.exp(lv)
    out = np.empty_like(lv)
    big = v > _SMALL_OVERLAP
    with np.errstate(divide="ignore"):
        out[big] = np.log(np.arccos(v[big])) - np.log(np.arcsin(v[big]))
    small = ~big
    vs = v[small]
    # arcsin(v) = v (1 + v^2/6 + ...), arccos(v) = pi/2 - arcsin(v)
    out[small] = (
        np.log(np.pi / 2.0) + np.log1p(-2.0 * vs / np.pi) - (lv[small] + vs * vs / 6.0)
    )
    return float(out) if out.ndim == 0 else out


def log_abs_exp_diff(a, b):
    """ln|e^a - e^b| computed stably; -inf when a == b.

    Either argument may be -inf (a vanishing divergence), in which case the
    other argument is returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.maximum(a, b)
        out = m + np.log1p(-np.exp(-np.abs(a - b)))
        out = np.where(np.isneginf(a), b, out)
        out = np.where(np.isneginf(b), a, out)
        out = np.where(np.isneginf(a) & np.isneginf(b), -np.inf, out)
    return float(out) if out.ndim == 0 else out


def hilbert_distance(a: ProjectiveState, b: ProjectiveState) -> float:
    """Weighted 2-norm ||a - b|| of the raw amplitude vectors (no ray normalization).

    Exists to exhibit the flat-metric invariance under unitary evolution:
    unitaries preserve this distance for every pair, which is exactly why it
    carries no sensitivity information.
    """
    _require_same_basis(a, b)
    diff = a.amplitudes.ravel() - b.amplitudes.ravel()
    return float(np.sqrt(np.vdot(diff, diff).real * a.weight))
