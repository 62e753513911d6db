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

from .errors import BasisMismatchError, DomainError, InvalidStateError

__all__ = [
    "DiscreteBasis",
    "GridBasis1D",
    "GridBasis2D",
    "ProjectiveState",
    "overlap_magnitude",
    "log_projective_divergence",
    "log_abs_exp_diff",
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
    distance operations.  Complex amplitudes are held as complex128 and all
    others as float64, so a real field (such as a sqrt-density) stays real.
    ``amplitudes`` is a read-only view, which keeps the norm computed once
    at construction valid; operations return new states.  An array that
    already has the held dtype is viewed, not copied, so do not write into
    it after making a state from it.
    """

    amplitudes: np.ndarray
    basis: Basis

    def __post_init__(self):
        amp = np.asarray(self.amplitudes)
        amp = amp.astype(np.complex128 if np.iscomplexobj(amp) else np.float64, copy=False)
        if amp.shape != self.basis.shape:
            raise InvalidStateError(
                f"amplitude shape {amp.shape} does not match basis {self.basis.shape}"
            )
        amp = amp.view()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        a = amp.ravel()
        # every term of vdot(a, a) is non-negative, so any NaN or inf amplitude
        # makes the sum non-finite: one pass checks finiteness and computes n^2
        n2 = float(np.vdot(a, a).real * self.weight)
        if not (np.isfinite(n2) and n2 > 0.0):
            if not np.all(np.isfinite(a)):
                raise InvalidStateError("amplitudes must be finite")
            raise InvalidStateError("state must have strictly positive finite norm")
        object.__setattr__(self, "_norm_squared", n2)

    @property
    def weight(self) -> float:
        """Per-cell integration weight of the basis."""
        return self.basis.cell_weight

    def norm_squared(self) -> float:
        return self._norm_squared

    def norm(self) -> float:
        return float(np.sqrt(self._norm_squared))


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

