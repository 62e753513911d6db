"""Grid densities, the built-in classical maps, and their exact evolution.

Densities are piecewise constant on uniform grids and evolve by the exact
pushforward: every output cell receives the average of the input density
over the preimage of that cell.  For the piecewise-affine maps here the
preimages are finite unions of rectangles, so the averages are exact and
total mass is conserved to rounding.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DomainOverflowError, InvalidStateError
from .geometry import GridBasis1D, GridBasis2D, ProjectiveState
from .series import series_from_log_overlaps

__all__ = [
    "GridDensity",
    "MapDescriptor",
    "linear_map",
    "r_adic_map",
    "baker_map",
    "rotation_map",
    "apply_map",
    "square_density",
    "sqrt_embed",
    "transfer_step",
    "koopman_step",
    "evolve_linear_analytic",
]


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Non-negative piecewise-constant probability density on a uniform grid."""

    values: np.ndarray
    geometry: GridBasis1D | GridBasis2D

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.geometry.shape:
            raise InvalidStateError(
                f"value shape {v.shape} does not match geometry {self.geometry.shape}"
            )
        # two reductions, no boolean temporaries; NaN fails both comparisons
        if not (v.min() >= 0.0 and v.max() < np.inf):
            raise InvalidStateError("density values must be finite and non-negative")
        object.__setattr__(self, "values", v)
        if not self.mass > 0.0:
            raise InvalidStateError("density must have positive mass")

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.geometry.cell_weight)


@dataclass(frozen=True)
class MapDescriptor:
    """One of the built-in maps: linear(r), r_adic(r), baker, rotation(c)."""

    kind: str
    r: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.r is None or not self.r > 1.0:
                raise DomainError("linear map needs r > 1")
        elif self.kind == "r_adic":
            if self.r is None or self.r < 2 or self.r != int(self.r):
                raise DomainError("r-adic map needs integer r >= 2")
        elif self.kind == "rotation":
            if self.c is None or not 0.0 <= self.c < 1.0:
                raise DomainError("rotation needs shift c in [0, 1)")
        elif self.kind != "baker":
            raise DomainError(f"unknown map kind {self.kind!r}")


def linear_map(r: float) -> MapDescriptor:
    return MapDescriptor("linear", r=float(r))


def r_adic_map(r: int) -> MapDescriptor:
    return MapDescriptor("r_adic", r=float(r))


def baker_map() -> MapDescriptor:
    return MapDescriptor("baker")


def rotation_map(c: float) -> MapDescriptor:
    return MapDescriptor("rotation", c=float(c))


def apply_map(m: MapDescriptor, x: np.ndarray) -> np.ndarray:
    """Pointwise application of a map to a phase-space point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if m.kind == "linear":
        return m.r * x
    if m.kind == "r_adic":
        return np.mod(m.r * x, 1.0)
    if m.kind == "rotation":
        return np.mod(x + m.c, 1.0)
    # baker: stretch x by 2, cut, and stack in y
    if x.shape != (2,):
        raise DomainError("baker map acts on 2D points")
    two_x = 2.0 * x[0]
    cut = np.floor(two_x)
    return np.array([two_x - cut, (x[1] + cut) / 2.0])


def square_density(b: float, grid: GridBasis1D) -> GridDensity:
    """Indicator density of [0, b), unit mass, on the given grid.

    b is snapped to a whole number of cells (with a warning when that moves
    it), since the representation is piecewise constant.
    """
    if grid.x_lo != 0.0:
        raise DomainError("square density expects a grid starting at 0")
    if not 0.0 < b <= grid.x_hi:
        raise DomainError(f"square width must lie in (0, {grid.x_hi}]")
    cells = b / grid.cell_width
    k = int(round(cells))
    if abs(cells - k) > 1e-9:
        warnings.warn(
            f"square width {b} is not a whole number of cells; snapping to {k or 1}",
            stacklevel=2,
        )
    k = max(1, k)
    values = np.zeros(grid.n)
    values[:k] = 1.0 / (k * grid.cell_width)
    return GridDensity(values, grid)


def sqrt_embed(rho: GridDensity) -> ProjectiveState:
    """Embed a density into real Hilbert space by the cell-wise square root.

    Overlaps of two embeddings equal the integral of sqrt(rho1 * rho2) under
    the grid quadrature.
    """
    return ProjectiveState(np.sqrt(rho.values), rho.geometry)


def _transfer_linear(values: np.ndarray, grid: GridBasis1D, r: float) -> np.ndarray:
    # rho'(x) = rho(x/r)/r; cell averages via the exact piecewise-linear
    # cumulative integral (np.interp on the cumulative is exact for
    # piecewise-constant densities).
    if grid.x_lo != 0.0:
        raise DomainError("linear transfer expects a grid starting at 0")
    dx = grid.cell_width
    edges = np.arange(grid.n + 1) * dx
    cum = np.concatenate([[0.0], np.cumsum(values) * dx])
    pulled = np.interp(edges / r, edges, cum)
    out = np.diff(pulled) / dx
    lost = (cum[-1] - pulled[-1]) / cum[-1]
    if lost > 1e-12:
        raise DomainOverflowError(
            f"linear map pushed {lost:.3e} of the mass beyond x_hi; enlarge the domain"
        )
    return np.maximum(out, 0.0)


def _transfer_r_adic(values: np.ndarray, r: int) -> np.ndarray:
    # Preimage of output cell i under branch j is a single input cell:
    # out[i] = mean_j values[(i + j*n) // r], exact for integer r.
    n = values.size
    i = np.arange(n)
    acc = np.zeros(n)
    for j in range(r):
        acc += values[(i + j * n) // r]
    return acc / r


def _transfer_rotation(values: np.ndarray, grid: GridBasis1D, c: float) -> np.ndarray:
    shift = c * grid.n
    q = int(np.floor(shift))
    f = shift - q
    i = np.arange(grid.n)
    lo = values[(i - q - 1) % grid.n]
    hi = values[(i - q) % grid.n]
    return f * lo + (1.0 - f) * hi


def _baker_kernel(f: np.ndarray) -> np.ndarray:
    """Cell-averaged exact pushforward of the baker map, arrays [ix, iy].

    Output cell (i, j) averages the input over its preimage rectangle:
    half an x-cell (where the input is constant anyway) by two stacked
    y-cells.  Output rows 2k and 2k+1 share input row k (left half of y)
    and row h + k (right half): the y-pair sums are written into the odd
    rows, then halved into the even rows and in place.  A ufunc writing
    one interleaved row view from the other makes no temporary copy (a
    slice assignment would), so only the output is allocated.
    """
    n = f.shape[0]
    h = n // 2
    out = np.empty(f.shape, dtype=f.dtype)
    rows = out.reshape(h, 2, n)
    odd = rows[:, 1]
    np.add(f[:h, 0::2], f[:h, 1::2], out=odd[:, :h])
    np.add(f[h:, 0::2], f[h:, 1::2], out=odd[:, h:])
    np.multiply(odd, 0.5, out=rows[:, 0])
    odd *= 0.5
    return out


def transfer_step(rho: GridDensity, m: MapDescriptor) -> GridDensity:
    """One exact Frobenius-Perron step of a built-in map.

    Output cell values are the exact averages of the input density over the
    preimages of the cells; mass is conserved to rounding and positivity is
    preserved.
    """
    geom = rho.geometry
    if m.kind == "baker":
        if not isinstance(geom, GridBasis2D) or geom.nx != geom.ny or geom.nx % 2:
            raise DomainError("baker transfer needs a square 2D grid with even side")
        return GridDensity(_baker_kernel(rho.values), geom)
    if not isinstance(geom, GridBasis1D):
        raise DomainError(f"{m.kind} transfer needs a 1D grid")
    if m.kind == "linear":
        return GridDensity(_transfer_linear(rho.values, geom, m.r), geom)
    if (geom.x_lo, geom.x_hi) != (0.0, 1.0):
        raise DomainError(f"{m.kind} transfer is defined on the unit interval")
    if m.kind == "r_adic":
        return GridDensity(_transfer_r_adic(rho.values, int(m.r)), geom)
    return GridDensity(_transfer_rotation(rho.values, geom, m.c), geom)


def koopman_step(state: ProjectiveState, m: MapDescriptor) -> ProjectiveState:
    """Compose a complex amplitude field with the inverse baker map.

    Same cell-intersection bookkeeping as transfer_step, applied to
    amplitudes.  For the measure-preserving baker this is an isometry up to
    the grid's averaging error (exact when the field is constant on the
    image partition).
    """
    if m.kind != "baker":
        raise DomainError(f"koopman step supports the baker map only, not {m.kind!r}")
    geom = state.basis
    if not isinstance(geom, GridBasis2D) or geom.nx != geom.ny or geom.nx % 2:
        raise DomainError("koopman step needs a square 2D grid with even side")
    return ProjectiveState(_baker_kernel(state.amplitudes), geom)


def evolve_linear_analytic(b: float, r: float, n: int, theta: float = 0.0):
    """Closed-form distance/divergence series for the stretching map x -> r x.

    The square density of width b evolves to width b r^k, so the overlap
    with the initial embedding is r^(-k/2) regardless of b; computed in the
    log domain so arbitrarily long series stay exact.

    Returns (DistanceSeries, DivergenceSeries) for k = 0..n.
    """
    if not b > 0.0:
        raise DomainError("square width must be positive")
    if not r > 1.0:
        raise DomainError("linear map needs r > 1")
    if n < 0:
        raise DomainError("step count must be non-negative")
    k = np.arange(n + 1, dtype=float)
    log_overlaps = -0.5 * k * np.log(r)
    return series_from_log_overlaps(k, log_overlaps, theta=theta)

