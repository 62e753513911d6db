"""Grid densities, the built-in classical maps, and their exact evolution.

Four maps are declared here: linear(r), r_adic(r), the baker and
rotation(c).  Each acts on points (apply_map, which the trajectory
exponents use).  The baker and the r-adic map also evolve densities:
piecewise constant on uniform grids, by the exact pushforward, where every
output cell receives the average of the input density over the preimage
of that cell.  Those preimages are finite unions of rectangles, so the
averages are exact and total mass is conserved to rounding.  A density may
hold one value per block of equal cells (see GridDensity); the baker
transfer keeps it on blocks, so a density that is constant on dyadic
rectangles costs as many operations per step as it has blocks, not cells.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, DomainError, InvalidStateError
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
    "density_overlap",
    "transfer_step",
    "evolve_linear_analytic",
]


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Non-negative piecewise-constant probability density on a uniform grid.

    ``values`` holds one value per block of equal cells: its shape divides
    ``geometry.shape`` in each axis, and ``block`` = geometry.shape //
    values.shape cells share each value.  A value per cell is the block
    (1,) or (1, 1) case.  ``values`` is a read-only view, which keeps the
    mass computed once at construction valid; a float64 array is viewed,
    not copied.
    """

    values: np.ndarray
    geometry: GridBasis1D | GridBasis2D

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        shape = self.geometry.shape
        if v.ndim != len(shape) or any(k == 0 or s % k for s, k in zip(shape, v.shape)):
            raise InvalidStateError(
                f"value shape {v.shape} does not divide geometry {shape}"
            )
        v = v.view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        # two reductions over the blocks, no boolean temporaries: NaN fails the
        # minimum, and with every value >= 0 an infinite value or an overflowing
        # sum makes the mass inf
        block_weight = self.geometry.cell_weight * (math.prod(shape) // v.size)
        with np.errstate(over="ignore"):
            mass = float(v.sum() * block_weight)
        if not (v.min() >= 0.0 and mass < np.inf):
            raise InvalidStateError(
                "density values must be finite and non-negative, with finite mass"
            )
        if not mass > 0.0:
            raise InvalidStateError("density must have positive mass")
        object.__setattr__(self, "_mass", mass)

    @property
    def mass(self) -> float:
        return self._mass

    @property
    def block(self) -> tuple:
        """Cells per value along each axis."""
        return tuple(s // k for s, k in zip(self.geometry.shape, self.values.shape))


def _cells(blocks: np.ndarray, shape: tuple) -> np.ndarray:
    """Values on equal blocks spread to one value per cell of shape.

    Returns blocks itself when it already holds one value per cell, and
    otherwise writes the cell array once.
    """
    if blocks.shape == shape:
        return blocks
    spread = [k for b, s in zip(blocks.shape, shape) for k in (b, s // b)]
    pinned = blocks.reshape([k for b in blocks.shape for k in (b, 1)])
    return np.broadcast_to(pinned, spread).reshape(shape)


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
    the grid quadrature.  The root is taken on the blocks, and the result
    is then written once with one amplitude per cell.
    """
    return ProjectiveState(_cells(np.sqrt(rho.values), rho.geometry.shape), rho.geometry)


def density_overlap(reference: ProjectiveState):
    """The overlap of a density's embedding with a fixed embedding, as a function.

    Returns rho -> |<sqrt_embed(rho), reference>| / (||sqrt_embed(rho)|| ||reference||),
    clamped to 1, for densities on the reference's grid.  Only the rows
    (first-axis indices) from the first to the last that hold the reference's
    support enter the sum, and ||sqrt_embed(rho)||^2 is rho's mass, so no
    embedding of rho is built.  Row i of a block density is its value row
    i // block[0], spread along the other axis.
    """
    ref = reference.amplitudes
    nonzero = np.flatnonzero(ref.reshape(ref.shape[0], -1).any(axis=1))
    rows = np.arange(nonzero[0], nonzero[-1] + 1)
    ref_rows = ref[rows].ravel()  # a copy: the full reference need not stay alive
    basis, weight, ref_norm = reference.basis, reference.weight, reference.norm()
    support_shape = (rows.size,) + basis.shape[1:]

    def overlap(rho: GridDensity) -> float:
        if rho.geometry != basis:
            raise BasisMismatchError(f"bases differ: {rho.geometry!r} vs {basis!r}")
        root = np.sqrt(rho.values[rows // rho.block[0]])
        inner = np.dot(_cells(root, support_shape).ravel(), ref_rows) * weight
        return float(min(1.0, inner / (np.sqrt(rho.mass) * ref_norm)))

    return overlap


def _transfer_r_adic(values: np.ndarray, r: int) -> np.ndarray:
    # Preimage of output cell i under branch j is a single input cell:
    # out[i] = mean_j values[(i + j*n) // r], exact for integer r.
    n = values.size
    i = np.arange(n)
    acc = np.zeros(n)
    for j in range(r):
        acc += values[(i + j * n) // r]
    return acc / r


def _baker_kernel(c: np.ndarray, n: int) -> np.ndarray:
    """Cell-averaged exact pushforward of the baker map on an n x n grid;
    takes and returns values per block, arrays [ix, iy].

    Output cell (i, j) averages the input over its preimage rectangle: half
    an x-cell (where the input is constant anyway) by the y-cells 2j' and
    2j' + 1 of input row i // 2 (j' = j < n/2) or n/2 + i // 2 (j' = j - n/2).
    On blocks of bx x by cells, the left (x < 1/2) and right block rows
    are set side by side in y, as blocks of 2bx x by/2:
    - by even: each y-pair lies in one block, so the step only rearranges;
    - by 1: the pairs are averaged as (a + b) * 0.5, written straight into
      the output, which is all the step allocates on a full grid;
    - by odd > 1, or an odd count of block rows: the blocks are split first,
      by into single cells and bx in two (a single block row is set beside
      itself).
    Each cell comes out bit for bit as the per-cell formula gives it.
    """
    by = n // c.shape[1]
    if by % 2 and by > 1:
        c, by = np.repeat(c, by, axis=1), 1
    if c.shape[0] % 2:
        c = np.repeat(c, 2, axis=0)
    h = c.shape[0] // 2
    if by > 1:
        return np.concatenate([c[:h], c[h:]], axis=1)
    w = c.shape[1] // 2
    out = np.empty((h, 2 * w), dtype=c.dtype)
    np.add(c[:h, 0::2], c[:h, 1::2], out=out[:, :w])
    np.add(c[h:, 0::2], c[h:, 1::2], out=out[:, w:])
    out *= 0.5
    return out


def transfer_step(rho: GridDensity, m: MapDescriptor) -> GridDensity:
    """One exact Frobenius-Perron step of the baker or an r-adic map.

    Output cell values are the exact averages of the input density over the
    preimages of the cells; mass is conserved to rounding and positivity is
    preserved.  The baker step keeps the density on blocks (an n x 1 slab
    stays at n values); the r-adic step returns one value per cell.  Other
    maps have no transfer here and raise DomainError.
    """
    geom = rho.geometry
    if m.kind == "baker":
        if not isinstance(geom, GridBasis2D) or geom.nx != geom.ny or geom.nx % 2:
            raise DomainError("baker transfer needs a square 2D grid with even side")
        return GridDensity(_baker_kernel(rho.values, geom.nx), geom)
    if m.kind != "r_adic":
        raise DomainError(f"transfer_step evolves the baker and r-adic maps, not {m.kind!r}")
    if not isinstance(geom, GridBasis1D):
        raise DomainError(f"{m.kind} transfer needs a 1D grid")
    if (geom.x_lo, geom.x_hi) != (0.0, 1.0):
        raise DomainError(f"{m.kind} transfer is defined on the unit interval")
    return GridDensity(_transfer_r_adic(_cells(rho.values, geom.shape), int(m.r)), geom)


def evolve_linear_analytic(r: float, n: int, theta: float = 0.0):
    """Closed-form DivergenceSeries of the stretching map x -> r x.

    A square density of any width b evolves to width b r^k, so the overlap
    with the initial embedding is r^(-k/2); computed in the log domain so
    arbitrarily long series stay exact.

    Returns the series for k = 0..n.
    """
    if not r > 1.0:
        raise DomainError("linear map needs r > 1")
    if n < 0:
        raise DomainError("step count must be non-negative")
    k = np.arange(n + 1, dtype=float)
    log_overlaps = -0.5 * k * np.log(r)
    return series_from_log_overlaps(k, log_overlaps, theta=theta)

