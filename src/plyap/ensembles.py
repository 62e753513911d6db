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
rectangles costs as many operations per step as it has blocks, not cells
(blocks stay blocks because the transfer is the exact cell-averaged
Frobenius-Perron operator; Lasota & Mackey, Chaos, Fractals, and Noise,
1994).  density_overlap reads such a density on its blocks, against a
reference embedded on any grid that the density's grid refines, so the
overlap writes no cell array either.
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


def _refines(grid, basis) -> bool:
    """Whether grid is basis cut finer: same type and domain, each count a multiple."""
    if type(grid) is not type(basis):
        return False
    if isinstance(grid, GridBasis1D) and (grid.x_lo, grid.x_hi) != (basis.x_lo, basis.x_hi):
        return False
    return all(n % m == 0 for n, m in zip(grid.shape, basis.shape))


def _keep(a: np.ndarray, axis: int) -> np.ndarray:
    return a


def _sums(starts: np.ndarray):
    """Sums along an axis over the runs of entries that begin at starts."""
    return lambda a, axis: np.add.reduceat(a, starts, axis=axis)


def _axis_groups(n: int, m: int, k: int, lo: int, hi: int):
    """How one axis of n grid cells pairs a reference of m cells with a
    density of k blocks, when the reference's support spans its cells [lo, hi).

    Returns (blocks, density_op, reference_op, cells): the slice of density
    blocks that meets the support, the maps that bring the density's and the
    reference's part to one entry per group, and the grid cells per entry
    before that.  A group is a cell of the reference or a block of the
    density, whichever is coarser; where neither count divides the other,
    both are spread to the grid's cells.
    """
    if k % m == 0:  # a reference cell holds s blocks: sum them
        s = k // m
        sum_blocks = _keep if s == 1 else _sums(np.arange(hi - lo) * s)
        return slice(lo * s, hi * s), sum_blocks, _keep, n // k
    if m % k == 0:  # a block holds s reference cells: sum them
        s = m // k
        blocks = slice(lo // s, (hi - 1) // s + 1)
        starts = np.maximum(np.arange(blocks.start, blocks.stop) * s - lo, 0)
        return blocks, _keep, _sums(starts), n // m
    f, b = n // m, n // k
    first = lo * f // b
    cut = slice(lo * f - first * b, hi * f - first * b)
    return (
        slice(first, (hi * f - 1) // b + 1),
        lambda a, axis: np.repeat(a, b, axis=axis)[(slice(None),) * axis + (cut,)],
        lambda a, axis: np.repeat(a, f, axis=axis),
        1,
    )


def density_overlap(reference: ProjectiveState):
    """The overlap of a density's embedding with a fixed embedding, as a function.

    Returns rho -> |<sqrt_embed(rho), reference>| / (||sqrt_embed(rho)|| ||reference||),
    clamped to 1, for densities on any grid that refines the reference's:
    the same grid type and domain, each axis count a multiple of the
    reference's.  No embedding of rho is built: ||sqrt_embed(rho)||^2 is
    rho's mass, and the inner product is summed over groups.  Along each
    axis a group is a cell of the reference or a block of rho, whichever is
    coarser, so inside a group each factor is constant along the axes where
    it is the coarser one, and its sum over the group is the product of
    per-axis sums: rho's blocks summed per reference cell, the reference's
    cells summed per block.  Along an axis where neither count divides the
    other, both are spread to the grid's cells.  Only the groups that meet
    the box bounding the reference's support, found once, enter the sum, so
    a sample costs O(support + blocks); with one value per cell on the
    reference's grid it is one dot product over the support.
    """
    ref = reference.amplitudes
    box = []
    for axis in range(ref.ndim):
        held = np.flatnonzero(ref.any(axis=tuple(a for a in range(ref.ndim) if a != axis)))
        box.append((int(held[0]), int(held[-1]) + 1))
    # a copy: the full reference need not stay alive
    ref_box = ref[tuple(slice(lo, hi) for lo, hi in box)].copy()
    basis, ref_norm = reference.basis, reference.norm()

    def overlap(rho: GridDensity) -> float:
        grid = rho.geometry
        if not _refines(grid, basis):
            raise BasisMismatchError(f"{grid!r} does not refine the reference's {basis!r}")
        axes = [
            _axis_groups(n, m, k, lo, hi)
            for n, m, k, (lo, hi) in zip(grid.shape, basis.shape, rho.values.shape, box)
        ]
        root, part = np.sqrt(rho.values[tuple(a[0] for a in axes)]), ref_box
        for axis, (_, density_op, reference_op, _) in enumerate(axes):
            root, part = density_op(root, axis), reference_op(part, axis)
        weight = grid.cell_weight * math.prod(a[3] for a in axes)
        inner = np.dot(root.ravel(), part.ravel()) * weight
        return float(min(1.0, inner / (np.sqrt(rho.mass) * ref_norm)))

    return overlap


def _transfer_r_adic(values: np.ndarray, r: int) -> np.ndarray:
    # Preimage of output cell i under branch j is a single input cell:
    # out[i] = mean_j values[(i + j*n) // r], exact for integer r.  When r
    # divides n that cell is j*m + i // r, m = n / r: a reshape, summed over
    # j in the same order as the gather below.
    n = values.size
    if n % r == 0:
        return np.repeat(values.reshape(r, n // r).sum(axis=0) / r, r)
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

