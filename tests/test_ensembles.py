import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plyap import (
    BasisMismatchError,
    DomainError,
    GridBasis1D,
    GridBasis2D,
    GridDensity,
    InvalidStateError,
    MapDescriptor,
    apply_map,
    baker_map,
    density_overlap,
    evolve_linear_analytic,
    linear_map,
    overlap_magnitude,
    r_adic_map,
    rotation_map,
    sqrt_embed,
    square_density,
    transfer_step,
)
from plyap.ensembles import _baker_kernel, _transfer_r_adic

from oracles import gather_baker_kernel, gather_r_adic, linear_transfer, repeat_blocks


def classical_baker(points):
    """Pointwise baker map for the Monte Carlo oracle."""
    x, y = points[:, 0], points[:, 1]
    cut = np.floor(2 * x)
    return np.column_stack([2 * x - cut, (y + cut) / 2])


class TestMapDescriptors:
    def test_linear_needs_r_above_one(self):
        with pytest.raises(DomainError):
            linear_map(1.0)

    def test_r_adic_needs_integer_r(self):
        with pytest.raises(DomainError):
            r_adic_map(1)
        with pytest.raises(DomainError):
            MapDescriptor("r_adic", r=2.5)

    def test_rotation_shift_range(self):
        with pytest.raises(DomainError):
            rotation_map(1.0)

    def test_apply_baker_follows_orbit(self):
        x = np.array([0.2, 0.3])
        orbit = [(0.4, 0.15), (0.8, 0.075), (0.6, 0.5375), (0.2, 0.76875)]
        for expect in orbit:
            x = apply_map(baker_map(), x)
            assert x == pytest.approx(expect)


class TestSquareDensity:
    def test_full_domain_is_uniform(self):
        grid = GridBasis1D(32, 0.0, 1.0)
        rho = square_density(1.0, grid)
        assert np.allclose(rho.values, 1.0)
        assert rho.mass == pytest.approx(1.0)

    def test_single_cell(self):
        grid = GridBasis1D(16, 0.0, 1.0)
        rho = square_density(1.0 / 16.0, grid)
        assert rho.values[0] == pytest.approx(16.0)
        assert np.count_nonzero(rho.values) == 1

    def test_quarter_width_on_sixteen_cells(self):
        grid = GridBasis1D(16, 0.0, 1.0)
        rho = square_density(0.25, grid)
        assert np.allclose(rho.values[:4], 4.0)
        assert np.allclose(rho.values[4:], 0.0)

    def test_snap_warns(self):
        grid = GridBasis1D(10, 0.0, 1.0)
        with pytest.warns(UserWarning):
            square_density(0.33, grid)

    def test_negative_values_rejected(self):
        with pytest.raises(InvalidStateError):
            GridDensity(np.array([1.0, -0.5]), GridBasis1D(2, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidStateError, match="finite and non-negative"):
            GridDensity(np.array([1.0, bad]), GridBasis1D(2, 0.0, 1.0))

    def test_overflowing_mass_rejected(self):
        with pytest.raises(InvalidStateError, match="finite mass"):
            GridDensity(np.full(4, 1e308), GridBasis1D(4))

    def test_values_are_read_only(self):
        # the mass is computed once, at construction
        rho = GridDensity(np.ones(4), GridBasis1D(4))
        with pytest.raises(ValueError):
            rho.values[0] = 5.0

    @pytest.mark.parametrize(
        "shape, geom",
        [((3, 4), GridBasis2D(8, 8)), ((8, 0), GridBasis2D(8, 8)), ((8,), GridBasis2D(8, 8)),
         ((3,), GridBasis1D(8)), ((0,), GridBasis1D(8)), ((2, 2), GridBasis1D(4))],
    )
    def test_values_must_divide_the_grid(self, shape, geom):
        with pytest.raises(InvalidStateError, match="does not divide"):
            GridDensity(np.ones(shape), geom)

    @pytest.mark.parametrize("shape", [(1, 1), (96, 1), (1, 96), (8, 16), (32, 3), (3, 32)])
    def test_block_mass_matches_its_expansion(self, shape):
        rng = np.random.default_rng(sum(shape))
        geom = GridBasis2D(96, 96)
        values = rng.random(shape) * 7.0
        blocks = GridDensity(values, geom)
        full = GridDensity(repeat_blocks(values, geom.shape), geom)
        assert blocks.block == tuple(s // k for s, k in zip(geom.shape, shape))
        assert blocks.mass == pytest.approx(full.mass, rel=1e-15)

    def test_one_dimensional_blocks(self):
        rho = GridDensity(np.array([2.0, 0.0]), GridBasis1D(8))
        assert rho.block == (4,)
        assert rho.mass == 1.0
        out = transfer_step(rho, r_adic_map(2))
        assert np.array_equal(out.values, np.ones(8))


class TestSqrtEmbedding:
    def test_uniform_density_constant_amplitudes(self):
        grid = GridBasis1D(8, 0.0, 1.0)
        psi = sqrt_embed(square_density(1.0, grid))
        assert np.allclose(psi.amplitudes, 1.0)
        assert overlap_magnitude(psi, psi) == pytest.approx(1.0)

    def test_disjoint_supports_are_orthogonal(self):
        grid = GridBasis1D(8, 0.0, 1.0)
        a = np.zeros(8)
        a[:4] = 2.0
        b = np.zeros(8)
        b[4:] = 2.0
        pa = sqrt_embed(GridDensity(a, grid))
        pb = sqrt_embed(GridDensity(b, grid))
        assert overlap_magnitude(pa, pb) == 0.0

    def test_nested_squares_overlap(self):
        # widths b and r*b: integral of sqrt(rho1 rho2) = r^{-1/2}
        grid = GridBasis1D(64, 0.0, 1.0)
        for r in (2, 4):
            pa = sqrt_embed(square_density(0.125, grid))
            pb = sqrt_embed(square_density(0.125 * r, grid))
            assert overlap_magnitude(pa, pb) == pytest.approx(r**-0.5, abs=1e-14)

    def test_embedding_is_real_and_allocates_only_its_output(self):
        rho = GridDensity(np.ones((512, 512)), GridBasis2D(512, 512))
        sqrt_embed(rho)
        tracemalloc.start()
        try:
            psi = sqrt_embed(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert psi.amplitudes.dtype == np.float64
        # a complex copy of the square roots alone would add two real states
        assert peak < 1.25 * rho.values.nbytes

    @pytest.mark.parametrize("shape", [(64, 1), (1, 64), (16, 4)])
    def test_block_embedding_equals_the_embedded_cells(self, shape):
        rng = np.random.default_rng(3)
        geom = GridBasis2D(64, 64)
        values = rng.random(shape)
        psi = sqrt_embed(GridDensity(values, geom))
        assert psi.amplitudes.shape == geom.shape
        assert np.array_equal(psi.amplitudes, np.sqrt(repeat_blocks(values, geom.shape)))

    def test_block_embedding_allocates_only_its_output(self):
        rho = GridDensity(np.ones((512, 1)), GridBasis2D(512, 512))
        sqrt_embed(rho)
        tracemalloc.start()
        try:
            psi = sqrt_embed(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # expanding before the root would write the cells twice
        assert peak < 1.25 * psi.amplitudes.nbytes


class TestDensityOverlap:
    @pytest.mark.parametrize("shape", [(64,), (16, 16)])
    def test_equals_the_embedded_overlap(self, shape):
        rng = np.random.default_rng(7)
        grid = GridBasis1D(64) if len(shape) == 1 else GridBasis2D(*shape)
        ref_values = np.zeros(shape)
        ref_values[3:9] = rng.random(ref_values[3:9].shape)
        ref_values[5] = 0.0  # a gap inside the support
        ref = sqrt_embed(GridDensity(ref_values, grid))
        overlap = density_overlap(ref)
        for _ in range(5):
            rho = GridDensity(rng.random(shape) * rng.integers(0, 2, shape), grid)
            expect = overlap_magnitude(sqrt_embed(rho), ref)
            assert overlap(rho) == pytest.approx(expect, rel=1e-13)

    def test_self_overlap_is_one_and_disjoint_overlap_zero(self):
        grid = GridBasis1D(8)
        a = np.zeros(8)
        a[:3] = 1.0
        b = np.zeros(8)
        b[4:] = 2.0
        overlap = density_overlap(sqrt_embed(GridDensity(a, grid)))
        assert overlap(GridDensity(a, grid)) == pytest.approx(1.0, rel=1e-15)
        assert overlap(GridDensity(a, grid)) <= 1.0
        assert overlap(GridDensity(b, grid)) == 0.0

    @pytest.mark.parametrize("shape", [(64, 1), (8, 8), (1, 64), (32, 2), (16,)])
    def test_block_density_reads_as_its_cells(self, shape):
        rng = np.random.default_rng(11)
        grid = GridBasis1D(64) if len(shape) == 1 else GridBasis2D(64, 64)
        ref_values = np.zeros(grid.shape)
        ref_values[5:19] = rng.random(ref_values[5:19].shape)
        overlap = density_overlap(sqrt_embed(GridDensity(ref_values, grid)))
        values = rng.random(shape) + 0.1
        blocks = GridDensity(values, grid)
        cells = GridDensity(repeat_blocks(values, grid.shape), grid)
        assert overlap(blocks) == pytest.approx(overlap(cells), rel=1e-15)
        expect = overlap_magnitude(sqrt_embed(cells), sqrt_embed(GridDensity(ref_values, grid)))
        assert overlap(blocks) == pytest.approx(expect, rel=1e-13)

    def test_other_grid_rejected(self):
        # a grid that cuts the reference's finer is read; any other is refused
        overlap = density_overlap(sqrt_embed(square_density(0.5, GridBasis1D(8))))
        assert overlap(square_density(0.5, GridBasis1D(16))) == pytest.approx(1.0, rel=1e-15)
        for rho in (
            square_density(0.5, GridBasis1D(12)),  # 12 cells do not cut 8 finer
            GridDensity(np.ones(8), GridBasis1D(8, 0.0, 2.0)),  # another x-range
            GridDensity(np.ones((8, 8)), GridBasis2D(8, 8)),  # 2D against 1D
        ):
            with pytest.raises(BasisMismatchError, match="does not refine"):
                overlap(rho)


def _counts(n):
    return st.sampled_from([k for k in range(1, n + 1) if n % k == 0])


@st.composite
def _block_pairs(draw):
    """A block density and a reference on a grid the density's refines, with
    random zeros; counts 3 and 4 of 12 cells do not nest."""
    shape = draw(st.sampled_from([(12,), (24,), (12, 8), (6, 12)]))
    ref_shape = tuple(draw(_counts(n)) for n in shape)
    blocks = tuple(draw(_counts(n)) for n in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = rng.random(ref_shape) * (rng.random(ref_shape) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    values = rng.random(blocks) * (rng.random(blocks) < draw(st.sampled_from([0.5, 1.0])))
    ref.flat[rng.integers(ref.size)] = 1.0  # positive mass
    values.flat[rng.integers(values.size)] = 1.0
    return shape, ref, values


def _grid(shape):
    return GridBasis1D(*shape) if len(shape) == 1 else GridBasis2D(*shape)


class TestBlockOverlap:
    @settings(max_examples=300, deadline=None)
    @given(_block_pairs())
    def test_equals_the_overlap_of_the_cell_embeddings(self, case):
        shape, ref, values = case
        reference = sqrt_embed(GridDensity(ref, _grid(ref.shape)))
        rho = GridDensity(values, _grid(shape))
        got = density_overlap(reference)(rho)
        cells = sqrt_embed(GridDensity(repeat_blocks(ref, shape), _grid(shape)))
        expect = overlap_magnitude(sqrt_embed(rho), cells)
        assert got == pytest.approx(expect, rel=1e-13, abs=0.0)
        assert (got == 0.0) == (expect == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(_block_pairs())
    def test_self_overlap_at_most_one_and_disjoint_overlap_zero(self, case):
        shape, _, values = case
        rho = GridDensity(values, _grid(shape))
        assert density_overlap(sqrt_embed(rho))(rho) <= 1.0
        cells = repeat_blocks(values, shape)
        other = np.where(cells > 0.0, 0.0, 1.0)
        if other.any():  # rho's complement, read on rho's grid and on its blocks
            assert density_overlap(sqrt_embed(GridDensity(other, _grid(shape))))(rho) == 0.0
            assert density_overlap(sqrt_embed(rho))(GridDensity(other, _grid(shape))) == 0.0


class TestLinearAnalytic:
    def test_starts_at_zero(self):
        div = evolve_linear_analytic(2.0, 5)
        assert div.distances[0] == 0.0

    def test_two_steps_r2(self):
        div = evolve_linear_analytic(2.0, 2)
        assert div.distances[2] == pytest.approx(2 * np.pi / 3, abs=1e-14)

    def test_deep_tail_matches_arcsin_expansion(self):
        # pi - d_P = 2 arcsin(v) = 2v + v^3/3 + ... with v = 5^{-10}
        div = evolve_linear_analytic(5.0, 20)
        v = 5.0**-10
        assert abs((np.pi - div.distances[20]) - 2 * v) < v**2

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            evolve_linear_analytic(0.5, 5)


class TestTransferStep:
    def test_uniform_fixed_point_r_adic(self):
        grid = GridBasis1D(128, 0.0, 1.0)
        rho = GridDensity(np.ones(128), grid)
        out = transfer_step(rho, r_adic_map(2))
        assert np.array_equal(out.values, rho.values)

    def test_uniform_fixed_point_baker(self):
        rho = GridDensity(np.ones((32, 32)), GridBasis2D(32, 32))
        out = transfer_step(rho, baker_map())
        assert np.array_equal(repeat_blocks(out.values, (32, 32)), rho.values)

    @pytest.mark.parametrize("r", [2, 3, 5])
    @pytest.mark.parametrize("n", [60, 64, 243, 1000, 1001, 65535])
    def test_r_adic_equals_the_gather(self, n, r):
        # a reshape where r divides n, the gather where it does not
        values = np.random.default_rng(n * r).random(n)
        assert np.array_equal(_transfer_r_adic(values, r), gather_r_adic(values, r))

    def test_r_adic_left_half_one_step_to_uniform(self):
        # P rho(x) = (rho(x/2) + rho((x+1)/2)) / 2 sends 2*1_[0,1/2) to 1
        grid = GridBasis1D(64, 0.0, 1.0)
        vals = np.zeros(64)
        vals[:32] = 2.0
        out = transfer_step(GridDensity(vals, grid), r_adic_map(2))
        assert np.allclose(out.values, 1.0)

    @pytest.mark.parametrize("m", [r_adic_map(2), r_adic_map(3), baker_map()])
    def test_mass_conserved_and_non_negative(self, m):
        rng = np.random.default_rng(5)
        if m.kind == "baker":
            geom = GridBasis2D(64, 64)
            rho = GridDensity(rng.random((64, 64)) + 0.05, geom)
        else:
            geom = GridBasis1D(999, 0.0, 1.0)
            rho = GridDensity(rng.random(999) + 0.05, geom)
        out = rho
        for _ in range(5):
            out = transfer_step(out, m)
        assert abs(out.mass - rho.mass) < 1e-14 * max(1.0, rho.mass)
        assert np.all(out.values >= 0.0)

    def test_linear_transfer_overflow_detected(self):
        grid = GridBasis1D(16, 0.0, 1.0)
        rho = square_density(1.0, grid)
        with pytest.raises(DomainError, match="enlarge the domain"):
            linear_transfer(rho, 2.0)

    @pytest.mark.parametrize("m", [linear_map(2.0), rotation_map(0.25)], ids=["linear", "rotation"])
    def test_maps_without_a_transfer_rejected(self, m):
        rho = square_density(0.25, GridBasis1D(16, 0.0, 1.0))
        with pytest.raises(DomainError, match=f"baker and r-adic maps, not '{m.kind}'"):
            transfer_step(rho, m)

    def test_baker_two_steps_against_monte_carlo(self):
        # left-half indicator pushed twice, against 1e6-sample binning
        n = 16
        rho0 = np.zeros((n, n))
        rho0[: n // 2, :] = 2.0
        rho = GridDensity(rho0, GridBasis2D(n, n))
        rho = transfer_step(transfer_step(rho, baker_map()), baker_map())
        m_samples = 10**6
        rng = np.random.default_rng(99)
        pts = rng.random((m_samples, 2))
        pts[:, 0] *= 0.5
        pts = classical_baker(classical_baker(pts))
        hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=n, range=[[0, 1], [0, 1]])
        p_grid = repeat_blocks(rho.values, (n, n)) / (n * n)
        p_mc = hist / m_samples
        assert np.max(np.abs(p_grid - p_mc)) < 2.0 / np.sqrt(m_samples)

    def test_geometry_mismatch(self):
        rho = GridDensity(np.ones(8), GridBasis1D(8, 0.0, 1.0))
        with pytest.raises(DomainError):
            transfer_step(rho, baker_map())
        rho2 = GridDensity(np.ones((8, 8)), GridBasis2D(8, 8))
        with pytest.raises(DomainError):
            transfer_step(rho2, r_adic_map(2))

    def test_grid_matches_analytic_linear_map(self):
        # r=2 square density, exactly representable: ten doubling steps agree
        # with the closed form to 1e-10
        grid = GridBasis1D(2**14, 0.0, 2.0**10)
        rho = square_density(1.0, grid)
        ref = sqrt_embed(rho)
        div = evolve_linear_analytic(2.0, 10)
        cur = rho
        for k in range(1, 11):
            cur = linear_transfer(cur, 2.0)
            d = 2 * np.arccos(overlap_magnitude(sqrt_embed(cur), ref))
            assert abs(d - div.distances[k]) < 1e-10


class TestMixingLimit:
    def test_r_adic_drives_positive_density_to_uniform(self):
        rng = np.random.default_rng(12)
        grid = GridBasis1D(1024, 0.0, 1.0)
        vals = rng.random(1024) + 0.2
        rho = GridDensity(vals / (vals.mean()), grid)
        for _ in range(12):
            rho = transfer_step(rho, r_adic_map(2))
        assert np.max(np.abs(rho.values - 1.0)) < 1e-12

    def test_localized_density_plateau_overlap(self):
        # width-w indicator: plateau overlap with the uniform limit is
        # integral of sqrt(rho_ref) = sqrt(w)
        grid = GridBasis1D(2**12, 0.0, 1.0)
        w = 2.0**-6
        rho = square_density(w, grid)
        ref = sqrt_embed(rho)
        cur = rho
        for _ in range(20):
            cur = transfer_step(cur, r_adic_map(2))
        ov = overlap_magnitude(sqrt_embed(cur), ref)
        assert ov == pytest.approx(np.sqrt(w), abs=1e-3)


class TestBakerKernel:
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 4, 64, 1024])
    def test_equals_the_gather_kernel(self, n, complex_field):
        rng = np.random.default_rng(n)
        f = rng.random((n, n))
        if complex_field:
            f = f + 1j * rng.standard_normal((n, n))
        assert np.array_equal(repeat_blocks(_baker_kernel(f, n), (n, n)), gather_baker_kernel(f))

    @pytest.mark.parametrize("start", ["full", "slab", "x-constant"])
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 4, 6, 12, 64, 1024])
    def test_block_steps_equal_the_gather_kernel(self, n, complex_field, start):
        # the blocks of a side that is not a power of two stop aligning and are
        # split; those of a power of two settle at 1 x n blocks after log2(n)
        # steps, so at n = 1024 twelve steps cover every branch (n + 2 steps of
        # the n x n oracle would take minutes there)
        rng = np.random.default_rng(n)
        shape = {"full": (n, n), "slab": (n, 1), "x-constant": (1, n)}[start]
        blocks = rng.random(shape)
        if complex_field:
            blocks = blocks + 1j * rng.standard_normal(shape)
        cells = repeat_blocks(blocks, (n, n))
        for _ in range(n + 2 if n < 1024 else 12):
            blocks = _baker_kernel(blocks, n)
            cells = gather_baker_kernel(cells)
            assert np.array_equal(repeat_blocks(blocks, (n, n)), cells)

    def test_slab_stays_on_n_blocks(self):
        n = 64
        rho = GridDensity(np.arange(1.0, n + 1)[:, None], GridBasis2D(n, n))
        for t in range(1, 10):
            rho = transfer_step(rho, baker_map())
            assert rho.values.shape == (max(n >> t, 1), min(2**t, n))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_allocates_only_its_output(self, dtype):
        f = np.ones((512, 512), dtype=dtype)
        _baker_kernel(f, 512)
        tracemalloc.start()
        try:
            out = _baker_kernel(f, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a gathered copy of the rows alone would add a whole state
        assert peak < 1.25 * out.nbytes
