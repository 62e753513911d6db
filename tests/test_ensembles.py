import tracemalloc

import numpy as np
import pytest

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
    koopman_step,
    linear_map,
    overlap_magnitude,
    r_adic_map,
    rotation_map,
    sqrt_embed,
    square_density,
    transfer_step,
)
from plyap.ensembles import _baker_kernel
from plyap.geometry import ProjectiveState


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

    def test_other_grid_rejected(self):
        overlap = density_overlap(sqrt_embed(square_density(0.5, GridBasis1D(8))))
        with pytest.raises(BasisMismatchError):
            overlap(square_density(0.5, GridBasis1D(16)))


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
        assert np.array_equal(out.values, rho.values)

    def test_r_adic_left_half_one_step_to_uniform(self):
        # P rho(x) = (rho(x/2) + rho((x+1)/2)) / 2 sends 2*1_[0,1/2) to 1
        grid = GridBasis1D(64, 0.0, 1.0)
        vals = np.zeros(64)
        vals[:32] = 2.0
        out = transfer_step(GridDensity(vals, grid), r_adic_map(2))
        assert np.allclose(out.values, 1.0)

    @pytest.mark.parametrize("m", [r_adic_map(2), r_adic_map(3), baker_map(), rotation_map(0.318)])
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
        from plyap import DomainOverflowError

        with pytest.raises(DomainOverflowError):
            transfer_step(rho, linear_map(2.0))

    def test_rotation_aligned_shift_is_exact_roll(self):
        grid = GridBasis1D(16, 0.0, 1.0)
        vals = np.arange(16.0) + 1.0
        out = transfer_step(GridDensity(vals, grid), rotation_map(0.25))
        assert np.array_equal(out.values, np.roll(vals, 4))

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
        p_grid = rho.values / (n * n)
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
            cur = transfer_step(cur, linear_map(2.0))
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


class TestBakerKernel:
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 4, 64, 1024])
    def test_equals_the_gather_kernel(self, n, complex_field):
        rng = np.random.default_rng(n)
        f = rng.random((n, n))
        if complex_field:
            f = f + 1j * rng.standard_normal((n, n))
        assert np.array_equal(_baker_kernel(f), gather_baker_kernel(f))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_allocates_only_its_output(self, dtype):
        f = np.ones((512, 512), dtype=dtype)
        _baker_kernel(f)
        tracemalloc.start()
        try:
            out = _baker_kernel(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a gathered copy of the rows alone would add a whole state
        assert peak < 1.25 * out.nbytes


class TestKoopman:
    def test_constant_field_unchanged(self):
        geom = GridBasis2D(16, 16)
        psi = ProjectiveState(np.full((16, 16), 0.5 + 0.1j), geom)
        out = koopman_step(psi, baker_map())
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_duality_with_transfer_on_y_uniform_density(self):
        # fields constant on the image partition: exact agreement
        n = 64
        x = (np.arange(n) + 0.5) / n
        vals = np.tile((1.0 + 0.8 * np.sin(2 * np.pi * x))[:, None], (1, n))
        geom = GridBasis2D(n, n)
        rho = GridDensity(vals / vals.mean(), geom)
        lhs = koopman_step(sqrt_embed(rho), baker_map())
        rhs = sqrt_embed(transfer_step(rho, baker_map()))
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-14

    def test_duality_with_transfer_on_smooth_density(self):
        n = 256
        x = (np.arange(n) + 0.5) / n
        vals = 1.2 + 0.5 * np.sin(2 * np.pi * x)[:, None] + 0.3 * np.cos(4 * np.pi * x)[None, :]
        geom = GridBasis2D(n, n)
        rho = GridDensity(vals / vals.mean(), geom)
        lhs = koopman_step(sqrt_embed(rho), baker_map())
        rhs = sqrt_embed(transfer_step(rho, baker_map()))
        l2 = np.sqrt(np.mean(np.abs(lhs.amplitudes - rhs.amplitudes) ** 2))
        assert l2 < 1e-3

    def test_rejects_other_maps(self):
        geom = GridBasis2D(8, 8)
        psi = ProjectiveState(np.ones((8, 8)), geom)
        with pytest.raises(DomainError):
            koopman_step(psi, r_adic_map(2))


def bandlimited_state(rng, n, k_max):
    modes = np.arange(-k_max, k_max + 1)
    coeff = rng.standard_normal((modes.size, modes.size)) + 1j * rng.standard_normal(
        (modes.size, modes.size)
    )
    x = (np.arange(n) + 0.5) / n
    basis = np.exp(2j * np.pi * np.outer(x, modes))
    return ProjectiveState(basis @ coeff @ basis.T, GridBasis2D(n, n))


class TestKoopmanIsometry:
    def test_pairwise_overlap_preserved_on_large_grid(self):
        rng = np.random.default_rng(21)
        n = 2**10
        a = bandlimited_state(rng, n, 4)
        b = bandlimited_state(rng, n, 4)
        before = overlap_magnitude(a, b)
        after = overlap_magnitude(koopman_step(a, baker_map()), koopman_step(b, baker_map()))
        assert abs(after - before) < 1e-3

    def test_norm_preserved_within_grid_tolerance(self):
        rng = np.random.default_rng(22)
        n = 2**10
        a = bandlimited_state(rng, n, 4)
        out = koopman_step(a, baker_map())
        assert abs(out.norm() / a.norm() - 1.0) < 1e-3

    def test_flat_metric_preserved_within_grid_tolerance(self):
        from plyap import hilbert_distance

        rng = np.random.default_rng(24)
        n = 2**10
        a = bandlimited_state(rng, n, 4)
        b = bandlimited_state(rng, n, 4)
        before = hilbert_distance(a, b)
        after = hilbert_distance(koopman_step(a, baker_map()), koopman_step(b, baker_map()))
        assert abs(after / before - 1.0) < 1e-3

