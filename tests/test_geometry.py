import numpy as np
import pytest

from plyap import (
    BasisMismatchError,
    DiscreteBasis,
    DomainError,
    GridBasis1D,
    GridBasis2D,
    InvalidStateError,
    ProjectiveState,
    SaturationError,
    bounded_euclidean_distance,
    classical_divergence,
    fubini_study_distance,
    hilbert_distance,
    log_projective_divergence,
    overlap_magnitude,
)


def unit(i, n, basis=None):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return ProjectiveState(v, basis or DiscreteBasis(n))


def random_state(rng, basis):
    shape = basis.shape
    return ProjectiveState(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), basis
    )


class TestOverlap:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, DiscreteBasis(7))
        assert overlap_magnitude(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_basis_vectors(self):
        assert overlap_magnitude(unit(0, 4), unit(2, 4)) == 0.0

    def test_square_density_two_doubling_steps(self):
        # square of width b stretched twice by r=2: overlap r^{-n/2} = 1/2
        from plyap import linear_map, sqrt_embed, square_density, transfer_step

        grid = GridBasis1D(64, 0.0, 4.0)
        rho0 = square_density(1.0, grid)
        rho2 = transfer_step(transfer_step(rho0, linear_map(2.0)), linear_map(2.0))
        ov = overlap_magnitude(sqrt_embed(rho2), sqrt_embed(rho0))
        assert ov == pytest.approx(0.5, abs=1e-14)

    def test_clamped_to_unit_interval(self):
        basis = DiscreteBasis(3)
        amp = np.array([1.0, 1e-8, 0.0])
        a = ProjectiveState(amp, basis)
        b = ProjectiveState(amp * (1.0 + 5e-16), basis)
        assert overlap_magnitude(a, b) <= 1.0

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            overlap_magnitude(unit(0, 3), unit(0, 4))
        with pytest.raises(BasisMismatchError):
            overlap_magnitude(
                unit(0, 4), unit(0, 4, GridBasis1D(4, 0.0, 1.0))
            )

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidStateError):
            ProjectiveState(np.zeros(3), DiscreteBasis(3))
        with pytest.raises(InvalidStateError):
            ProjectiveState(np.array([1.0, np.inf]), DiscreteBasis(2))


class TestFubiniStudy:
    def test_identical_rays(self):
        psi = unit(1, 5)
        assert fubini_study_distance(psi, psi) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states_reach_pi(self):
        assert fubini_study_distance(unit(0, 4), unit(3, 4)) == pytest.approx(np.pi)

    def test_half_overlap_gives_two_thirds_pi(self):
        a = ProjectiveState(np.array([1.0, 0.0]), DiscreteBasis(2))
        b = ProjectiveState(np.array([0.5, np.sqrt(3) / 2]), DiscreteBasis(2))
        assert fubini_study_distance(a, b) == pytest.approx(2 * np.pi / 3, abs=1e-14)

    def test_ray_invariance(self):
        rng = np.random.default_rng(2)
        basis = GridBasis1D(12, 0.0, 2.0)
        a = random_state(rng, basis)
        b = random_state(rng, basis)
        d0 = fubini_study_distance(a, b)
        for _ in range(25):
            c = complex(rng.standard_normal(), rng.standard_normal())
            if abs(c) < 1e-3:
                continue
            scaled = ProjectiveState(c * a.amplitudes, basis)
            assert abs(fubini_study_distance(scaled, b) - d0) < 1e-12

    @pytest.mark.parametrize(
        "basis",
        [DiscreteBasis(6), GridBasis1D(16, 0.0, 1.0), GridBasis2D(4, 4)],
        ids=["discrete", "grid-1d", "grid-2d"],
    )
    def test_metric_axioms_on_random_triples(self, basis):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b, c = (random_state(rng, basis) for _ in range(3))
            dab = fubini_study_distance(a, b)
            dba = fubini_study_distance(b, a)
            assert dab == dba  # symmetry is exact
            assert 0.0 <= dab <= np.pi
            assert fubini_study_distance(a, c) <= dab + fubini_study_distance(b, c) + 1e-10


class TestBoundedDistance:
    def test_zero(self):
        assert bounded_euclidean_distance(0.0) == 0.0

    def test_unit_distance_maps_to_half_pi(self):
        assert bounded_euclidean_distance(1.0) == pytest.approx(np.pi / 2)

    def test_bounded_below_pi_for_all_finite(self):
        # strict in exact arithmetic; in doubles pi*d/(1+d) rounds to pi once
        # d exceeds ~1/ulp(pi), so the strict check covers that range and the
        # closed bound holds everywhere
        for d in (1e-9, 1.0, 1e3, 1e12, 1e15):
            assert bounded_euclidean_distance(d) < np.pi
        for d in (1e16, 1e300):
            assert bounded_euclidean_distance(d) <= np.pi

    def test_monotone(self):
        ds = np.logspace(-8, 8, 50)
        vals = [bounded_euclidean_distance(d) for d in ds]
        assert np.all(np.diff(vals) > 0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bounded_euclidean_distance(-0.1)


class TestDivergence:
    def test_zero(self):
        assert classical_divergence(0.0) == 0.0

    def test_half_pi_gives_one(self):
        assert classical_divergence(np.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_saturation_rejected(self):
        with pytest.raises(SaturationError):
            classical_divergence(np.pi)

    def test_composition_recovers_distance(self):
        # direct evaluation: bd(3) = 3pi/4, cd(3pi/4) = (3pi/4)/(pi/4) = 3
        assert bounded_euclidean_distance(3.0) == pytest.approx(3 * np.pi / 4, abs=1e-15)
        assert classical_divergence(bounded_euclidean_distance(3.0)) == pytest.approx(
            3.0, abs=1e-14
        )
        # exact in doubles for moderate d; ~3e-11 relative at 1e6 from the
        # pi - d_b cancellation (see ledger)
        for d in (0.0, 1e-6, 1.0):
            assert classical_divergence(bounded_euclidean_distance(d)) == d
        d = 1e6
        assert abs(classical_divergence(bounded_euclidean_distance(d)) - d) <= 1e-10 * (1 + d)


class TestLogDivergence:
    def test_cross_path_agreement_small_overlap(self):
        # v = 2^{-20} ~ 9.5e-7: direct arccos/arcsin vs the log-domain path
        v = 2.0**-20
        direct = np.log(np.arccos(v) / np.arcsin(v))
        logpath = log_projective_divergence(np.log(v))
        assert abs(logpath / direct - 1.0) < 1e-9

    def test_matches_direct_construction_across_scales(self):
        # pi - 2 arccos(v) = 2 arcsin(v) keeps the reference valid where the
        # distance route would already round d_P to pi
        for lv in (-1e-6, -0.1, -1.0, -5.0, -17.0, -40.0):
            v = np.exp(lv)
            direct = np.log(np.arccos(v) / np.arcsin(v))
            assert log_projective_divergence(lv) == pytest.approx(direct, rel=1e-9)

    def test_underflowing_overlap_stays_finite(self):
        out = log_projective_divergence(-800.0)  # exp underflows to 0.0
        assert np.isfinite(out)
        assert out == pytest.approx(np.log(np.pi / 2) + 800.0, rel=1e-12)

    def test_coincident_rays_sentinel(self):
        assert log_projective_divergence(0.0) == -np.inf

    def test_positive_log_overlap_rejected(self):
        with pytest.raises(DomainError):
            log_projective_divergence(0.5)


class TestHilbertDistance:
    def test_coincident(self):
        psi = unit(0, 3)
        assert hilbert_distance(psi, psi) == 0.0

    def test_orthonormal_pair(self):
        assert hilbert_distance(unit(0, 4), unit(1, 4)) == pytest.approx(np.sqrt(2))

    def test_no_normalization_applied(self):
        basis = DiscreteBasis(2)
        a = ProjectiveState(np.array([2.0, 0.0]), basis)
        b = ProjectiveState(np.array([1.0, 0.0]), basis)
        assert hilbert_distance(a, b) == pytest.approx(1.0)

    def test_invariance_under_baker_unitary(self):
        from plyap import bvs_baker

        rng = np.random.default_rng(3)
        n = 64
        b_mat = bvs_baker(n)
        basis = DiscreteBasis(n)
        psi = random_state(rng, basis)
        phi = random_state(rng, basis)
        before = hilbert_distance(psi, phi)
        after = hilbert_distance(
            ProjectiveState(b_mat @ psi.amplitudes, basis),
            ProjectiveState(b_mat @ phi.amplitudes, basis),
        )
        assert abs(after - before) < 1e-12
