import numpy as np
import pytest

from plyap import (
    DiscreteBasis,
    DomainError,
    GaussianState,
    ProjectiveState,
    QuadraticSystem,
    bvs_baker,
    bvs_coherent_state,
    gaussian_autocorrelation,
    hilbert_distance,
    overlap_magnitude,
)
from plyap.quantum import _width_param

from oracles import (
    barrier_half_form,
    barrier_overlap_paper,
    gaussian_on_grid,
    oscillator_form,
    plan_split_grid,
    split_operator_propagate,
)

# frozen by direct evaluation of the quoted closed form (full cross term)
BARRIER_PAPER_W2_W01_T5 = 0.007096950044607346
# frozen from the exact Gaussian dynamics (equals the half-cross-term form);
# the split operator validates the dynamics on t in [0, 3/omega]
BARRIER_DYNAMICS_W2_W01_T5 = 0.008522903705783236


class TestBarrierClosedForm:
    def test_unity_at_time_zero(self):
        assert barrier_overlap_paper(1.0, 2.0, 0.0) == 1.0

    def test_matched_widths_reduce_to_cosh(self):
        t = np.linspace(0.0, 4.0, 30)
        assert np.allclose(
            barrier_overlap_paper(2.0, 2.0, t), np.cosh(2.0 * t) ** -0.5, atol=1e-15
        )

    def test_frozen_value(self):
        assert barrier_overlap_paper(1.0, 2.0, 5.0) == pytest.approx(
            BARRIER_PAPER_W2_W01_T5, rel=1e-12
        )

    def test_invalid_frequencies(self):
        with pytest.raises(DomainError):
            barrier_overlap_paper(0.0, 2.0, 1.0)


class TestGaussianDynamics:
    def test_unit_at_time_zero(self):
        sys = QuadraticSystem(2.0, sign=-1)
        assert gaussian_autocorrelation(sys, GaussianState(1.0), 0.0) == pytest.approx(1.0)

    def test_oscillator_ground_state_is_stationary(self):
        sys = QuadraticSystem(2.0, sign=+1)
        t = np.linspace(0.0, 20.0, 200)
        v = gaussian_autocorrelation(sys, GaussianState(2.0), t)
        assert np.max(np.abs(v - 1.0)) < 1e-12

    def test_oscillator_period(self):
        sys = QuadraticSystem(2.0, sign=+1)
        period = np.pi / 2.0
        t = np.linspace(0.0, 3.0, 40)
        v0 = gaussian_autocorrelation(sys, GaussianState(1.0), t)
        v1 = gaussian_autocorrelation(sys, GaussianState(1.0), t + period)
        assert np.allclose(v0, v1, atol=1e-12)

    @pytest.mark.parametrize("sign", [+1, -1], ids=["oscillator", "barrier"])
    @pytest.mark.parametrize("omega, omega0", [(3.7, 1.0), (304.10671227223753, 2.509787410095406)])
    def test_exactly_one_at_time_zero(self, sign, omega, omega0):
        # a(0) = omega * (omega0 / omega) need not round to omega0
        v = gaussian_autocorrelation(QuadraticSystem(omega, sign=sign), GaussianState(omega0), 0.0)
        assert v == 1.0

    @pytest.mark.parametrize(
        "omega, omega0",
        [(2.0, 1.0), (3.0, 7.0), (1.0, 5e-20), (1e-4, 1e10), (1e-170, 1e-170)],
    )
    def test_oscillator_equals_its_closed_form(self, omega, omega0):
        # widths far from the oscillator's and frequencies near the ends of
        # the double range: one at t = 0 exactly, the closed form after
        t = np.linspace(0.0, 5.0 / omega, 101)
        v = gaussian_autocorrelation(QuadraticSystem(omega, sign=+1), GaussianState(omega0), t)
        assert v[0] == 1.0
        assert np.max(np.abs(v / oscillator_form(omega0, omega, t) - 1.0)) < 1e-12

    def test_barrier_matched_widths_equal_quoted_form(self):
        sys = QuadraticSystem(2.0, sign=-1)
        t = np.linspace(0.0, 5.0, 60)
        v = gaussian_autocorrelation(sys, GaussianState(2.0), t)
        assert np.max(np.abs(v - barrier_overlap_paper(2.0, 2.0, t))) < 1e-12

    def test_barrier_asymptotic_decay_rate(self):
        sys = QuadraticSystem(2.0, sign=-1)
        v10 = gaussian_autocorrelation(sys, GaussianState(1.0), 10.0)
        v12 = gaussian_autocorrelation(sys, GaussianState(1.0), 12.0)
        assert np.log(v10 / v12) / 2.0 == pytest.approx(1.0, rel=1e-6)

    def test_frozen_value_t5(self):
        sys = QuadraticSystem(2.0, sign=-1)
        assert gaussian_autocorrelation(sys, GaussianState(1.0), 5.0) == pytest.approx(
            BARRIER_DYNAMICS_W2_W01_T5, rel=1e-12
        )

    @pytest.mark.parametrize("u0", [1e155, 1e200, 1e300])
    def test_wide_barrier_start_scales_as_inverse_root(self, u0):
        # u0^2 overflows above ~1e154, and Re(a / a0) ~ u0^-2 underflows: the
        # overlap is one at t = 0 and ~ u0^(-1/2) after, to the last step of a
        # default run
        sys = QuadraticSystem(1.0, sign=-1)
        t = np.arange(41.0)
        base = gaussian_autocorrelation(sys, GaussianState(1e100), t)
        v = gaussian_autocorrelation(sys, GaussianState(u0), t)
        assert v[0] == 1.0
        assert np.all(np.isfinite(v[1:])) and np.all(v[1:] > 0.0)
        np.testing.assert_allclose(v[1:] * np.sqrt(u0 / 1e100), base[1:], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("omega, omega0", [(1.0, 2.0), (2.0, 7.0), (1e-3, 5.0), (1.0, 1e10)])
    def test_wide_barrier_start_equals_half_form(self, omega, omega0):
        t = np.linspace(0.0, 5.0 / omega, 101)
        v = gaussian_autocorrelation(QuadraticSystem(omega, sign=-1), GaussianState(omega0), t)
        assert v[0] == 1.0
        assert np.max(np.abs(v / barrier_half_form(omega0, omega, t) - 1.0)) < 1e-12

    def test_wide_barrier_width_stays_finite(self):
        # the width itself, for the split-operator grid: no u0^2 is formed
        sys = QuadraticSystem(1.0, sign=-1)
        t = np.linspace(0.0, 5.0, 11)
        a = _width_param(sys, 1e160, t)
        assert a[0] == pytest.approx(1e160, rel=1e-15)
        assert np.all(np.isfinite(a)) and np.all(a.real > 0.0)
        # da/dt = -i (a^2 + omega^2) keeps a -> -omega^2 / a a solution
        mirror = -1.0 / _width_param(sys, -1e-160, t)
        np.testing.assert_allclose(a[1:], mirror[1:], rtol=1e-12)

    def test_diagnostic_mismatched_widths_need_half_cross_term(self):
        # The quoted closed form with its full cross coefficient does NOT
        # match the independent dynamics for omega0 != omega; the half
        # coefficient matches to machine precision.  Recorded here rather
        # than silently reconciled.
        sys = QuadraticSystem(2.0, sign=-1)
        t = np.linspace(0.0, 5.0, 101)
        v = gaussian_autocorrelation(sys, GaussianState(1.0), t)
        full = barrier_overlap_paper(1.0, 2.0, t)
        half = barrier_half_form(1.0, 2.0, t)
        assert np.max(np.abs(v - half)) < 1e-12
        assert np.max(np.abs(v - full)) > 0.05


class TestSplitOperator:
    def test_oscillator_coherent_state_overlap_stays_unity(self):
        sys = QuadraticSystem(2.0, sign=+1)
        g = GaussianState(2.0)
        grid = plan_split_grid(sys, g, 1.5)
        psi0 = gaussian_on_grid(g, grid)
        psi = split_operator_propagate(psi0, sys, dt=0.005, steps=300)
        assert abs(overlap_magnitude(psi0, psi) - 1.0) < 1e-6

    @pytest.mark.parametrize(
        "sign,omega,omega0",
        [(+1, 2.0, 1.0), (-1, 2.0, 1.0), (-1, 5.0, 1.0)],
        ids=["oscillator-w2", "barrier-w2", "barrier-w5"],
    )
    def test_oracle_agreement_with_exact_dynamics(self, sign, omega, omega0):
        sys = QuadraticSystem(omega, sign=sign)
        g = GaussianState(omega0)
        duration = 3.0 / omega
        grid = plan_split_grid(sys, g, duration)
        psi0 = gaussian_on_grid(g, grid)
        n_chunks = 10
        dt = duration / (n_chunks * 30)
        assert dt * omega <= 0.01
        psi = psi0
        for chunk in range(1, n_chunks + 1):
            psi = split_operator_propagate(psi, sys, dt=dt, steps=30)
            t = chunk * 30 * dt
            expected = gaussian_autocorrelation(sys, g, t)
            measured = overlap_magnitude(psi0, psi)
            assert abs(measured - expected) / expected < 1e-3

    def test_norm_preserved_over_thousand_steps(self):
        sys = QuadraticSystem(2.0, sign=+1)
        g = GaussianState(1.0)
        grid = plan_split_grid(sys, g, 5.0)
        psi0 = gaussian_on_grid(g, grid)
        psi = split_operator_propagate(psi0, sys, dt=0.005, steps=1000)
        assert abs(psi.norm() - psi0.norm()) < 1e-10

    def test_pairwise_distance_preserved(self):
        sys = QuadraticSystem(2.0, sign=+1)
        grid = plan_split_grid(sys, GaussianState(1.0), 2.0)
        a = gaussian_on_grid(GaussianState(1.0), grid)
        b = gaussian_on_grid(GaussianState(1.3), grid)
        before = hilbert_distance(a, b)
        a2 = split_operator_propagate(a, sys, dt=0.005, steps=400)
        b2 = split_operator_propagate(b, sys, dt=0.005, steps=400)
        assert abs(hilbert_distance(a2, b2) - before) < 1e-10

    def test_domain_overflow_detected(self):
        from plyap.geometry import GridBasis1D

        sys = QuadraticSystem(2.0, sign=-1)
        grid = GridBasis1D(256, -4.0, 4.0)  # far too small for a barrier run
        psi = gaussian_on_grid(GaussianState(1.0), grid)
        with pytest.raises(DomainError, match="enlarge the domain"):
            split_operator_propagate(psi, sys, dt=0.005, steps=600)

    def test_timestep_guard(self):
        sys = QuadraticSystem(2.0, sign=+1)
        grid = plan_split_grid(sys, GaussianState(1.0), 1.0)
        psi = gaussian_on_grid(GaussianState(1.0), grid)
        with pytest.raises(DomainError):
            split_operator_propagate(psi, sys, dt=0.1, steps=10)


def bvs_transform(N: int) -> np.ndarray:
    """Position-to-momentum transform on the half-integer grid q_j = (j+1/2)/N.

    (G_N)_{kj} = N^(-1/2) exp(-2 pi i (k+1/2)(j+1/2) / N) - the discrete
    Fourier transform with antiperiodic boundary conditions.  Unitary.
    """
    if N < 1:
        raise DomainError("dimension must be positive")
    j = np.arange(N) + 0.5
    return np.exp(-2j * np.pi * np.outer(j, j) / N) / np.sqrt(N)


class TestBvsTransform:
    def test_two_by_two_hand_values(self):
        g2 = bvs_transform(2)
        expected = np.array(
            [
                [np.exp(-1j * np.pi / 4), np.exp(-3j * np.pi / 4)],
                [np.exp(-3j * np.pi / 4), np.exp(-9j * np.pi / 4)],
            ]
        ) / np.sqrt(2)
        assert np.allclose(g2, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_unitarity(self, n):
        g = bvs_transform(n)
        assert np.max(np.abs(g.conj().T @ g - np.eye(n))) < 1e-12

    def test_columns_orthonormal(self):
        g = bvs_transform(16)
        gram = g.conj().T @ g
        assert np.allclose(np.diag(gram), 1.0, atol=1e-13)
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-13


def dense_baker(n):
    """The defining product G_N^(-1) blockdiag(G_{N/2}, G_{N/2}), built densely."""
    g_half = bvs_transform(n // 2)
    block = np.zeros((n, n), dtype=complex)
    block[: n // 2, : n // 2] = g_half
    block[n // 2 :, n // 2 :] = g_half
    return bvs_transform(n).conj().T @ block


class TestBvsBaker:
    # 1026 has an odd half, so the half-size FFT is not a power of two
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 128, 1026])
    def test_step_matches_dense_definition(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        assert np.max(np.abs(bvs_baker(n)(x) - dense_baker(n) @ x)) < 1e-12

    @pytest.mark.parametrize("n", [2, 6, 128, 1026])
    def test_step_acts_along_axis_zero(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        x /= np.linalg.norm(x, axis=0)
        assert np.max(np.abs(bvs_baker(n)(x) - dense_baker(n) @ x)) < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_unitarity(self, n):
        b = bvs_baker(n)(np.eye(n))
        assert np.max(np.abs(b.conj().T @ b - np.eye(n))) < 1e-10

    def test_two_by_two_hand_value(self):
        # G_1 = exp(-i pi/2) = -i, so B = -i G_2^dagger
        b = bvs_baker(2)(np.eye(2))
        expected = np.array(
            [
                [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)],
                [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)],
            ]
        ) / np.sqrt(2)
        assert np.allclose(b, expected, atol=1e-15)

    def test_odd_dimension_rejected(self):
        with pytest.raises(DomainError):
            bvs_baker(7)

    def test_flat_metric_invariance(self):
        rng = np.random.default_rng(8)
        n = 128
        b = bvs_baker(n)
        basis = DiscreteBasis(n)
        for _ in range(5):
            u = ProjectiveState(rng.standard_normal(n) + 1j * rng.standard_normal(n), basis)
            v = ProjectiveState(rng.standard_normal(n) + 1j * rng.standard_normal(n), basis)
            before = hilbert_distance(u, v)
            after = hilbert_distance(
                ProjectiveState(b(u.amplitudes), basis),
                ProjectiveState(b(v.amplitudes), basis),
            )
            assert abs(after - before) < 1e-10


class TestBvsCoherentState:
    def test_zero_momentum_is_real_positive(self):
        psi = bvs_coherent_state(64, 0.5, 0.0, 1e-3)
        assert np.allclose(psi.amplitudes.imag, 0.0)
        assert np.all(psi.amplitudes.real > 0.0)

    def test_huge_alpha_tends_to_uniform_modulus(self):
        psi = bvs_coherent_state(64, 0.5, 0.0, 1e6)
        mags = np.abs(psi.amplitudes)
        assert np.max(mags) / np.min(mags) - 1.0 < 1e-5

    def test_width_in_cells(self):
        # |psi|^2 has std sqrt(alpha/2); alpha = 1e-4 on N = 1800 gives a
        # packet of width ~1e-2 (sqrt(alpha) = 18 cells)
        n, alpha = 1800, 1e-4
        psi = bvs_coherent_state(n, 0.5, 0.0, alpha)
        q = (np.arange(n) + 0.5) / n
        rho = np.abs(psi.amplitudes) ** 2
        rho /= rho.sum()
        mean = (q * rho).sum()
        std = np.sqrt(((q - mean) ** 2 * rho).sum())
        assert std == pytest.approx(np.sqrt(alpha / 2.0), rel=1e-3)
        assert 10 < np.sqrt(alpha) * n < 25

    def test_center_validation(self):
        with pytest.raises(DomainError):
            bvs_coherent_state(16, 1.2, 0.0, 1e-3)
