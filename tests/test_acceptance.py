"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -s / -rA)."""

import time
from functools import partial

import numpy as np
import pytest

from plyap import (
    DiscreteBasis,
    GridBasis1D,
    GridDensity,
    OverlapSeries,
    ProjectiveState,
    asymptotic_estimate,
    baker_map,
    bvs_baker,
    divergence_series,
    evolve_linear_analytic,
    finite_time_p_lyapunov,
    gaussian_autocorrelation,
    ingest_overlap_series,
    overlap_magnitude,
    r_adic_map,
    sqrt_embed,
    square_density,
    transfer_step,
)
from plyap.quantum import GaussianState, QuadraticSystem
from plyap.runner import ExperimentConfig, figure, run

from oracles import (
    apply_map,
    barrier_overlap_paper,
    gaussian_on_grid,
    hilbert_distance,
    linear_map,
    linear_transfer,
    plan_split_grid,
    rotation_map,
    split_operator_propagate,
    trajectory_lyapunov,
)

LN = np.log


def test_criterion_1_linear_map_exponents():
    for r in (2, 3, 5):
        t0 = time.perf_counter()
        div = evolve_linear_analytic(float(r), 40)
        est = asymptotic_estimate(div, window=(10.0, 39.0))
        elapsed = time.perf_counter() - t0
        assert est.asymptotic_value == pytest.approx(LN(r) / 2, rel=0.01)
        assert elapsed < 1.0
    print("ACCEPTANCE 1 PASS: analytic linear-map exponents ln(r)/2 within 1% in <1s each")


def test_criterion_2_fig1a_grid_matches_analytic():
    # grid realization: r=2 on a domain pre-sized for ten doublings, square
    # density exactly representable
    grid = GridBasis1D(2**14, 0.0, 2.0**10)
    rho = square_density(1.0, grid)
    ref = sqrt_embed(rho)
    states = [ref]
    cur = rho
    for _ in range(10):
        cur = linear_transfer(cur, 2.0)
        states.append(sqrt_embed(cur))
    times = np.arange(11.0)
    div_grid = divergence_series(
        times, [overlap_magnitude(s, ref) for s in states], theta=1e-12
    )
    div_ana = evolve_linear_analytic(2.0, 10)
    assert np.max(np.abs(div_grid.distances - div_ana.distances)) < 1e-10
    curve_grid = finite_time_p_lyapunov(div_grid)
    curve_ana = finite_time_p_lyapunov(div_ana)
    assert np.max(np.abs(curve_grid[:, 1] - curve_ana[:, 1])) < 1e-10

    # the three-curve bundle approaches the targets monotonically from below;
    # the pointwise curve keeps its O(1/t) tail, so "approach" means the gap
    # shrinks monotonically and ends small
    targets = {2: 0.3466, 3: 0.5493, 5: 0.8047}
    for r, target in targets.items():
        div = evolve_linear_analytic(float(r), 40)
        lam = finite_time_p_lyapunov(div)[:, 1]
        gap = target - lam
        assert np.all(np.diff(lam) > -1e-12)
        assert np.all(gap > 0.0)
        assert np.all(np.diff(gap) < 1e-12)
        assert gap[-1] < 0.05 * target
    print("ACCEPTANCE 2 PASS: grid curves match analytic to 1e-10; monotone approach to targets")


def test_criterion_3_barrier_and_oscillator():
    for omega, target in ((2.0, 1.0), (5.0, 2.5)):
        cfg = ExperimentConfig(
            id=f"barrier-w{int(omega)}", system="barrier", omega=omega, omega0=1.0,
            steps=300, dt=0.1 / omega * 5, theta=0.0,
        )
        res = run(cfg)
        assert res.summary["lambda"] == pytest.approx(target, rel=0.02)
    # harmonic oscillator: stable, |lambda_t| < 0.05 at t = 50
    sys = QuadraticSystem(2.0, sign=+1)
    t = np.arange(0.0, 60.0001, 0.05)
    v = gaussian_autocorrelation(sys, GaussianState(1.0), t)
    from plyap import series_from_log_overlaps

    div = series_from_log_overlaps(t, np.log(np.minimum(v, 1.0)), theta=0.0)
    curve = finite_time_p_lyapunov(div)
    i50 = int(np.argmin(np.abs(curve[:, 0] - 50.0)))
    assert abs(curve[i50, 0] - 50.0) < 0.051
    assert abs(curve[i50, 1]) < 0.05
    cfg = ExperimentConfig(
        id="osc-w2", system="oscillator", omega=2.0, omega0=1.0, steps=1200, dt=0.05,
        theta=0.0,
    )
    assert run(cfg).summary["classification"] == "stable"
    print("ACCEPTANCE 3 PASS: barrier exponents {1.0, 2.5} within 2%; oscillator stable at t=50")


def test_criterion_4_split_operator_oracle_agreement():
    for sign, omega, omega0 in ((+1, 2.0, 1.0), (-1, 2.0, 1.0), (-1, 5.0, 1.0)):
        sys = QuadraticSystem(omega, sign=sign)
        g = GaussianState(omega0)
        duration = 3.0 / omega
        grid = plan_split_grid(sys, g, duration)
        psi0 = gaussian_on_grid(g, grid)
        dt = duration / 300
        psi = psi0
        for chunk in range(1, 11):
            psi = split_operator_propagate(psi, sys, dt=dt, steps=30)
            expected = gaussian_autocorrelation(sys, g, chunk * 30 * dt)
            assert abs(overlap_magnitude(psi0, psi) - expected) / expected < 1e-3
    # hard analytic anchor at omega0 = omega
    t = np.linspace(0.0, 1.5, 40)
    sys = QuadraticSystem(2.0, sign=-1)
    anchor = np.cosh(2.0 * t) ** -0.5
    assert np.max(np.abs(gaussian_autocorrelation(sys, GaussianState(2.0), t) - anchor)) < 1e-6
    assert np.max(np.abs(barrier_overlap_paper(2.0, 2.0, t) - anchor)) < 1e-6
    print("ACCEPTANCE 4 PASS: split-operator vs exact dynamics within 1e-3; cosh anchor to 1e-6")


def test_criterion_5_bvs_baker():
    t0 = time.perf_counter()
    for n in (2, 8, 128, 1800):
        b = bvs_baker(n)(np.eye(n))
        assert np.max(np.abs(b.conj().T @ b - np.eye(n))) < 1e-10
    # flat-metric invariance under the unitary
    rng = np.random.default_rng(17)
    n = 1800
    b = bvs_baker(n)
    basis = DiscreteBasis(n)
    u = ProjectiveState(rng.standard_normal(n) + 1j * rng.standard_normal(n), basis)
    w = ProjectiveState(rng.standard_normal(n) + 1j * rng.standard_normal(n), basis)
    before = hilbert_distance(u, w)
    after = hilbert_distance(
        ProjectiveState(b(u.amplitudes), basis), ProjectiveState(b(w.amplitudes), basis)
    )
    assert abs(after - before) < 1e-10

    res = run(_fig2a_config())
    t_b = res.summary["saturation_time"]
    assert t_b is not None and 6.0 <= t_b <= 10.0
    curve = res.estimate.finite_time_curve
    pre = curve[curve[:, 0] < t_b]
    assert pre.shape[0] >= 3
    assert np.all(pre[:, 1] >= 0.29) and np.all(pre[:, 1] <= 0.40)
    assert 0.29 <= res.summary["lambda"] <= 0.40
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 PASS: unitarity<1e-10; invariance<1e-10; exponent in [0.29,0.40] "
        f"pre-plateau; t_b={t_b} in [6,10]; {elapsed:.1f}s"
    )


def _fig2a_config():
    return ExperimentConfig(
        id="fig2a-bvs-n1800", system="bvs_baker", n_dim=1800,
        q0=1.0 / 3.0, p0=2.0 / 3.0, alpha=1.0 / (2.0 * np.pi * 1800),
        steps=12, dt=2.0, theta=0.1, window=(0.0, None),
    )


def test_criterion_6_r_adic_localized_default():
    # documented localized default: indicator of width 2^-10 on a 2^16 grid
    cfg = ExperimentConfig(id="radic-default", system="r_adic", r=2.0, steps=14)
    res = run(cfg)
    assert res.defaults["grid_n"] == 2**16
    assert res.defaults["init_width"] == 2.0**-10
    assert res.summary["lambda"] == pytest.approx(LN(2) / 2, rel=0.10)
    # plateau overlap = integral of sqrt(rho_ref) against the uniform limit
    plateau_d = res.divergence.distances[-1]
    plateau_overlap = np.cos(plateau_d / 2.0)
    assert abs(plateau_overlap - 2.0**-5) < 1e-3
    # exact plateau starts at step 10; first holding time may be one step
    # earlier (the last approach point already sits within theta of it)
    t_b = res.summary["saturation_time"]
    assert t_b is not None and 9.0 <= t_b <= 10.0
    print("ACCEPTANCE 6 PASS: r-adic estimate within 10% of ln(2)/2; plateau overlap 2^-5")


def test_criterion_7_koopman_transfer_and_trajectories():
    # the Koopman propagator that named this criterion is gone with its
    # system; the transfer and trajectory checks remain
    rng = np.random.default_rng(23)
    grid = GridBasis1D(4096, 0.0, 1.0)
    rho = GridDensity(rng.random(4096) + 0.1, grid)
    out = transfer_step(rho, r_adic_map(2))
    assert abs(out.mass - rho.mass) < 1e-14 * max(1.0, rho.mass)

    cases = (
        (partial(apply_map, baker_map()), [0.312, 0.547], LN(2.0)),
        (linear_map(3.0), [0.7], LN(3.0)),
        (rotation_map(0.37), [0.2], 0.0),
    )
    for step, x0, target in cases:
        direct = trajectory_lyapunov(step, x0, epsilon=1e-7, steps=80)
        via_div = trajectory_lyapunov(step, x0, epsilon=1e-7, steps=80, method="divergence")
        assert direct == pytest.approx(target, abs=1e-6)
        assert abs(direct - via_div) < 1e-6
    print("ACCEPTANCE 7 PASS: mass to 1e-14; trajectory exponents 1e-6")


def test_criterion_8_ingestion():
    t = np.arange(801.0)
    raw = OverlapSeries(t, np.exp(-2 * 0.017 * t), convention="probability")
    div = ingest_overlap_series(raw, theta=0.0)
    est = asymptotic_estimate(div)
    assert est.asymptotic_value == pytest.approx(0.017, rel=0.05)

    t2 = np.arange(0.0, 300.0, 0.5)
    periodic = OverlapSeries(t2, 0.55 + 0.44 * np.cos(0.9 * t2))
    div2 = ingest_overlap_series(periodic, theta=0.0)
    est2 = asymptotic_estimate(div2)
    assert abs(est2.asymptotic_value) < 0.05
    print("ACCEPTANCE 8 PASS: synthetic series recovers 0.017 within 5%; periodic is stable")


def test_criterion_9_determinism(tmp_path):
    figure("fig1a", tmp_path / "first")
    figure("fig1a", tmp_path / "second")
    compared = 0
    for sub in ("fig1a-r2", "fig1a-r3", "fig1a-r5"):
        for name in ("distance.csv", "divergence.csv", "lambda_t.csv"):
            a = (tmp_path / "first" / sub / name).read_bytes()
            b = (tmp_path / "second" / sub / name).read_bytes()
            assert a == b
            compared += 1
    assert compared == 9
    svg_a = (tmp_path / "first" / "fig1a.svg").read_bytes()
    svg_b = (tmp_path / "second" / "fig1a.svg").read_bytes()
    assert svg_a == svg_b
    print("ACCEPTANCE 9 PASS: figure reruns byte-identical")
