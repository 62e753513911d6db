import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plyap import (
    ConfigError,
    DataFormatError,
    GridBasis1D,
    GridBasis2D,
    GridDensity,
    InsufficientDataError,
    divergence_series,
    estimators,
    floattext,
    overlap_magnitude,
    r_adic_map,
    runner,
    sqrt_embed,
    square_density,
    transfer_step,
    validate_summary,
)
from plyap import cli
from plyap.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from plyap.runner import ExperimentConfig, figure, ingest, run
from plyap.svgplot import _H, _MB, _ML, _MR, _MT, _W

from oracles import gather_baker_kernel

LN2_HALF = np.log(2.0) / 2.0


class TestConfig:
    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict(
            {"id": "x", "system": "linear", "r": 2.0, "steps": 10, "theta": 0.0}
        )
        assert cfg.r == 2.0
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_named(self):
        for name in ("sigma", "b"):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict({"id": "x", "system": "linear", name: 1.0})
            assert err.value.field == name

    def test_unknown_system_named(self):
        for system in ("pendulum", "baker_koopman"):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict({"id": "x", "system": system})
            assert err.value.field == "system"

    def test_unsafe_id_rejected(self):
        for unsafe in ("a/b", ".", "..", "a\rb", "a\x0bb", "a\x0cb", "a\xa0b", "a\x00b"):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(id=unsafe, system="linear")
            assert err.value.field == "id"

    def test_sizes_stop_at_2_to_the_53(self):
        for name, system, top in (("grid_n", "r_adic", 2**53), ("steps", "linear", 2**53),
                                  ("n_dim", "bvs_baker", 2**53), ("grid_m", "baker_classical", 53)):
            assert getattr(ExperimentConfig(id="x", system=system, **{name: top}), name) == top
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(id="x", system=system, **{name: top + 2})
            assert err.value.field == name

    def test_map_systems_need_integer_dt(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(id="x", system="bvs_baker", dt=0.5)
        assert err.value.field == "dt"

    @pytest.mark.parametrize("window", [[30, 5], [5.0, 5.0], ["x", 5], [None, True], [1.0], "ab"])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(id="x", system="linear", window=window)
        assert err.value.field == "window"

    @pytest.mark.parametrize(
        "system, params, window, holds",
        [
            # a given start needs 4 fit times from it to the last, 19: 16 ... 19
            ("linear", dict(steps=20), (16.0, None), True),
            ("linear", dict(steps=20), (19.5, None), False),
            ("linear", dict(steps=20, delta_index=2), (19.0, None), False),
            ("linear", dict(steps=20), (None, -0.5), False),
            # two given bounds need 4 fit times: 0, 1, 2, 3
            ("linear", dict(steps=20), (-5.0, 3.0), True),
            ("linear", dict(steps=20), (0.25, 0.75), False),
            # the fit time 3 * 0.1 rounds to 0.30000000000000004, past 0.3, and
            # 0.30000000000000004 / 0.1 rounds up to 3.0000000000000004; 6 * 0.1
            # rounds to 0.6000000000000001, so the window to 0.65 holds 4 and to 0.6 holds 3
            ("oscillator", dict(omega=2.0, steps=4, dt=0.1), (0.25, 0.3), False),
            ("oscillator", dict(omega=2.0, steps=7, dt=0.1), (0.30000000000000004, 0.65), True),
            ("oscillator", dict(omega=2.0, steps=7, dt=0.1), (0.30000000000000004, 0.6), False),
            # 0.42000000000000004 / 0.01 rounds down to 42, but 42 * 0.01 is 0.42, so
            # the window to 0.46 holds 43 ... 46 and to 0.455 holds 43 ... 45
            ("oscillator", dict(omega=2.0, steps=50, dt=0.01), (0.42000000000000004, 0.425), False),
            ("oscillator", dict(omega=2.0, steps=50, dt=0.01), (0.42000000000000004, 0.46), True),
            ("oscillator", dict(omega=2.0, steps=50, dt=0.01), (0.42000000000000004, 0.455), False),
            # 0, 1, 2 are only 3
            ("linear", dict(steps=20), (-5.0, 2.0), False),
            # an open start needs 2 fit times up to its end
            ("linear", dict(steps=20), (None, 0.5), False),
            ("linear", dict(steps=20), (None, 1.0), True),
            # 17 ... 19 and 19 are short of the 4 a given start needs, open end or not
            ("linear", dict(steps=20), (17.0, None), False),
            ("linear", dict(steps=20), (19.0, None), False),
        ],
    )
    def test_window_must_hold_a_fit_time(self, system, params, window, holds):
        with contextlib.nullcontext() if holds else pytest.raises(ConfigError, match="^window "):
            ExperimentConfig(id="w", system=system, window=window, **params)

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(id="x", system="linear", r=2.0)
        b = ExperimentConfig(id="x", system="linear", r=2.0)
        c = ExperimentConfig(id="x", system="linear", r=3.0)
        h = [runner._config_hash(cfg.to_dict()) for cfg in (a, b, c)]
        assert h[0] == h[1]
        assert h[0] != h[2]

    @pytest.mark.parametrize("cfg", [
        dict(id="x", system="linear"),
        dict(id="Δλ-ü_量子", system="barrier", omega=2.0, steps=200, dt=0.05),
        dict(id="w", system="linear", steps=30, window=[5.0, None], theta=0.0),
        dict(id="f", system="overlap_file", path="data/s.csv", convention="probability"),
    ])
    def test_hash_is_sha256_of_sorted_json(self, cfg):
        # whichever sha256 module the running Python gives runner
        import hashlib

        d = ExperimentConfig(**cfg).to_dict()
        expected = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]
        assert runner._config_hash(d) == expected


class TestRun:
    def test_linear_r2_summary(self, tmp_path):
        cfg = ExperimentConfig(
            id="lin2", system="linear", r=2.0, steps=40, theta=0.0,
            window=(10.0, None),
        )
        res = run(cfg, out_dir=tmp_path)
        assert res.summary["classification"] == "unstable"
        assert res.summary["lambda"] == pytest.approx(LN2_HALF, rel=0.01)
        for name in ("distance.csv", "divergence.csv", "lambda_t.csv", "summary.json"):
            assert (tmp_path / "lin2" / name).exists()
        validate_summary(res.summary)

    def test_given_start_is_kept_and_a_plateau_end_is_named(self):
        # 20 linear steps: at theta 0 nothing saturates and [16, null] fits 16 ... 19;
        # at the default theta t_b = 11 cuts the open end to 10.5, before the start
        cfg = dict(id="lin", system="linear", steps=20, window=(16.0, None))
        assert run(ExperimentConfig(**cfg, theta=0.0)).summary["fit_window"] == [16.0, 19.0]
        summary = run(ExperimentConfig(**cfg)).summary
        assert summary["classification"] == "saturated"
        assert summary["detail"] == ("window (16.0, 10.5) holds 0 usable points; at least 4"
                                     " required (its open end 10.5 is half a step before"
                                     " t_b = 11.0)")

    def test_config_hash_embedded_everywhere(self, tmp_path):
        cfg = ExperimentConfig(id="lin", system="linear", r=2.0, steps=20, theta=0.0)
        res = run(cfg, out_dir=tmp_path)
        h = runner._config_hash(cfg.to_dict())
        for name in ("distance.csv", "divergence.csv", "lambda_t.csv"):
            first = (tmp_path / "lin" / name).read_text().splitlines()[0]
            assert first == f"# config_hash={h}"
        doc = json.loads((tmp_path / "lin" / "summary.json").read_text())
        assert doc["config_hash"] == h

    def test_config_dict_built_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        to_dict = ExperimentConfig.to_dict
        monkeypatch.setattr(
            ExperimentConfig, "to_dict", lambda cfg: calls.append(cfg) or to_dict(cfg))
        res = run(ExperimentConfig(id="lin", system="linear", r=2.0, steps=20), out_dir=tmp_path)
        assert len(calls) == 1
        assert res.summary["config_hash"] == runner._config_hash(to_dict(res.config))

    def test_oscillator_classifies_stable(self):
        cfg = ExperimentConfig(
            id="osc", system="oscillator", omega=2.0, omega0=1.0,
            steps=1200, dt=0.05, theta=0.0,
        )
        res = run(cfg)
        assert res.summary["classification"] == "stable"
        assert abs(res.summary["lambda"]) < 0.05

    def test_stationary_path_reports_stable(self):
        # omega0 = omega is a stationary ray: degenerate, classified stable
        cfg = ExperimentConfig(
            id="osc-ground", system="oscillator", omega=2.0, omega0=2.0,
            steps=100, dt=0.05, theta=0.0,
        )
        res = run(cfg)
        assert res.summary["classification"] == "stable"
        assert res.summary["lambda"] is None
        assert "stationary" in res.summary["detail"]
        assert res.estimate is None
        assert runner._curve(res).shape == (0, 2)

    @pytest.mark.parametrize(
        "omega, omega0, classification, t_b",
        [(1.0, 5e-20, "saturated", 1.0), (1e-4, 1e10, "saturated", 1.0),
         (1e-170, 1e-170, "stable", 0.0)],
    )
    def test_oscillator_far_from_unit_widths(self, omega, omega0, classification, t_b):
        # a packet far narrower or wider than the oscillator's ground state is
        # near orthogonal to itself by the first sample; the ground state at a
        # tiny frequency stays on its ray
        res = run(ExperimentConfig(id="osc", system="oscillator", omega=omega, omega0=omega0))
        assert res.divergence.distances[0] == 0.0
        assert res.summary["classification"] == classification
        assert res.summary["saturation_time"] == t_b

    def test_r_adic_defaults_recorded(self):
        cfg = ExperimentConfig(id="radic", system="r_adic", steps=14, grid_n=2**12,
                               init_width=2.0**-6)
        res = run(cfg)
        assert res.summary["classification"] == "unstable"
        assert res.summary["lambda"] == pytest.approx(LN2_HALF, rel=0.10)
        assert res.summary["saturation_time"] is not None

    def test_r_adic_default_window_ends_before_the_plateau(self):
        res = run(ExperimentConfig(id="radic", system="r_adic"))
        assert res.summary["saturation_time"] == 9.0
        assert res.summary["fit_window"] == [5.0, 8.5]

    def test_baker_classical_exact_overlap_series(self):
        # area-preserving and invertible: no pushforward dilution, so the
        # slab's self-overlap is the intersection measure 2^-t exactly and
        # the extracted rate is the full ln 2
        cfg = ExperimentConfig(id="bak", system="baker_classical", steps=8,
                               grid_m=8, init_width=2.0**-6)
        res = run(cfg)
        n = np.arange(7)
        expect = 2 * np.arccos(2.0**-n)
        assert np.allclose(res.divergence.distances[:7], expect, atol=1e-10)
        assert res.summary["classification"] == "unstable"
        assert res.summary["lambda"] == pytest.approx(np.log(2.0), rel=0.10)

    def test_baker_classical_defaults_past_the_dip(self):
        # at 20 steps the slab's overlap falls to ~its width near t = 8 and then
        # climbs back as the grid averages the density; the fit must stop at the dip
        res = run(ExperimentConfig(id="bak", system="baker_classical", steps=20))
        assert res.summary["lambda"] == pytest.approx(np.log(2.0), rel=0.10)

    @pytest.mark.parametrize("n", [1026, 1048, 1118, 1536])
    def test_bvs_baker_fig2a_packet_across_n(self, n):
        res = run(ExperimentConfig(
            id="bvs", system="bvs_baker", n_dim=n, q0=1.0 / 3.0, p0=2.0 / 3.0,
            alpha=1.0 / (2.0 * np.pi * n), steps=12, dt=2.0, theta=0.1, window=(0.0, None),
        ))
        assert 0.29 <= res.summary["lambda"] <= 0.40

    def test_bvs_baker_default_packet(self):
        # sampled every map step, the period-2 packet would saturate at t = 1
        res = run(ExperimentConfig(id="d", system="bvs_baker"))
        assert 0.29 <= res.summary["lambda"] <= 0.40

    @pytest.mark.parametrize(
        "system, params, map_steps",
        [
            ("r_adic", dict(grid_n=2**12, init_width=2.0**-12), 12),
            ("baker_classical", dict(grid_m=8, init_width=2.0**-8), 8),
        ],
    )
    def test_dt_is_map_steps_per_sample(self, system, params, map_steps):
        lam = [
            run(ExperimentConfig(id="dt", system=system, dt=dt, steps=map_steps // dt, **params))
            .summary["lambda"]
            for dt in (1, 2)
        ]
        assert lam[1] == pytest.approx(lam[0], rel=0.10)

    @pytest.mark.parametrize("dt", [1, 2])
    def test_r_adic_matches_explicit_state_list(self, dt):
        # the README recipe, kept as the oracle of the streaming driver
        grid = GridBasis1D(2**12, 0.0, 1.0)
        rho = square_density(2.0**-6, grid)
        ref = sqrt_embed(rho)
        states = [ref]
        for _ in range(8):
            for _ in range(dt):
                rho = transfer_step(rho, r_adic_map(2))
            states.append(sqrt_embed(rho))
        div = divergence_series(
            np.arange(9.0) * dt, [overlap_magnitude(s, ref) for s in states]
        )
        res = run(ExperimentConfig(id="radic", system="r_adic", steps=8, dt=dt, grid_n=2**12,
                                   init_width=2.0**-6))
        assert np.array_equal(res.divergence.times, div.times)
        assert np.array_equal(res.divergence.distances, div.distances)
        assert np.array_equal(res.divergence.log_values, div.log_values)

    @pytest.mark.parametrize("cells, snapped", [(3, 3), (2.5, 2)])
    def test_baker_classical_matches_explicit_state_list(self, cells, snapped):
        # the slab [0, width) x [0, 1) built by hand on whole cells, evolved
        # on every cell by the gather oracle
        n = 2**6
        values = np.zeros((n, n))
        values[:snapped, :] = n / snapped
        ref = sqrt_embed(GridDensity(values, GridBasis2D(n, n)))
        states = [ref]
        for _ in range(8):
            values = gather_baker_kernel(values)
            states.append(sqrt_embed(GridDensity(values, GridBasis2D(n, n))))
        div = divergence_series(np.arange(9.0), [overlap_magnitude(s, ref) for s in states])
        cfg = ExperimentConfig(id="bak", system="baker_classical", steps=8, grid_m=6,
                               init_width=cells / n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a whole-cell width does not warn
            with pytest.warns(UserWarning) if cells % 1 else contextlib.nullcontext():
                res = run(cfg)
        if snapped & (snapped - 1):
            # a slab of 3 cells has irrational amplitudes: the runner sums the
            # overlap over blocks, in another order than a full vdot
            np.testing.assert_allclose(
                np.cos(res.divergence.distances / 2), np.cos(div.distances / 2), rtol=1e-12
            )
            np.testing.assert_allclose(res.divergence.log_values, div.log_values, rtol=1e-12)
        else:
            assert np.array_equal(res.divergence.distances, div.distances)
            assert np.array_equal(res.divergence.log_values, div.log_values)

    @pytest.mark.parametrize(
        "system, params",
        [("baker_classical", dict(grid_m=10, init_width=c / 2**10)) for c in range(1, 17)]
        + [("r_adic", dict(r=r)) for r in (2, 3)],
    )
    def test_streamed_overlaps_match_the_embedded_oracle(self, system, params):
        # the runner sums blocks against the reference's support (for the baker,
        # a reference embedded on n x 1 cells) and takes the norm from the
        # conserved mass; the oracle embeds every state on the full grid, and
        # evolves the baker slab on every cell by the gather oracle
        steps = (20, 40) if system == "baker_classical" else (20,)
        cfgs = [ExperimentConfig(id="oracle", system=system, steps=s, **params) for s in steps]
        if params.get("init_width") == 2.0**-8:
            cfgs.append(ExperimentConfig(id="oracle", system=system))  # the default run
        values, _ = runner._params(cfgs[0])
        if system == "r_adic":
            m = r_adic_map(values["r"])
            rho = square_density(values["init_width"], GridBasis1D(values["grid_n"]))
            step = lambda rho: transfer_step(rho, m)  # noqa: E731
        else:
            n = 2 ** values["grid_m"]
            x = square_density(values["init_width"], GridBasis1D(n)).values
            rho = GridDensity(np.repeat(x[:, None], n, axis=1), GridBasis2D(n, n))
            step = lambda rho: GridDensity(gather_baker_kernel(rho.values), rho.geometry)  # noqa: E731
        ref = sqrt_embed(rho)
        oracle = [overlap_magnitude(ref, ref)]
        for _ in range(max(steps)):
            rho = step(rho)
            oracle.append(overlap_magnitude(sqrt_embed(rho), ref))
        for cfg in cfgs:
            res = run(cfg)
            overlaps = oracle[: res.divergence.times.size]
            div = divergence_series(res.divergence.times, overlaps, theta=cfg.theta)
            np.testing.assert_allclose(np.cos(res.divergence.distances / 2), overlaps, rtol=1e-12)
            np.testing.assert_allclose(res.divergence.log_values, div.log_values, rtol=1e-12)
            estimate, outcome = runner._estimate_and_classify(cfg, div)
            assert res.summary["lambda"] == pytest.approx(outcome["lambda"], rel=1e-12)
            assert res.estimate.fit_window == estimate.fit_window
            assert (res.summary["saturation_time"], res.summary["classification"]) == (
                outcome["saturation_time"], outcome["classification"])

    @pytest.mark.parametrize(
        "system, params",
        [
            ("r_adic", dict(r=3, grid_n=3**7, init_width=5 / 3**7)),
            ("baker_classical", dict(grid_m=6, init_width=3 / 64)),
            ("bvs_baker", dict(n_dim=96, q0=0.3, p0=0.55)),
        ],
    )
    def test_first_sample_is_the_reference(self, system, params):
        res = run(ExperimentConfig(id="zero", system=system, steps=4, **params))
        assert res.divergence.distances[0] == 0.0
        assert np.isneginf(res.divergence.log_values[0])

    def test_baker_run_keeps_no_embedding_per_sample(self):
        # the slab is evolved on n blocks and its reference embedded on n x 1
        # cells, so a run holds a few arrays of n values; one array on the
        # n x n cells (8 n^2 bytes) would break the bound from n = 16 on
        for grid_m in (10, 14):
            cfg = ExperimentConfig(id="mem", system="baker_classical", grid_m=grid_m, steps=20)
            run(cfg)  # the first run in a process also pays for one-off allocations
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 8 * 2**grid_m, grid_m

    def test_run_holds_a_constant_number_of_states(self):
        cfg = ExperimentConfig(id="mem", system="baker_classical", grid_m=9, steps=20)
        run(cfg)  # the first run in a process also pays for one-off allocations
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex state on the 512 x 512 grid takes 16 * 512^2 bytes; a run
        # that kept all 21 of its states would peak above 21 of them
        assert peak < 8 * 16 * 512**2

    def test_overlap_file_system(self, tmp_path):
        t = np.arange(400.0)
        o = np.exp(-2 * 0.017 * t)
        p = tmp_path / "series.csv"
        p.write_text("t,overlap\n" + "\n".join(f"{ti},{oi}" for ti, oi in zip(t, o)) + "\n")
        res = ingest(p, convention="probability", out_dir=tmp_path, theta=0.0)
        assert res.summary["classification"] == "unstable"
        assert res.summary["lambda"] == pytest.approx(0.017, rel=0.05)

    def test_ingest_records_the_default_convention(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("t,overlap\n" + "".join(f"{k},{math.exp(-0.02 * k)}\n" for k in range(100)))
        res = ingest(p)
        assert res.summary["config"]["convention"] is None
        assert res.summary["provenance"]["defaults_applied"]["convention"] == "amplitude"
        assert res.summary["lambda"] == ingest(p, convention="amplitude").summary["lambda"]

    def test_constant_overlap_file_is_stable(self, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("t,overlap\n" + "\n".join(f"{k},0.8" for k in range(20)) + "\n")
        res = ingest(p, out_dir=tmp_path)
        assert res.summary["classification"] == "stable"

    @pytest.mark.parametrize("setting", [{"foo": 1}, {"mode": "pointwise"}])
    def test_ingest_unknown_setting_named(self, tmp_path, setting):
        p = tmp_path / "const.csv"
        p.write_text("t,overlap\n" + "\n".join(f"{k},0.8" for k in range(20)) + "\n")
        with pytest.raises(ConfigError) as err:
            ingest(p, **setting)
        assert err.value.field == next(iter(setting))

    @pytest.mark.parametrize(
        "name, exp_id",
        [("my run.csv", "ingest-my_run"), ("a\tb\\c d.csv", "ingest-a_b_c_d"),
         ("plain.csv", "ingest-plain")],
    )
    def test_ingest_id_from_any_file_name(self, tmp_path, name, exp_id):
        p = tmp_path / name
        p.write_text("t,overlap\n" + "".join(f"{k},{math.exp(-0.02 * k)}\n" for k in range(100)))
        res = ingest(p, out_dir=tmp_path / "api")
        assert res.out_dir == tmp_path / "api" / exp_id
        assert res.config.path == str(p)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", str(p), "--out", str(tmp_path / "cli")]) == EXIT_OK
        assert (tmp_path / "cli" / exp_id / "summary.json").exists()


class TestFigures:
    def test_fig1a_curves_monotone_toward_targets(self, tmp_path):
        results = figure("fig1a", tmp_path)
        targets = {"fig1a-r2": np.log(2) / 2, "fig1a-r3": np.log(3) / 2, "fig1a-r5": np.log(5) / 2}
        for res in results:
            lam = res.estimate.finite_time_curve[:, 1]
            target = targets[res.config.id]
            assert np.all(np.diff(lam) > -1e-12)  # monotone approach
            assert np.all(np.diff(target - lam) < 1e-12)  # shrinking gap, from below
            assert lam[-1] == pytest.approx(target, rel=0.05)
            # the regression estimate removes the O(1/t) tail
            assert res.summary["lambda"] == pytest.approx(target, rel=0.01)
        svg = (tmp_path / "fig1a.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

    def test_unknown_figure_named(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            figure("fig9", tmp_path)
        assert err.value.field == "figure"

    def test_fig1a_reruns_byte_identical(self, tmp_path):
        figure("fig1a", tmp_path / "a")
        figure("fig1a", tmp_path / "b")
        for sub in ("fig1a-r2", "fig1a-r3", "fig1a-r5"):
            for name in ("distance.csv", "divergence.csv", "lambda_t.csv"):
                a = (tmp_path / "a" / sub / name).read_bytes()
                b = (tmp_path / "b" / sub / name).read_bytes()
                assert a == b


def _oracle_csv(config_hash, header, rows):
    lines = [f"# config_hash={config_hash}", header] + [",".join(row) for row in rows]
    return "".join(line + "\n" for line in lines)


def _assert_csvs_match_oracle(res):
    """Each CSV of a run equals the per-value formatting of its series."""
    div, h = res.divergence, res.summary["config_hash"]
    expected = {
        "distance.csv": _oracle_csv(h, "t,d_p,saturated", (
            (f"{t:.17g}", f"{v:.17g}", str(int(s)))
            for t, v, s in zip(div.times, div.distances, div.saturated))),
        "divergence.csv": _oracle_csv(h, "t,log_divergence,saturated", (
            (f"{t:.17g}", f"{v:.17g}", str(int(s)))
            for t, v, s in zip(div.times, div.log_values, div.saturated))),
        "lambda_t.csv": _oracle_csv(h, "t,lambda_t", (
            (f"{t:.17g}", f"{v:.17g}") for t, v in runner._curve(res))),
    }
    for name, text in expected.items():
        assert (res.out_dir / name).read_bytes() == text.encode(), name


def _polyline_oracle(curves, hlines):
    """Each curve's points as the per-point loop formats them on render_line_plot's axes."""
    xs = np.concatenate([c[1] for c in curves])
    ys = np.concatenate([c[2] for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_vals = np.concatenate([ys[np.isfinite(ys)], [h for _, h in hlines]])
    y_lo, y_hi = float(y_vals.min()), float(y_vals.max())
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    points = []
    for _, cx, cy in curves:
        ok = np.isfinite(cy)
        points.append(" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(cx[ok], cy[ok])))
    return points


# every runner system at small sizes; "linear" starts its divergence at -inf and
# the period-2 bvs_baker packet at dt 1 saturates with an empty lambda_t curve
_SMALL_RUNS = {
    "linear": dict(r=2.0, steps=20),
    "r_adic": dict(grid_n=2**10, init_width=2.0**-6, steps=8, dt=2),
    "baker_classical": dict(grid_m=6, init_width=2.0**-4, steps=8),
    "oscillator": dict(omega=2.0, steps=200, dt=0.05),
    "barrier": dict(omega=2.0, steps=200, dt=0.05),
    "bvs_baker": dict(n_dim=64, dt=1),
    "overlap_file": dict(convention="probability"),
}


@pytest.fixture(scope="module")
def figure_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    return out, {fig_id: figure(fig_id, out) for fig_id in runner.FIGURE_IDS}


class TestWriters:
    def test_every_system_is_covered(self):
        assert set(_SMALL_RUNS) == set(runner._SYSTEMS)

    @pytest.mark.parametrize("system", sorted(_SMALL_RUNS))
    def test_run_csvs_match_oracle(self, tmp_path, system):
        params = dict(_SMALL_RUNS[system])
        if system == "overlap_file":
            params["path"] = str(tmp_path / "series.csv")
            (tmp_path / "series.csv").write_text(
                "t,overlap\n" + "".join(f"{k},{max(0.9**k, 0.001)}\n" for k in range(120)))
        res = run(ExperimentConfig(id=system, system=system, **params), out_dir=tmp_path)
        _assert_csvs_match_oracle(res)
        if system == "linear":
            assert (res.out_dir / "divergence.csv").read_text().splitlines()[2] == "0,-inf,0"
        if system == "bvs_baker":
            assert res.summary["classification"] == "saturated"
            assert (res.out_dir / "lambda_t.csv").read_text() == (
                f"# config_hash={res.summary['config_hash']}\nt,lambda_t\n")

    def test_ingest_csvs_match_oracle(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        t = np.arange(2000) * 0.01
        v = np.maximum(np.exp(-0.5 * t), 0.005 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, t.size)))
        rows = [f"{a!r},{b!r}" for a, b in zip(t.tolist(), v.tolist())]
        # the same series as LF, as CRLF, and with a whitespace-only line, which
        # only the row loop reads
        layouts = {
            "lf": "\n".join(["t,overlap", *rows, ""]),
            "crlf": "\r\n".join(["t,overlap", *rows, ""]),
            "blank": "\n".join(["t,overlap", *rows[:900], "  ", *rows[900:], ""]),
        }
        monkeypatch.setattr(floattext, "BLOCK_ROWS", 7)  # many % blocks per CSV
        row_loop = estimators._read_overlap_rows
        looped = []
        monkeypatch.setattr(estimators, "_read_overlap_rows",
                            lambda *args: looped.append(args) or row_loop(*args))
        outputs = {}
        for name, text in layouts.items():
            (tmp_path / name).mkdir()
            p = tmp_path / name / "noisy.csv"
            p.write_bytes(text.encode())
            res = ingest(p, out_dir=tmp_path / name)
            _assert_csvs_match_oracle(res)
            outputs[name] = [(res.out_dir / f).read_bytes().split(b"\n", 1)[1]
                             for f in ("distance.csv", "divergence.csv", "lambda_t.csv")]
        assert [str(args[0]) for args in looped] == [str(tmp_path / "blank" / "noisy.csv")]
        assert outputs["lf"] == outputs["crlf"] == outputs["blank"]

    def test_lambda_t_takes_the_series_t_text(self, tmp_path, monkeypatch):
        # negative, irregular times through -0.0, then a noisy plateau whose
        # saturated samples the curve skips: each lambda_t row must carry the
        # t text of its own sample
        rng = np.random.default_rng(11)
        gaps = rng.uniform(0.01, 0.05, 90)
        t = np.concatenate([-np.cumsum(gaps[:30])[::-1], [-0.0], np.cumsum(gaps[30:])])
        v = np.maximum(np.exp(-2.0 * (t - t[0])), 0.02 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, t.size)))
        p = tmp_path / "irregular.csv"
        p.write_text("t,overlap\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist())))
        monkeypatch.setattr(floattext, "BLOCK_ROWS", 7)
        res = ingest(p, out_dir=tmp_path)
        _assert_csvs_match_oracle(res)
        div, curve = res.divergence, res.estimate.finite_time_curve
        assert div.saturated.any() and curve[-1, 0] > div.times[np.argmax(div.saturated)]
        lines = (res.out_dir / "lambda_t.csv").read_text().splitlines()[2:]
        assert "-0" in [line.split(",")[0] for line in lines]

    # the three tests above with 7-row kernel blocks: every block of every series
    # takes the kernel, its last too
    @pytest.mark.parametrize("system", sorted(_SMALL_RUNS))
    def test_run_csvs_match_oracle_in_kernel_blocks(self, tmp_path, monkeypatch, system):
        _kernel_blocks(monkeypatch)
        self.test_run_csvs_match_oracle(tmp_path, system)

    def test_ingest_csvs_match_oracle_in_kernel_blocks(self, tmp_path, monkeypatch):
        _kernel_blocks(monkeypatch)
        self.test_ingest_csvs_match_oracle(tmp_path, monkeypatch)

    def test_lambda_t_takes_the_series_t_text_in_kernel_blocks(self, tmp_path, monkeypatch):
        _kernel_blocks(monkeypatch)
        self.test_lambda_t_takes_the_series_t_text(tmp_path, monkeypatch)

    @pytest.mark.parametrize("rows", ["edge-1", "edge", "edge+1", "2edge+1", "linear",
                                      "kernel-1", "kernel", "kernel+1", "2kernel+1"])
    def test_distance_and_divergence_share_t_and_flag_text(self, tmp_path, rows):
        # around the real KERNEL_ROWS (% to kernel) and BLOCK_ROWS (kernel blocks,
        # then %): ingests that end on a noisy saturated plateau, and the default
        # linear run, whose t = 0 row has log_divergence -inf
        edge = floattext.BLOCK_ROWS if "kernel" in rows else floattext.KERNEL_ROWS
        if rows == "linear":
            res = run(ExperimentConfig(id="linear", system="linear"), out_dir=tmp_path)
        else:
            n = {"edge-1": edge - 1, "edge": edge, "edge+1": edge + 1, "2edge+1": 2 * edge + 1}[
                rows.replace("kernel", "edge")]
            rng = np.random.default_rng(n)
            t = np.arange(n) * (25.0 / n)
            v = np.maximum(np.exp(-0.5 * t), 0.005 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, n)))
            p = tmp_path / "plateau.csv"
            p.write_text("t,overlap\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist())))
            res = ingest(p, out_dir=tmp_path)
        _assert_csvs_match_oracle(res)
        div = res.divergence
        assert div.saturated.any() and not div.saturated.all()
        assert rows == "linear" or div.saturated[edge - 8:].all()
        fields = {}
        for name in ("distance.csv", "divergence.csv"):
            lines = (res.out_dir / name).read_text().splitlines()[2:]
            fields[name] = [(line.split(",")[0], line.split(",")[2]) for line in lines]
        assert len(fields["distance.csv"]) == div.times.size
        assert fields["distance.csv"] == fields["divergence.csv"]
        assert {flag for _, flag in fields["distance.csv"]} == {"0", "1"}

    def test_figure_csvs_match_oracle(self, figure_runs):
        for results in figure_runs[1].values():
            for res in results:
                _assert_csvs_match_oracle(res)

    def test_figure_polylines_match_oracle(self, figure_runs):
        out, runs = figure_runs
        for fig_id, results in runs.items():
            curves = [(r.config.id, *r.estimate.finite_time_curve.T) for r in results]
            svg = (out / f"{fig_id}.svg").read_text()
            points = re.findall(r'<polyline points="([^"]*)"', svg)
            assert points == _polyline_oracle(curves, runner._FIGURES[fig_id][1]), fig_id

    def test_figure_csvs_match_oracle_in_kernel_blocks(self, tmp_path, monkeypatch):
        _kernel_blocks(monkeypatch)
        for fig_id in runner.FIGURE_IDS:
            for res in figure(fig_id, tmp_path):
                _assert_csvs_match_oracle(res)

    @pytest.mark.parametrize("rows", [floattext.KERNEL_ROWS - 1, floattext.KERNEL_ROWS],
                             ids=["kernel-1", "kernel"])
    def test_a_series_of_one_kernel_block_takes_the_kernel(self, tmp_path, monkeypatch, rows):
        frames = _frame_sizes(monkeypatch)
        res = run(ExperimentConfig(id="linear", system="linear", steps=rows - 1), out_dir=tmp_path)
        _assert_csvs_match_oracle(res)
        assert (rows >= floattext.KERNEL_ROWS) == bool(frames)
        assert all(floattext.KERNEL_ROWS <= size <= floattext.BLOCK_ROWS for size in frames)

    def test_a_series_past_its_kernel_blocks_ends_in_a_percent_block(self, tmp_path, monkeypatch):
        # one kernel block, then KERNEL_ROWS - 1 rows of % in the same files
        frames = _frame_sizes(monkeypatch)
        rows = floattext.BLOCK_ROWS + floattext.KERNEL_ROWS - 1
        res = run(ExperimentConfig(id="linear", system="linear", steps=rows - 1), out_dir=tmp_path)
        _assert_csvs_match_oracle(res)
        assert frames == [floattext.BLOCK_ROWS] * 3  # t, distance and divergence


def _kernel_blocks(monkeypatch):
    """7-row blocks, each of them, the last too, through the kernel."""
    monkeypatch.setattr(floattext, "BLOCK_ROWS", 7)
    monkeypatch.setattr(floattext, "KERNEL_ROWS", 1)


def _frame_sizes(monkeypatch) -> list:
    """The size of each block that float_frame formats from now on."""
    sizes = []
    kernel = floattext.float_frame
    monkeypatch.setattr(floattext, "float_frame", lambda x: sizes.append(x.size) or kernel(x))
    return sizes


# every system's small run, an ingest long enough for the float kernel, and fig1a;
# prints the heavy modules that plyap loaded beyond a bare "import numpy"
_FOOTPRINT_SCRIPT = """
import json, sys
import numpy
heavy = ("_hashlib", "numpy.ma")
bare = {name for name in heavy if name in sys.modules}
from plyap import ExperimentConfig, figure, ingest, run
runs, series, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
for system, params in runs.items():
    run(ExperimentConfig(id=system, system=system, **params), out_dir=out)
ingest(series, out_dir=out)
figure("fig1a", out)
print(json.dumps([name for name in heavy if name in sys.modules and name not in bare]))
"""


class TestStartupFootprint:
    def test_runs_load_no_openssl_or_numpy_ma(self, tmp_path):
        # hashlib maps OpenSSL (about 3.6 MB) and np.median imports numpy.ma
        # (about 0.75 MB): both are start-up cost of every plyap process
        rng = np.random.default_rng(3)
        t = np.arange(3000) * 0.01
        v = np.maximum(np.exp(-0.5 * t), 0.005 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, t.size)))
        series = tmp_path / "noisy.csv"
        series.write_text("t,overlap\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist())))
        runs = {**_SMALL_RUNS, "overlap_file": {**_SMALL_RUNS["overlap_file"], "path": str(series)}}
        src = os.path.dirname(os.path.dirname(os.path.abspath(runner.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT, json.dumps(runs), str(series), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == []


def _kernel_text(values) -> bytes:
    x = np.array(values, dtype=np.float64)
    return floattext.row_text([floattext.float_frame(x), np.full((1, x.size), ord("\n"), dtype=np.uint8)])


def _percent_text(values) -> bytes:
    return "".join("%.17g\n" % v for v in values).encode()


def _kernel_grid():
    """Values on every edge of the kernel's fast range, and their negatives."""
    grid = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    for k in range(-6, 19):
        grid += [np.nextafter(10.0**k, 0.0), 10.0**k, np.nextafter(10.0**k, math.inf)]
    for edge in (1e-4, 1e17):  # the ends of the positional range, 40 ulps each way
        for direction in (0.0, math.inf):
            v = edge
            for _ in range(40):
                v = np.nextafter(v, direction)
                grid.append(v)
    # exact half-way cases: 1e15 + 0.25 scales to ...2.5 and rounds to even
    grid += [1e15 + 0.25, 1e15 + 0.75, 1e15 + 0.125, 2.5e-4, 0.5, 1.5, 2.5]
    return [float(v) for v in grid] + [-float(v) for v in grid]


class TestFloatKernel:
    def test_grid_matches_percent(self):
        grid = _kernel_grid()
        assert _kernel_text(grid) == _percent_text(grid)
        assert _percent_text([1e15 + 0.25, 1e15 + 0.75]) == b"1000000000000000.2\n1000000000000000.8\n"

    @pytest.mark.parametrize("seed, kind", enumerate(
        ["bits", "log-uniform", "ulps-of-powers", "short-decimals"]))
    def test_blocks_match_percent(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = floattext.BLOCK_ROWS
        for _ in range(16):
            if kind == "bits":
                x = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
            elif kind == "log-uniform":
                x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 18.0, n)
            elif kind == "ulps-of-powers":
                x = 10.0 ** rng.integers(-5, 18, n) * (1.0 + rng.integers(-4, 5, n) * 2.0**-52)
            else:
                x = rng.integers(1, 10**9, n) * 10.0 ** rng.integers(-13, 9, n)
            assert _kernel_text(x) == _percent_text(x.tolist())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e-4, -1e17])
    def test_any_floats_match_percent(self, values):
        assert _kernel_text(values) == _percent_text(values)


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        cfg = {"id": "lin", "system": "linear", "r": 2.0, "steps": 30, "theta": 0.0}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["run", str(p), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "unstable"

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"id": "x", "system": "linear", "bogus": 1}))
        assert main(["run", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["run", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        assert main(["run", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "JSON object" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_barrier_start_exits_0(self, tmp_path):
        # omega0 / omega = 1e160: its square overflowed into a NaN series (exit 4)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"id": "b", "system": "barrier", "omega": 1.0, "omega0": 1e160}))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.filterwarnings("ignore:square width")
    def test_unallocatable_run_exits_4(self, tmp_path, capsys):
        # 10^15 cells is 7 PiB, which numpy refuses at once without allocating
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"id": "b", "system": "r_adic", "grid_n": 10**15}))
        assert main(["run", str(p), "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err

    def test_ingest_header_only_exits_3(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("t,overlap\n")
        assert main(["ingest", str(p), "--out", str(tmp_path)]) == EXIT_DATA
        assert "no data rows" in capsys.readouterr().err

    def test_ingest_bad_row_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("t,overlap\n0,1.0\n1,2.0\n")
        assert main(["ingest", str(p), "--out", str(tmp_path)]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

    def test_overlap_file_too_short_for_delta_index_exits_3(self, tmp_path, capsys):
        # three rows fit at delta_index 1, but delta_index 2 needs four
        p = tmp_path / "short.csv"
        p.write_text("t,overlap\n0,1.0\n1,0.5\n2,0.25\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"id": "of", "system": "overlap_file", "path": str(p), "delta_index": 2}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {p}: 3 data rows")

    @pytest.mark.parametrize("theta", [None, 0.0])
    def test_window_past_the_run_exits_2(self, tmp_path, capsys, theta):
        # the fit times of 20 linear steps are 0 ... 19, so [30, 40] holds none
        cfg = {"id": "lp", "system": "linear", "steps": 20, "window": [30, 40]}
        if theta is not None:
            cfg["theta"] = theta
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: window [30, 40] holds none")
        assert "Traceback" not in err

    @pytest.mark.parametrize("theta", [None, 0.0])
    @pytest.mark.parametrize("params, message", [
        ({"system": "linear", "steps": 20, "window": [17, 40]},
         "window [17, 40] holds only 3 of the fit times 0 ... 19; a fit needs 4"),
        ({"system": "linear", "steps": 20, "window": [None, 0.5]},
         "window [null, 0.5] holds only 1 of the fit times 0 ... 19; a fit needs 2"),
        ({"system": "overlap_file", "window": [26, 40]},
         "window [26, 40] holds only 3 of the fit times 0 ... 28; a fit needs 4"),
        ({"system": "overlap_file", "window": [40, 50]},
         "window [40, 50] holds none of the fit times 0 ... 28; a fit needs 4"),
        ({"system": "linear", "steps": 20, "window": [17, None]},
         "window [17, null] holds only 3 of the fit times 0 ... 19; a fit needs 4"),
        ({"system": "overlap_file", "window": [26, None]},
         "window [26, null] holds only 3 of the fit times 0 ... 28; a fit needs 4"),
    ], ids=["linear-3", "linear-open-start-1", "file-3", "file-past-the-end",
            "linear-open-end-3", "file-open-end-3"])
    def test_window_too_short_to_fit_exits_2(self, tmp_path, capsys, params, message, theta):
        # a file window is checked against the file's own times: 30 rows, fit times 0 ... 28
        series = tmp_path / "s.csv"
        series.write_text("t,overlap\n" + "".join(f"{k},{0.9**k}\n" for k in range(30)))
        cfg = {"id": "w", **params}
        if params["system"] == "overlap_file":
            cfg["path"] = str(series)
        if theta is not None:
            cfg["theta"] = theta
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "figure", "ingest", "long id"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        series = tmp_path / "s.csv"
        series.write_text("t,overlap\n" + "".join(f"{k},{0.9**k}\n" for k in range(12)))
        cfg = tmp_path / "cfg.json"
        exp_id = "x" * 300 if command == "long id" else "lin"
        cfg.write_text(json.dumps({"id": exp_id, "system": "linear", "steps": 5}))
        argv = {
            "run": ["run", str(cfg), "--out", str(blocker)],
            "figure": ["figure", "fig1a", "--out", str(blocker)],
            "ingest": ["ingest", str(series), "--out", str(blocker)],
            "long id": ["run", str(cfg), "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert str(tmp_path / "out" / exp_id if command == "long id" else blocker) in err

    def test_ingest_command(self, tmp_path, capsys):
        t = np.arange(300.0)
        p = tmp_path / "s.csv"
        p.write_text("t,overlap\n" + "\n".join(f"{k},{v}" for k, v in zip(t, np.exp(-0.02 * t))))
        code = main(
            ["ingest", str(p), "--convention", "amplitude", "--out", str(tmp_path / "o"),
             "--theta", "0.0"]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "unstable"
        assert out["lambda"] == pytest.approx(0.02, rel=0.05)

    def test_figure_command(self, tmp_path, capsys):
        assert main(["figure", "fig1a", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fig1a-r5: unstable" in out
        assert (tmp_path / "fig1a.svg").exists()

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        assert "all checks passed" in capsys.readouterr().out

    def test_selftest_reports_a_failing_check(self, monkeypatch, capsys):
        name = "r_adic: lambda within 5% of ln(2)/2"
        fields, _ = cli._RUNS[name]
        monkeypatch.setitem(cli._RUNS, name, (fields, lambda s: s["lambda"] > 1e300))
        assert main(["selftest"]) == EXIT_NUMERICAL
        lines = capsys.readouterr().out.splitlines()
        assert f"FAIL  {name}" in lines
        assert sum(line.startswith("FAIL") for line in lines) == 1
        assert lines[-1] == "1 check(s) failed"


class TestSummarySchema:
    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            validate_summary({"id": "x"})

    def test_bad_classification_rejected(self):
        doc = {
            "id": "x", "config": {}, "config_hash": "h", "classification": "wobbly",
            "lambda": None, "fit_window": None, "residual": None,
            "saturation_time": None, "provenance": {},
        }
        with pytest.raises(ConfigError):
            validate_summary(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            validate_summary(["id", "x"])

    def test_wrong_type_rejected(self):
        doc = {
            "id": "x", "config": {}, "config_hash": "h", "classification": "stable",
            "lambda": "0.1", "fit_window": None, "residual": None,
            "saturation_time": None, "provenance": {},
        }
        with pytest.raises(ConfigError) as err:
            validate_summary(doc)
        assert err.value.field == "lambda"

    def test_valid_document_passes(self):
        doc = {
            "id": "x", "config": {}, "config_hash": "h", "classification": "stable",
            "lambda": 0.1, "fit_window": [0.0, 1.0], "residual": 0.01,
            "saturation_time": None, "provenance": {"package_version": "0.1.0"},
        }
        assert validate_summary(doc)


# every out-of-domain config the runner once mis-handled, with the field the
# config error must name
_OUT_OF_DOMAIN = [
    ({"id": "x", "system": "bvs_baker", "n_dim": 63}, "n_dim"),
    ({"id": "x", "system": "bvs_baker", "n_dim": 64.0}, "n_dim"),
    ({"id": "x", "system": "bvs_baker", "n_dim": 64, "q0": 1.5}, "q0"),
    ({"id": "x", "system": "linear", "r": 0.5}, "r"),
    ({"id": "x", "system": "r_adic", "grid_n": 256, "init_width": 2.0}, "init_width"),
    ({"id": "x", "system": "r_adic", "grid_n": 256, "r": 3.9}, "r"),
    ({"id": "x", "system": "baker_classical", "grid_m": 0}, "grid_m"),
    ({"id": "x", "system": "linear", "steps": 2.5}, "steps"),
    ({"id": "x", "system": "linear", "steps": True}, "steps"),
    ({"id": "x", "system": "linear", "window": [30, 5]}, "window"),
    ({"id": "x", "system": "linear", "steps": 4, "dt": 0.5}, "dt"),
    ({"id": "x", "system": "linear", "steps": 4, "dt": 2}, "dt"),
    ({"id": "x", "system": "linear", "dt": 1}, "dt"),
    ({"id": "x", "system": "overlap_file", "path": "series.csv", "steps": 4}, "steps"),
    ({"id": "x", "system": "overlap_file", "path": "series.csv", "dt": 1.0}, "dt"),
    ({"id": ".", "system": "linear"}, "id"),
    ({"id": "..", "system": "linear"}, "id"),
    ({"id": "a\x00b", "system": "linear", "steps": 5}, "id"),
    ({"id": "x", "system": "linear", "grid_m": 5}, "grid_m"),
    ({"id": "x", "system": "baker_classical", "n_dim": 8}, "n_dim"),
    ({"id": "x", "system": "linear", "convention": "amplitude"}, "convention"),
    ({"id": "l", "system": "linear", "steps": 1}, "steps"),
    ({"id": "x", "system": "r_adic", "grid_n": 64, "steps": 3, "delta_index": 3}, "steps"),
    ({"id": "x", "system": "r_adic", "grid_n": 2**62}, "grid_n"),
    ({"id": "x", "system": "r_adic", "steps": 2**62}, "steps"),
    ({"id": "x", "system": "baker_classical", "grid_m": 62}, "grid_m"),
    ({"id": "x", "system": "baker_classical", "grid_m": 2000}, "grid_m"),
    ({"id": "lp", "system": "linear", "steps": 20, "window": [30, 40]}, "window"),
    ({"id": "lp", "system": "linear", "steps": 20, "window": [17, 40]}, "window"),
    ({"id": "lp", "system": "linear", "steps": 20, "window": [None, 0.5]}, "window"),
]

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)
_SYSTEM_NAMES = sorted(runner._SYSTEMS)
# mostly in-domain values at small sizes; a size left out would fall back to a
# large default, so a system's size is always given
_SIZES = {
    "steps": st.integers(1, 12),
    "grid_n": st.integers(1, 256),
    "grid_m": st.integers(1, 6),
    "n_dim": st.integers(1, 32).map(lambda k: 2 * k),
}
_PARAMETERS = {
    "r": st.one_of(st.integers(2, 5), st.floats(1.01, 6.0)),
    "init_width": st.floats(1e-3, 1.0),
    "omega": st.floats(0.1, 6.0),
    "omega0": st.floats(0.1, 6.0),
    "q0": st.floats(0.0, 0.99),
    "p0": st.floats(0.0, 0.99),
    "alpha": st.floats(1e-3, 1.0),
    "dt": st.sampled_from([1, 2, 1.0, 0.5, 0.05]),
    "path": st.sampled_from(["series.csv", "missing.csv", "."]),
    "convention": st.sampled_from(["amplitude", "probability"]),
}
_SETTINGS = {
    "theta": st.floats(0.0, 1.5),
    "delta_index": st.integers(1, 4),
    "window": st.lists(st.one_of(st.none(), st.floats(-5.0, 20.0)), min_size=2, max_size=2),
    "stable_threshold": st.floats(0.0, 1.0),
}


def _system_configs(system):
    """Configs of one system that set only its own parameters."""

    def own(strategies):
        return {k: v for k, v in strategies.items() if k in runner._SYSTEMS[system][0]}

    return st.fixed_dictionaries(
        {"id": st.sampled_from(["run", "a-1"]), "system": st.just(system), **own(_SIZES)},
        optional={**_SETTINGS, **own(_PARAMETERS)},
    )


_CONFIGS = st.sampled_from(_SYSTEM_NAMES).flatmap(_system_configs)
# at most one field (or a removed one, now unknown) replaced by a value of any JSON type
_MUTATIONS = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__) + ["seed", "mode", "b"]),
        _JUNK,
    ),
)


# cells an overlap CSV may hold: junk text, numbers, non-finite and extreme floats
_CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.integers(-5, 50).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-400", "1e400"]),
)


@st.composite
def _overlap_csvs(draw):
    """A decaying overlap series with at most three cells replaced."""
    n = draw(st.integers(1, 24))
    rate = draw(st.floats(0.0, 2.0))
    rows = [[repr(float(k)), repr(math.exp(-rate * k))] for k in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(_CELLS)
    return "t,overlap\n" + "".join(",".join(row) + "\n" for row in rows)


def _parsed_times(path):
    """The time column as read_overlap_csv parses it, or None if a row does not parse."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return [float(row[0]) for row in rows if row and (len(row) > 1 or row[0].strip())]
    except (OSError, UnicodeDecodeError, csv.Error, IndexError, ValueError):
        return None


def _with_examples(test):
    for cfg, _ in _OUT_OF_DOMAIN:
        test = example(cfg, None)(test)
    for path in ("series.csv", "missing.csv", "."):
        test = example({"id": "run", "system": "overlap_file", "path": path}, None)(test)
    return test


@st.composite
def _windowed_configs(draw):
    """A linear or barrier (omega 1) config at theta 0 with a window whose bounds
    are open, arbitrary, or on or next to one of the run's times."""
    delta = draw(st.integers(1, 4))
    cfg = {"id": "w", "system": draw(st.sampled_from(["linear", "barrier"])),
           "steps": draw(st.integers(delta + 1, 12)), "delta_index": delta, "theta": 0.0}
    dt = 1.0
    if cfg["system"] == "barrier":
        dt = cfg["dt"] = draw(st.sampled_from([0.05, 0.1, 0.3, 0.7, 1.0]))
        cfg["omega"] = 1.0
    on = st.integers(-1, 13).map(lambda k: k * dt)
    bound = st.one_of(st.none(), st.floats(-1.0, 13.0), on, st.tuples(
        on, st.sampled_from([-math.inf, math.inf])).map(lambda p: math.nextafter(*p)))
    window = [draw(bound), draw(bound)]
    return {**cfg, "window": window if None in window else sorted(window)}


class TestFitWindows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_windowed_configs())
    def test_accepted_windows_fit_and_rejected_ones_cannot(self, data):
        try:
            cfg = ExperimentConfig.from_dict(data)
        except ConfigError as exc:
            assert exc.field == "window"
            div = run(ExperimentConfig.from_dict({**data, "window": None})).divergence
            with pytest.raises(InsufficientDataError):
                estimators.asymptotic_estimate(
                    div, window=tuple(data["window"]), delta_index=data["delta_index"],
                    saturation_time=estimators.detect_saturation(div))
        else:
            summary = run(cfg).summary
            assert summary["lambda"] is not None
            # a given start is never moved
            assert data["window"][0] is None or summary["fit_window"][0] >= data["window"][0]


class TestExitCodes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @_with_examples
    @given(_CONFIGS, _MUTATIONS)
    def test_every_config_ends_with_a_documented_exit_code(self, data, mutation):
        if mutation is not None:
            data = {**data, mutation[0]: mutation[1]}
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with open(os.path.join(tmp, "series.csv"), "w") as fh:
                fh.write("t,overlap\n" + "".join(f"{k},{0.9**k}\n" for k in range(12)))
            run_cfg = dict(data)
            if isinstance(data.get("path"), str) and data["path"]:
                run_cfg["path"] = os.path.join(tmp, data["path"])
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(run_cfg, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", cfg_path, "--out", os.path.join(tmp, "out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL)
        for cfg, field in _OUT_OF_DOMAIN:
            if data == cfg:
                assert code == EXIT_CONFIG
                assert f"config error: {field} " in err.getvalue()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @example("t,overlap\n0,1.0\n1,0.5\n1,0.25\n")
    @example("t,overlap\n0,1.0\n1,0.5\n0.5,0.25\n")
    @example("t,overlap\n0,1.0\n1,0.5\nnan,0.25\n")
    @example("t,overlap\n0,1.0\n1,0.5\ninf,0.25\n")
    @example("t,overlap\n-1.7e308,1.0\n-1e308,0.5\n0,0.25\n1e308,0.125\n1.7e308,0.1\n")
    @example("t,overlap\n0,1.0\n")
    @example("t,overlap\n0,1.0\n1,0.5\n")
    @given(_overlap_csvs())
    def test_every_overlap_csv_ends_with_a_documented_exit_code(self, text):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = os.path.join(tmp, "series.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            times = _parsed_times(path)
            bad_times = bool(times) and not (
                np.all(np.isfinite(times)) and np.all(np.diff(times) > 0.0)
                and np.isfinite(times[-1] - times[0]))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["ingest", path, "--out", os.path.join(tmp, "out")])
        assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERICAL)
        if bad_times:
            assert code == EXIT_DATA
        # the estimator needs delta_index + 2 = 3 rows; fewer is a data error
        if times is not None and len(times) < 3:
            assert code == EXIT_DATA


@st.composite
def _overlap_csv_layouts(draw):
    """A file of _overlap_csvs as other writers may lay it out: quoted cells, an
    extra column, blank and whitespace-only lines, CRLF or CR line ends, no
    final line end."""
    header, *rows = draw(_overlap_csvs()).split("\n")[:-1]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows[i] = ",".join(f'"{cell}"' for cell in rows[i].split(","))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows[i] += draw(st.sampled_from([",", ",x", ',"a,b"', ",1,2"]))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " ", "\t", '""'])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([header, *rows]) + draw(st.sampled_from([end, ""]))


def _read_or_error(read, path):
    """The bytes of the series read, or the message and row of its DataFormatError."""
    try:
        raw = read(path)
    except DataFormatError as exc:
        return str(exc), exc.row
    return raw.times.tobytes(), raw.overlaps.tobytes()


class TestOverlapCsvReaders:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @example("t,overlap\n1_0,1.0\n11,0.5\n12,0.25\n")
    @example("t,overlap\n0,1.0\n \n1,0.5\n2,0.25\n")
    @example("t,overlap\n")
    @example("t,overlap\n0,1.0\n1,0.5\n2,\x1f0.25\n")
    @example("t,overlap\n0,1.0\x0c1,0.5\n2,0.25\n")
    @example("t,overlap\n0,1.0\u20281,0.5\n2,0.25\n")
    @example("t,overlap\n0,1.0\n1,0.5,\x00\n")
    @example("t,overlap\n0,1.0\n1,0.5,x\n" + "0" * 140_000 + "2,0.25\n")
    @example('t,overlap\n0,1.0,"' + "x" * 140_000 + '"\n1,0.5\n')
    @given(_overlap_csv_layouts())
    def test_c_pass_and_row_loop_agree(self, text):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = os.path.join(tmp, "series.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            fast = _read_or_error(estimators.read_overlap_csv, path)
            rows = _read_or_error(lambda p: estimators._read_overlap_rows(p, "amplitude"), path)
        assert fast == rows
