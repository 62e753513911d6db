import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plyap import (
    ConfigError,
    GridBasis1D,
    divergence_series,
    r_adic_map,
    runner,
    sqrt_embed,
    square_density,
    transfer_step,
    validate_summary,
)
from plyap.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from plyap.runner import ExperimentConfig, figure, ingest, run
from plyap.svgplot import _H, _MB, _ML, _MR, _MT, _W

LN2_HALF = np.log(2.0) / 2.0


class TestConfig:
    def test_from_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict(
            {"id": "x", "system": "linear", "r": 2.0, "steps": 10, "theta": 0.0}
        )
        assert cfg.r == 2.0
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"id": "x", "system": "linear", "sigma": 1.0})
        assert err.value.field == "sigma"

    def test_unknown_system_named(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"id": "x", "system": "pendulum"})
        assert err.value.field == "system"

    def test_unsafe_id_rejected(self):
        for unsafe in ("a/b", ".", ".."):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(id=unsafe, system="linear")
            assert err.value.field == "id"

    def test_map_systems_need_integer_dt(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(id="x", system="bvs_baker", dt=0.5)
        assert err.value.field == "dt"

    @pytest.mark.parametrize("window", [[30, 5], [5.0, 5.0], ["x", 5], [None, True], [1.0], "ab"])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(id="x", system="linear", window=window)
        assert err.value.field == "window"

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(id="x", system="linear", r=2.0)
        b = ExperimentConfig(id="x", system="linear", r=2.0)
        c = ExperimentConfig(id="x", system="linear", r=3.0)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()


class TestRun:
    def test_linear_r2_summary(self, tmp_path):
        cfg = ExperimentConfig(
            id="lin2", system="linear", r=2.0, b=1.0, steps=40, theta=0.0,
            window=(10.0, None),
        )
        res = run(cfg, out_dir=tmp_path)
        assert res.classification == "unstable"
        assert res.summary["lambda"] == pytest.approx(LN2_HALF, rel=0.01)
        for name in ("distance.csv", "divergence.csv", "lambda_t.csv", "summary.json"):
            assert (tmp_path / "lin2" / name).exists()
        validate_summary(res.summary)

    def test_config_hash_embedded_everywhere(self, tmp_path):
        cfg = ExperimentConfig(id="lin", system="linear", r=2.0, steps=20, theta=0.0)
        res = run(cfg, out_dir=tmp_path)
        h = cfg.hash()
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
        assert res.summary["config_hash"] == res.config.hash()

    def test_oscillator_classifies_stable(self):
        cfg = ExperimentConfig(
            id="osc", system="oscillator", omega=2.0, omega0=1.0,
            steps=1200, dt=0.05, theta=0.0,
        )
        res = run(cfg)
        assert res.classification == "stable"
        assert abs(res.summary["lambda"]) < 0.05

    def test_stationary_path_reports_stable(self):
        # omega0 = omega is a stationary ray: degenerate, classified stable
        cfg = ExperimentConfig(
            id="osc-ground", system="oscillator", omega=2.0, omega0=2.0,
            steps=100, dt=0.05, theta=0.0,
        )
        res = run(cfg)
        assert res.classification == "stable"
        assert res.summary["lambda"] is None
        assert "stationary" in res.summary["detail"]
        assert res.curve.shape == (0, 2)

    def test_r_adic_defaults_recorded(self):
        cfg = ExperimentConfig(id="radic", system="r_adic", steps=14, grid_n=2**12,
                               init_width=2.0**-6)
        res = run(cfg)
        assert res.classification == "unstable"
        assert res.summary["lambda"] == pytest.approx(LN2_HALF, rel=0.10)
        assert res.saturation_time is not None

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
        assert np.allclose(res.distance.values[:7], expect, atol=1e-10)
        assert res.classification == "unstable"
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

    @pytest.mark.parametrize(
        "system, params, map_steps",
        [
            ("r_adic", dict(grid_n=2**12, init_width=2.0**-12), 12),
            ("baker_classical", dict(grid_m=8, init_width=2.0**-8), 8),
            ("baker_koopman", dict(grid_m=8, init_width=2.0**-8), 8),
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
        dist, div = divergence_series(np.arange(9.0) * dt, states, ref)
        res = run(ExperimentConfig(id="radic", system="r_adic", steps=8, dt=dt, grid_n=2**12,
                                   init_width=2.0**-6))
        assert np.array_equal(res.distance.times, dist.times)
        assert np.array_equal(res.distance.values, dist.values)
        assert np.array_equal(res.divergence.log_values, div.log_values)

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

    def test_baker_koopman_runs(self):
        cfg = ExperimentConfig(id="bk", system="baker_koopman", steps=6,
                               grid_m=7, init_width=2.0**-5)
        res = run(cfg)
        assert res.classification in ("unstable", "saturated")

    def test_overlap_file_system(self, tmp_path):
        t = np.arange(400.0)
        o = np.exp(-2 * 0.017 * t)
        p = tmp_path / "series.csv"
        p.write_text("t,overlap\n" + "\n".join(f"{ti},{oi}" for ti, oi in zip(t, o)) + "\n")
        res = ingest(p, convention="probability", out_dir=tmp_path, theta=0.0)
        assert res.classification == "unstable"
        assert res.summary["lambda"] == pytest.approx(0.017, rel=0.05)

    def test_constant_overlap_file_is_stable(self, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("t,overlap\n" + "\n".join(f"{k},0.8" for k in range(20)) + "\n")
        res = ingest(p, out_dir=tmp_path)
        assert res.classification == "stable"

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
            lam = res.curve[:, 1]
            target = targets[res.config.id]
            assert np.all(np.diff(lam) > -1e-12)  # monotone approach
            assert np.all(np.diff(target - lam) < 1e-12)  # shrinking gap, from below
            assert lam[-1] == pytest.approx(target, rel=0.05)
            # the regression estimate removes the O(1/t) tail
            assert res.summary["lambda"] == pytest.approx(target, rel=0.01)
        svg = (tmp_path / "fig1a.svg").read_text()
        assert svg.count("<polyline") == 3
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")

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
    dist, div, h = res.distance, res.divergence, res.summary["config_hash"]
    expected = {
        "distance.csv": _oracle_csv(h, "t,d_p,saturated", (
            (f"{t:.17g}", f"{v:.17g}", str(int(s)))
            for t, v, s in zip(dist.times, dist.values, dist.saturated))),
        "divergence.csv": _oracle_csv(h, "t,log_divergence,saturated", (
            (f"{t:.17g}", f"{v:.17g}", str(int(s)))
            for t, v, s in zip(div.times, div.log_values, div.saturated))),
        "lambda_t.csv": _oracle_csv(h, "t,lambda_t", (
            (f"{t:.17g}", f"{v:.17g}") for t, v in res.curve)),
    }
    for name, text in expected.items():
        assert (res.out_dir / name).read_bytes() == text.encode(), name
    # the writers format the shared t and saturated columns once for both files
    assert np.array_equal(div.times, dist.times)
    assert np.array_equal(div.saturated, dist.saturated)


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
    "baker_koopman": dict(grid_m=6, init_width=2.0**-4, steps=6),
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
            assert res.classification == "saturated"
            assert (res.out_dir / "lambda_t.csv").read_text() == (
                f"# config_hash={res.summary['config_hash']}\nt,lambda_t\n")

    def test_ingest_csvs_match_oracle(self, tmp_path):
        p = tmp_path / "noisy.csv"
        rng = np.random.default_rng(5)
        t = np.arange(2000) * 0.01
        v = np.maximum(np.exp(-0.5 * t), 0.005 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, t.size)))
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), v.tolist()))
        p.write_text("t,overlap\n" + rows)
        _assert_csvs_match_oracle(ingest(p, out_dir=tmp_path))

    def test_figure_csvs_match_oracle(self, figure_runs):
        for results in figure_runs[1].values():
            for res in results:
                _assert_csvs_match_oracle(res)

    def test_figure_polylines_match_oracle(self, figure_runs):
        out, runs = figure_runs
        for fig_id, results in runs.items():
            curves = [(r.config.id, r.curve[:, 0], r.curve[:, 1]) for r in results]
            svg = (out / f"{fig_id}.svg").read_text()
            points = re.findall(r'<polyline points="([^"]*)"', svg)
            assert points == _polyline_oracle(curves, runner._FIGURES[fig_id][1]), fig_id


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

    def test_ingest_bad_row_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("t,overlap\n0,1.0\n1,2.0\n")
        assert main(["ingest", str(p), "--out", str(tmp_path)]) == EXIT_DATA
        assert "line 3" in capsys.readouterr().err

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
    ({"id": ".", "system": "linear"}, "id"),
    ({"id": "..", "system": "linear"}, "id"),
]

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)
_SYSTEM_NAMES = [
    "linear", "r_adic", "baker_classical", "baker_koopman", "oscillator", "barrier", "bvs_baker",
    "overlap_file",
]
# mostly in-domain values at small sizes; a size left out would fall back to a
# large default, so the sizes are always given
_CONFIGS = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["run", "a-1"]),
        "system": st.sampled_from(_SYSTEM_NAMES),
        "steps": st.integers(1, 12),
        "grid_n": st.integers(1, 256),
        "grid_m": st.integers(1, 6),
        "n_dim": st.integers(1, 32).map(lambda k: 2 * k),
    },
    optional={
        "dt": st.sampled_from([1, 2, 1.0, 0.5, 0.05]),
        "r": st.one_of(st.integers(2, 5), st.floats(1.01, 6.0)),
        "b": st.floats(0.01, 3.0),
        "init_width": st.floats(1e-3, 1.0),
        "omega": st.floats(0.1, 6.0),
        "omega0": st.floats(0.1, 6.0),
        "q0": st.floats(0.0, 0.99),
        "p0": st.floats(0.0, 0.99),
        "alpha": st.floats(1e-3, 1.0),
        "path": st.sampled_from(["series.csv", "missing.csv", "."]),
        "convention": st.sampled_from(["amplitude", "probability"]),
        "theta": st.floats(0.0, 1.5),
        "delta_index": st.integers(1, 4),
        "window": st.lists(st.one_of(st.none(), st.floats(-5.0, 20.0)), min_size=2, max_size=2),
        "stable_threshold": st.floats(0.0, 1.0),
    },
)
# at most one field (or a removed one, now unknown) replaced by a value of any JSON type
_MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__) + ["seed", "mode"]), _JUNK),
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
    sizes = {"steps": 4, "grid_n": 2, "grid_m": 1, "n_dim": 2}
    for path in ("series.csv", "missing.csv", "."):
        test = example({"id": "run", "system": "overlap_file", "path": path, **sizes}, None)(test)
    return test


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
