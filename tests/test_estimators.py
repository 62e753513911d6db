import math
import random
import tracemalloc
import urllib.request
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plyap import (
    DataFormatError,
    DegeneratePathError,
    DiscreteBasis,
    DivergenceSeries,
    DomainError,
    InsufficientDataError,
    OverlapSeries,
    ProjectiveState,
    asymptotic_estimate,
    baker_map,
    detect_saturation,
    divergence_series,
    estimators,
    evolve_linear_analytic,
    finite_time_p_lyapunov,
    ingest_overlap_series,
    overlap_magnitude,
    r_adic_map,
    read_overlap_csv,
    series_from_log_overlaps,
)
from plyap.quantum import GaussianState, QuadraticSystem, gaussian_autocorrelation

from oracles import apply_map, linear_map, lstsq_line, rotation_map, trajectory_lyapunov

LN2_HALF = np.log(2.0) / 2.0


def oscillator_divergence(omega=2.0, omega0=1.0, dt=0.05, steps=1200):
    sys = QuadraticSystem(omega, sign=+1)
    t = np.arange(steps + 1) * dt
    v = gaussian_autocorrelation(sys, GaussianState(omega0), t)
    return series_from_log_overlaps(t, np.log(np.minimum(v, 1.0)), theta=0.0)


class TestSeriesTypes:
    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            DivergenceSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_values_must_be_in_range(self):
        for bad in (4.0, -0.1, np.nan):
            with pytest.raises(DomainError):
                DivergenceSeries(np.arange(6.0), np.array([0.1, 0.2, bad, 0.4, 0.5, 0.6]), np.zeros(6))

    def test_saturation_flags(self):
        d = DivergenceSeries(
            np.arange(4.0), np.array([0.0, 1.0, np.pi - 0.01, np.pi]), np.zeros(4), 0.05
        )
        assert list(d.saturated) == [False, False, True, True]

    def test_theta_zero_disables_flagging(self):
        d = DivergenceSeries(np.arange(2.0), np.array([0.0, np.pi]), np.array([-np.inf, np.inf]), 0.0)
        assert not d.saturated.any()

    def test_overlap_series_rejects_out_of_range(self):
        with pytest.raises(DataFormatError) as err:
            OverlapSeries(np.arange(3.0), np.array([0.5, 1.5, 0.2]))
        assert err.value.row == 1


class TestDivergenceSeries:
    def test_constant_path_is_degenerate(self):
        basis = DiscreteBasis(3)
        psi = ProjectiveState(np.array([1.0, 2.0, 0.5]), basis)
        times = np.arange(5.0)
        div = divergence_series(times, [overlap_magnitude(psi, psi)] * 5)
        assert np.allclose(div.distances, 0.0)
        assert np.all(np.isneginf(div.log_values))
        with pytest.raises(DegeneratePathError):
            finite_time_p_lyapunov(div)

    def test_linear_map_distance_formula(self):
        div = evolve_linear_analytic(2.0, 12)
        n = np.arange(13)
        assert np.allclose(div.distances, 2 * np.arccos(2.0 ** (-n / 2)), atol=1e-12)

    def test_two_steps_r2_divergence_is_two(self):
        # d_P = 2 arccos(1/2) = 2pi/3, divergence = (2pi/3)/(pi/3) = 2
        div = evolve_linear_analytic(2.0, 2)
        assert div.distances[2] == pytest.approx(2 * np.pi / 3, abs=1e-14)
        assert np.exp(div.log_values[2]) == pytest.approx(2.0, rel=1e-12)

    def test_array_and_iterable_give_the_same_series(self):
        t = np.arange(6.0)
        v = 0.8**t
        a, b = divergence_series(t, v), divergence_series(t, iter(v.tolist()))
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.log_values, b.log_values)

    def test_empty_path_rejected(self):
        psi = ProjectiveState(np.ones(2), DiscreteBasis(2))
        with pytest.raises(DomainError):
            divergence_series(np.array([]), [])


class TestFiniteTime:
    def test_linear_map_converges_to_half_rate(self):
        # the pointwise curve carries an O(1/t) tail, so convergence needs t
        div = evolve_linear_analytic(2.0, 200)
        curve = finite_time_p_lyapunov(div)
        assert curve[-1, 1] == pytest.approx(LN2_HALF, rel=0.01)

    def test_oscillator_decays_like_inverse_time(self):
        div = oscillator_divergence()
        curve = finite_time_p_lyapunov(div)
        t, lam = curve[:, 0], curve[:, 1]
        # 1/t envelope: the scaled curve t*lam stays bounded while lam shrinks
        bound = np.nanmax(np.abs(lam[t <= 5.0] * t[t <= 5.0]))
        late = np.abs(lam[t >= 40.0])
        assert np.median(late) < 2 * bound / 40.0
        i50 = np.argmin(np.abs(t - 50.0))
        assert abs(lam[i50]) < 0.05

    def test_synthetic_decaying_overlap_recovers_rate(self):
        # O(t) = exp(-2*0.017*t) under the probability convention encodes
        # an asymptotic exponent of exactly 0.017 (closed-form construction)
        t = np.arange(801.0)
        raw = OverlapSeries(t, np.exp(-2 * 0.017 * t), convention="probability")
        div = ingest_overlap_series(raw)
        est = asymptotic_estimate(div)
        assert est.asymptotic_value == pytest.approx(0.017, rel=0.05)

    def test_insufficient_points(self):
        div = evolve_linear_analytic(2.0, 2)
        with pytest.raises(InsufficientDataError):
            finite_time_p_lyapunov(div, delta_index=2)


def _series_with_increments(t, y):
    """An unsaturated series over times t whose ln|dL| at t[k] is y[k] up to rounding."""
    log_values = np.log(np.cumsum(np.exp(np.concatenate([[0.0], y]))))
    return DivergenceSeries(t, np.zeros(t.size), log_values, 0.0)


class TestAsymptoticEstimate:
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_linear_maps_half_rate(self, r):
        div = evolve_linear_analytic(float(r), 40)
        est = asymptotic_estimate(div, window=(10.0, 39.0))
        assert est.asymptotic_value == pytest.approx(np.log(r) / 2, rel=0.01)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_error_decreases_with_window_start(self, r):
        div = evolve_linear_analytic(float(r), 60)
        errs = []
        for start in (5.0, 15.0, 25.0):
            est = asymptotic_estimate(div, window=(start, 59.0))
            errs.append(abs(est.asymptotic_value - np.log(r) / 2))
        assert errs[0] > errs[1] > errs[2]

    def test_constant_series_degenerate(self):
        t = np.arange(10.0)
        div = series_from_log_overlaps(t, np.full(10, -0.3))
        with pytest.raises(DegeneratePathError):
            asymptotic_estimate(div)

    def test_scale_invariance_of_regression(self):
        div = evolve_linear_analytic(3.0, 30)
        est0 = asymptotic_estimate(div)
        for c in (1e-6, 10.0, 1e8):
            shifted = DivergenceSeries(
                div.times, div.distances, div.log_values + np.log(c), div.saturation_threshold
            )
            est = asymptotic_estimate(shifted)
            assert abs(est.asymptotic_value - est0.asymptotic_value) < 1e-12

    def test_time_unit_covariance(self):
        div = evolve_linear_analytic(2.0, 40)
        est0 = asymptotic_estimate(div)
        for s in (0.25, 4.0):
            scaled = DivergenceSeries(
                div.times * s, div.distances, div.log_values, div.saturation_threshold
            )
            est = asymptotic_estimate(scaled)
            assert est.asymptotic_value * s == pytest.approx(
                est0.asymptotic_value, rel=1e-12
            )

    def test_saturated_points_never_enter_fit(self):
        t = np.arange(30.0)
        lam = 0.4
        log_v = -lam * t
        # corrupt the tail, then flag it saturated: the fit must not see it
        clean = series_from_log_overlaps(t, log_v, theta=0.0)
        corrupted = clean.log_values.copy()
        corrupted[20:] = 0.0
        sat = np.zeros(30, dtype=bool)
        sat[20:] = True
        d = clean.distances.copy()
        d[20:] = np.pi
        div = DivergenceSeries(t, d, corrupted, 1e-9)
        assert np.array_equal(div.saturated, sat)
        est = asymptotic_estimate(div)
        assert est.asymptotic_value == pytest.approx(lam, rel=0.02)
        assert est.fit_window[1] <= t[19]

    @pytest.mark.parametrize("start", [None, 2.0])
    def test_open_end_stops_half_a_step_before_the_plateau(self, start):
        # theta = 0 flags nothing saturated, so only saturation_time can end the fit early
        t = np.arange(0.0, 10.0, 0.5)
        div = series_from_log_overlaps(t, -0.3 * t, theta=0.0)
        open_end = asymptotic_estimate(div, window=(start, None))
        assert open_end.fit_window[1] == t[-2]
        est = asymptotic_estimate(div, window=(start, None), saturation_time=6.0)
        assert est.fit_window[1] == 5.75
        closed = asymptotic_estimate(div, window=(est.fit_window[0], 5.75))
        assert est.asymptotic_value == closed.asymptotic_value
        # an explicit end is kept as given
        assert asymptotic_estimate(div, window=(1.0, 8.0), saturation_time=6.0).fit_window == (1.0, 8.0)

    def test_explicit_window_needs_four_points(self):
        # a given start needs four points whether its end is given or open
        div = evolve_linear_analytic(2.0, 40)
        for window in [(36.0, 38.0), (37.0, None)]:
            with pytest.raises(InsufficientDataError):
                asymptotic_estimate(div, window=window)

    @pytest.mark.parametrize("window", [(None, 3.0), (1.0, None), (None, None)])
    def test_half_open_window_without_finite_increments(self, window):
        # the overlap drops to exactly 0: ln|dL| is never finite, so there is
        # no auto bound to fill the open end with
        raw = OverlapSeries(np.arange(6.0), np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        div = ingest_overlap_series(raw, theta=0.0)
        with pytest.raises(InsufficientDataError):
            asymptotic_estimate(div, window=window)

    def test_residual_is_the_rms_about_the_line(self):
        # deviations (1, -1, -1, 1) * 0.1 are orthogonal to 1 and t, so the
        # fitted line is 1 + 0.5 t and the RMS of the deviations is 0.1
        y = 1.0 + 0.5 * np.arange(4.0) + 0.1 * np.array([1.0, -1.0, -1.0, 1.0])
        est = asymptotic_estimate(_series_with_increments(np.arange(5.0), y), window=(0.0, 3.0))
        assert est.asymptotic_value == pytest.approx(0.5, rel=1e-12)
        assert est.residual == pytest.approx(0.1, rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(offset=st.one_of(st.sampled_from([0.0, 1e6]), st.floats(0.0, 1e6)),
           span=st.floats(1e-3, 1e3), n=st.integers(4, 5000), rise=st.floats(-20.0, 30.0),
           noise=st.sampled_from([0.0, 1e-9, 1e-3, 0.3]), seed=st.integers(0, 2**32 - 1))
    def test_fit_matches_the_lstsq_oracle(self, offset, span, n, rise, noise, seed):
        # a noisy line of n points over times offset + [0, span * max(offset, 1)];
        # with eps the unit roundoff, the bounds are 32 eps times the scale of
        # each quantity's rounding error (the largest ratio measured over 3000
        # drawn lines was 2.5 for both)
        t = offset + span * max(offset, 1.0) * np.linspace(0.0, 1.0, n + 1)
        y = rise * np.linspace(0.0, 1.0, n) + noise * np.random.default_rng(seed).standard_normal(n)
        div = _series_with_increments(t, y)
        est = asymptotic_estimate(div, window=(t[0], t[-2]))
        ts, lnd, _ = estimators._log_increments(div, 1)
        slope, residual = lstsq_line(ts, lnd)
        eps = np.finfo(float).eps
        spread = np.std(ts)
        slope_scale = (1.0 + abs(np.mean(ts)) / spread) * np.std(lnd) / spread
        residual_scale = np.max(np.abs(lnd)) + abs(slope) * np.max(np.abs(ts))
        assert abs(est.asymptotic_value - slope) <= 32 * eps * slope_scale
        assert abs(est.residual - residual) <= 32 * eps * residual_scale

    def test_all_saturated_raises(self):
        t = np.arange(6.0)
        div = series_from_log_overlaps(t, -19.0 - t, theta=0.4)
        assert div.saturated.all()
        with pytest.raises(Exception) as err:
            asymptotic_estimate(div, saturation_time=0.0)
        from plyap import SaturationError

        assert isinstance(err.value, SaturationError)


class TestDetectSaturation:
    def test_monotone_unsaturated_series_has_no_plateau(self):
        t = np.arange(10.0)
        vals = np.linspace(0.1, 1.0, 10)
        d = series_from_log_overlaps(t, np.log(np.cos(vals / 2)), 0.05)
        assert detect_saturation(d) is None

    def test_held_plateau_found_at_first_holding_time(self):
        t = np.arange(12.0)
        vals = np.concatenate([np.linspace(0.0, 2.8, 6), np.full(6, np.pi - 0.01)])
        d = series_from_log_overlaps(t, np.log(np.cos(vals / 2)), 0.05)
        assert detect_saturation(d) == 6.0

    @pytest.mark.parametrize("tail", [np.full(6, 2.0), np.linspace(2.0, 1.0, 6)],
                             ids=["revives-to-a-plateau", "revives-and-drifts"])
    def test_first_entry_into_the_theta_band(self, tail):
        # the distance enters the theta band at t = 5 and leaves it again;
        # the trailing plateau (if any) must not move t_b past the first entry
        t = np.arange(12.0)
        vals = np.concatenate([np.linspace(0.0, 2.8, 5), [np.pi - 0.01], tail])
        d = series_from_log_overlaps(t, np.log(np.cos(vals / 2)), 0.05)
        assert detect_saturation(d) == 5.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 3.0, np.pi - 0.05, np.pi]),
                              st.floats(0.0, np.pi)), min_size=1, max_size=60),
           st.sampled_from([0.0, 0.05, 0.5]))
    @example([0.0, -0.0, -0.0, 0.0], 0.0)
    @example([3.0, -0.0, 3.0, 0.0, np.pi, np.pi], 0.05)
    def test_plateau_matches_np_median(self, distances, theta):
        n = len(distances)
        div = DivergenceSeries(np.arange(float(n)), distances, np.zeros(n), theta)
        assert estimators._median(div.distances) == np.median(div.distances)
        t_b = detect_saturation(div)
        with mock.patch.object(estimators, "_median", lambda x: float(np.median(x))):
            assert t_b == detect_saturation(div)


class TestIngestion:
    def test_unit_overlap_gives_zero_distance(self):
        t = np.arange(5.0)
        raw = OverlapSeries(t, np.ones(5))
        div = ingest_overlap_series(raw)
        assert np.allclose(div.distances, 0.0)

    def test_probability_convention_takes_square_root(self):
        t = np.arange(3.0)
        o = np.array([1.0, 0.25, 0.04])
        d_amp = ingest_overlap_series(OverlapSeries(t, o, "amplitude"))
        d_prob = ingest_overlap_series(OverlapSeries(t, o, "probability"))
        assert d_amp.distances[1] == pytest.approx(2 * np.arccos(0.25))
        assert d_prob.distances[1] == pytest.approx(2 * np.arccos(0.5))

    def test_periodic_overlap_classifies_near_zero(self):
        t = np.arange(0.0, 400.0, 0.5)
        o = 0.6 + 0.39 * np.cos(0.7 * t)
        div = ingest_overlap_series(OverlapSeries(t, o))
        est = asymptotic_estimate(div)
        assert abs(est.asymptotic_value) < 0.01


class TestOverlapCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("t,overlap\n0,1.0\n1,0.5\n2,0.25\n")
        raw = read_overlap_csv(p, convention="probability")
        assert raw.convention == "probability"
        assert np.allclose(raw.overlaps, [1.0, 0.5, 0.25])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,fidelity\n0,1.0\n")
        with pytest.raises(DataFormatError):
            read_overlap_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,overlap\n0,1.0\n1,not-a-number\n")
        with pytest.raises(DataFormatError) as err:
            read_overlap_csv(p)
        assert err.value.row == 3

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        for p in (tmp_path / "missing.csv", tmp_path):
            with pytest.raises(DataFormatError):
                read_overlap_csv(p)

    def test_out_of_range_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,overlap\n0,1.0\n1,0.5\n2,1.5\n")
        with pytest.raises(DataFormatError) as err:
            read_overlap_csv(p)
        assert err.value.row == 4

    @pytest.mark.parametrize(
        "time", ["1", "0.5", "nan", "inf"], ids=["repeated", "decreasing", "nan", "inf"]
    )
    def test_malformed_time_reports_line(self, tmp_path, time):
        p = tmp_path / "bad.csv"
        p.write_text(f"t,overlap\n0,1.0\n1,0.5\n{time},0.25\n")
        with pytest.raises(DataFormatError) as err:
            read_overlap_csv(p)
        assert err.value.row == 4
        assert f"time {float(time)} at row 2" in str(err.value)
        assert "(line 4)" in str(err.value)

    @pytest.mark.parametrize(
        "text, line",
        [("t,overlap\n\n0,1.0\n\n1,2.0\n", 5), ("t,overlap\n0,1.0\n\n1,0.5\n\n1,0.25\n", 6)],
        ids=["overlap", "time"],
    )
    def test_blank_lines_keep_the_file_line(self, tmp_path, text, line):
        p = tmp_path / "blank.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read_overlap_csv(p)
        assert err.value.row == line
        assert f"(line {line})" in str(err.value)

    # the whitespace-only line sends the file to the row loop
    @pytest.mark.parametrize("rows", ["0,1.0\n1,0.5\n2,0.25\n", "0,1.0\n \n1,0.5\n2,0.25\n"],
                             ids=["c-pass", "row-loop"])
    def test_byte_order_mark_is_skipped(self, tmp_path, rows):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(f"t,overlap\n{rows}".encode())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = read_overlap_csv(plain), read_overlap_csv(marked)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.overlaps.tobytes() == b.overlaps.tobytes()

    def test_header_only_file_warns_nothing(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("t,overlap\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no data rows"):
                read_overlap_csv(p)

    # numpy's loadtxt decompresses a file by these suffixes, and fetches a name
    # that parses as a URL; the reader must do neither
    @pytest.mark.parametrize("name", ["s.gz", "s.bz2", "s.xz", "s.lzma", "http://h/s.csv"])
    def test_any_name_is_read_as_plain_text(self, tmp_path, monkeypatch, name):
        def no_fetch(url, *args, **kwargs):
            raise AssertionError(f"fetched {url}")

        monkeypatch.setattr(urllib.request, "urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        text = "t,overlap\n" + "".join(f"{k},{0.9**k!r}\n" for k in range(12))
        (tmp_path / "plain.csv").write_text(text)
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
        a, b = read_overlap_csv("plain.csv"), read_overlap_csv(name)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.overlaps.tobytes() == b.overlaps.tobytes()

    def test_file_gone_before_the_c_pass_is_a_data_error(self, tmp_path, monkeypatch):
        p = tmp_path / "s.csv"
        p.write_text("t,overlap\n0,1.0\n1,0.5\n2,0.25\n")
        check = estimators._parses_as_rows

        def check_then_remove(fh):
            p.unlink()
            return check(fh)

        monkeypatch.setattr(estimators, "_parses_as_rows", check_then_remove)
        with pytest.raises(DataFormatError, match="cannot read"):
            read_overlap_csv(p)

    def test_reader_peak_memory_per_row(self, tmp_path):
        # a seeded file of the benchmark's ingest_csv shape: decay onto a noisy
        # plateau, written with repr
        rows, noise = 100_000, random.Random(5)
        dt = 200.0 / rows
        p = tmp_path / "long.csv"
        p.write_text("t,overlap\n" + "".join(
            f"{k * dt!r},{max(math.exp(-0.5 * k * dt), 0.005 * (1.0 + 0.5 * noise.uniform(-1.0, 1.0)))!r}\n"
            for k in range(rows)))
        read_overlap_csv(p)  # the first read in a process also pays for one-off allocations
        tracemalloc.start()
        try:
            read_overlap_csv(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two float64 columns are 16 bytes a row; a reader that holds the
        # file's text, or a string per row, peaks above 100
        assert peak < 48 * rows

    def test_overflowing_time_span_reports_last_line(self, tmp_path):
        # each time is finite and increasing, but t[-1] - t[0] is not a double
        p = tmp_path / "span.csv"
        p.write_text("t,overlap\n-1.7e308,1.0\n-1e308,0.5\n0,0.25\n1e308,0.125\n1.7e308,0.1\n")
        with pytest.raises(DataFormatError) as err:
            read_overlap_csv(p)
        assert err.value.row == 6
        assert "(line 6)" in str(err.value)


class TestTrajectoryExponent:
    def test_linear_map(self):
        lam = trajectory_lyapunov(linear_map(2.0), [0.7], epsilon=1e-7, steps=80)
        assert lam == pytest.approx(np.log(2.0), abs=1e-6)

    def test_baker_map(self):
        baker = partial(apply_map, baker_map())
        lam = trajectory_lyapunov(baker, [0.312, 0.547], epsilon=1e-7, steps=80)
        assert lam == pytest.approx(np.log(2.0), abs=1e-6)

    def test_rotation_is_marginal(self):
        lam = trajectory_lyapunov(rotation_map(0.37), [0.2], epsilon=1e-7, steps=80)
        assert abs(lam) < 1e-6

    def test_r_adic(self):
        lam = trajectory_lyapunov(partial(apply_map, r_adic_map(3)), [0.41], epsilon=1e-7, steps=80)
        assert lam == pytest.approx(np.log(3.0), abs=1e-6)

    def test_divergence_route_agrees_for_random_points(self):
        rng = np.random.default_rng(11)
        cases = ((linear_map(2.0), 1), (partial(apply_map, baker_map()), 2), (rotation_map(0.3), 1))
        for step, dim in cases:
            for _ in range(20):
                x0 = rng.random(dim) * 0.8 + 0.1
                a = trajectory_lyapunov(step, x0, epsilon=1e-7, steps=50)
                b = trajectory_lyapunov(step, x0, epsilon=1e-7, steps=50, method="divergence")
                assert abs(a - b) < 1e-6

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            trajectory_lyapunov(linear_map(2.0), [0.5], epsilon=0.0)
