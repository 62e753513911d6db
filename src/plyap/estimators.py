"""Finite-time and asymptotic sensitivity exponents from divergence series.

The single-path construction compares the divergence of the state at t with
the one at t + dt (one grid step by default), so the exponent at time t is

    lambda_t = ( ln|L(t+dt) - L(t)| - ln|L(dt) - L(0)| ) / t

with L the divergence of the distance to the fixed reference.  All
arithmetic runs on ln L to survive divergences spanning hundreds of orders
of magnitude.  The asymptotic exponent is the slope of a least-squares fit
of ln|dL| against t, which drops the O(1/t) bias the finite-time curve
inherits from its denominator.  One function, asymptotic_estimate, decides
the fit window: explicit bounds, an automatic start after the initial
transient, an open end half a step before the detected plateau, and
widening of a short automatic window to four points.
"""

import csv

import numpy as np

from .ensembles import apply_map
from .errors import (
    DataFormatError,
    DegeneratePathError,
    DomainError,
    InsufficientDataError,
    NumericalOverflowError,
    SaturationError,
)
from .geometry import (
    bounded_euclidean_distance,
    classical_divergence,
    log_abs_exp_diff,
    overlap_magnitude,
)
from .series import (
    DEFAULT_THETA,
    DistanceSeries,
    DivergenceSeries,
    ExponentEstimate,
    OverlapSeries,
    series_from_log_overlaps,
)

__all__ = [
    "divergence_series",
    "finite_time_p_lyapunov",
    "asymptotic_estimate",
    "detect_saturation",
    "ingest_overlap_series",
    "read_overlap_csv",
    "trajectory_lyapunov",
]


def divergence_series(times, path, reference, theta=DEFAULT_THETA):
    """Distances and log divergences of a state path against a fixed reference.

    Args:
        times: strictly increasing sample times, one per state.
        path: iterable of ProjectiveState sharing the reference's basis, consumed lazily.
        reference: the fixed comparison state.
        theta: saturation threshold in radians, 0 <= theta < pi/2.

    Returns:
        (DistanceSeries, DivergenceSeries).
    """
    overlaps = np.array([overlap_magnitude(s, reference) for s in path])
    if not overlaps.size:
        raise DomainError("path must contain at least one state")
    with np.errstate(divide="ignore"):
        log_overlaps = np.log(overlaps)
    return series_from_log_overlaps(times, log_overlaps, theta=theta)


def _log_increments(div: DivergenceSeries, delta_index: int):
    """ln|dL| over the delta_index stencil, with validity mask.

    A stencil touching a saturated entry is invalid.  Returns the stencil
    times (left points), the log increments and the mask.
    """
    if delta_index < 1:
        raise DomainError("delta_index must be a positive integer")
    n = len(div)
    if n < delta_index + 2:
        raise InsufficientDataError(
            f"series of length {n} too short for delta_index {delta_index}"
        )
    d = delta_index
    lnd = log_abs_exp_diff(div.log_values[d:], div.log_values[:-d])
    valid = ~(div.saturated[d:] | div.saturated[:-d])
    return div.times[:-d], np.asarray(lnd), valid


def finite_time_p_lyapunov(div: DivergenceSeries, delta_index: int = 1) -> np.ndarray:
    """Finite-time exponent curve from a divergence series.

    Returns an array of shape (k, 2) with columns (t, lambda_t).  Points
    whose stencil touches a saturated entry are omitted, as are points where
    the increment vanishes exactly (ln|dL| = -inf, e.g. turning points of a
    periodic path).

    Raises:
        DegeneratePathError: the initial increment vanishes (stationary path).
        InsufficientDataError: fewer than two usable stencil points.
    """
    return _finite_time_curve(*_log_increments(div, delta_index))


def _finite_time_curve(t, lnd, valid):
    idx = np.where(valid)[0]
    if idx.size < 2:
        raise InsufficientDataError("fewer than two unsaturated stencil points")
    i0 = idx[0]
    if np.isneginf(lnd[i0]):
        raise DegeneratePathError(
            "initial divergence increment vanishes; path is stationary in ray space"
        )
    later = idx[1:]
    keep = np.isfinite(lnd[later])
    later = later[keep]
    lam = (lnd[later] - lnd[i0]) / (t[later] - t[i0])
    return np.column_stack([t[later], lam])


def _auto_window(t, lnd, valid):
    """Default fit window: skip the initial transient, keep the growth tail.

    Starts where ln|dL| has risen 2 nats above its initial value (or half
    the total observed rise when the series saturates earlier than that) and
    ends at the last unsaturated stencil point.
    """
    finite = valid & np.isfinite(lnd)
    idx = np.where(finite)[0]
    if idx.size == 0:
        return None
    base = lnd[idx[0]]
    threshold = min(2.0, max(0.0, (float(np.max(lnd[idx])) - base) / 2.0))
    above = idx[lnd[idx] > base + threshold]
    start = above[0] if above.size else idx[0]
    stop = np.where(valid)[0][-1]
    return t[start], t[stop]


def asymptotic_estimate(
    div: DivergenceSeries,
    window=None,
    delta_index: int = 1,
    saturation_time=None,
) -> ExponentEstimate:
    """Windowed asymptotic exponent: the least-squares slope of ln|dL| = a + lambda * t.

    window is (t1, t2); either bound may be None.  An open end stops half a
    sample step before saturation_time when that is given, so the fit stays
    strictly before the plateau.  A bound still open is taken from the auto
    window: it starts where ln|dL| has risen 2 nats above its initial value
    and ends at the last unsaturated point.  A window that used an auto bound
    and holds fewer than 4 usable points is widened backward to four; any
    other window must hold at least 4.

    Raises:
        SaturationError: every stencil point is saturated.
        DegeneratePathError / InsufficientDataError: via the curve.
    """
    t, lnd, valid = _log_increments(div, delta_index)
    if not valid.any():
        raise SaturationError("all stencil points are saturated")
    curve = _finite_time_curve(t, lnd, valid)

    t1, t2 = window or (None, None)
    if t2 is None and saturation_time is not None:
        t2 = saturation_time - 0.5 * float(np.min(np.diff(div.times)))
    explicit = t1 is not None and t2 is not None
    if not explicit:
        auto = _auto_window(t, lnd, valid)
        if auto is None:
            raise InsufficientDataError("no finite increments to fit")
        t1 = auto[0] if t1 is None else t1
        t2 = auto[1] if t2 is None else t2
    sel = valid & np.isfinite(lnd) & (t >= t1) & (t <= t2)
    npts = int(sel.sum())
    if explicit and npts < 4:
        raise InsufficientDataError(
            f"window ({t1}, {t2}) holds {npts} usable points; at least 4 required"
        )
    if not explicit and npts < 4:
        # short series: widen the auto window backward to four usable points
        usable = np.where(valid & np.isfinite(lnd) & (t <= t2))[0]
        take = usable[-4:]
        sel = np.zeros_like(valid)
        sel[take] = True
        npts = take.size
        if npts:
            t1 = float(t[take[0]])
    if npts < 2:
        raise InsufficientDataError("regression needs at least two usable points")
    design = np.column_stack([np.ones(npts), t[sel]])
    coef, *_ = np.linalg.lstsq(design, lnd[sel], rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((lnd[sel] - fitted) ** 2)))
    return ExponentEstimate(
        finite_time_curve=curve,
        asymptotic_value=float(coef[1]),
        fit_window=(float(t1), float(t2)),
        residual=residual,
    )


def detect_saturation(dist: DistanceSeries):
    """Plateau time t_b: where the distance stops growing.

    The earlier of two events: the first sample flagged saturated
    (d_P > pi - theta), and the first time after which the distance stays
    within theta of its plateau.  The plateau level is the median of the
    trailing quarter of the series (at least 3 points), so a fluctuating
    quantum plateau is located robustly; it counts only when held for at
    least 3 samples.  The first flagged sample matters when the distance
    enters the theta band and leaves it again, as the overlap of a slab
    under the grid baker does.  Returns None when neither event occurs.
    """
    v = dist.values
    n = v.size
    flagged = np.flatnonzero(dist.saturated)
    ends = [int(flagged[0])] if flagged.size else []
    plateau = float(np.median(v[-max(3, n // 4):]))
    within = np.abs(v - plateau) <= dist.saturation_threshold
    if within[-1]:
        misses = np.where(~within)[0]
        first = int(misses[-1]) + 1 if misses.size else 0
        if n - first >= 3:
            ends.append(first)
    return float(dist.times[min(ends)]) if ends else None


def ingest_overlap_series(raw: OverlapSeries, theta=DEFAULT_THETA):
    """Convert an external overlap series into distance/divergence series.

    The distance is 2 arccos(v) with v the amplitude overlap: v = O under the
    amplitude convention, v = sqrt(O) under the probability convention.
    """
    with np.errstate(divide="ignore"):
        log_o = np.log(raw.overlaps)
    log_v = log_o if raw.convention == "amplitude" else 0.5 * log_o
    return series_from_log_overlaps(raw.times, log_v, theta=theta)


def read_overlap_csv(path, convention: str = "amplitude") -> OverlapSeries:
    """Read an overlap series from a CSV file with header ``t,overlap``."""
    times, overlaps = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "overlap"]:
                raise DataFormatError(f"{path}: expected header 't,overlap', got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                try:
                    times.append(float(row[0]))
                    overlaps.append(float(row[1]))
                except (IndexError, ValueError) as exc:
                    raise DataFormatError(
                        f"{path}: malformed row at line {lineno}: {row!r}", row=lineno
                    ) from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc
    if not times:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return OverlapSeries(np.array(times), np.array(overlaps), convention=convention)
    except DataFormatError as exc:
        # report the offending file line (header + 1-based data rows)
        raise DataFormatError(f"{path}: {exc} (line {exc.row + 2})", row=exc.row + 2) from exc


def trajectory_lyapunov(
    map_descriptor,
    x0,
    epsilon: float = 1e-9,
    steps: int = 400,
    method: str = "direct",
) -> float:
    """Two-trajectory exponent of a built-in classical map.

    Tracks a companion point offset by epsilon, renormalizing the separation
    back to epsilon after every step and accumulating the log stretch.
    method "direct" uses the Euclidean separation; "divergence" pushes each
    separation through the bounded metric and its divergence (an algebraic
    identity makes the two agree to rounding).
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    if method not in ("direct", "divergence"):
        raise DomainError(f"unknown method {method!r}")
    kind = map_descriptor.kind
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    offset = np.zeros_like(x)
    offset[0] = epsilon
    y = x + offset

    def separation(a, b):
        # periodic coordinates compare by minimal image so a wrap event does
        # not masquerade as an O(1) jump (the x coordinate for the baker,
        # everything for the circle maps)
        delta = b - a
        if kind in ("r_adic", "rotation"):
            delta -= np.round(delta)
        elif kind == "baker":
            delta[0] -= np.round(delta[0])
        return delta

    def log_stretch(d):
        if method == "direct":
            return np.log(d / epsilon)
        lam_d = classical_divergence(bounded_euclidean_distance(d))
        lam_e = classical_divergence(bounded_euclidean_distance(epsilon))
        return np.log(lam_d / lam_e)

    total = 0.0
    for _ in range(steps):
        x = apply_map(map_descriptor, x)
        y = apply_map(map_descriptor, y)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NumericalOverflowError("trajectory left double-precision range")
        delta = separation(x, y)
        d = float(np.linalg.norm(delta))
        if d == 0.0:
            raise DegeneratePathError("trajectories coincide; cannot renormalize")
        total += log_stretch(d)
        delta *= epsilon / d
        if kind == "linear":
            # the stretch of x -> r x is position-independent, so the base
            # may be rescaled (homogeneity) to keep x + epsilon representable
            x = x / float(np.max(np.abs(x)))
        y = x + delta
    return total / steps
