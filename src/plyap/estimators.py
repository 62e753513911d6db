"""Finite-time and asymptotic sensitivity exponents from divergence series.

The single-path construction compares the divergence of the state at t with
the one at t + dt (one grid step by default), so the exponent at time t is

    lambda_t = ( ln|L(t+dt) - L(t)| - ln|L(dt) - L(0)| ) / t

with L the divergence of the distance to the fixed reference.  All
arithmetic runs on ln L to survive divergences spanning hundreds of orders
of magnitude.  The asymptotic exponent is the slope of a least-squares fit
of ln|dL| against t, which drops the O(1/t) bias the finite-time curve
inherits from its denominator.  One function, asymptotic_estimate, decides
the fit window by one rule: a given bound is kept; an open end is half a
step before the detected plateau (or the last unsaturated point); an open
start follows the initial transient, moved back only as far as needed to
leave four usable points.  A fit from a given start needs four usable
points and one from an open start two (fit_points_needed).
"""

import csv
import os
from array import array
from contextlib import contextmanager

import numpy as np

from .errors import (
    DataFormatError,
    DegeneratePathError,
    DomainError,
    InsufficientDataError,
    SaturationError,
)
from .geometry import log_abs_exp_diff
from .series import (
    DEFAULT_THETA,
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
]


def divergence_series(times, overlaps, theta=DEFAULT_THETA):
    """The DivergenceSeries of a path from its overlaps with a fixed reference.

    Args:
        times: strictly increasing sample times, one per overlap.
        overlaps: overlap magnitudes |<s_t, s_0>| / (||s_t|| ||s_0||) in
            [0, 1]; an array is used as it is, an iterable consumed lazily.
        theta: saturation threshold in radians, 0 <= theta < pi/2.

    Returns:
        DivergenceSeries.
    """
    overlaps = overlaps.astype(float) if isinstance(overlaps, np.ndarray) else np.fromiter(overlaps, float)
    if not overlaps.size:
        raise DomainError("need at least one overlap")
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


# the usable points a fit from a given start needs, and one from an open start
MIN_FIT_POINTS = 4
MIN_REGRESSION_POINTS = 2


def fit_points_needed(t1) -> int:
    """The usable points a fit window starting at t1 (None: open) must hold."""
    return MIN_REGRESSION_POINTS if t1 is None else MIN_FIT_POINTS


def asymptotic_estimate(
    div: DivergenceSeries,
    window=None,
    delta_index: int = 1,
    saturation_time=None,
) -> ExponentEstimate:
    """Windowed asymptotic exponent: the least-squares slope of ln|dL| = a + lambda * t.

    The slope is the closed-form one, sum (t - mean t)(y - mean y) over
    sum (t - mean t)^2 with y = ln|dL|; the residual is the RMS of y about the
    fitted line.  Both run over the window's usable points: unsaturated
    stencils with a finite ln|dL|.

    window is (t1, t2); either bound may be None (open).  A given bound is
    kept.  An open end is half a sample step before saturation_time when that
    is given, so the fit stays strictly before the plateau, and the last
    unsaturated stencil point otherwise.  An open start is where ln|dL| has
    risen 2 nats above its initial value (or half its total rise when that is
    less), moved back only as far as needed to leave MIN_FIT_POINTS usable
    points up to the end.  A window must then hold fit_points_needed(t1)
    usable points: MIN_FIT_POINTS from a given start, MIN_REGRESSION_POINTS
    from an open one.

    Raises:
        SaturationError: every stencil point is saturated.
        InsufficientDataError: the window holds too few usable points.
        DegeneratePathError: via the curve.
    """
    t, lnd, valid = _log_increments(div, delta_index)
    if not valid.any():
        raise SaturationError("all stencil points are saturated")
    curve = _finite_time_curve(t, lnd, valid)

    usable = valid & np.isfinite(lnd)
    t1, t2 = window or (None, None)
    need = fit_points_needed(t1)
    note = ""
    if t2 is None and saturation_time is not None:
        t2 = saturation_time - 0.5 * float(np.min(np.diff(div.times)))
        note = f" (its open end {t2} is half a step before t_b = {saturation_time})"
    elif t2 is None:
        t2 = t[np.flatnonzero(valid)[-1]]
    if t1 is None:
        idx = np.flatnonzero(usable)
        if not idx.size:
            raise InsufficientDataError("no finite increments to fit")
        base = lnd[idx[0]]
        rise = min(2.0, max(0.0, (float(np.max(lnd[idx])) - base) / 2.0))
        above = idx[lnd[idx] > base + rise]
        t1 = t[above[0] if above.size else idx[0]]
        back = idx[t[idx] <= t2][-MIN_FIT_POINTS:]
        if back.size:  # leave MIN_FIT_POINTS usable points up to the end
            t1 = min(t1, t[back[0]])
    sel = usable & (t >= t1) & (t <= t2)
    npts = int(sel.sum())
    if npts < need:
        raise InsufficientDataError(
            f"window ({t1}, {t2}) holds {npts} usable points; at least {need} required{note}")
    # the closed-form slope about the means, which keeps its digits when the
    # times sit far from zero
    dt = t[sel] - np.mean(t[sel])
    dy = lnd[sel] - np.mean(lnd[sel])
    slope = np.sum(dt * dy) / np.sum(dt * dt)
    residual = float(np.sqrt(np.mean((dy - slope * dt) ** 2)))
    return ExponentEstimate(
        finite_time_curve=curve,
        asymptotic_value=float(slope),
        fit_window=(float(t1), float(t2)),
        residual=residual,
    )


def _median(x):
    """np.median of a NaN-free 1D array, to the bit: the same partition kth
    and the same mean of the two middle values (a zero may change sign).
    np.median imports numpy.ma on its first call (about 0.75 MB and 10 ms)."""
    k = x.size // 2
    if x.size % 2:
        return float(np.partition(x, k)[k])
    low, high = np.partition(x, [k - 1, k])[k - 1:k + 1]
    return float((low + high) / 2)


def detect_saturation(div: DivergenceSeries):
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
    v = div.distances
    n = v.size
    flagged = np.flatnonzero(div.saturated)
    ends = [int(flagged[0])] if flagged.size else []
    plateau = _median(v[-max(3, n // 4):])
    within = np.abs(v - plateau) <= div.saturation_threshold
    if within[-1]:
        misses = np.where(~within)[0]
        first = int(misses[-1]) + 1 if misses.size else 0
        if n - first >= 3:
            ends.append(first)
    return float(div.times[min(ends)]) if ends else None


def ingest_overlap_series(raw: OverlapSeries, theta=DEFAULT_THETA):
    """Convert an external overlap series into its DivergenceSeries.

    The distance is 2 arccos(v) with v the amplitude overlap: v = O under the
    amplitude convention, v = sqrt(O) under the probability convention.
    """
    with np.errstate(divide="ignore"):
        log_o = np.log(raw.overlaps)
    log_v = log_o if raw.convention == "amplitude" else 0.5 * log_o
    return series_from_log_overlaps(raw.times, log_v, theta=theta)


@contextmanager
def _overlap_csv(path):
    """The open file of an overlap CSV and its csv reader, past the checked
    header; a failure to read or decode it is a DataFormatError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "overlap"]:
                raise DataFormatError(f"{path}: expected header 't,overlap', got {header!r}")
            yield fh, reader
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc


# NUL (a csv error before Python 3.11), the separators that numpy's float
# parser strips as whitespace but float() rejects, and the line breaks of
# str.splitlines that csv does not break lines at
_ROW_LOOP_CHARS = "\x00\x1c\x1d\x1e\x1f\x0b\x0c\x85\u2028\u2029"
# the characters _parses_as_rows reads at a time, before it reads on to a line end
CHUNK_CHARS = 1 << 20
# the names that numpy's loadtxt opens with a decompressor, whatever the file holds
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parses_as_rows(fh) -> bool:
    """Whether numpy's C reader may read the data rows left in fh: it then
    gives the row loop's values or rejects the file.

    The rows are read in chunks of CHUNK_CHARS that each end at a line end.
    They must hold a data row and none of _ROW_LOOP_CHARS, and no field may
    pass csv's size limit, which the row loop enforces.  An unquoted field
    ends at a comma or line end, so it lies in one chunk and is short enough
    when each aligned block of half the limit holds a field end; a quoted
    field may span them, so rows with a quote must themselves be within the
    limit."""
    limit = csv.field_size_limit()
    half = limit // 2
    size, quoted, data = 0, False, False
    for chunk in iter(lambda: fh.read(CHUNK_CHARS) + fh.readline(), ""):
        if any(c in chunk for c in _ROW_LOOP_CHARS):
            return False
        size += len(chunk)
        quoted = quoted or '"' in chunk
        if quoted and size > limit:
            return False
        if not all(any(chunk.find(end, i, i + half) >= 0 for end in ",\n\r")
                   for i in range(0, len(chunk) - half + 1, half)):
            return False
        data = data or not chunk.isspace()
    return data


def read_overlap_csv(path, convention: str = "amplitude") -> OverlapSeries:
    """Read an overlap series from a UTF-8 CSV file with header ``t,overlap``.

    The file is read twice.  _parses_as_rows checks it chunk by chunk, and
    then numpy's C reader parses the data rows straight from the file, in
    blocks.  Neither holds the file's text, and the file is never
    decompressed or fetched: numpy gets its absolute path, and a name it
    would decompress by (.gz, .bz2, .xz, .lzma) is read by the row loop.  A
    file the check or the C reader rejects, one that cannot be read again,
    and one whose series is invalid is read row by row, which raises the
    error naming the file line."""
    with _overlap_csv(path) as (fh, reader):
        try:
            fast = _parses_as_rows(fh)
        except UnicodeDecodeError:  # the row loop reports where, as before
            fast = False
        header_lines = reader.line_num
    name = os.path.abspath(os.fsdecode(path))  # a relative name may parse as a URL
    if fast and os.path.splitext(name)[1] not in _COMPRESSED_SUFFIXES:
        try:
            data = np.loadtxt(name, delimiter=",", usecols=(0, 1), ndmin=2,
                              comments=None, quotechar='"', skiprows=header_lines,
                              encoding="utf-8-sig")
            return OverlapSeries(data[:, 0], data[:, 1], convention=convention)
        except (OSError, ValueError, DataFormatError):
            pass
    return _read_overlap_rows(path, convention)


def _read_overlap_rows(path, convention: str) -> OverlapSeries:
    """read_overlap_csv row by row: each error names its file line."""
    # lines[k] is the file line of data row k; blank lines are skipped
    times, overlaps, lines = array("d"), array("d"), array("l")
    with _overlap_csv(path) as (_, reader):
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                times.append(float(row[0]))
                overlaps.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise DataFormatError(
                    f"{path}: malformed row at line {reader.line_num}: {row!r}",
                    row=reader.line_num,
                ) from exc
            lines.append(reader.line_num)
    if not times:
        raise DataFormatError(f"{path}: no data rows")
    try:
        return OverlapSeries(np.array(times), np.array(overlaps), convention=convention)
    except DataFormatError as exc:
        line = lines[exc.row]
        raise DataFormatError(f"{path}: {exc} (line {line})", row=line) from exc

