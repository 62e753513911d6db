"""Time-indexed divergence and overlap series."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DomainError
from .geometry import log_projective_divergence

__all__ = [
    "DEFAULT_THETA",
    "DivergenceSeries",
    "OverlapSeries",
    "ExponentEstimate",
    "series_from_log_overlaps",
]

# Default saturation threshold, radians. Keeps the divergence below ~60 while
# discarding only the plateau tail of bounded systems.
DEFAULT_THETA = 0.05


def _as_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("times must be a non-empty 1D sequence")
    if not np.all(np.diff(t) > 0.0):
        raise DomainError("times must be strictly increasing")
    return t


@dataclass(frozen=True, eq=False)
class DivergenceSeries:
    """One path: distances d_P(t) to a fixed reference and ln of their
    divergence d_P/(pi - d_P), with saturation flags.

    Entries with d_P > pi - theta are flagged saturated, so theta = 0 flags
    none (appropriate for closed-form series that never plateau).  A log
    value of -inf marks coincident rays.
    """

    times: np.ndarray
    distances: np.ndarray
    log_values: np.ndarray
    saturation_threshold: float = DEFAULT_THETA
    saturated: np.ndarray = field(init=False)

    def __post_init__(self):
        t = _as_times(self.times)
        d = np.asarray(self.distances, dtype=float)
        lv = np.asarray(self.log_values, dtype=float)
        if d.shape != t.shape or lv.shape != t.shape:
            raise DomainError("distances/log_values must match times in length")
        if not np.all((d >= -1e-12) & (d <= np.pi + 1e-12)):  # NaN fails too
            raise DomainError("distances must lie in [0, pi]")
        if np.any(np.isnan(lv)):
            raise DomainError("log divergence values must not be NaN")
        theta = float(self.saturation_threshold)
        if not 0.0 <= theta < np.pi / 2:
            raise DomainError("saturation threshold must lie in [0, pi/2)")
        d = np.clip(d, 0.0, np.pi)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "log_values", lv)
        object.__setattr__(self, "saturation_threshold", theta)
        object.__setattr__(self, "saturated", d > np.pi - theta)

    def __len__(self):
        return self.times.size


@dataclass(frozen=True, eq=False)
class OverlapSeries:
    """Externally measured overlaps O(t) with a declared convention.

    convention "amplitude": O = |<a,b>|; "probability": O = |<a,b>|^2.
    """

    times: np.ndarray
    overlaps: np.ndarray
    convention: str = "amplitude"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim == 1:
            with np.errstate(invalid="ignore", over="ignore"):
                bad = np.where(~(np.isfinite(t) & np.r_[True, np.diff(t) > 0.0]))[0]
                span = t[-1] - t[0] if t.size else 0.0
            if bad.size:
                raise DataFormatError(
                    f"time {float(t[bad[0]])} at row {int(bad[0])} is not finite"
                    " or not greater than the time before it",
                    row=int(bad[0]),
                )
            if not np.isfinite(span):
                raise DataFormatError(
                    f"time span {float(t[0])} to {float(t[-1])} overflows a double",
                    row=t.size - 1,
                )
        t = _as_times(t)
        ov = np.asarray(self.overlaps, dtype=float)
        if ov.shape != t.shape:
            raise DomainError("overlaps and times must have the same length")
        if self.convention not in ("amplitude", "probability"):
            raise DomainError(f"unknown overlap convention {self.convention!r}")
        bad = np.where(~((ov >= 0.0) & (ov <= 1.0 + 1e-12)))[0]
        if bad.size:
            raise DataFormatError(
                f"overlap {float(ov[bad[0]])} outside [0, 1] at row {int(bad[0])}",
                row=int(bad[0]),
            )
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "overlaps", np.clip(ov, 0.0, 1.0))

    def __len__(self):
        return self.times.size


@dataclass(frozen=True, eq=False)
class ExponentEstimate:
    """Finite-time exponent curve plus a windowed asymptotic value.

    finite_time_curve has shape (k, 2): columns (t, lambda_t).  fit_window is
    the (t1, t2) actually used; residual is the RMS of the fit.
    """

    finite_time_curve: np.ndarray
    asymptotic_value: float
    fit_window: tuple
    residual: float

    def __post_init__(self):
        if not np.isfinite(self.asymptotic_value):
            raise DomainError("asymptotic value must be finite")


def series_from_log_overlaps(times, log_overlaps, theta=DEFAULT_THETA):
    """The DivergenceSeries of a path from its ln overlaps with the reference.

    The distance is 2 arccos(v); the log divergence goes through the
    log-domain path so underflowing overlaps stay usable.
    """
    lv = np.minimum(np.asarray(log_overlaps, dtype=float), 0.0)
    d = 2.0 * np.arccos(np.exp(lv))
    return DivergenceSeries(times, d, log_projective_divergence(lv), saturation_threshold=theta)
