"""Experiment orchestration: declarative configs in, data files and plots out.

Every run is deterministic given its config; CSV outputs use fixed 17
significant digit formatting so reruns are byte-identical, and every CSV and
summary.json embeds the config hash (a figure's SVG does not).
"""

import datetime
import hashlib
import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, floattext
from .ensembles import (
    GridDensity,
    baker_map,
    density_overlap,
    evolve_linear_analytic,
    r_adic_map,
    square_density,
    sqrt_embed,
    transfer_step,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DegeneratePathError,
    InsufficientDataError,
    PlyapError,
    SaturationError,
)
from .estimators import (
    asymptotic_estimate,
    detect_saturation,
    divergence_series,
    fit_points_needed,
    ingest_overlap_series,
    read_overlap_csv,
)
from .geometry import GridBasis1D, GridBasis2D, ProjectiveState, overlap_magnitude
from .quantum import GaussianState, QuadraticSystem, bvs_baker, bvs_coherent_state, gaussian_autocorrelation
from .series import DEFAULT_THETA
from .svgplot import render_line_plot

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run",
    "figure",
    "ingest",
    "selftest",
    "FIGURE_IDS",
    "SUMMARY_SCHEMA",
    "validate_summary",
]


def _map_system(start):
    """The series of a map system whose start(params) gives (initial state, one
    map step, overlap of a state with the initial one).  Samples lie dt map
    steps apart; sample 0 is the initial state, with overlap exactly 1, and
    the generator keeps one state alive."""

    def series(cfg, p):
        state, step, overlap = start(p)

        def overlaps(state):
            yield 1.0
            for _ in range(p["steps"]):
                for _ in range(int(p["dt"])):
                    state = step(state)
                yield overlap(state)

        times = np.arange(p["steps"] + 1) * p["dt"]
        return divergence_series(times, overlaps(state), theta=cfg.theta)

    return series


def _r_adic_start(p):
    m = r_adic_map(p["r"])
    rho = square_density(p["init_width"], GridBasis1D(p["grid_n"], 0.0, 1.0))
    return rho, lambda d: transfer_step(d, m), density_overlap(sqrt_embed(rho))


def _baker_start(p):
    # vertical slab [0, width) x [0, 1): its baker self-overlap is the exact
    # intersection measure 2^-t (full rate ln 2; the invertible map has no
    # pushforward dilution to halve it).  Constant in y, it is one block
    # column: n values on blocks of 1 x n cells.  The transfer keeps it on
    # n blocks of 2^t x n/2^t cells, so a step costs O(n).  The reference is
    # embedded on the n x 1 grid that the n x n grid refines, n amplitudes,
    # and the overlap sums blocks against them: no array of a run is n x n.
    n = 2 ** p["grid_m"]
    x = square_density(p["init_width"], GridBasis1D(n, 0.0, 1.0)).values[:, None]
    rho = GridDensity(x, GridBasis2D(n, n))
    reference = sqrt_embed(GridDensity(x, GridBasis2D(n, 1)))
    return rho, lambda d: transfer_step(d, baker_map()), density_overlap(reference)


def _bvs_start(p):
    psi = bvs_coherent_state(p["n_dim"], p["q0"], p["p0"], p["alpha"])
    return (
        psi.amplitudes,
        bvs_baker(p["n_dim"]),
        lambda amp: overlap_magnitude(ProjectiveState(amp, psi.basis), psi),
    )


def _gaussian_series(cfg, p, sign):
    quad = QuadraticSystem(p["omega"], sign=sign)
    times = np.arange(p["steps"] + 1) * p["dt"]
    v = gaussian_autocorrelation(quad, GaussianState(p["omega0"]), times)
    return divergence_series(times, v, theta=cfg.theta)


def _read_series(cfg, p):
    raw = read_overlap_csv(p["path"], convention=p["convention"])
    # a file is data: too few rows to fit is a data error, as steps is a config one
    if len(raw) < cfg.delta_index + 2:
        raise DataFormatError(
            f"{p['path']}: {len(raw)} data rows; delta_index {cfg.delta_index}"
            f" needs at least {cfg.delta_index + 2}")
    _check_window(cfg.window, len(raw) - cfg.delta_index, raw.times.__getitem__)
    return ingest_overlap_series(raw, theta=cfg.theta)


def _number(v, kind=(int, float)) -> bool:
    # bool is an int subclass; NaN, infinities and huge ints are not usable numbers
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= np.finfo(float).max


def _window(w) -> bool:
    return isinstance(w, (list, tuple)) and len(w) == 2 and all(
        t is None or _number(t) for t in w) and (None in w or w[0] < w[1])


def _one_of(*names):
    return "one of " + ", ".join(names), names.__contains__


def _field(domain, default=MISSING):
    return field(default=default, metadata={"domain": domain})


def _check(name, value, domain):
    text, ok = domain
    if not ok(value):
        raise ConfigError(f"{name} must be {text}, got {value!r}", field=name)


_MAP = {"dt": ("a whole number of map steps > 0", lambda v: v == int(v))}

# Each system once: its parameters' defaults (a value, a function of those before
# it, or None when the config must give it), its series, and the field domains it
# narrows.  A map or a flow samples steps + 1 times dt apart; a file brings its
# own times.  Entries call plyap functions through this module's global names at
# call time, so a wrapper installed on a name (the benchmark tracer) sees the call.
_SYSTEMS = {
    # the closed form is indexed by map step, so it takes no dt
    "linear": (
        {"r": 2.0, "steps": 40},
        lambda cfg, p: evolve_linear_analytic(p["r"], p["steps"], theta=cfg.theta),
        {},
    ),
    "r_adic": (
        {"r": 2, "grid_n": 2**16, "init_width": 2.0**-10, "steps": 40, "dt": 1.0},
        _map_system(_r_adic_start),
        {**_MAP, "r": ("an integer >= 2", lambda v: v == int(v))},
    ),
    "baker_classical": (
        {"grid_m": 10, "init_width": 2.0**-8, "steps": 40, "dt": 1.0},
        _map_system(_baker_start),
        _MAP,
    ),
    "oscillator": (
        {"omega": None, "omega0": lambda p: p["omega"] / 2.0, "steps": 40, "dt": 1.0},
        lambda cfg, p: _gaussian_series(cfg, p, +1),
        {},
    ),
    "barrier": (
        {"omega": None, "omega0": 1.0, "steps": 40, "dt": 1.0},
        lambda cfg, p: _gaussian_series(cfg, p, -1),
        {},
    ),
    # the default packet sits on the period-2 orbit {(1/3, 2/3), (2/3, 1/3)}, so
    # it is sampled every second map step, up to past its floor near log2(N)
    "bvs_baker": (
        {"n_dim": 1800, "q0": 1.0 / 3.0, "p0": 2.0 / 3.0,
         "alpha": lambda p: 1.0 / (2.0 * np.pi * p["n_dim"]), "steps": 12, "dt": 2.0},
        _map_system(_bvs_start),
        _MAP,
    ),
    "overlap_file": ({"path": None, "convention": "amplitude"}, _read_series, {}),
}
# every system parameter; a system rejects those that only other systems take
_PARAMS = dict.fromkeys(name for defaults, _, _ in _SYSTEMS.values() for name in defaults)

_POSITIVE = ("> 0", lambda v: _number(v) and v > 0.0)
_COUNT = ("an integer >= 1", lambda v: _number(v, int) and v >= 1)
# a size enters as a double (1/n, k dt, 1/(2 pi N)), so it may not pass 2^53;
# grid_m is the log2 of one
_SIZE = ("an integer in [1, 2^53]", lambda v: _number(v, int) and 1 <= v <= 2**53)
_LOG2_SIZE = ("an integer in [1, 53]", lambda v: _number(v, int) and 1 <= v <= 53)
_UNIT = ("in [0, 1)", lambda v: _number(v) and 0.0 <= v < 1.0)
# whitespace, path separators and NUL would make an id unsafe as a directory name
_UNSAFE = re.compile(r"[\s/\\\x00]")
_NAME = ("a filesystem-safe name", lambda v: isinstance(v, str) and v not in ("", ".", "..")
         and not _UNSAFE.search(v))
_EVEN = ("an even integer in [2, 2^53]",
         lambda v: _number(v, int) and v % 2 == 0 and 2 <= v <= 2**53)
_ANGLE = ("in [0, pi/2)", lambda v: _number(v) and 0.0 <= v < np.pi / 2)


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment.

    A field that is set must lie in its domain (text, test) and in any narrower
    domain its system declares, and a system parameter may be set only for a
    system that takes it; otherwise construction raises ConfigError.  A
    parameter left out stays None here: a run takes its system's default and
    records it under the summary's defaults_applied."""

    id: str = _field(_NAME)
    system: str = _field(_one_of(*_SYSTEMS))
    # system parameters; each system takes only those its _SYSTEMS entry names
    steps: int | None = _field(_SIZE, None)
    dt: float | None = _field(_POSITIVE, None)
    r: float | None = _field(("> 1", lambda v: _number(v) and v > 1.0), None)
    init_width: float | None = _field(("in (0, 1]", lambda v: _number(v) and 0.0 < v <= 1.0), None)
    grid_n: int | None = _field(_SIZE, None)
    grid_m: int | None = _field(_LOG2_SIZE, None)
    omega: float | None = _field(_POSITIVE, None)
    omega0: float | None = _field(_POSITIVE, None)
    n_dim: int | None = _field(_EVEN, None)
    q0: float | None = _field(_UNIT, None)
    p0: float | None = _field(_UNIT, None)
    alpha: float | None = _field(_POSITIVE, None)
    path: str | None = _field(("a file path", lambda v: isinstance(v, str) and v != ""), None)
    convention: str | None = _field(_one_of("amplitude", "probability"), None)
    # estimator settings
    theta: float = _field(_ANGLE, DEFAULT_THETA)
    delta_index: int = _field(_COUNT, 1)
    window: tuple | None = _field(("[t1, t2] of numbers or nulls with t1 < t2", _window), None)
    stable_threshold: float = _field((">= 0", lambda v: _number(v) and v >= 0.0), 0.01)

    def __post_init__(self):
        _params(self)
        if self.window is not None:
            object.__setattr__(self, "window", tuple(self.window))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}", field=key)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        if d["window"] is not None:
            d["window"] = list(d["window"])
        return d


def _config_hash(config_dict: dict) -> str:
    return hashlib.sha256(json.dumps(config_dict, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    divergence: object
    estimate: object | None  # None when nothing was fitted
    summary: dict  # the outcome: classification, lambda, fit window, t_b
    out_dir: Path | None = None
    defaults: dict = field(default_factory=dict)


def _params(cfg: ExperimentConfig):
    """Check cfg, raising ConfigError naming the field; return the values of
    its system's parameters and the defaults applied."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is not None or f.default is not None:  # None only where it is the default
            _check(f.name, value, f.metadata["domain"])
    defaults, _, narrowed = _SYSTEMS[cfg.system]
    for name in _PARAMS:
        if name not in defaults and getattr(cfg, name) is not None:
            raise ConfigError(f"{name} is not a parameter of {cfg.system}", field=name)
    for name, domain in narrowed.items():
        if getattr(cfg, name) is not None:
            _check(name, getattr(cfg, name), domain)
    values, applied = {}, {}
    for name, default in defaults.items():
        value = getattr(cfg, name)
        if value is None:
            if default is None:
                raise ConfigError(f"{cfg.system} needs {name}", field=name)
            value = applied[name] = default(values) if callable(default) else default
        values[name] = value
    # an evolved series has steps + 1 samples; the estimator needs delta_index + 2
    if "steps" in values and values["steps"] <= cfg.delta_index:
        raise ConfigError(
            f"steps must exceed delta_index ({cfg.delta_index}), got {values['steps']}",
            field="steps",
        )
    if "steps" in values:  # the fit times: the stencils' left times k dt, as the series forms them
        dt = values.get("dt", 1.0)
        _check_window(cfg.window, values["steps"] - cfg.delta_index + 1, lambda k: k * dt)
    return values, applied


def _check_window(window, n: int, at):
    """Raise ConfigError unless window (None, or [t1, t2] with None open) holds as
    many of the fit times at(0) < ... < at(n - 1) as estimators.fit_points_needed
    asks of its start: 4 from a given start, 2 from an open one."""
    t1, t2 = window or (None, None)
    held = (n if t2 is None else bisect_right(range(n), t2, key=at)) - (
        0 if t1 is None else bisect_left(range(n), t1, key=at))
    need = fit_points_needed(t1)
    if held < need:
        raise ConfigError(
            f"window {json.dumps(list(window))} holds {f'only {held}' if held else 'none'} of"
            f" the fit times {at(0):g} ... {at(n - 1):g}; a fit needs {need}", field="window")


def _estimate_and_classify(cfg: ExperimentConfig, div):
    """Plateau detection, fit, classification: the estimate (or None) and outcome fields."""
    t_b = detect_saturation(div)
    estimate = None
    detail = None
    try:
        estimate = asymptotic_estimate(
            div, window=cfg.window, delta_index=cfg.delta_index, saturation_time=t_b
        )
        lam = estimate.asymptotic_value
        classification = "stable" if abs(lam) < cfg.stable_threshold else "unstable"
    except DegeneratePathError as exc:
        classification = "stable"
        detail = f"stationary path: {exc}"
    except (SaturationError, InsufficientDataError) as exc:
        if t_b is None and isinstance(exc, InsufficientDataError):
            raise
        classification = "saturated"
        detail = str(exc)
    return estimate, {
        "classification": classification,
        "lambda": None if estimate is None else estimate.asymptotic_value,
        "fit_window": None if estimate is None else list(estimate.fit_window),
        "residual": None if estimate is None else estimate.residual,
        "saturation_time": t_b,
        "detail": detail,
    }


def _curve(result) -> np.ndarray:
    """The (t, lambda_t) points of a run: none when nothing was fitted."""
    return np.empty((0, 2)) if result.estimate is None else result.estimate.finite_time_curve


# rows per % and per write; % grows a block's text by reallocation, and 4096-row
# blocks fragmented the heap of a long ingest loop (+2 MB per 100 20k-row ingests)
_ROWS_PER_WRITE = 256
_FLAGS = np.array([",0\n", ",1\n"], dtype=object)  # a row's tail: its saturated flag and line end


def _write_csv(path: Path, config_hash: str, header: str, heads: list, column, tails: list):
    """Rows of ready text around one float, each block one % over head, %.17g and tail."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash}\n{header}\n")
        for start in range(0, len(heads), _ROWS_PER_WRITE):
            block = heads[start:start + _ROWS_PER_WRITE]
            values = [None] * (3 * len(block))
            values[::3] = block
            values[1::3] = column[start:start + _ROWS_PER_WRITE].tolist()
            values[2::3] = tails[start:start + _ROWS_PER_WRITE]
            fh.write("%s%.17g%s" * len(block) % tuple(values))


SUMMARY_SCHEMA = {
    "type": "object",
    "required": [
        "id",
        "config",
        "config_hash",
        "classification",
        "lambda",
        "fit_window",
        "residual",
        "saturation_time",
        "provenance",
    ],
    "properties": {
        "id": {"type": "string"},
        "config": {"type": "object"},
        "config_hash": {"type": "string"},
        "classification": {"enum": ["stable", "unstable", "saturated"]},
        "lambda": {"type": ["number", "null"]},
        "fit_window": {"type": ["array", "null"]},
        "residual": {"type": ["number", "null"]},
        "saturation_time": {"type": ["number", "null"]},
        "detail": {"type": ["string", "null"]},
        "provenance": {"type": "object"},
    },
}

_JSON_TYPES = {
    "object": dict,
    "string": str,
    "number": (int, float),
    "array": list,
    "null": type(None),
    "boolean": bool,
}


def validate_summary(doc: dict):
    """Structural validation of a summary document against SUMMARY_SCHEMA."""
    if not isinstance(doc, dict):
        raise ConfigError("summary must be an object")
    for key in SUMMARY_SCHEMA["required"]:
        if key not in doc:
            raise ConfigError(f"summary missing required field {key!r}", field=key)
    for key, spec in SUMMARY_SCHEMA["properties"].items():
        if key not in doc:
            continue
        value = doc[key]
        if "enum" in spec:
            if value not in spec["enum"]:
                raise ConfigError(f"summary field {key!r} not in {spec['enum']}", field=key)
            continue
        types = spec["type"]
        if isinstance(types, str):
            types = [types]
        allowed = tuple(_JSON_TYPES[t] for t in types)
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            raise ConfigError(f"summary field {key!r} has wrong type", field=key)
    return True


def run(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Execute one experiment; write CSVs and summary.json when out_dir is given."""
    params, defaults = _params(config)
    div = _SYSTEMS[config.system][1](config, params)
    estimate, outcome = _estimate_and_classify(config, div)

    config_dict = config.to_dict()
    summary = {
        "id": config.id,
        "config": config_dict,
        "config_hash": _config_hash(config_dict),
        **outcome,
        "provenance": {
            "package_version": __version__,
            "numpy_version": np.__version__,
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "defaults_applied": defaults,
        },
    }
    validate_summary(summary)

    result = ExperimentResult(
        config=config,
        divergence=div,
        estimate=estimate,
        summary=summary,
        defaults=defaults,
    )
    if out_dir is not None:
        result.out_dir = _write_result(result, Path(out_dir))
    return result


def _write_result(result: ExperimentResult, out_dir: Path) -> Path:
    exp_dir = out_dir / result.config.id
    exp_dir.mkdir(parents=True, exist_ok=True)
    h = result.summary["config_hash"]
    div = result.divergence
    curve = _curve(result)  # its times are series times: a row takes its sample's t text
    if div.times.size >= floattext.BLOCK_ROWS:
        floattext.write_csvs(h, div.times, {
            exp_dir / "distance.csv": ("t,d_p,saturated", div.distances),
            exp_dir / "divergence.csv": ("t,log_divergence,saturated", div.log_values),
        }, div.saturated)
        floattext.write_csvs(h, curve[:, 0], {exp_dir / "lambda_t.csv": ("t,lambda_t", curve[:, 1])})
    else:
        heads = ("%.17g,\n" * div.times.size % tuple(div.times.tolist())).splitlines()
        tails = _FLAGS.take(div.saturated).tolist()
        _write_csv(exp_dir / "distance.csv", h, "t,d_p,saturated", heads, div.distances, tails)
        _write_csv(exp_dir / "divergence.csv", h, "t,log_divergence,saturated", heads,
                   div.log_values, tails)
        curve_heads = list(map(heads.__getitem__, np.searchsorted(div.times, curve[:, 0]).tolist()))
        _write_csv(exp_dir / "lambda_t.csv", h, "t,lambda_t", curve_heads, curve[:, 1],
                   ["\n"] * len(curve))
    (exp_dir / "summary.json").write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    return exp_dir


_LN2_HALF = float(np.log(2.0) / 2.0)


# Each figure once: its configs, reference lines and x label; every figure plots
# the finite-time exponent.
_FIGURES = {
    "fig1a": (
        [
            ExperimentConfig(
                id=f"fig1a-r{r}", system="linear", r=float(r), steps=40, theta=0.0,
                window=(10.0, None),
            )
            for r in (2, 3, 5)
        ],
        [(f"ln({r})/2", float(np.log(r) / 2.0)) for r in (2, 3, 5)],
        "steps",
    ),
    "fig1b": (
        [
            ExperimentConfig(
                id="fig1b-oscillator-w2", system="oscillator", omega=2.0, omega0=1.0,
                steps=1200, dt=0.05, theta=0.0,
            ),
            ExperimentConfig(
                id="fig1b-barrier-w2", system="barrier", omega=2.0, omega0=1.0,
                steps=300, dt=0.05, theta=0.0,
            ),
            ExperimentConfig(
                id="fig1b-barrier-w5", system="barrier", omega=5.0, omega0=1.0,
                steps=300, dt=0.02, theta=0.0,
            ),
        ],
        [("0", 0.0), ("1", 1.0), ("5/2", 2.5)],
        "time",
    ),
    "fig2a": (
        [
            ExperimentConfig(
                id="fig2a-bvs-n1800", system="bvs_baker", theta=0.1, window=(0.0, None),
            ),
        ],
        [("ln(2)/2", _LN2_HALF)],
        "map steps",
    ),
}
FIGURE_IDS = tuple(_FIGURES)


def figure(fig_id: str, out_dir) -> list:
    """Run the preset bundle for a named figure and render its SVG."""
    if fig_id not in _FIGURES:
        raise ConfigError(f"unknown figure id {fig_id!r}", field="figure")
    configs, hlines, xlabel = _FIGURES[fig_id]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [run(cfg, out_dir=out_dir) for cfg in configs]
    curves = [(res.config.id, *_curve(res).T) for res in results]
    svg = render_line_plot(
        curves, title=fig_id, xlabel=xlabel, ylabel="finite-time exponent", hlines=hlines
    )
    (out_dir / f"{fig_id}.svg").write_text(svg)
    return results


def ingest(path, convention: str | None = None, out_dir=None, **estimator_kwargs) -> ExperimentResult:
    """Full estimator pipeline on an external overlap CSV.

    A convention of None takes the overlap_file system's default.
    estimator_kwargs are further config fields (theta, window, ...); an
    unknown one raises ConfigError naming it."""
    stem = _UNSAFE.sub("_", Path(path).stem) or "ingest"
    cfg = ExperimentConfig.from_dict({
        "id": f"ingest-{stem}", "system": "overlap_file", "path": str(path),
        "convention": convention, **estimator_kwargs,
    })
    return run(cfg, out_dir=out_dir)


def selftest() -> int:
    """Run the built-in property battery; returns the number of failures."""
    from .geometry import (
        DiscreteBasis,
        bounded_euclidean_distance,
        classical_divergence,
        fubini_study_distance,
        hilbert_distance,
    )
    from .ensembles import rotation_map, linear_map as _linmap
    from .estimators import trajectory_lyapunov

    rng = np.random.default_rng(20260808)

    def ray_invariance():
        basis = DiscreteBasis(6)
        a = ProjectiveState(rng.standard_normal(6) + 1j * rng.standard_normal(6), basis)
        b = ProjectiveState(rng.standard_normal(6) + 1j * rng.standard_normal(6), basis)
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = ProjectiveState(c * a.amplitudes, basis)
        return abs(fubini_study_distance(scaled, b) - fubini_study_distance(a, b)) < 1e-12

    def composition_identity():
        return all(
            abs(classical_divergence(bounded_euclidean_distance(d)) - d) <= 1e-10 * (1.0 + d)
            for d in (0.0, 1e-6, 1.0, 1e6)
        )

    def triangle():
        basis = DiscreteBasis(5)
        for _ in range(200):
            s = [
                ProjectiveState(rng.standard_normal(5) + 1j * rng.standard_normal(5), basis)
                for _ in range(3)
            ]
            d01 = fubini_study_distance(s[0], s[1])
            d12 = fubini_study_distance(s[1], s[2])
            d02 = fubini_study_distance(s[0], s[2])
            if d02 > d01 + d12 + 1e-10:
                return False
        return True

    def bvs_unitary():
        b = bvs_baker(128)(np.eye(128))
        return float(np.max(np.abs(b.conj().T @ b - np.eye(128)))) < 1e-10

    def eq2_invariance():
        step = bvs_baker(64)
        basis = DiscreteBasis(64)
        u = ProjectiveState(rng.standard_normal(64) + 1j * rng.standard_normal(64), basis)
        v = ProjectiveState(rng.standard_normal(64) + 1j * rng.standard_normal(64), basis)
        before = hilbert_distance(u, v)
        after = hilbert_distance(
            ProjectiveState(step(u.amplitudes), basis), ProjectiveState(step(v.amplitudes), basis)
        )
        return abs(after - before) < 1e-10

    def mass_conserved():
        grid = GridBasis1D(4096, 0.0, 1.0)
        rho = GridDensity(rng.random(4096) + 0.1, grid)
        rho = GridDensity(rho.values / rho.mass, grid)
        out = transfer_step(rho, r_adic_map(3))
        return abs(out.mass - rho.mass) < 1e-14 and np.all(out.values >= 0.0)

    def trajectories():
        lam_lin = trajectory_lyapunov(_linmap(2.0), [0.7], steps=60)
        lam_rot = trajectory_lyapunov(rotation_map(0.37), [0.2], steps=60)
        lam_bak = trajectory_lyapunov(baker_map(), [0.312, 0.547], steps=60)
        return (
            abs(lam_lin - np.log(2.0)) < 1e-6
            and abs(lam_rot) < 1e-6
            and abs(lam_bak - np.log(2.0)) < 1e-6
        )

    def linear_exponent():
        div = evolve_linear_analytic(2.0, 40)
        est = asymptotic_estimate(div, window=(10.0, 39.0))
        return abs(est.asymptotic_value / _LN2_HALF - 1.0) < 0.01

    checks = [
        ("ray invariance", ray_invariance),
        ("divergence composition identity", composition_identity),
        ("triangle inequality (200 triples)", triangle),
        ("quantized baker unitarity N=128", bvs_unitary),
        ("flat-metric invariance under the baker unitary", eq2_invariance),
        ("transfer-operator mass conservation", mass_conserved),
        ("trajectory exponents (linear, rotation, baker)", trajectories),
        ("linear-map exponent ln(2)/2", linear_exponent),
    ]
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except PlyapError:
            ok = False
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return failures
