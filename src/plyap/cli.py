"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure
(an array too large to allocate included).
"""

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from .errors import ConfigError, DataFormatError, PlyapError
from .quantum import bvs_baker
from .runner import FIGURE_IDS, ExperimentConfig, figure, ingest, run
from .runner import _baker_start, _params, _r_adic_start

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _near(target, rel):
    return lambda s: s["lambda"] is not None and abs(s["lambda"] - target) < rel * target


_HALF_LN2 = math.log(2.0) / 2.0

# plyap selftest's runs: each system's default run (overlap_file needs a file)
# and the test its summary must pass, by check name
_RUNS = {
    "linear: lambda within 1% of ln(2)/2": ({"system": "linear"}, _near(_HALF_LN2, 0.01)),
    "r_adic: lambda within 5% of ln(2)/2": ({"system": "r_adic"}, _near(_HALF_LN2, 0.05)),
    "baker_classical: lambda within 10% of ln 2": (
        {"system": "baker_classical"}, _near(2.0 * _HALF_LN2, 0.10)),
    "bvs_baker: lambda in [0.29, 0.40]": (
        {"system": "bvs_baker"}, lambda s: s["lambda"] is not None and 0.29 <= s["lambda"] <= 0.40),
    "barrier w=2: lambda within 5% of w/2": ({"system": "barrier", "omega": 2.0}, _near(1.0, 0.05)),
    "oscillator w=2: stable": (
        {"system": "oscillator", "omega": 2.0}, lambda s: s["classification"] == "stable"),
}


def _defaults(system):
    return _params(ExperimentConfig(id="selftest", system=system))[0]


def _in_band(fields, ok):
    return ok(run(ExperimentConfig(id="selftest", **fields)).summary)


def _mass_kept(system, start):
    """Mass of the default run's own density over its map steps, to 1e-12 relative."""
    p = _defaults(system)
    rho, step, _ = start(p)
    out = rho
    for _ in range(p["steps"] * int(p["dt"])):
        out = step(out)
    return abs(out.mass - rho.mass) <= 1e-12 * rho.mass


def _unitary():
    """The default packet's step keeps the norms of random u, v and of u - v, to 1e-10."""
    n = _defaults("bvs_baker")["n_dim"]
    step = bvs_baker(n)
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    def norm(x):
        return np.sqrt(np.sum(np.abs(x) ** 2))

    return all(abs(norm(after) - norm(before)) <= 1e-10 * norm(before)
               for before, after in ((u, step(u)), (v, step(v)), (u - v, step(u) - step(v))))


def _selftest() -> int:
    """Print a PASS or FAIL line per check; return the number of failures."""
    checks = [(name, partial(_in_band, *row)) for name, row in _RUNS.items()] + [
        ("r_adic: mass kept over the default run", partial(_mass_kept, "r_adic", _r_adic_start)),
        ("baker_classical: mass kept over the default run",
         partial(_mass_kept, "baker_classical", _baker_start)),
        ("bvs_baker: the default step keeps norms and distances", _unitary),
    ]
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except PlyapError:
            ok = False
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return failures


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plyap",
        description="Sensitivity exponents for densities and quantum states in ray space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.add_argument("--out", default="plyap-out", help="output directory")

    p_fig = sub.add_parser("figure", help="regenerate a preset figure bundle")
    p_fig.add_argument("figure_id", choices=FIGURE_IDS)
    p_fig.add_argument("--out", default="plyap-out", help="output directory")

    p_ing = sub.add_parser("ingest", help="estimate an exponent from an overlap CSV")
    p_ing.add_argument("csv", help="CSV file with header t,overlap")
    p_ing.add_argument(
        "--convention", choices=("amplitude", "probability"), default=None,
        help="overlap convention of the file (default: amplitude)",
    )
    p_ing.add_argument("--out", default="plyap-out", help="output directory")
    p_ing.add_argument("--theta", type=float, default=None, help="saturation threshold")

    sub.add_parser("selftest", help="run the built-in property checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config) as fh:
                    data = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            result = run(ExperimentConfig.from_dict(data), out_dir=args.out)
            print(json.dumps(result.summary, indent=2, sort_keys=True))
        elif args.command == "figure":
            results = figure(args.figure_id, args.out)
            for res in results:
                lam = res.summary["lambda"]
                lam_txt = "none" if lam is None else f"{lam:.6g}"
                print(f"{res.config.id}: {res.summary['classification']} lambda={lam_txt}")
            print(f"wrote {args.out}/{args.figure_id}.svg")
        elif args.command == "ingest":
            kwargs = {} if args.theta is None else {"theta": args.theta}
            result = ingest(args.csv, convention=args.convention, out_dir=args.out, **kwargs)
            print(json.dumps(result.summary, indent=2, sort_keys=True))
        elif args.command == "selftest":
            failures = _selftest()
            if failures:
                print(f"{failures} check(s) failed")
                return EXIT_NUMERICAL
            print("all checks passed")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PlyapError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # reads already raise ConfigError or DataFormatError, so this is an
        # output path that cannot be written: an invocation error
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
