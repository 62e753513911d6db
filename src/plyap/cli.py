"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure
(an array too large to allocate included).
"""

import argparse
import json
import sys

from .errors import ConfigError, DataFormatError, PlyapError
from .runner import FIGURE_IDS, ExperimentConfig, figure, ingest, run, selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


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
            failures = selftest()
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
