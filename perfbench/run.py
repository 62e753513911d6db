"""plyap benchmark: one workload in a closed loop, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; plyap is imported from ``src``.
Three worker processes start one after another.  Each times its own set-up
(``import plyap`` plus one warm-up op); the last one then calls plyap one op
at a time for S seconds, each op on a distinct seeded input, and checks every
op's outputs.  The run prints a report and then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  --tiny shrinks every workload for the smoke test.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "run_s_p50": "s", "run_s_tail": "s", "runs_per_s": "1/s",
         "peak_rss_mb": "MB", "failed_frac": "ratio", "accurate_frac": "ratio"}
THREAD_VARS = ("PLYAP_THREADS", "OPENBLAS_NUM_THREADS")


def thread_caps(nproc):
    """Thread counts for the workers: the requested value, or nproc, capped at nproc."""
    caps = {}
    for name in THREAD_VARS:
        raw = os.environ.get(name, "").strip()
        caps[name] = {"requested": raw or None, "applied": max(1, min(int(raw or nproc), nproc))}
    return caps


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode or status.returncode:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with >= 10 samples above it."""
    s = sorted(latencies)
    j = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[j], 100.0 * (j + 1) / len(s), len(s) - 1 - j


def accuracy_prefix(n, strata):
    """Ops counted in accurate_frac: whole cycles, or the longest 2^k-op prefix of one."""
    if n >= strata:
        return n // strata * strata
    return 1 << (n.bit_length() - 1)


def end_to_end(workers, ops, strata, scaled=True):
    """All seven end-to-end metrics, from the untraced ops of the main worker.

    Times are on the reference speed of calibrate.py; scaled=False gives them raw.
    """
    timed = [o for o in ops if not o["traced"]]
    lat = [o["latency"] * (o["scale"] if scaled else 1.0) for o in timed]
    lat_or_inf = [x if o["failure"] is None else math.inf for x, o in zip(lat, timed)]
    completed = sum(not o["raised"] for o in timed)
    # accuracy over a prefix that covers the input range evenly
    whole = ops[: accuracy_prefix(len(ops), strata)]
    tail_value, tail_pct, beyond = tail(lat_or_inf)
    metrics = {
        "setup_s": statistics.median(w["setup_s" if scaled else "setup_s_raw"] for w in workers),
        "run_s_p50": statistics.median(lat_or_inf),
        "run_s_tail": tail_value,
        "runs_per_s": completed / sum(lat),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "failed_frac": sum(o["failure"] is not None for o in ops) / len(ops),
        "accurate_frac": sum(o["accurate"] for o in whole) / len(whole),
    }
    detail = {
        "run_s_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(lat)},
        "accurate_frac": {"ops": len(whole), "strata": strata},
        "setup_s": [w["setup_s"] for w in workers],
        "speed_scale_p50": statistics.median(o["scale"] for o in timed),
    }
    return metrics, detail


def per_layer(trace, specs):
    layers = dict(trace["layers"])
    layers["trace.overhead_s"] = trace["traced_run_s_p50"] - trace["untraced_run_s_p50"]
    return {m["name"]: layers.get(m["name"], 0) for m in specs}


def check_predictions(workload, shares):
    """Evaluate the share predictions of perfbench/predictions.json for this workload."""
    with open(HERE / "predictions.json") as fh:
        predictions = json.load(fh)["predictions"]
    out = []
    for p in predictions:
        if workload not in p["workloads"] or "min_share" not in p:
            continue
        share = sum(shares.get(name, 0.0) for name in p["layers"])
        out.append({"id": p["id"], "share": share, "min_share": p["min_share"],
                    "confirmed": share >= p["min_share"]})
    return out


def run_worker(args, role, index, env, work, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--index", str(index), "--work", str(work),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "plyap" / "__init__.py").is_file():
        print(f"perfbench: no plyap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    nproc = len(os.sched_getaffinity(0))
    caps = thread_caps(nproc)
    sha, dirty = git_state()
    env = dict(os.environ)
    env.update({name: str(cap["applied"]) for name, cap in caps.items()})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workers = []
    try:
        for k in range(SETUPS):
            role = "main" if k == SETUPS - 1 else "setup"
            workers.append(run_worker(args, role, k, env, work / str(k), deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    main_w = workers[-1]
    ops = main_w["ops"]
    strata = WORKLOADS[args.workload].strata
    e2e, detail = end_to_end(workers, ops, strata)
    raw, _ = end_to_end(workers, ops, strata, scaled=False)
    failures = [o["failure"] for o in ops if o["failure"]]
    warm_failures = [w["warm_failure"] for w in workers if w["warm_failure"]]
    correct = not failures and not warm_failures
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": {
            "git_sha": sha,
            "git_dirty": dirty,
            "python": sys.version.split()[0],
            "numpy": main_w["numpy"],
            "blas": main_w["blas"],
            "nproc": nproc,
            "threads": caps,
        },
        "ops": {
            "attempted": len(ops),
            "failed": len(failures),
            "setup_processes": SETUPS,
            "loop_s": main_w["loop_s"],
            "inputs_exhausted": main_w["exhausted"],
        },
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "detail": detail,
        "failures": (warm_failures + failures)[:5],
    }
    if args.trace:
        trace = main_w["trace"]
        correct = correct and trace["counts_repeat"]
        metrics = per_layer(trace, spec["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["trace"] = dict(trace, predictions=check_predictions(args.workload, trace["shares"]))
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  {'metric':<14} {'scaled':>12} {'raw':>12}  unit")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.6g} {raw[name]:12.6g}  {UNITS[name]}")
    print(f"  times scaled to the reference speed by x{detail['speed_scale_p50']:.4f} (median)")
    t = detail["run_s_tail"]
    print(f"  run_s_tail is p{t['percentile']:.1f}: {t['samples_beyond']} of {t['samples']} "
          "samples beyond it")
    if args.trace:
        print(f"  tracing overhead {metrics['trace.overhead_s']:+.6g} s on run_s_p50")
        for name, share in sorted(trace["shares"].items(), key=lambda kv: -kv[1])[:12]:
            print(f"  share {name:<40} {share:7.2%}")
        for pred in report["trace"]["predictions"]:
            print(f"  prediction {pred['id']}: {pred['share']:.1%} >= {pred['min_share']:.0%} "
                  f"{'confirmed' if pred['confirmed'] else 'NOT confirmed'}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
