"""One fresh workload process: set-up, then (role "main") the timed closed loop.

Set-up is ``import plyap`` plus one untimed warm-up op.  The main process
then calls plyap one op at a time for --seconds, each op on a distinct
input, and checks every op's outputs.  On the Python-bound workloads a CPU
probe (calibrate.py) runs between ops and records how fast the host runs, so
their times can be put on one reference speed.  With --trace 1 every other
op runs under the tracer, next to an untraced twin of the same cost, so
traced and untraced latencies come from the same process and inputs.  The
process prints one JSON object as the last line of its standard output.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from calibrate import Clock
from tracer import OP, Tracer, per_op_layers
from workloads import WORKLOADS, check_outputs


def _bvs_counts(args, kwargs, result):
    n = args[0] if args else kwargs["N"]
    # computed: the dense N x N complex product G_N^H @ blockdiag(G_N/2, G_N/2)
    return {"flops": 8 * n**3, "bytes": 3 * 16 * n * n}


def _state_counts(args, kwargs, result):
    return {"state_bytes": result.amplitudes.nbytes}


COUNTERS = {
    "ensembles.transfer_step": lambda a, k, r: {"bytes": a[0].values.nbytes + r.values.nbytes},
    "ensembles.sqrt_embed": _state_counts,
    "quantum.bvs_coherent_state": _state_counts,
    "quantum.bvs_baker": _bvs_counts,
    "estimators.read_overlap_csv": lambda a, k, r: {"rows": len(r)},
}
STATE_SPANS = ("ensembles.sqrt_embed", "quantum.bvs_coherent_state")


def _fit_points(res):
    """Stencil points inside the fitted window (the regression's sample)."""
    import numpy as np

    if res.estimate is None:
        return 0
    div = res.divergence
    d = res.config.delta_index
    t = div.times[:-d]
    valid = ~(div.saturated[d:] | div.saturated[:-d])
    t1, t2 = res.estimate.fit_window
    return int(np.count_nonzero(valid & (t >= t1) & (t <= t2)))


def _op_counts(results, out_dir):
    """Per-op counts that come from results and output files, not from spans."""
    samples = sum(len(r.divergence) for r in results)
    step_flops = 0
    for r in results:
        if r.config.system == "bvs_baker":
            n = r.config.n_dim or r.defaults["n_dim"]
            step_flops += 8 * n * n * r.config.steps * int(r.config.dt)
    sizes = [
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
    ]
    return {
        "quantum.step.flops": step_flops,
        "estimators.fit_points_frac": sum(_fit_points(r) for r in results) / samples,
        "runner.write.bytes": sum(sizes),
        "runner.write.files": len(sizes),
    }, samples


def _flatten(layers, extra, samples, scale):
    """One op's layer statistics as {"<module>.<function>.<stat>": value}.

    Self times are put on the reference speed like op latencies.
    runner.states_held.bytes is computed as samples x the size of one state,
    which is what the runner's state list holds at its peak.
    """
    flat = dict(extra)
    for name, rec in layers.items():
        if name == OP:
            continue
        for key, value in rec.items():
            if key == "self_s":
                flat[f"{name}.self_s"] = value * scale
            elif key != "state_bytes":
                flat[f"{name}.{key}"] = value
    state = [rec["state_bytes"] // rec["calls"] for n, rec in layers.items() if n in STATE_SPANS]
    flat["runner.states_held.bytes"] = max(state, default=0) * samples
    return flat


class Loop:
    def __init__(self, workload, runner, ops_dir, tracer=None):
        self.workload = workload
        self.runner = runner
        self.ops_dir = ops_dir
        self.tracer = tracer
        self.clock = Clock() if workload.scaled else None
        self.counts = {}  # op id -> (_op_counts, samples), traced ops only

    def do(self, op, op_id, traced):
        """Run one op; returns its record.  Failures are recorded, not raised."""
        wl = self.workload
        out_dir = os.path.join(self.ops_dir, str(op_id))
        wl.prepare(op)
        if traced:
            self.tracer.install(COUNTERS)
        results = None
        raised = False
        try:
            start = time.perf_counter()
            try:
                if traced:
                    results = self.tracer.call_op(op_id, wl.call, self.runner, op, out_dir)
                else:
                    results = wl.call(self.runner, op, out_dir)
            finally:
                end = time.perf_counter()
                if traced:
                    self.tracer.uninstall()
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            raised = True
            failure = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        else:
            # the output checks stay out of the op's time
            failure = check_outputs(wl, op, results, out_dir)
        rec = {"latency": end - start, "start": start, "end": end, "failure": failure,
               "raised": raised, "traced": traced}
        rec["accurate"] = failure is None and all(wl.accurate(r, op) for r in results)
        if traced and results is not None:
            self.counts[op_id] = _op_counts(results, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        wl.cleanup(op)
        return rec

    def tick(self):
        if self.clock:
            self.clock.tick()

    def set_scales(self, recs, readings=1):
        """Put each op on the reference speed, from the probe readings around it."""
        for _ in range(readings if self.clock else 0):
            self.clock.tick(force=True)
        for rec in recs:
            start, end = rec.pop("start"), rec.pop("end")
            rec["scale"] = self.clock.scale(start, end) if self.clock else 1.0

    def _flat(self, per_op, op_id, scale=1.0):
        return _flatten(per_op.get(op_id, {}), *self.counts[op_id], scale)

    def trace_summary(self, ops):
        per_op = per_op_layers(self.tracer.spans)
        traced = [i for i, rec in enumerate(ops) if i in self.counts]
        flat = {i: self._flat(per_op, i, ops[i]["scale"]) for i in traced}
        names = sorted({key for i in traced for key in flat[i]})
        layers = {name: statistics.median(flat[i].get(name, 0) for i in traced) for name in names}
        busy = sum(ops[i]["latency"] for i in traced)
        span_names = sorted({s[1] for s in self.tracer.spans if s[1] != OP})
        shares = {
            name: sum(per_op.get(i, {}).get(name, {}).get("self_s", 0.0) for i in traced) / busy
            for name in span_names + [OP]
        }
        untraced = [rec["latency"] * rec["scale"] for rec in ops if not rec["traced"]]
        return {
            "layers": layers,
            "shares": shares,
            "span_names": span_names,
            "traced_ops": len(traced),
            "untraced_ops": len(untraced),
            "traced_run_s_p50": statistics.median(
                ops[i]["latency"] * ops[i]["scale"] for i in traced
            ),
            "untraced_run_s_p50": statistics.median(untraced),
            # the raw spans of the first op: (id, name, start, end, parent, op id, counts)
            "spans_op0": [span for span in self.tracer.spans if span[5] == 0],
        }

    def recheck_counts(self, op, first_id):
        """Re-run a traced op on the same input; its counts must repeat exactly."""
        self.do(op, "recheck", True)
        if first_id not in self.counts or "recheck" not in self.counts:
            return False
        per_op = per_op_layers(self.tracer.spans)

        def counts(op_id):
            flat = self._flat(per_op, op_id)
            return {k: v for k, v in flat.items() if not k.endswith(".self_s")}

        return counts(first_id) == counts("recheck")


def timed_loop(loop, seconds, trace):
    ops = []
    inputs = []
    exhausted = False
    start = time.perf_counter()
    while len(ops) < 2 or time.perf_counter() - start < seconds:
        # with --trace 1, op 2k is traced and op 2k+1 is its untraced twin
        i, twin = divmod(len(ops), 2) if trace else (len(ops), 0)
        op = loop.workload.timed_op(i, bool(twin))
        if op is None:
            exhausted = True
            break
        inputs.append(op)
        loop.tick()
        ops.append(loop.do(op, len(ops), bool(trace) and not twin))
    loop_s = time.perf_counter() - start
    loop.set_scales(ops)
    out = {"ops": ops, "loop_s": loop_s, "exhausted": exhausted}
    if trace:
        out["trace"] = loop.trace_summary(ops)
        out["trace"]["counts_repeat"] = loop.recheck_counts(inputs[0], 0)
    return out


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "main"), required=True)
    p.add_argument("--index", type=int, default=0, help="which warm-up input to use")
    p.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    ops_dir = os.path.join(args.work, "ops")
    os.makedirs(ops_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.work)

    t0 = time.perf_counter()
    import plyap.runner as runner

    import_s = time.perf_counter() - t0
    loop = Loop(workload, runner, ops_dir, Tracer() if args.trace else None)
    # the warm-up's input generation and output checks stay out of set-up time
    warm = loop.do(workload.warm_op(args.index), "warm", False)
    setup_s = import_s + warm["latency"]
    # three readings: the first probes in a fresh process can run slow
    loop.set_scales([warm], readings=3)

    out = {
        "role": args.role,
        "setup_s": setup_s * warm["scale"],
        "setup_s_raw": setup_s,
        "warm_failure": warm["failure"],
    }
    if args.role == "main":
        out.update(timed_loop(loop, args.seconds, args.trace))
        import numpy as np

        out["numpy"] = np.__version__
        out["blas"] = _blas()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
