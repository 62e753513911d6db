"""Smoke test of the benchmark itself, at tiny sizes.

Every end-to-end metric is emitted with its unit, every per-layer metric is
emitted by the traced run, and the traced runs together open a span for every
function a per-layer metric names.
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer metrics computed from array sizes, results or output files rather than spans
COMPUTED = ("quantum.step.", "runner.states_held.", "runner.write.", "estimators.fit_points_frac",
            "trace.")

sys.path.insert(0, str(HERE))
from run import UNITS  # noqa: E402
from tracer import OP, Tracer, per_op_layers  # noqa: E402


def _bench(workload, trace, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _run(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    report, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert set(report["end_to_end"]) == set(UNITS)
    assert all(UNITS[name] == unit for name, unit in _units("end_to_end").items())
    assert report["provenance"]["threads"]["OPENBLAS_NUM_THREADS"]["applied"] >= 1


def test_traced_runs_cover_every_listed_function():
    spans = set()
    for workload in WORKLOADS:
        report, result = _run(workload, 1)
        assert result["correct"], report["failures"]
        assert report["trace"]["counts_repeat"]
        assert report["trace"]["spans_op0"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
        spans |= set(report["trace"]["span_names"])
    listed = {name.rsplit(".", 1)[0] for name in _units("per_layer") if not name.startswith(COMPUTED)}
    assert listed - spans == set()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pool_spans_nest_under_the_waiting_span():
    def leaf():
        time.sleep(0.02)

    def fan_out():
        with ThreadPoolExecutor(3) as pool:
            for f in [pool.submit(lambda: mod.leaf()) for _ in range(3)]:
                f.result()

    mod = SimpleNamespace(leaf=leaf, fan_out=fan_out)
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "m.leaf")
    tracer.wrap(mod, "fan_out", "m.fan_out")
    tracer.call_op(0, mod.fan_out)
    tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    (fan,) = by_name["m.fan_out"]
    assert len(by_name["m.leaf"]) == 3
    assert all(s[4] == fan[0] and s[5] == 0 for s in by_name["m.leaf"])
    layers = per_op_layers(tracer.spans)[0]
    # three concurrent 20 ms leaves cover at least 20 ms of fan_out, counted once
    assert 0.0 <= layers["m.fan_out"]["self_s"] <= (fan[3] - fan[2]) - 0.015
    assert layers["m.leaf"]["calls"] == 3
    assert layers[OP]["calls"] == 1
