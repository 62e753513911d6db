"""The reference runs and their outcome fields; run as a script, it rewrites
summaries.json next to it:

    PYTHONPATH=src python tests/reference/regenerate.py

The runs are fig1a, fig1b and fig2a, every system's small run from
test_runner._SMALL_RUNS, every system's default run (omega = 2 where a system
has no default) and one seeded 3000-row noisy ingest.  Each run keeps
REFERENCE_FIELDS of its summary.  Input files are written to the working
directory under relative names, so their configs, and hashes, do not depend
on where the runs take place.
"""

import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for test_runner

from plyap import ExperimentConfig, ingest, run, runner  # noqa: E402
from test_runner import _SMALL_RUNS, _SMALL_SERIES, _noisy_ingest_text  # noqa: E402

PATH = Path(__file__).resolve().parent / "summaries.json"
REFERENCE_FIELDS = ("classification", "lambda", "fit_window", "residual", "saturation_time", "config_hash")
# the default run of each system that takes no default omega
_OMEGA = {"oscillator": 2.0, "barrier": 2.0}


def _configs():
    """(name, config) of every reference run but the ingest."""
    for fig_id in runner.FIGURE_IDS:
        for cfg in runner._FIGURES[fig_id][0]:
            yield f"{fig_id}/{cfg.id}", cfg
    for system, params in _SMALL_RUNS.items():
        if system == "overlap_file":
            params = {**params, "path": "series.csv"}
        yield f"small/{system}", ExperimentConfig(id=system, system=system, **params)
    for system in runner._SYSTEMS:
        if system != "overlap_file":  # it has no default file
            params = {"omega": _OMEGA[system]} if system in _OMEGA else {}
            yield f"default/{system}", ExperimentConfig(id=system, system=system, **params)


@contextmanager
def _inside(directory):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


def summaries(directory) -> dict:
    """Every reference run, inside directory: its REFERENCE_FIELDS by run name."""
    with _inside(directory):
        Path("series.csv").write_text(_SMALL_SERIES)
        Path("noisy.csv").write_text(_noisy_ingest_text())
        results = {name: run(cfg).summary for name, cfg in _configs()}
        results["ingest/noisy"] = ingest("noisy.csv").summary
    return {name: {key: summary[key] for key in REFERENCE_FIELDS} for name, summary in results.items()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        reference = summaries(scratch)
    PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} runs to {PATH}")
