"""The README's library names resolve, its config example loads and its
Library example runs."""

import json
import re
from pathlib import Path

import plyap

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_every_cited_name_resolves():
    names = set(re.findall(r"\bplyap\.([A-Za-z_]\w*)", README))
    assert names
    assert sorted(n for n in names if not hasattr(plyap, n)) == []


def test_library_example_runs():
    library = README[README.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["est"].asymptotic_value > 0.0
    assert scope["t_b"] is not None


def test_config_example_loads():
    block = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    assert plyap.ExperimentConfig.from_dict(json.loads(block)).system == "barrier"
