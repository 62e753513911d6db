"""The README's library names resolve and its Library example runs."""

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
