"""Every name ``levymet`` exports has a reader outside the tests: the
library itself, the demos, the README or the benchmark harness.  A name
that only tests read is API nothing needs, and goes.  Likewise every config
key is set by some shipped config or benchmark workload."""

import ast
import importlib.util
import pathlib
import re
from dataclasses import fields

from levymet.config import ExperimentConfig, _key

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "levymet"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _reader_lines():
    """Lines outside the tests that may read a name: every line of
    ``src/levymet`` but its ``__init__.py`` (the export lines), and every
    line of the demos, the bench scripts and the README."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "README.md")
    return [line for p in files for line in p.read_text().splitlines()]


def test_every_export_is_read_outside_the_tests():
    lines = _reader_lines()
    unread = []
    for name in _exported():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(s) and not own.match(s) for s in lines):
            unread.append(name)
    assert unread == []


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_every_config_key_is_set_by_some_run():
    # a key that no shipped config and no benchmark workload sets is a
    # setting no run varies, and becomes a constant
    texts = [p.read_text() for p in sorted((ROOT / "configs").glob("*.cfg"))]
    texts += [w.config_text(seed=0, threads=1)
              for w in _bench_workloads().values()]
    set_keys = {line.split("#", 1)[0].partition("=")[0].strip()
                for text in texts for line in text.splitlines()}
    keys = {_key(f.name) for f in fields(ExperimentConfig)}
    assert sorted(keys - set_keys) == []
