"""Every name ``levymet`` exports has a reader outside the tests: the
library itself, the demos, the README or the benchmark harness.  A name
that only tests read is API nothing needs, and goes."""

import ast
import pathlib
import re

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
