"""Shared test set-up: the CLI subprocesses some tests start import levymet
from this checkout's ``src/``, as the test process does (see
``pythonpath`` in pyproject.toml), also when PYTHONPATH is unset."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def folds(monkeypatch):
    """(windows, bytes of the padded (longest window, windows, d, d)
    factor stack) of every ``cocycle._fold`` call the test makes."""
    import levymet.cocycle

    seen, fold = [], levymet.cocycle._fold

    def spy(win, pos, factors, count):
        seen.append((count.size, int(count.max()) * count.size
                     * factors[0].nbytes))
        return fold(win, pos, factors, count)
    monkeypatch.setattr(levymet.cocycle, "_fold", spy)
    return seen
