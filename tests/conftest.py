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
