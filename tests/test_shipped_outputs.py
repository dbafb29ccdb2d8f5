"""The shipped configs' outputs, pinned: the sha256 of each CSV a run
writes, and the example_2d_euler cocycle-law residual of its report.  A
change meant to keep every output byte fails here if it does not."""

import hashlib
import pathlib
from dataclasses import replace

import pytest

import levymet as lm
from levymet.experiments import run_experiment, write_outputs

ROOT = pathlib.Path(__file__).parent.parent
CSV_NAMES = ("spectrum.csv", "flags.csv", "oseledets.csv")
# a table the experiment does not write: its header only
EMPTY = hashlib.sha256(b"path_index\n").hexdigest()

# config: (spectrum.csv, flags.csv, oseledets.csv)
PINNED = {
    "backward_spectrum": (
        "1d745d2463b05e3ec278009e7812edbba401097a207a0d69723485ac582e9206",
        EMPTY, EMPTY),
    "doleans_1d": (
        "71483c46ec639e5a515494b54b1a14605acebbd7a7e7f27a39e9a3d2f632546f",
        EMPTY, EMPTY),
    "example_2d_drift_only": (
        "9d572307dd636ba2dcc76d9834d91c25b454c762471fda0687e813c3d11892fa",
        "cb4cc7996f1ad4d3497173562cd51c9572c3b41e30eac7f1da81030afcbb7ffb",
        "82507144b20e30e86d48c02975601ed551cb5f6d14b9aa5765ca5cc75e6630d6"),
    "example_2d_euler": (
        "49b8cc5be1dcc9a641018f1d970c7783667881210e5e5e15d9d67a4b03ddf0ba",
        EMPTY, EMPTY),
    "example_2d_exact": (
        "1d745d2463b05e3ec278009e7812edbba401097a207a0d69723485ac582e9206",
        "28f7b19621826e2a1d5b831352505c7386126ca4d3f0912b1338cc54cdc123c0",
        "f3a3377a3e59f48a138578acbd2a5af6c1303001aede30f1af6c86d490a5ec50"),
    "flag_convergence": (
        "09cff5d31a38b6e079e90eb6929effbf9403419761fdf5f88d5916f8d75eaa93",
        EMPTY, EMPTY),
    "stable_1d": (
        "c006e96c10abf1970de4d4b6c9cd2466d3471cecd097026a5e971402c97447d1",
        EMPTY, EMPTY),
}
EULER_MAX_RESIDUAL = "2.2737367586674853e-13"


def test_every_shipped_config_is_pinned():
    assert set(PINNED) == {p.stem for p in (ROOT / "configs").glob("*.cfg")}


def _assert_pinned(name, threads, tmp_path, monkeypatch):
    monkeypatch.delenv("LEVY_MET_THREADS", raising=False)
    cfg = lm.parse_config((ROOT / "configs" / f"{name}.cfg").read_text())
    report = run_experiment(replace(cfg, threads=threads))
    write_outputs(report, tmp_path)
    got = tuple(hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                for n in CSV_NAMES)
    assert got == PINNED[name]
    if name == "example_2d_euler":
        assert (repr(report.summary["max_exact_cocycle_residual"])
                == EULER_MAX_RESIDUAL)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_outputs_are_pinned(name, tmp_path, monkeypatch):
    _assert_pinned(name, 1, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_outputs_are_pinned_on_two_processes(name, tmp_path,
                                                     monkeypatch):
    # a pool worker and the calling process each build their share of the
    # paths; the bytes are the serial run's
    _assert_pinned(name, 2, tmp_path, monkeypatch)
