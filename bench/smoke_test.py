"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/smoke_test.py -q

Runs every workload with six paths for one second, untraced and traced,
and checks that the result line names every metric of BENCHMARK.json with
its unit, that the traced, untraced and (on pooled workloads) two-worker
CSVs are byte-identical, that layers.json maps every per-layer metric,
and that the benchmark refuses to run without the levymet sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BARE_DIR = os.path.join(BENCH, "_out", "smoke")
CSV_NAMES = ("spectrum.csv", "flags.csv", "oseledets.csv")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


SPEC = _load(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--paths", "6"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _csvs(workload, label):
    out = {}
    for name in CSV_NAMES:
        with open(os.path.join(BENCH, "_out", workload, label, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit_and_identical_csvs(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 6
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    reference = _csvs(workload, "warmup")
    labels = ["timed", "traced", "serial"]
    if workload == "ensemble_exact":
        labels.append("pooled")
    for label in labels:
        assert _csvs(workload, label) == reference, label


def test_layer_map_covers_every_layer_metric():
    layer_map = _load(os.path.join(BENCH, "layers.json"))
    mapped = {row["layer"] for row in layer_map["layer_to_end_to_end"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for row in layer_map["layer_to_end_to_end"]:
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) <= set(WORKLOADS)
    assert set(layer_map["workloads"]) == set(WORKLOADS)


def test_refuses_to_run_without_sources():
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    os.makedirs(BARE_DIR)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE_DIR)
    shutil.copytree(BENCH, os.path.join(BARE_DIR, "bench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=BARE_DIR)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
