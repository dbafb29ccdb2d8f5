"""Layered benchmark of levymet's ensemble experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--paths N]

One operation is one experiment run: ``run_experiment(cfg)`` followed by
``write_outputs``, run back to back from this single process (a closed
loop).  A run of the benchmark

1. times the workload's set-up in five fresh interpreters
   (``setup_probe.py``) and keeps the median;
2. makes one untimed serial warm-up operation, whose CSVs are the
   reference for the correctness gate;
3. with ``--trace 0`` times operations at the workload's worker count for
   ``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
   cycles traced serial, untraced serial (and, on pooled workloads,
   untraced pooled) operations for ``--seconds`` and prints the per-layer
   metrics, each the median over the traced operations.

Times are in reference seconds: wall clock scaled by the machine speed
measured around each step (see calibrate.py); the timed run also prints
its plain wall-clock rates.  The end-to-end metrics are ``paths_per_s``
(median over the timed operations of paths per reference second),
``setup_s`` and ``peak_rss_mb`` (this process plus, on pooled workloads,
its pool workers).  BLAS threads are pinned to 1 when this script starts,
before numpy is imported.

Every operation is checked: every experiment check must PASS and
spectrum.csv, flags.csv and oseledets.csv must be byte-identical to the
reference (report.txt is left out: it embeds wall_clock_seconds).  In
trace mode the layer counts must also repeat exactly.  An exception that
escapes an operation counts all its paths as failed; the run goes on and
the benchmark exits 1.  The last line of standard output is the result
as one JSON object.  ``--paths`` shrinks a workload for the smoke test.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import OUT, ROOT, WORKLOADS, pin_blas_threads, use_checkout_source

ORIGINAL_ENV = pin_blas_threads(os.environ)
ORIGINAL_ENV["LEVY_MET_THREADS"] = os.environ.pop("LEVY_MET_THREADS", None)

from calibrate import speed  # noqa: E402  (imports numpy: after pinning)

CSV_NAMES = ("spectrum.csv", "flags.csv", "oseledets.csv")
SETUP_PROBES = 5


def fingerprint():
    """Machine and library facts; compare results only when these match."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    facts["id"] = hashlib.sha256(
        json.dumps(facts, sort_keys=True).encode()).hexdigest()[:16]
    facts["thread_env_found"] = ORIGINAL_ENV
    facts["thread_env_used"] = {k: os.environ.get(k) for k in ORIGINAL_ENV}
    return facts


def measure_setup(workload, seed):
    """Median set-up over fresh interpreters, plus the medians of its
    phases, in reference seconds of the ``interpreted`` kernel (importing
    is interpreter work on every workload)."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    runs = []
    for _ in range(SETUP_PROBES):
        before = speed("interpreted")
        out = subprocess.run(
            [sys.executable, probe, workload.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        factor = (before + speed("interpreted")) / 2.0
        phases = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({k: v * factor for k, v in phases.items()})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class PoolPeaks:
    """Peak resident memory of the pool workers levymet starts.

    Wraps ``ProcessPoolExecutor`` in ``levymet.experiments`` so that each
    worker's high-water mark (VmHWM) is read just before the pool shuts
    down; ``peak_mb`` is the largest per-pool sum seen.
    """

    def __init__(self, experiments):
        self.peak_mb = 0.0
        base = experiments.ProcessPoolExecutor
        outer = self

        class Executor(base):
            def shutdown(self, *args, **kwargs):
                total = 0.0
                for pid in list(getattr(self, "_processes", None) or ()):
                    total += _vm_hwm_mb(pid)
                outer.peak_mb = max(outer.peak_mb, total)
                return super().shutdown(*args, **kwargs)

        experiments.ProcessPoolExecutor = Executor


def _vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Bench:
    """One benchmark run: operations, the correctness gate and accounting."""

    def __init__(self, lm, workload, seed, n_paths):
        self.lm = lm
        self.workload = workload
        self.n_paths = n_paths or workload.n_paths
        self.cfg = {
            threads: lm.parse_config(workload.config_text(seed, threads, n_paths))
            for threads in {1, workload.workers}
        }
        self.out_dir = os.path.join(OUT, workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.csv_bytes = 0

    def operation(self, threads, label, tracer=None):
        """Run and check one operation.  Return its wall clock in seconds
        and the machine speed around it (see calibrate.py), or None when
        it raised."""
        out = os.path.join(self.out_dir, label)
        os.makedirs(out, exist_ok=True)
        for name in CSV_NAMES:
            if os.path.exists(os.path.join(out, name)):
                os.remove(os.path.join(out, name))
        cfg = self.cfg[threads]
        experiments = self.lm.experiments
        gc.collect()
        self.attempted += cfg.n_paths
        before = speed(self.workload.kernel)
        start = time.perf_counter()
        try:
            if tracer is None:
                report = experiments.run_experiment(cfg)
                experiments.write_outputs(report, out)
            else:
                with tracer.active(self.lm):
                    report = experiments.run_experiment(cfg)
                    experiments.write_outputs(report, out)
        except Exception as exc:  # a failed run is counted, the next one goes on
            traceback.print_exc()
            self.failed += cfg.n_paths
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        factor = (before + speed(self.workload.kernel)) / 2.0
        self._check(report, out, label)
        return wall, factor

    def _check(self, report, out, label):
        self.failed += len(report.path_errors)
        for c in report.checks:
            if not c.passed:
                self.problems.append(f"{label}: check {c.check_id} FAILED: "
                                     f"{c.detail}")
        csvs = {}
        for name in CSV_NAMES:
            with open(os.path.join(out, name), "rb") as fh:
                csvs[name] = fh.read()
        digest = {k: hashlib.sha256(v).hexdigest() for k, v in csvs.items()}
        self.csv_bytes = sum(len(v) for v in csvs.values())
        if self.reference is None:
            self.reference = digest
        for name in CSV_NAMES:
            if digest[name] != self.reference[name]:
                self.problems.append(f"{label}: {name} differs from the "
                                     "reference operation")

    def correct(self):
        return not self.problems and self.failed == 0


def run_timed(bench, seconds):
    """Operations at the workload's worker count for ``seconds``.  Return
    the rates in paths per reference second and per wall-clock second,
    and the peak resident memory in MB."""
    threads = bench.workload.workers
    peaks = PoolPeaks(bench.lm.experiments) if threads > 1 else None
    ops = []
    start = time.perf_counter()
    while True:
        op = bench.operation(threads, "timed")
        if op is not None:
            ops.append(op)
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for w, _ in ops) if ops else elapsed
        if elapsed + typical > seconds:
            break
    rates = [bench.n_paths / (w * f) for w, f in ops]
    raw_rates = [bench.n_paths / w for w, _ in ops]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if peaks is not None:
        rss_mb += peaks.peak_mb
    return rates, raw_rates, rss_mb


def run_traced(bench, seconds):
    """Traced serial, untraced serial and (pooled workloads) untraced
    pooled operations in turn for ``seconds``; at least two of each."""
    from layertrace import COUNT_METRICS, SELF_TIME_METRICS, Tracer

    pooled = bench.workload.workers > 1
    traced, serial, pool, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        tracer = Tracer()
        op = bench.operation(1, "traced", tracer)
        if op is not None:
            traced.append(op[0] * op[1])
            m = tracer.layer_metrics(*op)
            m["experiments.csv_bytes"] = bench.csv_bytes
            layers.append(m)
            path_table = tracer.per_path()
        op = bench.operation(1, "serial")
        if op is not None:
            serial.append(op[0] * op[1])
        if pooled:
            op = bench.operation(bench.workload.workers, "pooled")
            if op is not None:
                pool.append(op[0] * op[1])
        now = time.perf_counter()
        if bench.failed or (len(layers) >= 2 and
                            now + (now - cycle_start) - start > seconds):
            break
    if not layers or not serial or (pooled and not pool):
        return None, None
    counts = COUNT_METRICS + ("experiments.csv_bytes",)
    for key in counts:
        if len({m[key] for m in layers}) != 1:
            bench.problems.append(f"count {key} differs between traced runs: "
                                  f"{[m[key] for m in layers]}")
    metrics = {k: layers[0][k] if k in counts
               else statistics.median(m[k] for m in layers)
               for k in layers[0]}
    # Ratios are taken within a cycle, whose operations ran back to back.
    traced_s = statistics.median(traced)
    metrics["experiments.pool_speedup"] = statistics.median(
        s / p for s, p in zip(serial, pool)) if pooled else 1.0
    metrics["bench.trace_overhead"] = statistics.median(
        t / s for t, s in zip(traced, serial)) - 1.0
    print(f"traced serial operation: {traced_s:.3f} reference s over "
          f"{len(traced)} runs; layer shares of it: " + ", ".join(
              f"{k[:-2]} {metrics[k] / traced_s:.1%}"
              for k in sorted(SELF_TIME_METRICS, key=lambda k: -metrics[k])))
    return metrics, path_table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--paths", type=int, default=None,
                        help="override the workload's path count (smoke test)")
    args = parser.parse_args(argv)

    lm = use_checkout_source()
    workload = WORKLOADS[args.workload]
    facts = fingerprint()
    print("fingerprint: " + json.dumps(facts, sort_keys=True))

    setup = measure_setup(workload, args.seed)
    bench = Bench(lm, workload, args.seed, args.paths)
    bench.operation(1, "warmup")

    values = {}
    if args.trace == 0:
        rates, raw_rates, rss_mb = run_timed(bench, args.seconds)
        if rates:
            print(f"{len(rates)} operations of {bench.n_paths} paths at "
                  f"{workload.workers} worker(s)")
            for label, r in (("paths_per_s", rates),
                             ("paths per wall-clock s", raw_rates)):
                q1, med, q3 = quartiles(r)
                print(f"{label}: median {med:.4f}, quartiles {q1:.4f} .. "
                      f"{q3:.4f}; " + " ".join(f"{v:.2f}" for v in r))
            values = {"paths_per_s": statistics.median(rates),
                      "setup_s": setup["setup_s"],
                      "peak_rss_mb": rss_mb}
    else:
        layers, path_table = run_traced(bench, args.seconds)
        if layers is not None:
            values = dict(layers)
            values["config.parse_s"] = setup["parse_s"]
            values["oracle.ground_truth_s"] = setup["target_s"]
            values["experiments.error_share"] = bench.failed / bench.attempted
            with open(os.path.join(bench.out_dir, "trace_by_path.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(path_table, fh, indent=1, sort_keys=True)
    spec = _load_spec()["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec if m["name"] in values}
    print("setup: " + ", ".join(f"{k} {v:.4f}" for k, v in setup.items()))
    for problem in bench.problems:
        print("problem: " + problem)
    correct = bench.correct() and len(metrics) == len(spec)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
