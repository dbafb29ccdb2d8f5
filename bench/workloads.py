"""The benchmark's workloads and the paths it reads levymet from.

Each workload is one shipped experiment config, written out here so that
the benchmark builds its own inputs: ``master_seed`` comes from the
benchmark's ``--seed`` and nothing else varies between runs.  Why each
workload is in the set, and which layers it stresses, is recorded in
``layers.json`` next to this file.
"""

import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "_out")

# Pinned before numpy is imported, in every process the benchmark starts,
# so that two pool workers use at most two BLAS threads on two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads(environ):
    """Set the BLAS thread variables to 1; return the values found."""
    found = {k: environ.get(k) for k in BLAS_THREAD_VARS}
    for k in BLAS_THREAD_VARS:
        environ[k] = "1"
    return found


def use_checkout_source():
    """Import levymet from this checkout's ``src/`` and from nowhere else.

    Raises SystemExit(2) when the checkout has no levymet sources, so the
    benchmark never measures an installed copy instead.
    """
    if not os.path.isfile(os.path.join(SRC, "levymet", "__init__.py")):
        print(f"error: no levymet sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import levymet

    if os.path.dirname(os.path.dirname(os.path.abspath(levymet.__file__))) != SRC:
        print(f"error: levymet imported from {levymet.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return levymet


@dataclass(frozen=True)
class Workload:
    name: str
    config: str      # config text; {seed}, {threads}, {n_paths} filled in
    n_paths: int
    workers: int     # worker count of the timed runs
    kernel: str      # calibration kernel (calibrate.py) for its timings

    def config_text(self, seed, threads, n_paths=None):
        return self.config.format(seed=seed, threads=threads,
                                  n_paths=n_paths or self.n_paths)

    def target(self, cfg, measure):
        """The closed-form value the experiment checks against."""
        from levymet import ground_truth_2d, log_compensator_integral

        if cfg.experiment == "stable_1d":
            return cfg.drift + log_compensator_integral(measure, cfg.delta)
        return ground_truth_2d(measure, cfg.delta)


# configs/example_2d_exact.cfg, run on two workers (the machine's nproc).
_EXACT = """\
experiment = example_2d_exact
measure.kind = atoms
measure.atoms = 0.2:3.0
delta = 0.5
horizon = 200
dt = 0.5
renorm_step = 1.0
n_paths = {n_paths}
threads = {threads}
master_seed = {seed}
"""

# configs/stable_1d.cfg
_STABLE = """\
experiment = stable_1d
measure.kind = power_law
measure.alpha = 0.8
measure.c = 0.5
delta = 0.5
drift = 1.0
horizon = 60
dt = 0.5
n_paths = {n_paths}
threads = {threads}
master_seed = {seed}
"""

# configs/example_2d_euler.cfg with 40 paths instead of 6.
_EULER = """\
experiment = example_2d_euler
measure.kind = atoms
measure.atoms = 0.2:3.0
delta = 0.5
horizon = 2
dt = 0.1
dt_int = 0.08
halvings = 4
n_paths = {n_paths}
threads = {threads}
master_seed = {seed}
"""

WORKLOADS = {
    w.name: w for w in (
        Workload("ensemble_exact", _EXACT, n_paths=100, workers=2,
                 kernel="interpreted"),
        Workload("stable_heavy", _STABLE, n_paths=40, workers=1,
                 kernel="bulk"),
        Workload("euler_ladder", _EULER, n_paths=40, workers=1,
                 kernel="interpreted"),
    )
}
