"""Command-line front end.

    levy-met run --config FILE [--seed N] [--paths N] [--output DIR]
    levy-met validate --config FILE
    levy-met selftest

``run`` executes the configured experiment, writes spectrum.csv, flags.csv,
oseledets.csv and report.txt into the output directory, prints the check
lines, and exits 0 iff every enabled check passed.  Flags override config
keys.  The worker count is capped by the LEVY_MET_THREADS environment
variable; outputs do not depend on it.  ``validate`` parses the config,
makes the checks ``run`` makes before any path, and echoes the config.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import parse_config
from .errors import LevyMetError, ParseError
from .experiments import preflight, run_experiment, write_outputs


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_run(args):
    overrides = {"master_seed": args.seed, "n_paths": args.paths,
                 "output_dir": args.output}
    cfg = replace(_load_config(args.config),
                  **{k: v for k, v in overrides.items() if v is not None})
    # a refused config writes nothing; an unwritable directory fails
    # before the first path
    preflight(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    report = run_experiment(cfg)
    write_outputs(report, cfg.output_dir)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.check_id}: {c.detail}")
    print(f"report written to {cfg.output_dir}/ "
          f"(wall clock {report.wall_clock:.2f} s)")
    return 0 if report.passed else 1


def _cmd_validate(args):
    cfg = _load_config(args.config)
    preflight(cfg)
    sys.stdout.write(cfg.echo())
    print("# config OK")
    return 0


def _selftest():
    """Quick deterministic checks of the basic identities."""
    from .cocycle import (EulerEvaluator, ExactDiagonal2D, LinearSystem,
                          StochasticExponential1D)
    from .measures import LevyMeasure, scalar_triplet
    from .oracle import benchmark_drivers, ground_truth_2d
    from .paths import TimeGrid, sample_forward, sample_two_sided
    from .spectrum import (FlagMetricParams, backward_spectrum, coordinate_flag,
                           exterior_power_norm, flag_distance, group_spectrum,
                           oseledets_spaces, spectrum_qr)

    failures = []

    def check(name, ok, detail=""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    # deterministic drift-only cocycle reproduces its exponents
    measure = LevyMeasure.empty()
    drivers = benchmark_drivers(measure, 0.5)
    paths = [sample_two_sided(drivers[i], 40.0, 0.5, 1, driver=i) for i in range(2)]
    ev = ExactDiagonal2D(paths, measure, 0.5)
    est = spectrum_qr(ev, 40.0, 1.0)
    gt = ground_truth_2d(measure, 0.5)
    check("drift_only_spectrum",
          abs(est.raw[0] - gt.lambda1) < 1e-10 and abs(est.raw[1] - gt.lambda2) < 1e-10,
          f"Lambda = {est.raw.tolist()}")

    # shift flow identity and group law on a pure-drift path
    tri = scalar_triplet(drift=1.0)
    p = sample_two_sided(tri, 4.0, 0.5, 2)
    q = p.shift(1.0).shift(0.5)
    r = p.shift(1.5)
    check("shift_group_law",
          abs(q.evaluate(0.5) - r.evaluate(0.5)) < 1e-14)

    # pure drift forward path is t itself
    fp = sample_forward(tri, TimeGrid(0.0, 2.0, 0.5), 3)
    check("pure_drift_path",
          abs(fp.evaluate(2.0) - 2.0) < 1e-14)

    # grouping of a clean spectrum
    groups, gap = group_spectrum(np.array([2.0, -4.0]), 0.5)
    check("grouping", groups == [(2.0, 1), (-4.0, 1)] and gap == 6.0)

    # swapped-axes flag distance is 1
    f = coordinate_flag((1, 1))
    g = coordinate_flag((1, 1))
    g = type(f)((g.blocks[1], g.blocks[0]))
    params = FlagMetricParams((2.0, -4.0), 6.0, 2)
    check("flag_distance_swap", abs(flag_distance(f, g, params) - 1.0) < 1e-14)

    # exterior power of a diagonal matrix is the product of entries
    check("exterior_power",
          abs(exterior_power_norm(np.diag([3.0, 2.0]), 2) - 6.0) < 1e-12)

    # Oseledets spaces of expm(A t), A = P diag(2, -1, -4) P^-1, are span(P e_i);
    # at T = 40 the slow ones sit e^-120 below the fast ones (2-d hides that)
    P = np.eye(3) + 0.5 * np.random.default_rng(0).standard_normal((3, 3))
    flow = EulerEvaluator(LinearSystem(
        P @ np.diag([2.0, -1.0, -4.0]) @ np.linalg.inv(P), (np.zeros((3, 3)),),
        (tri,)), [sample_two_sided(tri, 40.0, 1.0, 5)], 1.0, "expm")
    split = oseledets_spaces(spectrum_qr(flow, 40.0).flag,
                             backward_spectrum(flow, 40.0).flag)
    worst = max(split.angles_to([P[:, i:i + 1] for i in range(3)]))
    check("oseledets_3d", worst < 1e-6, f"max principal angle {worst:.1e}")

    # unit stochastic exponential at t = 0
    dd = StochasticExponential1D(sample_two_sided(tri, 1.0, 0.5, 4))
    check("doleans_identity", abs(dd.value(0.0) - 1.0) < 1e-15)

    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="levy-met",
        description="Lyapunov spectra and Oseledets data for Lévy-driven "
                    "linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override master_seed")
    p_run.add_argument("--paths", type=int, default=None,
                       help="override n_paths")
    p_run.add_argument("--output", default=None, help="override output_dir")

    p_val = sub.add_parser("validate", help="parse and echo a config")
    p_val.add_argument("--config", required=True)

    sub.add_parser("selftest", help="run the quick built-in checks")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _selftest()
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LevyMetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
