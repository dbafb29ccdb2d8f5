"""Acceptance gate: every numbered requirement runs at its stated tolerance
and prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import levymet as lm
from levymet.cocycle import cocycle_residual
from levymet.paths import substream

SEED = 20240612

CRIT2_CONFIG = f"""
experiment = example_2d_exact
measure.kind = atoms
measure.atoms = 0.2:3.0
delta = 0.5
horizon = 200
dt = 0.5
n_paths = 100
master_seed = {SEED}
"""


def record(num, ok, detail):
    line = f"criterion-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench_report():
    return lm.run_experiment(lm.parse_config(CRIT2_CONFIG))


def _check(report, check_id):
    return next(c for c in report.checks if c.check_id == check_id)


def test_criterion_01_drift_only_exactness():
    cfg = lm.parse_config(
        "experiment = example_2d_exact\nmeasure.kind = none\n"
        f"horizon = 200\ndt = 0.5\nn_paths = 1\nmaster_seed = {SEED}\n")
    rep = lm.run_experiment(cfg)
    row = rep.rows[0]
    err = max(abs(row["raw"][0] - 2.0), abs(row["raw"][1] + 4.0))
    ok = err <= 1e-8 and rep.wall_clock < 1.0 and _check(rep, "drift_only_exact").passed
    record(1, ok, f"drift-only exponents off by {err:.2e} (tol 1e-8), "
                  f"wall clock {rep.wall_clock:.3f} s (< 1 s)")


def test_criterion_02_closed_form_exponents(bench_report):
    rep = bench_report
    gt = lm.ground_truth_2d(lm.LevyMeasure.from_atoms([(0.2, 3.0)]), 0.5)
    l1 = [r["raw"][0] for r in rep.rows]
    l2 = [r["raw"][1] for r in rep.rows]
    ok = _check(rep, "spectrum_vs_closed_form").passed
    for vals, target in ((l1, gt.lambda1), (l2, gt.lambda2)):
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        ok = ok and abs(mean - target) <= 3.0 * se and abs(mean - target) <= 0.05
    ok = ok and rep.wall_clock < 120.0
    record(2, ok, f"ensemble means within 3 SE and 0.05 of "
                  f"({gt.lambda1:.6f}, {gt.lambda2:.6f}); "
                  f"wall clock {rep.wall_clock:.1f} s (< 120 s)")


def test_criterion_03_gap_invariance(bench_report):
    ok = _check(bench_report, "gap_invariance").passed
    details = ["atom(0.2,3)"]
    for atoms, n in ((((-0.1, 1.0), (0.2, 2.0)), 30),):
        text = ", ".join(f"{u}:{r}" for u, r in atoms)
        cfg = lm.parse_config(
            "experiment = example_2d_exact\nmeasure.kind = atoms\n"
            f"measure.atoms = {text}\nhorizon = 100\ndt = 0.5\n"
            f"n_paths = {n}\nmaster_seed = {SEED + 1}\n")
        rep = lm.run_experiment(cfg)
        ok = ok and _check(rep, "gap_invariance").passed
        details.append(f"atoms({text})")
    det = lm.run_experiment(lm.parse_config(
        "experiment = example_2d_exact\nmeasure.kind = none\n"
        f"horizon = 200\ndt = 0.5\nn_paths = 1\nmaster_seed = {SEED}\n"))
    ok = ok and _check(det, "gap_invariance").passed
    details.append("drift-only")
    record(3, ok, "estimated gap within 3 SE of 6 for " + ", ".join(details))


def test_criterion_04_oseledets_spaces(bench_report):
    worst = bench_report.summary["max_principal_angle"]
    ok = _check(bench_report, "oseledets_axes").passed and worst <= 1e-3
    record(4, ok, f"max principal angle of (E1, E2) vs (e1, e2): {worst:.2e} "
                  "(tol 1e-3)")


def test_criterion_05_backward_spectrum():
    cfg = lm.parse_config(CRIT2_CONFIG.replace("example_2d_exact",
                                               "backward_spectrum"))
    rep = lm.run_experiment(cfg)
    ok = _check(rep, "backward_pairing").passed
    ok = ok and _check(rep, "backward_multiplicities").passed
    m1 = rep.summary["pair_sum_1_mean"]
    m2 = rep.summary["pair_sum_2_mean"]
    record(5, ok, f"lambda^-_k + lambda_(p+1-k) means ({m1:.2e}, {m2:.2e}) "
                  "within 3 SE of 0; multiplicities reversed")


def test_criterion_06_cocycle_law():
    measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
    drivers = lm.benchmark_drivers(measure, 0.5)
    worst = 0.0
    for p in range(5):
        paths = [lm.sample_two_sided(drivers[i], 3.0, 0.1, SEED + 2,
                                     path_index=p, driver=i) for i in range(2)]
        ev = lm.ExactDiagonal2D(paths, measure, 0.5)
        rng = substream(SEED + 3, path_index=p)
        for _ in range(100):
            s = float(rng.uniform(-0.95, 0.95))
            t = float(rng.uniform(-0.95, 0.95))
            worst = max(worst, cocycle_residual(ev, s, t))
    ok_exact = worst <= 1e-9

    # Euler first-order ladder vs the exact backend (ratio ~ 2), plus the law
    # residual itself shrinking under halving (second order in practice: the
    # between-jump generator is constant, so first-order terms cancel)
    cfg = lm.parse_config(
        "experiment = example_2d_euler\nmeasure.kind = atoms\n"
        "measure.atoms = 0.2:3.0\nhorizon = 2\ndt = 0.1\ndt_int = 0.08\n"
        f"halvings = 4\nn_paths = 6\nmaster_seed = {SEED + 4}\n")
    rep = lm.run_experiment(cfg)
    ratios = [rep.summary[f"halving_ratio_{k}"] for k in range(1, 5)]
    ok_euler = _check(rep, "euler_convergence").passed

    system = lm.benchmark_system_2d(measure, 0.5)
    paths = [lm.sample_two_sided(drivers[i], 3.0, 0.1, SEED + 5, driver=i)
             for i in range(2)]
    law = []
    prs = [(0.3701293, 0.5317777), (-0.4104917, 0.7712347),
           (0.1311113, -0.2917191), (0.6123471, -0.1931313)]
    for dt in (0.04, 0.02, 0.01):
        ev = lm.EulerEvaluator(system, paths, dt)
        law.append(float(np.mean([cocycle_residual(ev, s, t) for s, t in prs])))
    ok_law = law[0] > law[1] > law[2]
    ok = ok_exact and ok_euler and ok_law
    record(6, ok, f"exact residual {worst:.2e} <= 1e-9 over 100 pairs x 5 "
                  f"paths; euler-vs-exact halving ratios "
                  f"{[round(r, 2) for r in ratios]} in [1.7, 2.3]; law "
                  f"residual decreasing {['%.1e' % v for v in law]}")


def test_criterion_07_picard_vs_euler():
    rng = np.random.default_rng(SEED + 6)
    worst_ratio = 0.0
    for inst in range(50):
        a = rng.uniform(0.3, 1.0, (2, 2)) * rng.choice([-1.0, 1.0], (2, 2))
        sigma = rng.uniform(-0.4, 0.4, (2, 2))
        u0 = float(rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0]))
        rate = float(rng.uniform(0.5, 2.0))
        measure = lm.LevyMeasure.from_atoms([(u0, rate)])
        driver = lm.scalar_triplet(measure=measure, delta=0.5)
        system = lm.LinearSystem(a, (sigma,), (driver,))
        path = lm.sample_two_sided(driver, 1.5, 0.1, SEED + 7, path_index=inst)
        x = rng.uniform(-1.0, 1.0, 2)
        t, dt = 1.0, 0.02
        pic = lm.picard_solve(system, [path], t, 12, x, dt_int=dt).value
        eu = lm.EulerEvaluator(system, [path], dt).matrix(t) @ x
        eu_half = lm.EulerEvaluator(system, [path], dt / 2).matrix(t) @ x
        self_err = float(np.linalg.norm(eu - eu_half))
        defect = float(np.linalg.norm(pic - eu))
        worst_ratio = max(worst_ratio, defect / (5.0 * self_err))
    record(7, worst_ratio <= 1.0,
           f"50 random 2d atom systems: max |picard - euler| / "
           f"(5 * euler self error) = {worst_ratio:.3f} <= 1")


def test_criterion_08_exterior_power_identity():
    rng = np.random.default_rng(SEED + 8)
    ok = True
    for i in range(1000):
        d = 2 + i % 3
        M = rng.standard_normal((d, d))
        s = lm.singular_values(M)
        for k in range(1, d + 1):
            got = lm.exterior_power_norm(M, k)
            ok = ok and abs(got - float(np.prod(s[:k]))) <= 1e-10 * float(np.prod(s[:k]))
        ok = ok and abs(lm.exterior_power_norm(M, d) - abs(np.linalg.det(M))) \
            <= 1e-10 * abs(np.linalg.det(M))
        ok = ok and abs(lm.exterior_power_norm(M, 1)
                        - np.linalg.norm(M, 2)) <= 1e-10 * np.linalg.norm(M, 2)
    # brute-force compound-matrix cross-check in d = 3
    idx = list(itertools.combinations(range(3), 2))
    worst = 0.0
    for _ in range(200):
        M = rng.standard_normal((3, 3))
        C = np.empty((3, 3))
        for r, (i1, i2) in enumerate(idx):
            for c, (j1, j2) in enumerate(idx):
                C[r, c] = M[i1, j1] * M[i2, j2] - M[i1, j2] * M[i2, j1]
        brute = float(np.linalg.norm(C, 2))
        worst = max(worst, abs(lm.exterior_power_norm(M, 2) - brute) / brute)
    ok = ok and worst <= 1e-10
    record(8, ok, f"product-of-top-k identity at rel 1e-10 on 1000 matrices "
                  f"(d<=4); compound-matrix defect {worst:.2e} (d=3)")


def test_criterion_09_flag_metric_axioms():
    rng = np.random.default_rng(SEED + 9)
    params = lm.FlagMetricParams((2.0, 0.0, -2.0), 1.0, 3)
    params2 = lm.FlagMetricParams((2.0, -4.0), 6.0, 2)
    axioms = True
    # identical flags with exactly orthogonal blocks annihilate exactly
    eye = np.eye(3)
    for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        F = lm.Flag(tuple(eye[:, p:p + 1] for p in perm))
        axioms = axioms and lm.flag_distance(F, F, params) == 0.0
    for theta in rng.uniform(0.0, 2.0 * math.pi, 50):
        c, s = math.cos(theta), math.sin(theta)
        # planar rotation columns annihilate up to one product rounding
        # (BLAS dot uses FMA, so the cancellation is not bit-exact)
        R = np.array([[c, -s], [s, c]])
        F = lm.Flag((R[:, :1], R[:, 1:]))
        axioms = axioms and lm.flag_distance(F, F, params2) <= 1e-15
    # QR-random flags are orthogonal to ~1e-16 only; the fractional metric
    # exponent amplifies that self-defect to (gram defect)^(h/max gap)
    worst_self = max(
        lm.flag_distance(F, F, params)
        for F in (lm.random_flag((1, 1, 1), rng) for _ in range(200)))
    axioms = axioms and worst_self <= 1e-3
    for _ in range(200):
        F = lm.random_flag((1, 1, 1), rng)
        G = lm.random_flag((1, 1, 1), rng)
        d1 = lm.flag_distance(F, G, params)
        d2 = lm.flag_distance(G, F, params)
        axioms = axioms and d1 >= 0.0 and d1 == d2
    violations = 0
    worst = 0.0
    for _ in range(10_000):
        F = lm.random_flag((1, 1, 1), rng)
        G = lm.random_flag((1, 1, 1), rng)
        H = lm.random_flag((1, 1, 1), rng)
        gap = (lm.flag_distance(F, H, params) - lm.flag_distance(F, G, params)
               - lm.flag_distance(G, H, params))
        if gap > 1e-12:
            violations += 1
            worst = max(worst, gap)
    # triangle-inequality statistics are reported, not hard-asserted
    record(9, axioms,
           f"zero on identical flags (exact for orthogonal blocks; QR-random "
           f"self-defect {worst_self:.1e} from Gram rounding amplified by the "
           f"metric exponent); symmetry exact; non-negative; triangle report: "
           f"{violations} violations beyond 1e-12 on 10^4 random triples"
           + (f" (worst {worst:.2e})" if violations else ""))


def test_criterion_10_flag_convergence():
    cfg = lm.parse_config(
        "experiment = flag_convergence\nmeasure.kind = atoms\n"
        "measure.atoms = 0.2:3.0\nhorizon = 120\ndt = 0.5\n"
        f"n_paths = 100\nmaster_seed = {SEED + 10}\n")
    rep = lm.run_experiment(cfg)
    ok = _check(rep, "flag_convergence").passed
    slope = rep.summary["slope_mean"]
    record(10, ok, f"mean slope of log flag distance over t in [10,100]: "
                   f"{slope:.3f} <= -h + 0.5 = -5.5")


def test_criterion_11_stochastic_exponential():
    cfg = lm.parse_config(
        "experiment = doleans_1d\nmeasure.kind = atoms\n"
        "measure.atoms = 0.2:3.0\nhorizon = 200\ndt = 0.5\n"
        f"n_paths = 100\nmaster_seed = {SEED + 11}\n")
    rep = lm.run_experiment(cfg)
    worst = rep.summary["max_log_defect"]
    ok = _check(rep, "stochastic_exponential").passed and worst <= 1e-10
    record(11, ok, f"jump-exponential formula vs closed-form first "
                   f"coordinate: max log defect {worst:.2e} (tol 1e-10, "
                   "100 paths)")


def test_criterion_12_reproducibility(tmp_path):
    cfgfile = tmp_path / "crit2.cfg"
    cfgfile.write_text(CRIT2_CONFIG)
    outs = {}
    for label, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        env = dict(os.environ)
        env["LEVY_MET_THREADS"] = threads
        out_dir = tmp_path / f"run_{label}"
        proc = subprocess.run(
            [sys.executable, "-m", "levymet.cli", "run",
             "--config", str(cfgfile), "--output", str(out_dir)],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        outs[label] = {
            name: (out_dir / name).read_bytes()
            for name in ("spectrum.csv", "flags.csv", "oseledets.csv")
        }
    ok = outs["a"] == outs["b"] and outs["a"] == outs["c"]
    record(12, ok, "byte-identical spectrum/flags/oseledets CSVs across an "
                   "identical rerun and a 3-worker run")
