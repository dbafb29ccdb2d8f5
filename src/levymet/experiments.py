"""Config-driven batch experiments with CSV reports.

Every experiment draws ``n_paths`` independent paths from substreams
keyed by (master_seed, path_index, driver, leg), runs the estimation
pipeline per path, and aggregates ensemble means with standard errors
against analytic targets.  The exact cocycle takes two-sided paths and
reads their jumps alone, so only ``example_2d_euler``'s ladder builds
their skeletons; the Doléans exponential of ``stable_1d`` and
``doleans_1d`` takes the forward leg (leg 0) of a triplet with the drift.

Paths run in contiguous batches of at most the experiment's
``batch_paths`` indices, at least one batch per process and the same
number in each.  With N = ``threads`` > 1 processes, a pool of N - 1
runs the first shares and the calling process runs the last one itself.
The cap is set by what a stage holds per path: 64 for the two QR
experiments, whose build keeps only the path's window stacks (about
14 KB) and drops its evaluator, so that a 100-path run is one batch per
process; :data:`BATCH_PATHS` (16) for the others, since the Euler ladder
fold grows with its batch.  An experiment's ``rows(cfg, indices)`` turns
one batch into (index, row, error) triples, and every experiment gets it
from :func:`_lockstep`: compute what the config determines once, build
each path, run at most one stage on the whole batch, finish each path.
``backward_spectrum``'s stage pushes the forward and backward QR frames of
a batch in one lockstep push; ``example_2d_exact``'s also stacks the
Oseledets splits, their angles and integrability_alpha over the batch;
``example_2d_euler`` folds the Euler factors of every rung of its batch's
halving ladders in lockstep (in groups of bounded size, so long horizons do
not multiply the buffers by the batch) and stacks each path's cocycle-law
probes; the others have no stage, their build being the row.  A path's
row does not depend on the batch it falls in, and aggregation is in
path-index order, so outputs are byte-identical regardless of worker
count.  A path's error is the first its build (a QR path's window stacks
included), the stage or its finish raises; it is quarantined as
``"<Type>: <msg>"``, and so is every path of a batch whose worker crashed;
an experiment fails outright if more than 1% of its paths error out.

Adding an experiment is adding one entry to :data:`EXPERIMENTS`: batch
rows from :func:`_lockstep`, aggregator, optional config check, and the
config keys it reads that not every experiment does; a built config names
an entry of that table and passes :func:`_check_runnable`.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .cocycle import (
    BENCHMARK_DRIFTS,
    EulerEvaluator,
    ExactDiagonal2D,
    StochasticExponential1D,
    _alpha_stack,
    _euler_propagators,
    _integrability_alphas,
    _window_count,
    cocycle_residual,
)
from .errors import ConfigurationError, LevyMetError, ParseError, SupportError
from .measures import ATOMS, scalar_triplet, stable_scaling_residual
from .oracle import (
    benchmark_drivers,
    benchmark_system_2d,
    ground_truth_2d,
    integrability_bound,
)
from .paths import (
    SAMPLER_BUDGET,
    TimeGrid,
    check_jump_budget,
    sample_forward,
    sample_two_sided,
    substream,
)
from .spectrum import (
    _QR_MIN_WINDOWS,
    FlagMetricParams,
    _angles_to,
    _oseledets_batch,
    _qr_estimate,
    _qr_stack,
    flag_convergence_rate,
)


@dataclass
class CheckOutcome:
    check_id: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)  # not numpy's bool_


@dataclass
class ExperimentReport:
    """Aggregated experiment outcome: per-path rows, ensemble statistics,
    analytic targets, and one pass/fail line per enabled check."""

    experiment: str
    version: str
    wall_clock: float
    checks: list
    rows: list
    summary: dict
    path_errors: list
    config_echo: str
    csv_tables: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        lines = [
            f"levymet {self.version} experiment report",
            f"experiment: {self.experiment}",
            f"paths: {len(self.rows)} ok, {len(self.path_errors)} errored",
            f"wall_clock_seconds: {self.wall_clock:.3f}",
        ]

        def section(title, items):
            lines.extend(["", title] + [f"  {item}" for item in items])

        section("checks:", [f"[{'PASS' if c.passed else 'FAIL'}] "
                            f"{c.check_id}: {c.detail}" for c in self.checks])
        section("summary:", [f"{k} = {self.summary[k]}"
                             for k in sorted(self.summary)])
        if self.path_errors:
            section("path errors:", [f"path {idx}: {msg}"
                                     for idx, msg in self.path_errors])
        section("config:", self.config_echo.strip().splitlines())
        return "\n".join(lines) + "\n"


def _fmt(x):
    return repr(float(x))


def _mean_se(values):
    v = np.asarray(values, float)
    mean = float(np.mean(v))
    if v.size < 2:
        return mean, 0.0
    return mean, float(np.std(v, ddof=1) / math.sqrt(v.size))


# -- batch workers ----------------------------------------------------------------


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _attempt(fn, *args):
    """(fn(*args), None), or (None, "<Type>: <msg>") if it raised: the
    quarantine of one path."""
    try:
        return fn(*args), None
    except Exception as exc:  # quarantined per path
        return None, _error_text(exc)


def _lockstep(build, stage=None, finish=None):
    """``rows(cfg, indices)`` of an experiment.  ``build(cfg)`` computes
    what the config alone determines, once per batch, and returns
    ``path(index)``, which builds each path; without a stage, the built
    value is the row.  A stage runs once on the whole batch,
    ``stage(cfg, built)`` on the list of paths whose build returned, with
    one result per path (an Exception for a path that failed there), and
    ``finish(cfg, index, built_path, result)`` makes each row.  A path
    reports its first error: the batch build's, its own build's, then the
    stage's, then its finish's; an exception out of the stage call fails
    every built path.  Only here are all three phases of a path seen."""
    def rows(cfg, indices):
        path, err = _attempt(build, cfg)
        if err is not None:  # every path's build would raise it
            return [(i, None, err) for i in indices]
        out, built = {}, {}
        for i in indices:
            value, err = _attempt(path, i)
            if err is None and stage is not None:
                built[i] = value
            else:
                out[i] = (i, value, err)
        try:
            results = stage(cfg, list(built.values())) if built else []
        except Exception as exc:  # an error of the call fails every path
            results = [exc] * len(built)
        for (i, value), res in zip(built.items(), results):
            if isinstance(res, Exception):
                out[i] = (i, None, _error_text(res))
            else:
                out[i] = (i, *_attempt(finish, cfg, i, value, res))
        return [out[i] for i in indices]
    return rows


def _benchmark_cocycles(cfg):
    """``cocycle(index)``, the exact cocycle of one benchmark path.  It
    reads its two-sided driver paths' jumps alone, so builds no skeleton.
    All paths share one triplet, which holds the law and computes its band
    integrals once."""
    drivers = benchmark_drivers(cfg.build_measure(), cfg.delta)

    def cocycle(index):
        return ExactDiagonal2D([
            sample_two_sided(drivers[i], cfg.horizon, cfg.dt, cfg.master_seed,
                             path_index=index, driver=i) for i in range(2)])
    return cocycle


def _doleans_exponentials(cfg, drift):
    """``exponential(index)``: the Doléans exponential of drift t + L on
    [0, T], L driver 0 of the path: the forward leg of ``sample_two_sided``,
    with the drift in the triplet it is sampled from."""
    triplet = scalar_triplet(drift=drift, measure=cfg.build_measure(),
                             delta=cfg.delta)
    grid = TimeGrid(0.0, cfg.horizon, cfg.dt)

    def exponential(index):
        return StochasticExponential1D(sample_forward(
            triplet, grid, substream(cfg.master_seed, index, 0, 0)))
    return exponential


# integrability_alpha's grid in example_2d_exact
_ALPHA_GRID = TimeGrid(0.0, 1.0, 0.05)
# example_2d_euler's cocycle-law probes s, t: uniform on +-_PROBE_REACH
_PROBE_REACH = 0.9


class _Stacks(NamedTuple):
    """What the QR stage keeps of one exact benchmark path: its window
    stacks over [0, T] and [0, -T] and, for example_2d_exact, the stack of
    integrability_alpha on _ALPHA_GRID."""

    forward: object
    backward: object
    alpha: object = None


def _exact_cocycle(cfg, alpha=False):
    """``path(index)``: the :class:`_Stacks` of the exact cocycle of one
    benchmark path (with its alpha stack if ``alpha``).  The evaluator and
    its jump tables are dropped once the stacks exist, so a batch holds
    about 14 KB per path.  A stack that raises fails the path's build, so
    the error of the forward stack comes before the backward one's, then
    the alpha one's."""
    cocycle = _benchmark_cocycles(cfg)
    T, step = cfg.horizon, cfg.renorm_step

    def path(index):
        ev = cocycle(index)
        return _Stacks(_qr_stack(ev, T, step), _qr_stack(ev, -T, step),
                       _alpha_stack(ev, _ALPHA_GRID) if alpha else None)
    return path


def _spectra(cfg, built):
    """Stage of :func:`_lockstep`: the forward and backward QR spectra of
    every path's :class:`_Stacks`, all in one push.  Per path (est, best),
    or its first error, the forward one before the backward one."""
    T = cfg.horizon
    out = _qr_estimate([(b.forward, T) for b in built] +
                       [(b.backward, -T) for b in built], cfg.renorm_step)
    return [next((e for e in pair if isinstance(e, Exception)), pair)
            for pair in zip(out[:len(built)], out[len(built):])]


def _oseledets_stage(cfg, built):
    """Stage of example_2d_exact: :func:`_spectra`, then, stacked over the
    batch, the Oseledets splits, their angles to the axes and
    integrability_alpha on [0, 1].  Per path (est, best, split, angles,
    alphas), or its first error: the spectra's, a flag's, the split's, then
    a singular fold of its alpha stack."""
    out, live, good = _spectra(cfg, built), [], []
    for k, res in enumerate(out):
        try:
            if not isinstance(res, Exception):
                live.append((k, res[0].flag, res[1].flag))
        except LevyMetError as exc:
            out[k] = exc
    splits = _oseledets_batch([(F, G) for _, F, G in live], ANGLE_TOL)
    for (k, _, _), split in zip(live, splits):
        if isinstance(split, Exception):
            out[k] = split
        else:
            out[k] += (split,)
            good.append(k)
    angles = _angles_to([out[k][2] for k in good],
                        [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])])
    alphas = _integrability_alphas([built[k].alpha for k in good])
    for k, a, alpha in zip(good, angles, alphas):
        out[k] = alpha if isinstance(alpha, Exception) else out[k] + (a, alpha)
    return out


def _finish_example_2d_exact(cfg, index, stacks, staged):
    est, _, split, angles, (a_plus, a_minus) = staged
    return {
        "index": index,
        "raw": [float(v) for v in est.raw],
        "logdet_over_T": est.logdet_over_T,
        "sum_defect": abs(float(np.sum(est.raw)) - est.logdet_over_T),
        "angles": angles,
        "alpha_plus": a_plus,
        "alpha_minus": a_minus,
        "flag_blocks": [b.tolist() for b in est.flag.blocks],
        "oseledets": [E.tolist() for E in split.subspaces],
    }


def _ladder_path(cfg):
    """Per path: the exact benchmark cocycle, its phi(T) with norm, and the
    path's Euler evaluator, which reads the drivers' continuous parts."""
    cocycle = _benchmark_cocycles(cfg)
    system = benchmark_system_2d()

    def path(index):
        exact = cocycle(index)
        target = exact.matrix(cfg.horizon)
        euler = EulerEvaluator(system, exact.driver_paths, cfg.dt_int)
        return exact, target, float(np.linalg.norm(target)), euler
    return path


def _ladder_rungs(cfg, built):
    """Stage of :func:`_lockstep`: phi(T) of every path at the step sizes
    dt_int / 2^k, k = 0..halvings, one window per rung, all folded in
    lockstep."""
    rungs = cfg.halvings + 1
    steps = cfg.dt_int / 2.0 ** np.arange(rungs)
    return _euler_propagators([(euler, np.zeros(rungs),
                                np.full(rungs, cfg.horizon), steps)
                               for *_, euler in built])


def _finish_example_2d_euler(cfg, index, built, rungs):
    exact, target, scale, _ = built
    errors = [float(np.linalg.norm(M - target)) / scale for M in rungs]
    probes = substream(cfg.master_seed, path_index=index, driver=7,
                       leg=7).uniform(-_PROBE_REACH, _PROBE_REACH, 16)
    residuals = cocycle_residual(exact, probes[0::2], probes[1::2])
    return {"index": index, "euler_errors": errors,
            "exact_residual": float(np.max(residuals))}


def _row_stable_1d(cfg):
    exponential = _doleans_exponentials(cfg, cfg.drift)

    def row(index):
        lam = exponential(index).log_value(cfg.horizon) / cfg.horizon
        return {"index": index, "raw": [lam], "logdet_over_T": lam}
    return row


def _row_doleans_1d(cfg):
    cocycle = _benchmark_cocycles(cfg)
    exponential = _doleans_exponentials(cfg, BENCHMARK_DRIFTS[0])

    def row(index):
        ev, dd = cocycle(index), exponential(index)
        rng = substream(cfg.master_seed, path_index=index, driver=7, leg=7)
        times = np.sort(rng.uniform(0.0, cfg.horizon, 16)).tolist()
        # np.max keeps a NaN defect, which Python's max drops after the first
        worst = np.max([abs(dd.log_value(t) - ev.log_growth(t)[0])
                        for t in times])
        return {"index": index, "max_log_defect": worst}
    return row


def _row_flag_convergence(cfg):
    cocycle = _benchmark_cocycles(cfg)
    gt = ground_truth_2d(cfg.build_measure(), cfg.delta)
    params = FlagMetricParams((gt.lambda1, gt.lambda2), gt.gap / 1.0, 2)
    grouping = [(gt.lambda1, 1), (gt.lambda2, 1)]
    # fit times t_k = k T / 12, k = 1..10: inside any horizon T, and the
    # window [10, 100] at T = 120
    t_list = np.arange(1, 11) * (cfg.horizon / 12)
    c, s = math.cos(FRAME_ANGLE), math.sin(FRAME_ANGLE)

    def row(index):
        conv = flag_convergence_rate(cocycle(index), grouping, params, t_list,
                                     frame=np.array([[c, -s], [s, c]]))
        return {"index": index, "slope": conv.slope}
    return row


def _finish_backward_spectrum(cfg, index, stacks, spectra):
    est, best = spectra
    p = est.p
    pair_sums = [best.lambdas[k] + est.lambdas[p - 1 - k] for k in range(p)]
    return {
        "index": index,
        "raw": [float(v) for v in est.raw],
        "logdet_over_T": est.logdet_over_T,
        "pair_sums": pair_sums,
        "mult_reversed": est.multiplicities == tuple(reversed(best.multiplicities)),
    }


def _path_task(args):
    """(index, row, error) triples of one batch; ``args`` is (cfg, indices)
    with ``indices`` a tuple of path indices."""
    cfg, indices = args
    return EXPERIMENTS[cfg.experiment].rows(cfg, indices)


# -- aggregation ------------------------------------------------------------------

# The checks' acceptance thresholds; no config key changes them.
SE_MULT = 3.0          # an ensemble mean within SE_MULT standard errors
SPECTRUM_ABS = 0.05    # and within SPECTRUM_ABS of its closed form
ANGLE_TOL = 1e-3       # Oseledets spaces to the axes; also their split
RATIO_LO = 1.7         # Euler halving ratios: first order halves the error
RATIO_HI = 2.3
RESIDUAL_TOL = 1e-9    # exact-backend cocycle law
DOLEANS_TOL = 1e-10    # stochastic exponential against M^1
SLOPE_SLACK = 0.5      # flag convergence: mean slope <= -h + SLOPE_SLACK
FRAME_ANGLE = 0.7      # flag convergence: rotation of the pushed frame


def _within(mean, se, target, abs_tol=SPECTRUM_ABS):
    """|mean - target| <= SE_MULT * se (when se > 0) and <= abs_tol."""
    diff = abs(mean - target)
    ok = diff <= abs_tol
    if se > 0.0:
        ok = ok and diff <= SE_MULT * se
    return ok, diff


def _csv(rows, columns, values):
    """One line per row: its path index, then ``values(row)``."""
    lines = [",".join(["path_index"] + columns)]
    for r in rows:
        lines.append(",".join([str(r["index"])] +
                              [_fmt(v) for v in values(r)]))
    return "\n".join(lines) + "\n"


def _spectrum_csv(rows, d):
    columns = [f"Lambda_{k+1}" for k in range(d)] + ["logdet_over_T"]
    return _csv(rows, columns, lambda r: r["raw"] + [r["logdet_over_T"]])


def _basis_csv(rows, key, label, d, angle_key=None):
    header = ["path_index", label, "vector"] + \
        [f"component_{j+1}" for j in range(d)] + ["principal_angle"]
    lines = [",".join(header)]
    for r in rows:
        for bi, block in enumerate(r[key]):
            arr = np.asarray(block, float)
            ang = r[angle_key][bi] if angle_key else float("nan")
            for ci in range(arr.shape[1]):
                cells = [str(r["index"]), str(bi + 1), str(ci + 1)]
                cells += [_fmt(v) for v in arr[:, ci]]
                cells.append(_fmt(ang))
                lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _agg_example_2d_exact(cfg, rows):
    gt = ground_truth_2d(cfg.build_measure(), cfg.delta)
    checks, summary = [], {}
    lam1 = [r["raw"][0] for r in rows]
    lam2 = [r["raw"][1] for r in rows]
    m1, s1 = _mean_se(lam1)
    m2, s2 = _mean_se(lam2)
    summary.update({
        "Lambda_1_mean": m1, "Lambda_1_se": s1, "Lambda_1_target": gt.lambda1,
        "Lambda_2_mean": m2, "Lambda_2_se": s2, "Lambda_2_target": gt.lambda2,
        "compensator_integral": gt.compensator_integral,
    })
    deterministic = cfg.measure_kind == "none" and cfg.n_paths == 1
    if deterministic:
        ok = abs(m1 - gt.lambda1) <= 1e-8 and abs(m2 - gt.lambda2) <= 1e-8
        checks.append(CheckOutcome(
            "drift_only_exact", ok,
            f"Lambda=({m1:.12f},{m2:.12f}) vs ({gt.lambda1},{gt.lambda2}), "
            f"tol 1e-8"))
    else:
        ok1, d1 = _within(m1, s1, gt.lambda1)
        ok2, d2 = _within(m2, s2, gt.lambda2)
        checks.append(CheckOutcome(
            "spectrum_vs_closed_form", ok1 and ok2,
            f"|mean-target| = ({d1:.2e}, {d2:.2e}); se = ({s1:.2e}, {s2:.2e}); "
            f"bands {SE_MULT}*se and {SPECTRUM_ABS}"))
    gaps = [a - b for a, b in zip(lam1, lam2)]
    mg, sg = _mean_se(gaps)
    summary.update({"gap_mean": mg, "gap_se": sg, "gap_target": gt.gap})
    okg, dg = _within(mg, sg, gt.gap, 1e-8 if deterministic else SPECTRUM_ABS)
    checks.append(CheckOutcome(
        "gap_invariance", okg,
        f"|mean gap - {gt.gap}| = {dg:.2e}, se = {sg:.2e}"))
    # np.max, not max, in these folds: a NaN must fail its check
    worst_angle = float(np.max([a for r in rows for a in r["angles"]]))
    summary["max_principal_angle"] = worst_angle
    checks.append(CheckOutcome(
        "oseledets_axes", worst_angle <= ANGLE_TOL,
        f"max principal angle {worst_angle:.2e} <= {ANGLE_TOL}"))
    worst_sum = float(np.max([r["sum_defect"] for r in rows]))
    summary["max_sum_rule_defect"] = worst_sum
    checks.append(CheckOutcome(
        "sum_rule", worst_sum <= 1e-8,
        f"max |sum(Lambda) - logdet/T| = {worst_sum:.2e} <= 1e-8"))
    ap, _ = _mean_se([r["alpha_plus"] for r in rows])
    am, _ = _mean_se([r["alpha_minus"] for r in rows])
    bound = integrability_bound(cfg.build_measure(), cfg.delta)
    summary.update({"alpha_plus_mean": ap, "alpha_minus_mean": am,
                    "alpha_plus_bound": bound})
    checks.append(CheckOutcome(
        "integrability_bound", math.isfinite(ap) and math.isfinite(am),
        f"empirical E alpha+ = {ap:.4f}, E alpha- = {am:.4f} "
        f"(analytic bound for alpha+: {bound:.4f})"))
    tables = {
        "spectrum.csv": _spectrum_csv(rows, 2),
        "flags.csv": _basis_csv(rows, "flag_blocks", "block", 2),
        "oseledets.csv": _basis_csv(rows, "oseledets", "space", 2,
                                    angle_key="angles"),
    }
    return checks, summary, tables


def _agg_example_2d_euler(cfg, rows):
    checks, summary = [], {}
    errs = np.array([r["euler_errors"] for r in rows], float)
    mean_err = errs.mean(axis=0)
    ratios = mean_err[:-1] / mean_err[1:]
    for k, e in enumerate(mean_err):
        summary[f"euler_error_dt_over_{2**k}"] = float(e)
    for k, r in enumerate(ratios):
        summary[f"halving_ratio_{k+1}"] = float(r)
    ok = bool(np.all((ratios >= RATIO_LO) & (ratios <= RATIO_HI)))
    checks.append(CheckOutcome(
        "euler_convergence", ok,
        f"halving ratios {np.round(ratios, 3).tolist()} within "
        f"[{RATIO_LO}, {RATIO_HI}]"))
    worst = float(np.max([r["exact_residual"] for r in rows]))
    summary["max_exact_cocycle_residual"] = worst
    checks.append(CheckOutcome(
        "cocycle_law_exact", worst <= RESIDUAL_TOL,
        f"max exact-backend residual {worst:.2e} <= {RESIDUAL_TOL}"))
    columns = [f"error_dt_over_{2**k}" for k in range(errs.shape[1])]
    table = _csv(rows, columns, lambda r: r["euler_errors"])
    return checks, summary, {"spectrum.csv": table}


def _agg_stable_1d(cfg, rows):
    measure = cfg.build_measure()
    target = cfg.drift + measure.log_compensator(0.0, cfg.delta)
    lam = [r["raw"][0] for r in rows]
    m, s = _mean_se(lam)
    ok, d = _within(m, s, target)
    checks = [CheckOutcome(
        "stable_exponent", ok,
        f"|mean-target| = {d:.2e}, se = {s:.2e}, target = {target:.6f}")]
    summary = {"lambda_mean": m, "lambda_se": s, "lambda_target": target}
    if cfg.measure_kind == "power_law":
        # truncation breaks exact stable scaling; the residuals are reported,
        # not asserted
        triplet = scalar_triplet(drift=cfg.drift, measure=measure,
                                 delta=cfg.delta)
        for k in (2.0, 4.0):
            res = stable_scaling_residual(triplet, measure.alpha, k, 1.0)
            summary[f"scaling_residual_k{int(k)}"] = float(res)
    return checks, summary, {"spectrum.csv": _spectrum_csv(rows, 1)}


def _agg_doleans_1d(cfg, rows):
    worst = float(np.max([r["max_log_defect"] for r in rows]))
    checks = [CheckOutcome(
        "stochastic_exponential", worst <= DOLEANS_TOL,
        f"max |log Y - log M^1| = {worst:.2e} <= {DOLEANS_TOL}")]
    summary = {"max_log_defect": worst}
    table = _csv(rows, ["max_log_defect"], lambda r: [r["max_log_defect"]])
    return checks, summary, {"spectrum.csv": table}


def _agg_flag_convergence(cfg, rows):
    slopes = [r["slope"] for r in rows if r["slope"] is not None]
    gt = ground_truth_2d(cfg.build_measure(), cfg.delta)
    h = gt.gap
    summary = {"h": h, "n_slopes": len(slopes)}
    if slopes:
        m, s = _mean_se(slopes)
        summary.update({"slope_mean": m, "slope_se": s})
        ok = m <= -h + SLOPE_SLACK
        detail = (f"mean slope {m:.3f} <= -h + slack = {-h + SLOPE_SLACK}")
    else:
        ok = True
        detail = "all distances at the rounding floor; vacuously satisfied"
    checks = [CheckOutcome("flag_convergence", ok, detail)]
    table = _csv(rows, ["slope"], lambda r: [
        r["slope"] if r["slope"] is not None else math.nan])
    return checks, summary, {"spectrum.csv": table}


def _agg_backward_spectrum(cfg, rows):
    checks, summary = [], {}
    counts = sorted({len(r["pair_sums"]) for r in rows})
    ok_all = len(counts) == 1
    details = [] if ok_all else [f"paths resolve different exponent counts "
                                 f"{counts}"]
    for k in range(counts[0] if ok_all else 0):
        vals = [r["pair_sums"][k] for r in rows]
        m, s = _mean_se(vals)
        summary[f"pair_sum_{k+1}_mean"] = m
        summary[f"pair_sum_{k+1}_se"] = s
        band = SE_MULT * s if s > 0.0 else 1e-8
        ok_all = ok_all and abs(m) <= band
        details.append(f"pair {k+1}: mean {m:.2e} (band {band:.2e})")
    checks.append(CheckOutcome("backward_pairing", ok_all, "; ".join(details)))
    mult_ok = all(r["mult_reversed"] for r in rows)
    checks.append(CheckOutcome(
        "backward_multiplicities", mult_ok,
        "multiplicities reversed on every path" if mult_ok
        else "multiplicity reversal failed on some path"))
    return checks, summary, {"spectrum.csv": _spectrum_csv(rows, 2)}


# Most Euler steps on the finest rung, and most QR windows per direction,
# that a path may need
_STEP_BUDGET = 1e6


def _check_qr_horizon(cfg):
    if cfg.horizon < _QR_MIN_WINDOWS * cfg.renorm_step:
        raise ParseError(f"{cfg.experiment} needs horizon >= "
                         f"{_QR_MIN_WINDOWS} * renorm_step (at least "
                         f"{_QR_MIN_WINDOWS} QR windows)")
    windows = cfg.horizon / cfg.renorm_step
    if windows > _STEP_BUDGET:
        raise ParseError(f"{cfg.experiment} needs {windows:.3g} QR windows "
                         f"per direction, above {_STEP_BUDGET:.0e}; raise "
                         "renorm_step")


def _check_example_2d_exact(cfg):
    if cfg.delta >= 1.0:
        raise ParseError(f"{cfg.experiment} needs delta < 1 (the "
                         "integrability bound is finite only there)")
    if cfg.horizon < _ALPHA_GRID.t_end:
        raise ParseError(f"{cfg.experiment} needs horizon >= "
                         f"{_ALPHA_GRID.t_end:g} (integrability_alpha's grid)")
    _check_qr_horizon(cfg)


def _check_example_2d_euler(cfg):
    if cfg.horizon > 100.0:
        raise ParseError(f"{cfg.experiment} needs horizon <= 100 "
                         "(plain matrices overflow past that)")
    if cfg.horizon < 2 * _PROBE_REACH:
        raise ParseError(f"{cfg.experiment} needs horizon >= "
                         f"{2 * _PROBE_REACH:g} (its cocycle-law probes s + t)")
    # horizon / (dt_int / 2^halvings); 2.0 ** halvings overflows from 1024 on
    try:
        steps = math.ldexp(cfg.horizon / cfg.dt_int, cfg.halvings)
    except OverflowError:
        steps = math.inf
    if steps > _STEP_BUDGET:
        count = (f"{steps:.3g}" if math.isfinite(steps) else
                 f"{cfg.horizon:g} / ({cfg.dt_int:g} / 2^{cfg.halvings})")
        raise ParseError(f"{cfg.experiment}'s finest rung needs {count} "
                         f"Euler steps per path, above {_STEP_BUDGET:.0e}; "
                         "raise dt_int or lower halvings")
    if _window_count(cfg.horizon, cfg.dt_int / 2) == 1:
        raise ParseError(f"{cfg.experiment} needs dt_int / 2 < horizon: the "
                         "first two rungs are one Euler step each, so their "
                         "halving ratio is exactly 1; lower dt_int")


def _check_flag_convergence(cfg):
    gt = ground_truth_2d(cfg.build_measure(), cfg.delta)
    if not gt.gap > 0.0:
        raise ParseError(f"{cfg.experiment} needs a gap > 0 between the "
                         "closed-form exponents 2 + I and -4 + I; with "
                         f"I = {gt.compensator_integral:.3g} it rounds to "
                         f"{gt.gap}")


# Largest batch of paths, unless an experiment sets its own cap.  The
# per-window LAPACK overhead of a lockstep stage falls with the batch size,
# but every path of a batch keeps what its stage reads until the stage is
# done.  The example_2d_euler ladder fold grows with its batch: 40 paths of
# the euler_ladder bench config in one batch peak at 10.4 MB under
# tracemalloc and run at 293-329 paths/s, in three batches of at most 16 at
# 4.2 MB and 339-373 paths/s (serial, wall clock, medians of 15 runs with
# the two caps interleaved, two sessions).  The QR experiments build each
# path from its drivers' jump tables alone, keep its window stacks only
# (about 14 KB per path; an evaluator is about 170 KB) and cap at 64: a
# 64-path example_2d_exact batch of the shipped config peaks at 3.4 MB,
# below the 3.85 MB of a 16-path batch that kept its evaluators.
BATCH_PATHS = 16


class Experiment(NamedTuple):
    """``rows(cfg, indices)`` -> one (index, row, error) triple per path of
    a batch, in the order of ``indices``, with each path's error quarantined
    as ``"<Type>: <msg>"`` (row None) and a path's row independent of the
    rest of its batch; ``aggregate(cfg, rows)`` -> (checks, summary, csv
    tables); ``check(cfg)`` raises ParseError; ``batch_paths`` caps the
    paths of one batch; ``keys`` names the config fields it reads that
    not every experiment does."""

    rows: Callable
    aggregate: Callable
    check: Callable = lambda cfg: None
    batch_paths: int = BATCH_PATHS
    keys: tuple = ()


EXPERIMENTS = {
    "example_2d_exact": Experiment(
        _lockstep(partial(_exact_cocycle, alpha=True), _oseledets_stage,
                  _finish_example_2d_exact),
        _agg_example_2d_exact, _check_example_2d_exact, batch_paths=64,
        keys=("renorm_step",)),
    "example_2d_euler": Experiment(
        _lockstep(_ladder_path, _ladder_rungs, _finish_example_2d_euler),
        _agg_example_2d_euler, _check_example_2d_euler,
        keys=("dt_int", "halvings")),
    "stable_1d": Experiment(_lockstep(_row_stable_1d), _agg_stable_1d,
                            keys=("drift",)),
    "doleans_1d": Experiment(_lockstep(_row_doleans_1d), _agg_doleans_1d),
    "flag_convergence": Experiment(_lockstep(_row_flag_convergence),
                                   _agg_flag_convergence,
                                   _check_flag_convergence),
    "backward_spectrum": Experiment(
        _lockstep(_exact_cocycle, _spectra, _finish_backward_spectrum),
        _agg_backward_spectrum, _check_qr_horizon, batch_paths=64,
        keys=("renorm_step",)),
}


def _check_runnable(cfg):
    """What a built config meets past its range checks: the experiment's
    own check, then, on the drivers every experiment samples, their grid
    on [0, horizon] at step dt and its size, their jump sizes, their
    expected jump count and, with ``drift``, their skeleton's constants
    times the horizon.  No factor 1 + u may be <= 0, and no jump may
    exceed delta (the exact cocycle and stable_1d's target take small
    jumps only).  Raises a LevyMetError."""
    EXPERIMENTS[cfg.experiment].check(cfg)
    steps = TimeGrid(0.0, cfg.horizon, cfg.dt).n_steps
    if steps > SAMPLER_BUDGET:
        raise ConfigurationError(
            f"the sampling grid has {steps:.3g} steps per leg, above the "
            f"sampler budget of {SAMPLER_BUDGET:.0e}; raise dt")
    measure = cfg.build_measure()
    lowest = (min(measure.atom_locs, default=0.0) if measure.kind == ATOMS
              else -measure.support_bound)
    if lowest <= -1.0:
        raise SupportError(f"the measure charges u = {lowest} <= -1, where "
                           "the jump factor 1 + u is not positive")
    if measure.support_bound > cfg.delta * ExactDiagonal2D._DELTA_SLACK:
        reason = ("stable_1d's target covers |u| <= delta only"
                  if cfg.experiment == "stable_1d" else
                  "the exact benchmark cocycle takes small jumps only")
        raise SupportError(f"the measure charges |u| up to "
                           f"{measure.support_bound} > delta = {cfg.delta}; "
                           + reason)
    check_jump_budget(scalar_triplet(drift=cfg.drift, measure=measure,
                                     delta=cfg.delta), cfg.horizon)


def _batches(n_paths, workers, cap):
    """Path indices 0..n_paths-1 in contiguous tuples of at most ``cap``,
    as evenly sized as possible and, paths allowing, a multiple of
    ``workers`` in number, so that every process gets the same number of
    batches."""
    count = min(n_paths, workers * math.ceil(n_paths / (cap * workers)))
    size, extra = divmod(n_paths, count)
    starts = [k * size + min(k, extra) for k in range(count + 1)]
    return [tuple(range(a, b)) for a, b in zip(starts, starts[1:])]


def _settle(result, indices):
    """The triples ``result()`` returns for a batch; if it raises (a worker
    crash, say), each path of the batch is quarantined with that error."""
    try:
        return result()
    except Exception as exc:  # the other batches' rows are kept
        return [(i, None, _error_text(exc)) for i in indices]


def _run_here(tasks):
    """The batches of ``tasks``, run one after another in this process."""
    return [_settle(partial(_path_task, t), t[1]) for t in tasks]


def run_experiment(cfg):
    """Run one configured experiment and return its report.

    Outputs are deterministic functions of the config (master_seed
    included); the worker count only affects wall-clock time.
    """
    from . import __version__

    t0 = time.perf_counter()
    cap = EXPERIMENTS[cfg.experiment].batch_paths
    tasks = [(cfg, b) for b in _batches(cfg.n_paths, cfg.threads, cap)]
    procs = min(cfg.threads, len(tasks))
    if procs > 1:  # a pool of procs - 1 processes, and this one's own share
        split = len(tasks) - len(tasks) // procs
        with ProcessPoolExecutor(max_workers=procs - 1) as pool:
            futures = [pool.submit(_path_task, t) for t in tasks[:split]]
            own = _run_here(tasks[split:])
            batches = [_settle(f.result, t[1])
                       for f, t in zip(futures, tasks)] + own
    else:
        batches = _run_here(tasks)
    results = [triple for batch in batches for triple in batch]
    rows = [r for _, r, err in results if err is None]
    errors = [(i, err) for i, _, err in results if err is not None]
    checks, summary, tables = [], {}, {}
    if len(errors) > 0.01 * cfg.n_paths:
        checks.append(CheckOutcome(
            "error_rate", False,
            f"{len(errors)}/{cfg.n_paths} paths errored (>1%)"))
    if rows:
        aggregate = EXPERIMENTS[cfg.experiment].aggregate
        agg_checks, summary, tables = aggregate(cfg, rows)
        checks.extend(agg_checks)
    wall = time.perf_counter() - t0
    return ExperimentReport(
        experiment=cfg.experiment,
        version=__version__,
        wall_clock=wall,
        checks=checks,
        rows=rows,
        summary=summary,
        path_errors=errors,
        config_echo=cfg.echo(),
        csv_tables=tables,
    )


def write_outputs(report, output_dir):
    """Write spectrum.csv / flags.csv / oseledets.csv / report.txt."""
    os.makedirs(output_dir, exist_ok=True)
    for name in ("spectrum.csv", "flags.csv", "oseledets.csv"):
        content = report.csv_tables.get(name, "path_index\n")
        with open(os.path.join(output_dir, name), "w", newline="\n") as fh:
            fh.write(content)
    with open(os.path.join(output_dir, "report.txt"), "w", newline="\n") as fh:
        fh.write(report.to_text())
