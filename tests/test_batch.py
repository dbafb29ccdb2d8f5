"""The batch as the unit of work: constants once per batch, and the
stacked linear algebra of the example_2d_exact stage bitwise equal to one
path at a time."""

import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levymet as lm
from levymet import experiments
from levymet.cocycle import _hs_norm, _log_norm_max
from levymet.errors import HorizonError, ResolutionError, SingularityError
from levymet.experiments import EXPERIMENTS
from levymet.spectrum import _mT

ROOT = pathlib.Path(__file__).parent.parent
ATOMS = "measure.kind = atoms\nmeasure.atoms = 0.2:3.0\n"
SHORT = ATOMS + "horizon = 20\ndt = 0.5\n"


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.tobytes()


def _same_bits(stacked, per_matrix):
    assert _bits(stacked) == _bits(np.stack(per_matrix))


# -- the bitwise assumption ----------------------------------------------------------


def _orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, 2, k)))[0]


def test_stacked_linalg_matches_per_matrix_calls():
    # every stacked LAPACK and matmul call of the stage, on its shapes and
    # memory layouts, against one call per matrix: a numpy or LAPACK
    # upgrade that breaks this changes the example_2d_exact CSVs
    rng = np.random.default_rng(20240608)
    n = 200
    for shape in ((2, 2), (2, 1), (1, 2), (1, 1)):
        X = rng.standard_normal((n,) + shape)
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        for got, k in ((U, 0), (s, 1), (Vt, 2)):
            _same_bits(got, [np.linalg.svd(x, full_matrices=False)[k]
                             for x in X])
        _same_bits(np.linalg.svd(X, compute_uv=False),
                   [np.linalg.svd(x, compute_uv=False) for x in X])
        Q, R = np.linalg.qr(X)
        _same_bits(Q, [np.linalg.qr(x)[0] for x in X])
        _same_bits(R, [np.linalg.qr(x)[1] for x in X])
    X = rng.standard_normal((n, 2, 2))
    _same_bits(np.linalg.det(X), [np.linalg.det(x) for x in X])
    _same_bits(np.linalg.inv(X), [np.linalg.inv(x) for x in X])
    # the running products: strided slices of a (paths, nodes, 2, 2) stack
    stack = rng.standard_normal((n, 5, 2, 2))
    M = np.eye(2)
    ref = [np.eye(2)] * n
    for k in range(stack.shape[1]):
        M = stack[:, k] @ M
        ref = [P @ R for P, R in zip(stack[:, k], ref)]
        _same_bits(M, ref)
    # the intersections and principal angles: transposed views and sliced
    # singular vectors of orthonormal bases
    for ka, kb in ((2, 1), (1, 2), (1, 1)):
        A, B = _orthonormal(rng, n, ka), _orthonormal(rng, n, kb)
        _same_bits(_mT(A) @ B, [a.T @ b for a, b in zip(A, B)])
        M = _mT(A) @ B
        U = np.linalg.svd(M, full_matrices=False)[0]
        _same_bits(A @ U[..., :1], [a @ u[:, :1] for a, u in zip(A, U)])
        if ka >= kb:
            _same_bits(B - A @ M, [b - a @ m for a, b, m in zip(A, B, M)])
        else:
            _same_bits(A - B @ _mT(M),
                       [a - b @ m.T for a, b, m in zip(A, B, M)])
    E, T_ = _orthonormal(rng, n, 1), np.array([[1.0], [0.0]])
    _same_bits(_mT(E) @ T_, [e.T @ T_ for e in E])
    m = _mT(E) @ T_
    _same_bits(T_ - E @ m, [T_ - e @ mm for e, mm in zip(E, m)])
    # the exact backend's cocycle-law residual: diagonal matrices from a
    # stack of log-diagonals, phi(s + t) and phi(s) as halves of one stack,
    # and phi(s + t) - phi(t, theta_s) phi(s) with a norm per pair
    lg = rng.normal(0.0, 3.0, (3 * n, 2))
    D = np.exp(lg)[..., None] * np.eye(2)
    _same_bits(D, [np.exp(x)[..., None] * np.eye(2) for x in lg])
    phi, theta = D[:2 * n], D[2 * n:]
    _same_bits(theta @ phi[n:], [a @ b for a, b in zip(theta, phi[n:])])
    defect = phi[:n] - theta @ phi[n:]
    _same_bits([_hs_norm(M) for M in defect],
               [_hs_norm(a - b @ c) for a, b, c in zip(phi[:n], theta,
                                                       phi[n:])])


def test_norm_screen_returns_the_per_matrix_max():
    # the 24 orderings of four entries: one multiset of squares, summed in
    # different orders, so their batched sums of squares and per-matrix
    # norms tie within an ULP but not always in the same order
    rng = np.random.default_rng(7)
    fooled = 0
    for _ in range(200):
        x = rng.standard_normal(4) * math.exp(rng.uniform(-3.0, 3.0))
        mats = np.array([x[list(p)].reshape(2, 2)
                         for p in itertools.permutations(range(4))])
        per = [_hs_norm(M) for M in mats]
        screen = np.einsum("kij,kij->k", mats, mats)
        fooled += per[int(np.argmax(screen))] < max(per)
        owner = np.repeat([0, 1], 12)
        want = [max([-1.0] + [math.log(v) for v in per[:12]]),
                max([-1.0] + [math.log(v) for v in per[12:]])]
        assert _log_norm_max(mats, owner, 2, -1.0) == want
    # the stacks do contain ties a plain argmax of the screen gets wrong
    assert fooled > 10


# -- batch split ---------------------------------------------------------------------


def _public_cocycle(cfg, index):
    """The exact cocycle of one path from the public single-path functions."""
    measure = cfg.build_measure()
    drivers = lm.benchmark_drivers(measure, cfg.delta)
    paths = [lm.sample_two_sided(drivers[i], cfg.horizon, cfg.dt,
                                 cfg.master_seed, path_index=index, driver=i)
             for i in range(2)]
    return lm.ExactDiagonal2D(paths)


def _public_triple(cfg, index):
    """The row of one path from the public single-path functions."""
    try:
        ev = _public_cocycle(cfg, index)
        est = lm.spectrum_qr(ev, cfg.horizon, cfg.renorm_step)
        best = lm.backward_spectrum(ev, cfg.horizon, cfg.renorm_step)
        row = {"index": index, "raw": [float(v) for v in est.raw],
               "logdet_over_T": est.logdet_over_T}
        if cfg.experiment == "backward_spectrum":
            p = est.p
            if best.p < p:
                raise ResolutionError(
                    f"the backward spectrum resolves {best.p} exponent "
                    f"groups, the forward one {p}; increase the horizon")
            return index, {
                **row,
                "pair_sums": [best.lambdas[k] + est.lambdas[p - 1 - k]
                              for k in range(p)],
                "mult_reversed": est.multiplicities ==
                tuple(reversed(best.multiplicities))}, None
        split = lm.oseledets_spaces(est.flag, best.flag,
                                    angle_tol=experiments.ANGLE_TOL)
        angles = split.angles_to([np.array([[1.0], [0.0]]),
                                  np.array([[0.0], [1.0]])])
        a_plus, a_minus = lm.integrability_alpha(ev,
                                                 lm.TimeGrid(0.0, 1.0, 0.05))
        return index, {
            **row,
            "sum_defect": abs(float(np.sum(est.raw)) - est.logdet_over_T),
            "angles": angles, "alpha_plus": a_plus, "alpha_minus": a_minus,
            "flag_blocks": [b.tolist() for b in est.flag.blocks],
            "oseledets": [E.tolist() for E in split.subspaces]}, None
    except lm.LevyMetError as exc:
        return index, None, f"{type(exc).__name__}: {exc}"


_BATCH = st.lists(st.integers(0, 60), min_size=1, max_size=16,
                  unique=True).map(tuple)


@pytest.mark.parametrize("experiment", ["example_2d_exact",
                                        "backward_spectrum"])
@settings(max_examples=8, deadline=None)
@given(indices=_BATCH, seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_public_single_path_rows(experiment, indices, seed):
    cfg = lm.parse_config(f"experiment = {experiment}\n{SHORT}"
                          f"master_seed = {seed}\n")
    batch = EXPERIMENTS[experiment].rows(cfg, indices)
    assert repr(batch) == repr([_public_triple(cfg, i) for i in indices])


def test_fewer_backward_groups_are_a_resolution_error():
    # at horizon 1.7 a quarter of the paths resolve two exponent groups
    # forward and one backward: their pair sums would index past the
    # backward groups, so each such path is quarantined by name.  Paths
    # with more backward groups keep their row and fail the multiplicity
    # check
    text = ((ROOT / "configs" / "backward_spectrum.cfg").read_text()
            .replace("horizon = 200", "horizon = 1.7")
            .replace("dt = 0.5", "dt = 0.1")
            .replace("n_paths = 100", "n_paths = 40") + "renorm_step = 0.1\n")
    cfg = lm.parse_config(text)
    report = lm.run_experiment(cfg)
    errors = dict(report.path_errors)
    rows = {r["index"]: r for r in report.rows}
    fewer = 0
    for index in range(cfg.n_paths):
        ev = _public_cocycle(cfg, index)
        est = lm.spectrum_qr(ev, cfg.horizon, cfg.renorm_step)
        best = lm.backward_spectrum(ev, cfg.horizon, cfg.renorm_step)
        if best.p < est.p:
            fewer += 1
            assert errors.pop(index) == (
                "ResolutionError: the backward spectrum resolves 1 exponent "
                "groups, the forward one 2; increase the horizon")
        elif best.p > est.p:
            assert rows[index]["mult_reversed"] is False
    assert fewer >= 10
    assert not report.passed
    for err in errors.values():
        assert issubclass(getattr(lm.errors, err.split(":")[0]),
                          lm.LevyMetError)


def test_stage_failure_quarantines_only_its_path(monkeypatch):
    # the flag of the batch's third path cannot be cut: that path alone is
    # quarantined with the cut's message, and the other rows stand
    cfg = lm.parse_config(f"experiment = example_2d_exact\n{SHORT}"
                          "master_seed = 5\n")
    rows = EXPERIMENTS["example_2d_exact"].rows
    indices = (4, 9, 2, 7, 11)
    clean = rows(cfg, indices)
    assert all(err is None for _, _, err in clean)
    cut, calls = lm.spectrum._cut_flag, []

    def fail_third(*args):
        calls.append(None)
        if len(calls) == 3:  # the forward flag of the third path
            raise ResolutionError("frame growth rates inconsistent with "
                                  "grouping")
        return cut(*args)

    monkeypatch.setattr(lm.spectrum, "_cut_flag", fail_third)
    batch = rows(cfg, indices)
    assert batch[2] == (2, None, "ResolutionError: frame growth rates "
                                 "inconsistent with grouping")
    assert repr(batch[:2] + batch[3:]) == repr(clean[:2] + clean[3:])


def test_split_failure_quarantines_only_its_path(monkeypatch):
    # the third path's backward flag has its blocks swapped, so its
    # Oseledets summands coincide: that path alone is quarantined with what
    # oseledets_spaces raises on it, and the other rows stand bitwise
    cfg = lm.parse_config(f"experiment = example_2d_exact\n{SHORT}"
                          "master_seed = 5\n")
    rows = EXPERIMENTS["example_2d_exact"].rows
    indices = (4, 9, 2, 7, 11)
    clean = rows(cfg, indices)
    assert all(err is None for _, _, err in clean)
    ev = _public_cocycle(cfg, 2)
    fwd = lm.spectrum_qr(ev, cfg.horizon, cfg.renorm_step).flag
    bwd = lm.backward_spectrum(ev, cfg.horizon, cfg.renorm_step).flag

    def swapped(flag):
        return type(flag)(flag.blocks[::-1])

    with pytest.raises(ResolutionError) as alone:
        lm.oseledets_spaces(fwd, swapped(bwd), angle_tol=experiments.ANGLE_TOL)
    split = experiments._oseledets_batch

    def failing(pairs, angle_tol):  # every path reaches it, in batch order
        (F, G), pairs = pairs[2], list(pairs)
        pairs[2] = (F, swapped(G))
        return split(pairs, angle_tol)

    monkeypatch.setattr(experiments, "_oseledets_batch", failing)
    batch = rows(cfg, indices)
    assert batch[2] == (2, None, f"ResolutionError: {alone.value}")
    assert repr(batch[:2] + batch[3:]) == repr(clean[:2] + clean[3:])


def _jumps_key(ev):
    """The bytes of the first driver's jump times: one path's fingerprint,
    the same for its jump table and its sampled path."""
    p = ev.driver_paths[0]
    return p.jumps_in(*p.horizon)[0].tobytes()


@pytest.mark.parametrize("experiment,end", [
    ("example_2d_exact", 20.0), ("example_2d_exact", -20.0),
    ("example_2d_exact", 1.0), ("backward_spectrum", 20.0),
    ("backward_spectrum", -20.0)], ids=["exact-forward", "exact-backward",
                                        "exact-alpha", "backward-forward",
                                        "backward-backward"])
def test_stack_error_is_quarantined_as_a_build_error(monkeypatch, experiment,
                                                     end):
    # the window stack ending at ``end`` (the QR stack over [0, T] or
    # [0, -T], or the alpha stack over [0, 1]) raises for the batch's third
    # path: its build fails, so the stage never sees it, it reports what
    # the public single-path calls raise on it, and the other rows stand
    cfg = lm.parse_config(f"experiment = {experiment}\n{SHORT}"
                          "master_seed = 5\n")
    rows = EXPERIMENTS[experiment].rows
    indices = (4, 9, 2, 7)
    clean = rows(cfg, indices)
    assert all(err is None for _, _, err in clean)
    victim = _jumps_key(_public_cocycle(cfg, 2))
    propagators, qr_estimate, pushed = (lm.ExactDiagonal2D.propagators,
                                        experiments._qr_estimate, [])

    def failing(self, edges):
        if edges[-1] == end and _jumps_key(self) == victim:
            raise lm.InstabilityError("window stack overflows")
        return propagators(self, edges)

    def counted(jobs, renorm_step):
        pushed.append(len(jobs))
        return qr_estimate(jobs, renorm_step)

    monkeypatch.setattr(lm.ExactDiagonal2D, "propagators", failing)
    monkeypatch.setattr(experiments, "_qr_estimate", counted)
    batch = rows(cfg, indices)
    assert pushed == [2 * 3]
    alone = _public_triple(cfg, 2)
    assert alone == (2, None, "InstabilityError: window stack overflows")
    assert repr(batch) == repr(clean[:2] + [alone] + clean[3:])


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_batch_build_error_fails_every_path(monkeypatch, experiment):
    # what the config alone determines is computed once per batch: if that
    # raises, every path of the batch reports it, and a run in which no
    # path succeeded fails on its error rate alone
    cfg = lm.parse_config(f"experiment = {experiment}\n"
                          + _CONFIG.get(experiment, SHORT) + "n_paths = 3\n")

    def unavailable(self):
        raise lm.ConfigurationError("measure unavailable")

    monkeypatch.setattr(lm.ExperimentConfig, "build_measure", unavailable)
    want = "ConfigurationError: measure unavailable"
    assert EXPERIMENTS[experiment].rows(cfg, (3, 0, 1)) == \
        [(i, None, want) for i in (3, 0, 1)]
    report = lm.run_experiment(cfg)
    assert report.rows == [] and report.summary == {}
    assert report.path_errors == [(i, want) for i in range(3)]
    assert [(c.check_id, c.passed, c.detail) for c in report.checks] == \
        [("error_rate", False, "3/3 paths errored (>1%)")]


def test_stack_errors_keep_their_order(monkeypatch):
    # a stack that raises fails its path's build, in the order forward,
    # backward, alpha; the stage then reports each path's first error in
    # the order flag, split, alpha fold, so a forward-stack error wins over
    # an alpha-stack error, and an alpha-stack error over a QR degeneration
    cfg = lm.parse_config(f"experiment = example_2d_exact\n{SHORT}"
                          "master_seed = 5\n")
    qr_stack, alpha_stack = experiments._qr_stack, experiments._alpha_stack
    faults = {}

    def qr(ev, T, step):
        fault = faults.get("forward" if T > 0 else "backward")
        if isinstance(fault, Exception):
            raise fault
        props = qr_stack(ev, T, step)
        if fault is not None:  # a window that degenerates the frame
            props = props.copy()
            props[5] = fault
        return props

    def alpha(ev, grid):
        if "alpha" in faults:
            raise faults["alpha"]
        return alpha_stack(ev, grid)

    monkeypatch.setattr(experiments, "_qr_stack", qr)
    monkeypatch.setattr(experiments, "_alpha_stack", alpha)
    alpha_error = SingularityError("alpha stack")
    forward, backward = HorizonError("forward"), HorizonError("backward")
    shear = np.diag([1e300, 1e-300])
    for case, want in (
            ({}, None),
            ({"alpha": alpha_error}, "SingularityError: alpha stack"),
            ({"alpha": alpha_error, "backward": backward},
             "HorizonError: backward"),
            ({"alpha": alpha_error, "backward": backward, "forward": forward},
             "HorizonError: forward"),
            ({"alpha": alpha_error, "forward": shear},
             "SingularityError: alpha stack"),
            ({"forward": shear},
             "InstabilityError: frame degenerated; shorten renorm_step")):
        faults.clear()
        faults.update(case)
        batch = EXPERIMENTS["example_2d_exact"].rows(cfg, (3, 0, 1))
        assert [(i, err) for i, _, err in batch] == \
            [(i, want) for i in (3, 0, 1)]


def test_qr_batch_holds_stacks_not_evaluators():
    # a 64-path example_2d_exact batch of the shipped config peaks, under
    # tracemalloc, at about 3.4 MB (53 KB a path).  A 16-path batch that
    # kept each path's evaluator (about 170 KB) until the stage peaked at
    # 3.85 MB, and a 64-path one at 15.3 MB.
    cfg = lm.parse_config((ROOT / "configs" / "example_2d_exact.cfg")
                          .read_text())
    rows = EXPERIMENTS["example_2d_exact"].rows
    rows(cfg, (0,))  # first-call allocations are not the batch's
    tracemalloc.start()
    try:
        batch = rows(cfg, tuple(range(64)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(err is None for _, _, err in batch)
    assert peak <= 3.85e6


# the euler_ladder bench workload's config
_LADDER = ("experiment = example_2d_euler\n" + ATOMS + "delta = 0.5\n"
           "horizon = 2\ndt = 0.1\ndt_int = 0.08\nhalvings = 4\n"
           "master_seed = 3\n")


def test_euler_ladder_batch_folds_fit_the_byte_budget(folds):
    # 40 paths of 5 rungs in one batch fold in several runs, each within
    # _FOLD_BYTES
    batch = EXPERIMENTS["example_2d_euler"].rows(lm.parse_config(_LADDER),
                                                 tuple(range(40)))
    assert all(err is None for _, _, err in batch)
    assert len(folds) > 1
    assert all(size <= lm.cocycle._FOLD_BYTES for _, size in folds)


def test_euler_ladder_batch_peak_does_not_grow_with_the_batch():
    # the ladder fold bounds its own memory, so a 40-path batch peaks below
    # 1.5x an 8-path one under tracemalloc (about 3.1 and 2.3 MB); folded in
    # one run, the 40 paths would peak at about 10.7 MB
    cfg = lm.parse_config(_LADDER)
    rows = EXPERIMENTS["example_2d_euler"].rows
    rows(cfg, (0,))  # first-call allocations are not the batch's
    peaks = []
    for n in (8, 40):
        tracemalloc.start()
        try:
            batch = rows(cfg, tuple(range(n)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(err is None for _, _, err in batch)
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("index", [0, 1])
def test_qr_build_cocycle_shifts(index):
    # the exact cocycle the QR build reads is built on two-sided paths, so
    # it shifts: the cocycle law holds at 8 probe pairs, and the stacked
    # matrices on the shifted paths are shifted(s).matrix(t), pair by pair
    cfg = lm.parse_config((ROOT / "configs" / "example_2d_exact.cfg")
                          .read_text())
    ev = experiments._benchmark_cocycles(cfg)(index)
    rng = lm.paths.substream(cfg.master_seed, index, 7, 7)
    s, t = rng.uniform(-0.9, 0.9, (2, 8))
    assert np.max(lm.cocycle_residual(ev, s, t)) <= experiments.RESIDUAL_TOL
    stacked = ev._shifted_matrices(s, t)
    assert stacked is not None
    for k in range(8):
        assert stacked[k].tobytes() == ev.shifted(s[k]).matrix(t[k]).tobytes()


# -- constants once per batch ------------------------------------------------------

_SPIED = ("log_compensator", "log_moment", "mean", "rate")
_CONFIG = {"example_2d_euler": ATOMS + "horizon = 2\ndt = 0.1\ndt_int = 0.08\n",
           "stable_1d": SHORT + "drift = 1.0\n"}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_band_constants_once_per_batch(experiment, monkeypatch):
    # the band integrals and the compensation rate (the measure's mean
    # over the simulated band) and jump rates are computed a fixed number
    # of times per batch, however many paths it has
    counts = dict.fromkeys(_SPIED, 0)
    for name in _SPIED:
        def spy(self, *args, _name=name, _fn=getattr(lm.LevyMeasure, name)):
            counts[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(lm.LevyMeasure, name, spy)
    cfg = lm.parse_config(f"experiment = {experiment}\n"
                          + _CONFIG.get(experiment, SHORT))
    seen = []
    for n in (1, 4, 9):
        counts.update(dict.fromkeys(_SPIED, 0))
        batch = EXPERIMENTS[experiment].rows(cfg, tuple(range(n)))
        assert all(err is None for _, _, err in batch)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["mean"] >= 1 and seen[0]["rate"] >= 1


@pytest.mark.parametrize("measure", [
    lm.LevyMeasure.from_atoms([(0.2, 3.0), (-0.3, 1.0)]),
    lm.LevyMeasure.power_law(0.8, 0.5, 0.5)], ids=["atoms", "power_law"])
def test_triplet_log_integrals_are_the_measure_calls_once(measure,
                                                           monkeypatch):
    # the exact cocycle's (I, K) are bitwise the measure's two log integrals
    # over the simulated band, computed once per triplet however many
    # evaluators and shifts read them
    triplet = lm.benchmark_drivers(measure, 0.5)[0]
    lo = min(triplet.effective_cut(), 0.5)
    want = (measure.log_compensator(lo, 0.5), measure.log_moment(lo, 0.5))
    calls = []
    for name in ("log_compensator", "log_moment"):
        def spy(self, *args, _fn=getattr(lm.LevyMeasure, name)):
            calls.append(args)
            return _fn(self, *args)
        monkeypatch.setattr(lm.LevyMeasure, name, spy)
    paths = [lm.sample_two_sided(triplet, 1.0, 0.1, 3, driver=i)
             for i in range(2)]
    for s in (0.0, 0.2, -0.4):
        lm.ExactDiagonal2D(paths).shifted(s)
    assert calls == [(lo, 0.5), (lo, 0.5)]
    assert ([x.hex() for x in triplet.log_integrals]
            == [x.hex() for x in want])
