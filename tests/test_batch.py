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


def _public_triple(cfg, index):
    """The row of one path from the public single-path functions."""
    try:
        measure = cfg.build_measure()
        drivers = lm.benchmark_drivers(measure, cfg.delta)
        paths = [lm.sample_two_sided(drivers[i], cfg.horizon, cfg.dt,
                                     cfg.master_seed, path_index=index,
                                     driver=i) for i in range(2)]
        ev = lm.ExactDiagonal2D(paths, measure, cfg.delta)
        est = lm.spectrum_qr(ev, cfg.horizon, cfg.renorm_step)
        best = lm.backward_spectrum(ev, cfg.horizon, cfg.renorm_step)
        row = {"index": index, "raw": [float(v) for v in est.raw],
               "logdet_over_T": est.logdet_over_T}
        if cfg.experiment == "backward_spectrum":
            p = est.p
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


def test_stack_errors_keep_their_order(monkeypatch):
    # the build keeps the error of a stack that raised in its place; the
    # stage still reports each path's first error in the order forward,
    # backward, flag, split, alpha, so a forward-stack error and a QR
    # degeneration both win over an alpha error
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
def test_exact_cocycle_with_given_integrals_is_bitwise_the_same(measure):
    drivers = lm.benchmark_drivers(measure, 0.5)
    paths = [lm.sample_two_sided(drivers[i], 1.0, 0.1, 3, driver=i)
             for i in range(2)]
    own = lm.ExactDiagonal2D(paths, measure, 0.5)
    given_ = lm.ExactDiagonal2D(paths, measure, 0.5,
                                lm.ExactDiagonal2D.band_integrals(
                                    drivers[0], measure, 0.5))
    assert own.compensator_integral.hex() == given_.compensator_integral.hex()
    assert own._log_moment.hex() == given_._log_moment.hex()
    t0, t1 = np.linspace(-1.0, 0.9, 20), np.linspace(-0.9, 1.0, 20)
    assert _bits(own.propagate(t0, t1)) == _bits(given_.propagate(t0, t1))
