import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import levymet as lm
from levymet import experiments
from levymet.errors import (
    ConfigurationError,
    ResolutionError,
    SingularityError,
    StructuralError,
)

ATOM = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
EMPTY = lm.LevyMeasure.empty()


def exact_ev(measure, T, seed, dt=0.5):
    drivers = lm.benchmark_drivers(measure, 0.5)
    paths = [lm.sample_two_sided(drivers[i], T, dt, seed, driver=i)
             for i in range(2)]
    return lm.ExactDiagonal2D(paths)


def haar(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# -- singular values / exterior powers ------------------------------------------


def test_singular_values_basic():
    np.testing.assert_allclose(lm.singular_values(np.eye(3)), np.ones(3))
    np.testing.assert_allclose(lm.singular_values(np.diag([3.0, 2.0])), [3.0, 2.0])


def test_singular_values_orthogonal_sandwich():
    got = lm.singular_values(haar(2, 1) @ np.diag([3.0, 2.0]) @ haar(2, 2))
    np.testing.assert_allclose(got, [3.0, 2.0], rtol=1e-12)


def test_singular_values_reject_singular():
    with pytest.raises(SingularityError):
        lm.singular_values(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_exterior_power_norm_cases():
    M = np.diag([3.0, 2.0])
    assert lm.exterior_power_norm(M, 2) == pytest.approx(6.0)      # |det|
    assert lm.exterior_power_norm(M, 1) == pytest.approx(3.0)      # operator norm
    with pytest.raises(ConfigurationError):
        lm.exterior_power_norm(M, 3)


def compound_matrix_2_of_3(M):
    # brute-force second compound: 2x2 minors indexed by pairs of rows/cols
    idx = list(itertools.combinations(range(3), 2))
    C = np.empty((3, 3))
    for r, (i1, i2) in enumerate(idx):
        for c, (j1, j2) in enumerate(idx):
            C[r, c] = M[i1, j1] * M[i2, j2] - M[i1, j2] * M[i2, j1]
    return C


def test_exterior_power_vs_compound_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        M = rng.standard_normal((3, 3))
        brute = np.linalg.norm(compound_matrix_2_of_3(M), 2)
        assert lm.exterior_power_norm(M, 2) == pytest.approx(brute, rel=1e-10)


def test_exterior_power_full_is_det():
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        M = rng.standard_normal((d, d))
        assert lm.exterior_power_norm(M, d) == pytest.approx(
            abs(np.linalg.det(M)), rel=1e-10)


def test_sym_root_cross_check():
    ev = exact_ev(ATOM, 6.0, 40)
    t = 4.0
    rates, vecs = lm.sym_root_spectrum(ev.matrix(t), t)
    lg = ev.log_growth(t) / t
    np.testing.assert_allclose(np.sort(rates)[::-1], np.sort(lg)[::-1], rtol=1e-12)
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12 or abs(abs(vecs[0, 1]) - 1.0) < 1e-12


# -- spectrum estimation -----------------------------------------------------------


def test_spectrum_qr_deterministic():
    ev = exact_ev(EMPTY, 40.0, 41)
    est = lm.spectrum_qr(ev, 40.0, 1.0)
    np.testing.assert_allclose(est.raw, [2.0, -4.0], atol=1e-10)
    assert est.grouped == [(2.0, 1), (-4.0, 1)]
    assert est.gap == pytest.approx(6.0)
    assert abs(est.raw.sum() - est.logdet_over_T) < 1e-10


def test_spectrum_qr_requires_long_horizon():
    ev = exact_ev(EMPTY, 5.0, 42)
    with pytest.raises(ConfigurationError):
        lm.spectrum_qr(ev, 5.0, 1.0)


def test_spectrum_qr_rejects_a_window_count_past_the_integer_range():
    # 2e301 windows: the count is checked before the integer cast, which
    # would wrap it to one window over [0, 20]
    ev = exact_ev(EMPTY, 20.0, 42)
    with pytest.raises(ConfigurationError, match=r"2e\+301 windows"):
        lm.spectrum_qr(ev, 20.0, renorm_step=1e-300)


@pytest.mark.parametrize("call", ["spectrum_qr", "euler_matrix",
                                  "vector_exponent"])
def test_subnormal_step_fails_cleanly(call):
    # span / 1e-320 overflows to inf: the count check raises, with no
    # RuntimeWarning (an error under the suite's filter) before it
    ev = exact_ev(EMPTY, 20.0, 42)
    run = {
        "spectrum_qr": lambda: lm.spectrum_qr(ev, 20.0, renorm_step=1e-320),
        "euler_matrix": lambda: lm.EulerEvaluator(
            lm.benchmark_system_2d(), ev.driver_paths,
            1e-320).matrix(1.0),
        "vector_exponent": lambda: lm.vector_exponent(
            ev, np.array([1.0, 1.0]), 20.0, renorm_step=1e-320),
    }[call]
    with pytest.raises(ConfigurationError, match="inf windows overflow"):
        run()


def test_spectrum_qr_ensemble_hits_closed_form():
    gt = lm.ground_truth_2d(ATOM, 0.5)
    l1, l2 = [], []
    for s in range(24):
        ev = exact_ev(ATOM, 60.0, 4000 + s)
        est = lm.spectrum_qr(ev, 60.0, 1.0)
        l1.append(est.raw[0])
        l2.append(est.raw[1])
    se1 = np.std(l1, ddof=1) / math.sqrt(len(l1))
    se2 = np.std(l2, ddof=1) / math.sqrt(len(l2))
    assert abs(np.mean(l1) - gt.lambda1) < 4.0 * se1 + 1e-3
    assert abs(np.mean(l2) - gt.lambda2) < 4.0 * se2 + 1e-3


def test_group_spectrum_examples():
    groups, gap = lm.group_spectrum([2.0, -4.0], 0.5)
    assert groups == [(2.0, 1), (-4.0, 1)] and gap == 6.0
    groups, gap = lm.group_spectrum([1.01, 0.99, -3.0], 0.05)
    assert groups == [(pytest.approx(1.0), 2), (-3.0, 1)]
    assert gap == pytest.approx(4.0)
    groups, gap = lm.group_spectrum([0.0, 0.0, 0.0], 0.05)
    assert groups == [(0.0, 3)] and gap is None


def test_group_spectrum_idempotent():
    groups, _ = lm.group_spectrum([2.03, 1.98, -3.99, -4.01], 0.2)
    lams = [g[0] for g in groups]
    again, _ = lm.group_spectrum(lams, 0.2)
    assert [g[0] for g in again] == lams
    assert all(g[1] == 1 for g in again)


def test_group_spectrum_gap_always_exceeds_tol():
    # the greedy rule splits on last-element gaps, so the post-merge
    # inter-group separation provably exceeds group_tol even under chain
    # merges; the ResolutionError branch is a defensive guard only
    rng = np.random.default_rng(12)
    for _ in range(200):
        raw = np.sort(rng.uniform(-5.0, 5.0, rng.integers(2, 9)))[::-1]
        tol = float(rng.uniform(0.05, 2.0))
        groups, gap = lm.group_spectrum(raw, tol)
        if gap is not None:
            assert gap > tol
        assert sum(m for _, m in groups) == raw.size


def test_sum_rule_invariant_enforced():
    with pytest.raises(StructuralError):
        lm.SpectrumEstimate(np.array([2.0, -4.0]), (2.0, -4.0), (1, 1), 6.0,
                            10.0, 7.5, 0.1)


def dense_euler_ev(seed, scheme, T):
    """A dense, non-commuting 3x3 system with a Gaussian part, on the paths
    of ``seed``."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, (3, 3))
    sigmas = tuple(rng.normal(0.0, 0.5, (3, 3)) for _ in range(2))
    assert np.linalg.norm(a @ sigmas[0] - sigmas[0] @ a) > 1e-3
    drivers = (lm.scalar_triplet(gauss=0.3, measure=ATOM, delta=0.5),
               lm.scalar_triplet(measure=ATOM, delta=0.5))
    paths = [lm.sample_two_sided(drivers[i], T, 0.1, seed, driver=i)
             for i in range(2)]
    return lm.EulerEvaluator(lm.LinearSystem(a, sigmas), paths, 0.01,
                             scheme=scheme)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), scheme=st.sampled_from(["euler", "expm"]),
       backward=st.booleans())
def test_sum_rule_euler_dense_systems(seed, scheme, backward):
    # the default group_tol, 10/T; a flag that cannot be cut leaves the
    # estimate standing (see test_uncut_flag_keeps_its_spectrum)
    T = 20.0
    ev = dense_euler_ev(seed, scheme, T)
    est = (lm.backward_spectrum if backward else lm.spectrum_qr)(ev, T)
    assert abs(float(np.sum(est.raw)) - est.logdet_over_T) <= \
        1e-12 * max(1.0, abs(est.logdet_over_T))


def test_uncut_flag_keeps_its_spectrum(monkeypatch):
    # seed 448 at T = 20: the rates 0.352, -0.024, -0.613 group as
    # (0.164 x2, -0.613), but the frame pushed through phi^T ranks its
    # rates 0.358, -0.307, -0.335, so the flag cannot be cut; the spectrum
    # and its sum rule are sound, and only reading the flag raises
    ev = dense_euler_ev(448, "euler", 20.0)
    est = lm.spectrum_qr(ev, 20.0)
    assert est.multiplicities == (2, 1)
    assert abs(float(np.sum(est.raw)) - est.logdet_over_T) <= 1e-12
    with pytest.raises(ResolutionError, match="inconsistent with grouping"):
        est.flag
    # the example_2d_exact stage quarantines such a path
    cfg = lm.parse_config("experiment = example_2d_exact\n")
    best = lm.backward_spectrum(ev, 20.0)
    monkeypatch.setattr(experiments, "_spectra", lambda cfg, evs: [(est, best)])
    (res,) = experiments._oseledets_stage(cfg, [ev])
    assert experiments._error_text(res) == \
        "ResolutionError: frame growth rates inconsistent with grouping"


# -- flags --------------------------------------------------------------------------


def test_flag_at_diagonal_axes():
    ev = exact_ev(EMPTY, 20.0, 43)
    est = lm.spectrum_qr(ev, 20.0, 1.0)
    for t in (1.0, 5.0, 20.0):
        F = lm.flag_at(ev, t, est)
        assert abs(abs(F.blocks[0][0, 0]) - 1.0) < 1e-12
        assert abs(abs(F.blocks[1][1, 0]) - 1.0) < 1e-12


def test_flag_at_benchmark_axes():
    ev = exact_ev(ATOM, 30.0, 44)
    est = lm.spectrum_qr(ev, 30.0, 1.0)
    F = lm.flag_at(ev, 30.0, est)
    angle = lm.principal_angles(F.blocks[0], np.array([[1.0], [0.0]]))
    assert float(np.max(angle)) < 1e-8


def test_flag_at_rotated_system():
    # conjugated deterministic flow: flag axes are the rotated basis
    theta = 0.6
    Q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    drivers = lm.benchmark_drivers(EMPTY, 0.5)
    paths = [lm.sample_two_sided(drivers[i], 30.0, 0.5, 45, driver=i)
             for i in range(2)]
    system = lm.LinearSystem(Q @ np.diag([2.0, -4.0]) @ Q.T,
                             (np.zeros((2, 2)), np.zeros((2, 2))))
    ev = lm.EulerEvaluator(system, paths, 0.01, scheme="expm")
    F = lm.flag_at(ev, 20.0, [(2.0, 1), (-4.0, 1)])
    assert float(np.max(lm.principal_angles(F.blocks[0], Q[:, :1]))) < 1e-6
    assert float(np.max(lm.principal_angles(F.blocks[1], Q[:, 1:]))) < 1e-6


def test_principal_angles_resolve_tiny_angles():
    # v + 1e-10 w is exactly representable, so the angle is atan(1e-10);
    # arccos of its cosine would read 0 (the cosine rounds to 1)
    e = np.eye(4)
    v, w = e[:, :1], np.array([[0.0], [0.6], [0.0], [0.8]])
    for A, B in ((v, v + 1e-10 * w), (v + 1e-10 * w, v)):
        angle = lm.principal_angles(A, B)
        assert angle.shape == (1,)
        assert angle[0] == pytest.approx(1e-10, rel=1e-6)
    # the wider basis may come either side; angles in increasing order
    A = np.hstack([v, e[:, 2:3]])
    B = np.hstack([v + 1e-10 * w, e[:, 2:3]])
    for X, Y in ((A, B), (B, A), (A, B[:, :1]), (B[:, :1], A)):
        angles = lm.principal_angles(X, Y)
        assert angles[-1] == pytest.approx(1e-10, rel=1e-6)
        assert np.all(angles[:-1] == 0.0)
    # large angles come from the cosine, exact axes give exactly 0 and pi/2
    c, s = math.cos(1.2), math.sin(1.2)
    assert lm.principal_angles(e[:, :1], c * e[:, :1] + s * e[:, 1:2])[0] == \
        pytest.approx(1.2, rel=1e-15)
    assert lm.principal_angles(e[:, :2], e[:, 1:3]).tolist() == [0.0, math.pi / 2]


def test_flag_at_inconsistent_grouping():
    ev = exact_ev(EMPTY, 20.0, 46)
    with pytest.raises(ResolutionError):
        lm.flag_at(ev, 10.0, [(5.0, 1), (2.0, 1)])


def test_flag_validation():
    with pytest.raises(StructuralError):
        lm.Flag([np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])])
    f = lm.coordinate_flag((1, 2))
    assert f.dims == (1, 2)
    assert f.nested_basis(2).shape == (3, 2)
    # a basis 1e-8 off orthonormal is refused, not rounded into a flag
    with pytest.raises(StructuralError, match="not orthonormal"):
        lm.Flag([np.array([[1.0], [0.0]]), np.array([[1e-8], [1.0]])])


def test_flag_metric_params_constraint():
    lm.FlagMetricParams((2.0, -4.0), 6.0, 2)  # |2-(-4)|/6 = 1 >= d-1
    with pytest.raises(ConfigurationError):
        lm.FlagMetricParams((2.0, -4.0), 6.0, 3)
    with pytest.raises(ConfigurationError):
        lm.FlagMetricParams((2.0, 2.0), 1.0, 2)
    # a gap 1e-6 short of (d - 1) h is refused, not rounded up
    for d in (2, 3):
        with pytest.raises(ConfigurationError, match=r"\|l_i - l_j\|/h"):
            lm.FlagMetricParams((0.0, (d - 1) - 1e-6), 1.0, d)
        lm.FlagMetricParams((0.0, float(d - 1)), 1.0, d)


def test_flag_distance_axioms():
    params = lm.FlagMetricParams((2.0, -4.0), 6.0, 2)
    f = lm.coordinate_flag((1, 1))
    assert lm.flag_distance(f, f, params) == 0.0
    swapped = lm.Flag((f.blocks[1], f.blocks[0]))
    assert lm.flag_distance(f, swapped, params) == pytest.approx(1.0)
    with pytest.raises(StructuralError):
        lm.flag_distance(lm.coordinate_flag((1, 1)), lm.coordinate_flag((2,)),
                         params)


@st.composite
def _metric_triples(draw):
    """Valid metric parameters, exponents spaced by (d-1) h times a factor
    in [1, 3], and a flag triple: three Haar-random flags, or a flag and
    two successive rotations of it by 1e-15 to 1e-1."""
    dims = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 1, 1)]))
    d, p = sum(dims), len(dims)
    h = draw(st.floats(0.1, 2.0))
    gaps = draw(st.lists(st.floats(1.0, 3.0), min_size=p - 1, max_size=p - 1))
    lambdas = draw(st.floats(-3.0, 3.0)) - \
        (d - 1) * h * np.concatenate([[0.0], np.cumsum(gaps)])
    params = lm.FlagMetricParams(tuple(lambdas), h, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = [lm.random_flag(dims, rng)]
    near = draw(st.booleans())
    for _ in range(2):
        if near:
            eps = 10.0 ** draw(st.floats(-15.0, -1.0))
            turn = eps * rng.standard_normal((d, d))
            R = lm.spectrum._qr_pos(np.eye(d) + turn)[0]
            flags.append(lm.Flag([R @ b for b in flags[-1].blocks]))
        else:
            flags.append(lm.random_flag(dims, rng))
    return params, flags


@settings(max_examples=200, deadline=None)
@given(_metric_triples())
def test_flag_distance_axioms_on_random_and_near_triples(case):
    params, flags = case
    # d(F, F) is 0 up to rounding: each ||U_i^T U_j|| is a few eps, raised
    # to h / |lambda_i - lambda_j| >= h / (lambda_1 - lambda_p)
    spread = max(params.lambdas) - min(params.lambdas)
    floor = (16.0 * np.finfo(float).eps) ** (params.h / spread)
    dist = {(i, j): lm.flag_distance(flags[i], flags[j], params)
            for i in range(3) for j in range(3)}
    for (i, j), v in dist.items():
        assert v >= 0.0
        assert v == pytest.approx(dist[j, i], abs=1e-14)
        if i == j:
            assert v <= floor
    for i, j, k in itertools.permutations(range(3)):
        assert dist[i, k] <= dist[i, j] + dist[j, k] + 1e-14


def test_flag_convergence_exact_log_domain():
    ev = exact_ev(ATOM, 60.0, 47)
    gt = lm.ground_truth_2d(ATOM, 0.5)
    params = lm.FlagMetricParams((gt.lambda1, gt.lambda2), gt.gap, 2)
    frame = np.array([[math.cos(0.7), -math.sin(0.7)],
                      [math.sin(0.7), math.cos(0.7)]])
    conv = lm.flag_convergence_rate(ev, [(gt.lambda1, 1), (gt.lambda2, 1)],
                                    params, np.linspace(10.0, 60.0, 11),
                                    frame=frame)
    assert conv.slope is not None
    assert conv.slope <= -gt.gap + 0.5
    # resolvable far below the float frame-alignment floor
    assert conv.log_distances[-1] < -200.0


def test_flag_convergence_identity_frame_vacuous():
    ev = exact_ev(ATOM, 30.0, 48)
    gt = lm.ground_truth_2d(ATOM, 0.5)
    params = lm.FlagMetricParams((gt.lambda1, gt.lambda2), gt.gap, 2)
    conv = lm.flag_convergence_rate(ev, [(gt.lambda1, 1), (gt.lambda2, 1)],
                                    params, [10.0, 20.0, 30.0])
    assert conv.slope is None and not conv.included.all()


def test_flag_convergence_needs_two_points():
    ev = exact_ev(ATOM, 30.0, 49)
    gt = lm.ground_truth_2d(ATOM, 0.5)
    params = lm.FlagMetricParams((gt.lambda1, gt.lambda2), gt.gap, 2)
    with pytest.raises(ConfigurationError):
        lm.flag_convergence_rate(ev, [(gt.lambda1, 1), (gt.lambda2, 1)], params,
                                 [10.0])


def test_flag_convergence_generic_path():
    # euler backend on the deterministic system over a short window where the
    # float floor is not yet reached
    drivers = lm.benchmark_drivers(EMPTY, 0.5)
    paths = [lm.sample_two_sided(drivers[i], 5.0, 0.5, 50, driver=i)
             for i in range(2)]
    system = lm.benchmark_system_2d()
    ev = lm.EulerEvaluator(system, paths, 0.01, scheme="expm")
    params = lm.FlagMetricParams((2.0, -4.0), 6.0, 2)
    frame = np.array([[math.cos(0.7), -math.sin(0.7)],
                      [math.sin(0.7), math.cos(0.7)]])
    conv = lm.flag_convergence_rate(ev, [(2.0, 1), (-4.0, 1)], params,
                                    [1.0, 2.0, 3.0, 4.0], frame=frame)
    assert conv.slope == pytest.approx(-6.0, abs=0.3)


# -- backward spectrum and Oseledets ---------------------------------------------------


def test_backward_spectrum_deterministic():
    ev = exact_ev(EMPTY, 40.0, 51)
    best = lm.backward_spectrum(ev, 40.0, 1.0)
    np.testing.assert_allclose(best.raw, [4.0, -2.0], atol=1e-10)
    est = lm.spectrum_qr(ev, 40.0, 1.0)
    assert best.multiplicities == tuple(reversed(est.multiplicities))
    assert best.lambdas[0] == pytest.approx(-est.lambdas[-1])


def test_backward_pairing_ensemble():
    sums = []
    for s in range(16):
        ev = exact_ev(ATOM, 60.0, 6000 + s)
        est = lm.spectrum_qr(ev, 60.0, 1.0)
        best = lm.backward_spectrum(ev, 60.0, 1.0)
        sums.append(best.lambdas[0] + est.lambdas[1])
        sums.append(best.lambdas[1] + est.lambdas[0])
    se = np.std(sums, ddof=1) / math.sqrt(len(sums))
    assert abs(np.mean(sums)) < 4.0 * se + 1e-3


def test_step5_singular_value_reciprocity():
    # singular-value ratios grow like e^(6t): stay below the rank tolerance
    ev = exact_ev(ATOM, 10.0, 52)
    for t in (1.5, 3.0):
        fwd = lm.singular_values(ev.matrix(t))
        bwd = lm.singular_values(ev.shifted(t).matrix(-t))
        np.testing.assert_allclose(fwd, 1.0 / bwd[::-1], rtol=1e-10)


def test_oseledets_benchmark_axes():
    ev = exact_ev(ATOM, 60.0, 53)
    est = lm.spectrum_qr(ev, 60.0, 1.0)
    best = lm.backward_spectrum(ev, 60.0, 1.0)
    F = lm.flag_at(ev, 60.0, est)
    Fb = lm.flag_at(ev, -60.0, best)
    split = lm.oseledets_spaces(F, Fb)
    angles = split.angles_to([np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])])
    assert max(angles) < 1e-8
    smin = np.linalg.svd(split.stacked(), compute_uv=False)[-1]
    assert smin > 1e-8


def test_oseledets_coordinate_flags():
    F = lm.coordinate_flag((1, 1, 1))
    eye = np.eye(3)
    Fb = lm.Flag((eye[:, 2:], eye[:, 1:2], eye[:, :1]))  # reversed order
    split = lm.oseledets_spaces(F, Fb)
    for i in range(3):
        assert float(np.max(lm.principal_angles(split.subspaces[i],
                                                eye[:, i:i + 1]))) < 1e-12


def test_oseledets_rotated():
    Q = haar(3, 11)
    F = lm.Flag((Q[:, :1], Q[:, 1:2], Q[:, 2:]))
    Fb = lm.Flag((Q[:, 2:], Q[:, 1:2], Q[:, :1]))
    split = lm.oseledets_spaces(F, Fb)
    for i in range(3):
        assert float(np.max(lm.principal_angles(split.subspaces[i],
                                                Q[:, i:i + 1]))) < 1e-6


def test_oseledets_resolution_error():
    # un-reversed backward flag makes V_2 and V^-_2 coincide: E_2 too big
    F = lm.coordinate_flag((1, 1, 1))
    with pytest.raises(ResolutionError):
        lm.oseledets_spaces(F, F)


@pytest.mark.parametrize("angle, tol, dim", [
    (0.01, 1e-3, 0),  # 1 - cos(0.01) = 5e-5 is below 1e-3, the angle is not
    (5e-4, 1e-3, 1),
    (1e-10, 1e-9, 1),  # below the arccos floor of the cosine
    (3e-9, 1e-9, 0),
])
def test_intersect_compares_principal_angles(angle, tol, dim):
    e1 = np.array([[1.0], [0.0]])
    v = np.array([[math.cos(angle)], [math.sin(angle)]])
    (basis,) = lm.spectrum._intersections(e1[None], v[None], tol)
    assert basis.shape == (2, dim)
    if dim:
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-15


def test_intersect_keeps_only_the_close_directions():
    # span(e1, e2) and span(e1 rotated by 5e-4 towards e3, e2 rotated by
    # 0.01 towards e3) share the direction near e1 at tolerance 1e-3
    e = np.eye(3)
    B = np.hstack([math.cos(5e-4) * e[:, :1] + math.sin(5e-4) * e[:, 2:],
                   math.cos(0.01) * e[:, 1:2] + math.sin(0.01) * e[:, 2:]])
    (basis,) = lm.spectrum._intersections(e[None, :, :2], B[None], 1e-3)
    assert basis.shape == (3, 1)
    assert lm.principal_angles(basis, e[:, :1])[0] < 1e-12


def test_oseledets_type_mismatch():
    F = lm.coordinate_flag((1, 2))
    G = lm.coordinate_flag((1, 2))
    with pytest.raises(StructuralError):
        lm.oseledets_spaces(F, G)  # multiplicities must be reversed


# -- vector exponents ---------------------------------------------------------------------


def test_vector_exponent_eigendirections():
    gt = lm.ground_truth_2d(ATOM, 0.5)
    v1, v2, vg = [], [], []
    for s in range(12):
        ev = exact_ev(ATOM, 60.0, 7000 + s)
        v1.append(lm.vector_exponent(ev, [1.0, 0.0], 60.0))
        v2.append(lm.vector_exponent(ev, [0.0, 1.0], 60.0))
        vg.append(lm.vector_exponent(ev, [0.3, 0.7], 60.0))
    for vals, target in ((v1, gt.lambda1), (v2, gt.lambda2), (vg, gt.lambda1)):
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - target) < 4.0 * se + 5e-2
    with pytest.raises(ConfigurationError):
        lm.vector_exponent(exact_ev(ATOM, 20.0, 1), [0.0, 0.0], 20.0)


# -- lockstep frame push over batches of paths ----------------------------------------


def _exact_stack(seed, T=60.0):
    return exact_ev(ATOM, T, seed).propagators(lm.cocycle._windows(0.0, T, 1.0))


def _push_cases():
    rng = np.random.default_rng(11)
    rotation = np.array([[math.cos(0.7), -math.sin(0.7)],
                         [math.sin(0.7), math.cos(0.7)]])
    exact = np.stack([_exact_stack(8000 + s) for s in range(5)])
    return {
        "exact_identity": (exact, np.eye(2)),
        "exact_rotated": (exact, rotation),
        "exact_vector": (exact, np.array([[0.6], [0.8]])),
        "random_3x3": (rng.standard_normal((7, 40, 3, 3)), haar(3, 12)),
    }


@pytest.mark.parametrize("case", ["exact_identity", "exact_rotated",
                                  "exact_vector", "random_3x3"])
def test_push_batch_bitwise_equals_per_path(case):
    props, frame = _push_cases()[case]
    singles = [lm.spectrum._push(frame, p) for p in props]
    for batch in (props[:1], props):
        frames = np.broadcast_to(frame, (len(batch),) + frame.shape)
        Q, logs, degenerated = lm.spectrum._push(frames, batch)
        assert not np.any(degenerated)
        for k in range(len(batch)):
            assert np.array_equal(Q[k], singles[k][0])
            assert np.array_equal(logs[k], singles[k][1])


class _Tampered:
    """An evaluator whose window stack has one window replaced."""

    def __init__(self, ev, window):
        self.ev, self.window, self.d = ev, window, ev.d

    def propagators(self, edges):
        props = self.ev.propagators(edges).copy()
        props[5] = self.window
        return props


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _job(ev, T):
    """The QR job (stack, T) of ``ev`` over [0, T]."""
    return lm.spectrum._qr_stack(ev, T, 1.0), T


def _batch(estimate, evs, T):
    """The batch of ``evs``' window stacks in ``estimate``'s time
    direction, one call of the QR entry."""
    sign = 1.0 if estimate is lm.spectrum_qr else -1.0
    return lm.spectrum._qr_estimate([_job(ev, sign * T) for ev in evs], 1.0)


@pytest.mark.parametrize("estimate", [lm.spectrum_qr, lm.backward_spectrum])
@pytest.mark.parametrize("window", [
    np.zeros((2, 2)),                      # singular window
    np.diag([1e300, 1e-300]),              # R diagonal below the floor
    np.full((2, 2), np.inf),               # overflowed window
])
def test_degenerate_path_leaves_batch_unchanged(estimate, window):
    evs = [exact_ev(ATOM, 60.0, 8100 + s) for s in range(4)]
    evs[2] = _Tampered(evs[2], window)
    batch = _batch(estimate, evs, 60.0)
    assert len(batch) == len(evs)
    for ev, got in zip(evs, batch):
        try:
            alone = estimate(ev, 60.0, 1.0)
        except lm.LevyMetError as exc:
            assert isinstance(got, type(exc))
            assert _error_text(got) == _error_text(exc)
            continue
        assert np.array_equal(got.raw, alone.raw)
        assert got.logdet_over_T == alone.logdet_over_T
        assert (got.lambdas, got.multiplicities, got.gap) == \
            (alone.lambdas, alone.multiplicities, alone.gap)
    assert [isinstance(e, lm.LevyMetError) for e in batch] == \
        [False, False, True, False]
    with pytest.raises(lm.LevyMetError) as info:
        estimate(evs[2], 60.0, 1.0)
    assert type(info.value) is type(batch[2])
    assert str(info.value) in ("window propagator is singular",
                               "frame degenerated; shorten renorm_step")


# -- flags and Oseledets spaces from the transposed push ------------------------------


class _LinearFlow:
    """Deterministic cocycle phi(t) = expm(A t)."""

    def __init__(self, A):
        self.A, self.d = np.asarray(A, float), len(A)

    def propagators(self, edges):
        return expm(np.diff(edges)[:, None, None] * self.A)


def _conjugated_flow(P, rates):
    return _LinearFlow(P @ np.diag(rates) @ np.linalg.inv(P))


def _sine(A, B):
    """Largest sine of the principal angles between span(A) and span(B),
    of equal dimension; unlike arccos of the cosines it resolves angles
    down to rounding."""
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    return float(np.linalg.norm(qa - qb @ (qb.T @ qa), 2))


def _flag_errors(P, F, Fb):
    """Worst sine between the forward flag's V_i and span(P e_i..e_d), the
    backward flag's V^-_i and span(P e_1..e_{d+1-i}), and each Oseledets
    space E_i and span(P e_i); for distinct rates all are exact."""
    d = P.shape[0]
    split = lm.oseledets_spaces(F, Fb)
    errs = [_sine(F.nested_basis(i + 1), P[:, i:]) for i in range(d)]
    errs += [_sine(Fb.nested_basis(i + 1), P[:, :d - i]) for i in range(d)]
    errs += [_sine(E, P[:, i:i + 1]) for i, E in enumerate(split.subspaces)]
    return max(errs)


P_3D = np.eye(3) + 0.5 * np.random.default_rng(0).standard_normal((3, 3))


def test_flags_and_oseledets_3d_long_horizon():
    # (lambda_2 - lambda_3) T = 600: an SVD of phi(T) cannot resolve V_3
    ev = _conjugated_flow(P_3D, [2.0, -1.0, -4.0])
    T = 200.0
    est, best = lm.spectrum_qr(ev, T, 1.0), lm.backward_spectrum(ev, T, 1.0)
    assert est.multiplicities == (1, 1, 1)
    F, Fb = lm.flag_at(ev, T, est), lm.flag_at(ev, -T, best)
    assert _flag_errors(P_3D, F, Fb) < 1e-8
    assert max(lm.oseledets_spaces(F, Fb).angles_to(
        [P_3D[:, i:i + 1] for i in range(3)])) < 1e-7


def test_flag_convergence_floor_follows_the_metric():
    # the selftest's expm flow of P diag(2, -1, -4) P^-1 with h = 1.5: the
    # distances fall at rate h until t = 5, then sit at the frame's ~1e-13
    # alignment raised to h/spread = 1/4, about e^-7.5, which a fixed 1e-13
    # floor would let into the fit (all 30 points, slope -0.13)
    tri = lm.scalar_triplet(drift=1.0)
    flow = lm.EulerEvaluator(lm.LinearSystem(
        P_3D @ np.diag([2.0, -1.0, -4.0]) @ np.linalg.inv(P_3D),
        (np.zeros((3, 3)),)),
        [lm.sample_two_sided(tri, 40.0, 1.0, 5)], 1.0, "expm")
    c, s = math.cos(0.7), math.sin(0.7)
    frame = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    params = lm.FlagMetricParams((2.0, -1.0, -4.0), 1.5, 3)
    conv = lm.flag_convergence_rate(flow, [(2.0, 1), (-1.0, 1), (-4.0, 1)],
                                    params, np.arange(1.0, 31.0), frame=frame)
    assert not conv.included.all()
    assert int(np.sum(conv.included)) == 4
    assert conv.slope == pytest.approx(-1.5, abs=0.05)


def test_oseledets_angles_resolve_below_arccos_floor():
    # V_3 and the Oseledets spaces sit ~5e-14 rad off span(P e_i) at
    # T = 10; arccos of the cosines reads V_3 as 1.49e-8
    ev = _conjugated_flow(P_3D, [2.0, -1.0, -4.0])
    est, best = lm.spectrum_qr(ev, 10.0, 1.0), lm.backward_spectrum(ev, 10.0, 1.0)
    F, Fb = lm.flag_at(ev, 10.0, est), lm.flag_at(ev, -10.0, best)
    assert lm.principal_angles(F.nested_basis(3), P_3D[:, 2:])[0] < 1e-12
    assert max(lm.oseledets_spaces(F, Fb).angles_to(
        [P_3D[:, i:i + 1] for i in range(3)])) < 1e-12


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       top=st.floats(-3.0, 3.0), gaps=st.lists(st.floats(1.0, 3.0),
                                                min_size=3, max_size=3))
def test_flags_and_oseledets_of_conjugated_flows(d, seed, top, gaps):
    # P = U diag(s) V with s in [0.5, 2]: cond(P) <= 4; gaps >= 1 over
    # T = 40 put the finite-horizon error near cond(P)^2 e^-40
    rng = np.random.default_rng(seed)
    P = haar(d, rng.integers(2**31)) * rng.uniform(0.5, 2.0, d) \
        @ haar(d, rng.integers(2**31))
    rates = top - np.concatenate([[0.0], np.cumsum(gaps[:d - 1])])
    ev = _conjugated_flow(P, rates)
    est, best = lm.spectrum_qr(ev, 40.0, 1.0), lm.backward_spectrum(ev, 40.0, 1.0)
    assert est.multiplicities == (1,) * d
    assert _flag_errors(P, est.flag, best.flag) < 1e-8


def conjugated_benchmark_3d(seed, T):
    """Two compensated atom drivers acting on the coordinates of P:
    a = P diag(2, -1, -4) P^-1, sigma_1 = P diag(1, 0, 1/2) P^-1,
    sigma_2 = P diag(0, 1, -1/2) P^-1.  Every factor of the cocycle is
    P (diagonal) P^-1, so its Oseledets spaces are span(P e_i) on every
    path."""
    Pi = np.linalg.inv(P_CONJ_3D)
    drivers = lm.benchmark_drivers(ATOM, 0.5)
    system = lm.LinearSystem(
        P_CONJ_3D @ np.diag([2.0, -1.0, -4.0]) @ Pi,
        (P_CONJ_3D @ np.diag([1.0, 0.0, 0.5]) @ Pi,
         P_CONJ_3D @ np.diag([0.0, 1.0, -0.5]) @ Pi))
    paths = [lm.sample_two_sided(drivers[i], T, 0.5, seed, driver=i)
             for i in range(2)]
    return lm.EulerEvaluator(system, paths, EULER_DT_3D, scheme="expm")


P_CONJ_3D = np.array([[1.0, 0.4, -0.2], [-0.3, 1.2, 0.5], [0.1, -0.6, 0.9]])
EULER_DT_3D = 0.05


@pytest.mark.parametrize("seed", [900, 901])
def test_oseledets_conjugated_euler_benchmark_3d(seed):
    # Tolerance.  In P coordinates each computed factor (expm step or jump
    # I + u sigma_i) is diagonal up to a rounding error of a few
    # u cond(P), u = 2^-53.  An error that mixes mode j into a faster mode
    # i is damped by e^{-g h} per step of length h, g the smallest rate
    # gap (the drift gaps are 3; jumps of 0.2 move them by under 0.4, so
    # g >= 2), so the accumulated error stays below its per-step size
    # over 1 - e^{-g h}.  Mapping back to the standard basis costs another
    # cond(P); the finite-horizon term, about cond(P)^2 e^{-g T}, is far
    # below that at T = 50.  Factor 100 covers the few roundings per
    # factor.  Measured: below 1e-15, against a tolerance of 5.5e-13.
    T = 50.0
    ev = conjugated_benchmark_3d(seed, T)
    est, best = lm.spectrum_qr(ev, T, 1.0), lm.backward_spectrum(ev, T, 1.0)
    assert est.multiplicities == (1, 1, 1)
    cond = np.linalg.cond(P_CONJ_3D)
    tol = (100.0 * np.finfo(float).eps * cond**2
           / (1.0 - math.exp(-2.0 * EULER_DT_3D)))
    assert _flag_errors(P_CONJ_3D, est.flag, best.flag) < tol


def _assert_same_flag(F, G):
    assert F.dims == G.dims
    for a, b in zip(F.blocks, G.blocks):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_exact_flags_are_positive_zero_axes():
    ev = exact_ev(ATOM, 60.0, 8300)
    e1, e2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    for estimate, t, want in ((lm.spectrum_qr, 60.0, (e1, e2)),
                              (lm.backward_spectrum, -60.0, (e2, e1))):
        est = estimate(ev, 60.0, 1.0)
        for F in (est.flag, lm.flag_at(ev, t, est)):
            _assert_same_flag(F, lm.Flag(want))
            assert not any(np.any(np.signbit(b)) for b in F.blocks)


@pytest.mark.parametrize("estimate,sign", [(lm.spectrum_qr, 1.0),
                                           (lm.backward_spectrum, -1.0)])
def test_batch_flags_bitwise_equal_flag_at(estimate, sign):
    evs = [exact_ev(ATOM, 60.0, 8400 + s) for s in range(3)]
    evs += [_conjugated_flow(haar(2, 20 + s), [1.5, -2.0]) for s in range(2)]
    for est, ev in zip(_batch(estimate, evs, 60.0), evs):
        _assert_same_flag(est.flag, lm.flag_at(ev, sign * 60.0, est))
        _assert_same_flag(est.flag, estimate(ev, 60.0, 1.0).flag)


@pytest.mark.parametrize("estimate", [lm.spectrum_qr, lm.backward_spectrum])
def test_degenerate_flag_half_leaves_batch_unchanged(estimate):
    # a shear window keeps the forward frame at +-I but degenerates the
    # transposed push: row norm 1e290, so R_22 = 1e-290 there
    shear = np.array([[1.0, 1e290], [0.0, 1.0]])
    evs = [exact_ev(ATOM, 60.0, 8500 + s) for s in range(4)]
    evs[1] = _Tampered(evs[1], shear)
    props = evs[1].propagators(lm.cocycle._windows(0.0, 60.0, 1.0))
    assert not lm.spectrum._push(np.eye(2), props)[2]
    assert lm.spectrum._push(np.eye(2), lm.spectrum._transposed(props))[2]
    batch = _batch(estimate, evs, 60.0)
    assert [isinstance(e, lm.LevyMetError) for e in batch] == \
        [False, True, False, False]
    assert _error_text(batch[1]) == \
        "InstabilityError: frame degenerated; shorten renorm_step"
    with pytest.raises(lm.InstabilityError):
        lm.flag_at(evs[1], 60.0, [(2.0, 1), (-4.0, 1)])
    for ev, got in zip(evs, batch):
        if isinstance(got, lm.LevyMetError):
            with pytest.raises(type(got)):
                estimate(ev, 60.0, 1.0)
            continue
        alone = estimate(ev, 60.0, 1.0)
        assert np.array_equal(got.raw, alone.raw)
        assert got.logdet_over_T == alone.logdet_over_T
        _assert_same_flag(got.flag, alone.flag)


def test_qr_entry_mixes_time_directions():
    # forward and backward jobs share one push; each is bitwise its own call
    evs = [exact_ev(ATOM, 60.0, 8600 + s) for s in range(2)]
    evs.append(_conjugated_flow(haar(2, 30), [1.5, -2.0]))
    jobs = [(ev, T) for T in (60.0, -60.0) for ev in evs]
    batch = lm.spectrum._qr_estimate([_job(ev, T) for ev, T in jobs], 1.0)
    for (ev, T), got in zip(jobs, batch):
        alone = (lm.spectrum_qr if T > 0 else lm.backward_spectrum)(ev, 60.0)
        assert got.horizon == alone.horizon == T
        assert np.array_equal(got.raw, alone.raw)
        assert got.logdet_over_T == alone.logdet_over_T
        _assert_same_flag(got.flag, alone.flag)
    with pytest.raises(ConfigurationError, match="one horizon length"):
        lm.spectrum._qr_estimate([_job(evs[0], 60.0), _job(evs[0], -50.0)],
                                 1.0)
