import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import levymet as lm
from levymet.cocycle import _check_finite, _jump_events
from levymet.errors import (
    ConfigurationError,
    DegeneracyError,
    DivergenceError,
    HorizonError,
    LevyMetError,
    SingularityError,
    StructuralError,
)

ATOM = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
EMPTY = lm.LevyMeasure.empty()


def benchmark_paths(measure, T, seed, dt=0.1):
    drivers = lm.benchmark_drivers(measure, 0.5)
    return [lm.sample_two_sided(drivers[i], T, dt, seed, driver=i) for i in range(2)]


def exact_ev(measure, T, seed, dt=0.1):
    return lm.ExactDiagonal2D(benchmark_paths(measure, T, seed, dt))


def doleans_ev(measure, T, seed):
    """The Doléans exponential of 2t + L^1, L^1 driver 0 of
    ``benchmark_paths``: the same substream, with the drift in its law."""
    triplet = lm.scalar_triplet(drift=2.0, measure=measure, delta=0.5)
    return lm.StochasticExponential1D(lm.sample_two_sided(triplet, T, 0.1,
                                                          seed, driver=0))


# -- exact diagonal backend ------------------------------------------------------


def test_exact_identity_at_zero():
    ev = exact_ev(ATOM, 3.0, 1)
    np.testing.assert_array_equal(ev.matrix(0.0), np.eye(2))


def test_exact_drift_only():
    ev = exact_ev(EMPTY, 3.0, 2)
    np.testing.assert_allclose(np.diag(ev.matrix(1.0)),
                               [math.exp(2.0), math.exp(-4.0)], rtol=1e-14)


def test_exact_hand_composed_product():
    # rebuild M^i from the formula term by term on the sampled jumps
    ev = exact_ev(ATOM, 3.0, 7)
    i_nu = lm.log_compensator_integral(ATOM, 0.5)
    k_nu = ATOM.log_moment(0.0, 0.5)
    for t in (0.4, 1.7, 2.9):
        hand = np.empty(2)
        for i, c in enumerate((2.0, -4.0)):
            _, sizes = ev.driver_paths[i].jumps_in(0.0, t)
            hand[i] = math.exp((c + i_nu - k_nu) * t
                               + float(np.sum(np.log1p(sizes))))
        np.testing.assert_allclose(np.diag(ev.matrix(t)), hand, rtol=1e-12)


def test_exact_negative_time_uses_backward_leg():
    ev = exact_ev(ATOM, 3.0, 8)
    i_nu = lm.log_compensator_integral(ATOM, 0.5)
    k_nu = ATOM.log_moment(0.0, 0.5)
    t = -1.9
    hand = np.empty(2)
    for i, c in enumerate((2.0, -4.0)):
        _, sizes = ev.driver_paths[i].jumps_in(t, 0.0)
        hand[i] = math.exp((c + i_nu - k_nu) * t
                           - float(np.sum(np.log1p(sizes))))
    np.testing.assert_allclose(np.diag(ev.matrix(t)), hand, rtol=1e-12)


def test_exact_singular_jump_rejected():
    paths = benchmark_paths(ATOM, 2.0, 3)
    p = paths[0].forward
    bad = lm.JumpPath(p.node_times, p.cont, np.array([0.7]),
                      np.array([-1.0]), p.triplet)
    two = lm.TwoSidedPath(bad, paths[0].backward)
    with pytest.raises(SingularityError):
        lm.ExactDiagonal2D([two, paths[1]])


def _relabelled(path, triplet):
    """The two-sided path with its forward leg labelled ``triplet``."""
    p = path.forward
    return lm.TwoSidedPath(lm.JumpPath(p.node_times, p.cont, p.jump_times,
                                       p.jump_sizes, triplet), path.backward)


def test_exact_reads_one_shared_law_from_its_paths():
    # a driver without a triplet, or two different laws, is refused; an
    # equal triplet built apart is the same law and gives the same bits
    paths = benchmark_paths(ATOM, 2.0, 3)
    for pair in ([_relabelled(paths[0], None), paths[1]],
                 [paths[0], _relabelled(paths[1], None)],
                 [_relabelled(paths[0], lm.scalar_triplet(measure=ATOM,
                                                          delta=0.6)),
                  paths[1]]):
        with pytest.raises(StructuralError, match="one law"):
            lm.ExactDiagonal2D(pair)
    twin = _relabelled(paths[0], lm.scalar_triplet(measure=ATOM, delta=0.5))
    assert (lm.ExactDiagonal2D([twin, paths[1]]).matrix(1.5).tobytes()
            == lm.ExactDiagonal2D(paths).matrix(1.5).tobytes())


@pytest.mark.parametrize("part, law", [("drift", {"drift": 1.0}),
                                       ("Gaussian part", {"gauss": 1.0})])
def test_exact_refuses_a_part_of_the_law_it_leaves_out(part, law):
    # the closed form has no drift or Gaussian term: with drift 1 it read
    # log phi_11(2) = 3.894 where Euler reads 5.893
    tri = lm.scalar_triplet(measure=ATOM, **law)
    paths = [lm.sample_two_sided(tri, 2.0, 0.1, 5, driver=i) for i in range(2)]
    with pytest.raises(ConfigurationError, match=part):
        lm.ExactDiagonal2D(paths)


def test_exact_backward_forward_inverse_relation():
    # phi(t, omega)^(-1) = phi(-t, theta_t omega)
    ev = exact_ev(ATOM, 3.0, 9)
    for t in (0.6, 1.4, 2.7):
        lhs = ev.inverse(t)
        rhs = ev.shifted(t).matrix(-t)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_exact_inverse_consistency():
    ev = exact_ev(ATOM, 3.0, 10)
    for t in (-2.0, 1.3):
        assert np.max(np.abs(ev.matrix(t) @ ev.inverse(t) - np.eye(2))) < 1e-12


def test_exact_log_growth_scaled_form():
    ev = exact_ev(ATOM, 300.0, 11, dt=1.0)
    with pytest.raises(lm.InstabilityError):
        ev.matrix(300.0)


# -- stochastic exponential -------------------------------------------------------


def test_doleans_unit_at_zero():
    tri = lm.scalar_triplet(measure=ATOM, delta=0.5)
    dd = lm.StochasticExponential1D(lm.sample_two_sided(tri, 1.0, 0.5, 4))
    assert dd.value(0.0) == 1.0


def test_doleans_brownian_exponential_martingale():
    tri = lm.scalar_triplet(gauss=1.0)
    p = lm.sample_forward(tri, lm.TimeGrid(0.0, 1.0, 0.01), 5)
    dd = lm.StochasticExponential1D(p)
    w1 = p.evaluate(1.0)
    assert dd.value(1.0) == pytest.approx(math.exp(w1 - 0.5), rel=1e-14)


def test_doleans_single_jump_hand_formula():
    # one jump of 0.5 at s = 0.3, no continuous part:
    # Y_1 = exp(Gamma_1) * (1.5) * exp(-0.5) = 1.5
    nodes = np.array([0.0, 0.3, 0.5, 1.0])
    p = lm.JumpPath(nodes, np.zeros(4), np.array([0.3]),
                    np.array([0.5]))
    dd = lm.StochasticExponential1D(p)
    assert dd.value(1.0) == pytest.approx(1.5, rel=1e-14)
    assert dd.value(0.2) == pytest.approx(1.0, rel=1e-14)


def test_doleans_degenerate_jump():
    nodes = np.array([0.0, 0.5, 1.0])
    p = lm.JumpPath(nodes, np.zeros(3), np.array([0.5]),
                    np.array([-1.0]))
    dd = lm.StochasticExponential1D(p)
    with pytest.raises(DegeneracyError):
        dd.value(1.0)


@pytest.mark.parametrize("sizes, message", [
    ([0.3, -1.0, -2.0], "exactly -1"),  # -1 is named before a jump below it
    ([-1.5, 0.3], "jump below -1"),
    ([0.3, -0.5], None),
])
def test_doleans_jump_guard_and_log_value(sizes, message):
    nodes = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    jt = np.array([0.25, 0.5, 0.75][:len(sizes)])
    p = lm.JumpPath(nodes, 0.1 * nodes, jt, np.array(sizes))
    dd = lm.StochasticExponential1D(p)
    assert dd.log_value(0.1) == float(p.evaluate(0.1))  # no jump yet
    if message is not None:
        with pytest.raises(DegeneracyError, match=message):
            dd.log_value(1.0)
        return
    s = np.array(sizes)
    assert dd.log_value(1.0) == (float(p.evaluate(1.0))
                                 + float(np.sum(np.log1p(s) - s)))


def test_doleans_matches_exact_coordinate():
    ev = exact_ev(ATOM, 3.0, 12)
    dd = doleans_ev(ATOM, 3.0, 12)
    for t in (0.3, 1.1, 2.9):
        assert dd.log_value(t) == pytest.approx(ev.log_growth(t)[0], abs=1e-12)


# -- window-propagator stream ---------------------------------------------------


def _stream_backend(kind):
    paths = benchmark_paths(ATOM, 3.0, 21)
    if kind == "exact":
        return lm.ExactDiagonal2D(paths)
    if kind == "doleans":
        return doleans_ev(ATOM, 3.0, 21)
    system = lm.benchmark_system_2d()
    return lm.EulerEvaluator(system, paths, 0.05, scheme=kind)


@pytest.mark.parametrize("kind, edges", [
    ("exact", [0.0, 0.3, 0.3, 1.1, 2.5, 3.0]),
    ("exact", [0.4, -0.7, -2.2, -3.0]),
    ("euler", [0.0, 0.3, 0.3, 1.1, 2.5]),
    ("euler", [0.4, -0.7, -2.2]),
    ("expm", [0.0, 0.3, 0.3, 1.1, 2.5]),
    ("expm", [0.4, -0.7, -2.2]),
    ("doleans", [0.0, 0.3, 0.3, 1.1, 2.5, 3.0]),
])
def test_propagators_stack_per_window_propagate(kind, edges):
    ev = _stream_backend(kind)
    stack = ev.propagators(edges)
    per_window = [ev.propagate(a, b) for a, b in zip(edges[:-1], edges[1:])]
    assert per_window[0].shape == (ev.d, ev.d)
    assert stack.shape == (len(edges) - 1, ev.d, ev.d)
    np.testing.assert_array_equal(stack, np.array(per_window))
    # non-consecutive windows, some across 0, in a (2, n) array of ends
    e = np.array(edges)
    t0, t1 = np.array([e, e[::-1]]), np.array([e[::-1], np.roll(e, 1)])
    pairs = ev.propagate(t0, t1)
    assert pairs.shape == t0.shape + (ev.d, ev.d)
    np.testing.assert_array_equal(
        pairs, [[ev.propagate(a, b) for a, b in zip(r0, r1)]
                for r0, r1 in zip(t0, t1)])
    np.testing.assert_array_equal(ev.matrix(e), [ev.matrix(t) for t in e])
    np.testing.assert_array_equal(ev.inverse(e), [ev.inverse(t) for t in e])
    # a time outside the horizon after a good one
    bad = np.array([e[1], 99.0, e[0]])
    assert _raised(ev.matrix, bad) == _raised(
        lambda ts: [ev.matrix(t) for t in ts], bad)


def _raised(call, *args):
    with pytest.raises(LevyMetError) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("seed", [21, 22])
def test_exact_log_growth_rows_match_scalar_calls(seed):
    ev = exact_ev(ATOM, 3.0, seed)
    jumps = ev.driver_paths[0].jumps_in(-3.0, 3.0)[0]
    times = np.concatenate([[-3.0, -0.3, 0.0, 0.7, 1.9, 3.0], jumps])
    rows = ev.log_growth(times)
    assert rows.shape == (times.size, 2)
    for t, row in zip(times, rows):
        np.testing.assert_array_equal(row, ev.log_growth(float(t)))


@pytest.mark.parametrize("bad", [-3.5, 3.5])
def test_exact_log_growth_array_outside_horizon(bad):
    ev = exact_ev(ATOM, 3.0, 23)
    with pytest.raises(HorizonError, match=f"t={bad} outside horizon"):
        ev.log_growth(np.array([0.0, 1.0, bad, 2.0]))


# -- Euler backend -----------------------------------------------------------------


def test_euler_identity_window():
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(ATOM, 2.0, 13)
    ev = lm.EulerEvaluator(system, paths, 0.01)
    np.testing.assert_array_equal(ev.propagate(0.7, 0.7), np.eye(2))


def test_euler_deterministic_first_order():
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(EMPTY, 2.0, 14)
    target = np.diag([math.exp(2.0), math.exp(-4.0)])
    errs = []
    for k in range(4):
        ev = lm.EulerEvaluator(system, paths, 0.02 / 2**k)
        errs.append(np.linalg.norm(ev.matrix(1.0) - target))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.7 < r < 2.3 for r in ratios)


def test_euler_matches_exact_under_refinement():
    paths = benchmark_paths(ATOM, 2.0, 15)
    system = lm.benchmark_system_2d()
    exact = lm.ExactDiagonal2D(paths).matrix(1.5)
    errs = []
    for k in range(4):
        ev = lm.EulerEvaluator(system, paths, 0.02 / 2**k)
        errs.append(np.linalg.norm(ev.matrix(1.5) - exact))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.6 < r < 2.4 for r in ratios)
    # the matrix-exponential variant is exact between the (diagonal) jumps
    ev_expm = lm.EulerEvaluator(system, paths, 0.5, scheme="expm")
    assert np.linalg.norm(ev_expm.matrix(1.5) - exact) < 1e-12 * np.linalg.norm(exact)


def test_euler_singular_jump_guard():
    measure = lm.LevyMeasure.from_atoms([(0.7, 2.0)])
    drivers = (lm.scalar_triplet(measure=measure, delta=0.5),)
    system = lm.LinearSystem(np.zeros((1, 1)), (np.array([[-1.0 / 0.7]]),))
    path = lm.sample_two_sided(drivers[0], 4.0, 0.5, 17)
    assert path.forward.jump_times.size > 0  # rate 2 on [0,4]
    ev = lm.EulerEvaluator(system, [path], 0.1)
    with pytest.raises(SingularityError):
        ev.matrix(4.0)


def test_euler_horizon_error():
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(ATOM, 2.0, 18)
    ev = lm.EulerEvaluator(system, paths, 0.01)
    with pytest.raises(HorizonError):
        ev.matrix(3.0)


# -- stacked Euler against the per-step loop ------------------------------------


def _euler_loop(ev, t0, t1):
    """Reference: the window propagator stepped node by node in Python, as
    the Euler backend computed it before its steps were stacked."""
    lo, hi = ev.horizon
    if min(t0, t1) < lo - 1e-12 or max(t0, t1) > hi + 1e-12:
        raise HorizonError("window outside the sampled horizon")
    if t0 == t1:
        return np.eye(ev.d)
    if t1 < t0:
        M = _euler_loop(ev, t1, t0)
        if abs(np.linalg.det(M)) == 0.0:
            raise SingularityError("forward window is singular")
        return np.linalg.inv(M)
    a_mat = ev.system.a
    sig = ev.system.sigmas
    jumps = _jump_events(ev.driver_paths, t0, t1)
    n = max(1, int(math.ceil((t1 - t0) / ev.dt_int - 1e-9)))
    nodes = np.unique(np.concatenate([
        t0 + (t1 - t0) * np.arange(1, n) / n,
        np.asarray(sorted(jumps), float),
        [t1],
    ]))
    M = np.eye(ev.d)
    prev = t0
    for t in nodes:
        h = t - prev
        if h > 0.0:
            G = h * a_mat
            for i, p in enumerate(ev.driver_paths):
                dc = float(p.continuous_increment(prev, t))
                G = G + dc * sig[i]
            step = expm(G) if ev.scheme == "expm" else np.eye(ev.d) + G
            M = step @ M
            _check_finite(M)
        for i, kappa in jumps.get(float(t), ()):
            J = np.eye(ev.d) + kappa * sig[i]
            if abs(np.linalg.det(J)) < 1e-12:
                raise SingularityError(
                    f"jump factor I + u*sigma_{i+1} is singular (u={kappa})"
                )
            M = J @ M
            _check_finite(M)
        prev = t
    return M


P_CONJ = np.array([[1.0, 0.4], [-0.3, 1.2]])


def conjugated_system(P=P_CONJ):
    """The benchmark system conjugated by P: a' = P a P^-1, sigma' = P sigma P^-1."""
    base = lm.benchmark_system_2d()
    Pi = np.linalg.inv(P)
    return lm.LinearSystem(P @ base.a @ Pi,
                           tuple(P @ s @ Pi for s in base.sigmas))


def _hand_leg(node_times, jump_times, jump_sizes, seed, triplet=None):
    """Forward leg on [0, 2] with a random continuous skeleton and the given
    jumps, labelled with ``triplet``; its nodes are the given ones plus the
    jump times."""
    nodes = np.union1d(node_times, jump_times)
    cont = np.concatenate([[0.0], np.cumsum(
        np.random.default_rng(seed).normal(0.0, 0.3, nodes.size - 1))])
    return lm.JumpPath(nodes, cont, np.asarray(jump_times, float),
                       np.asarray(jump_sizes, float), triplet)


def lattice_jump_paths():
    """Two drivers whose forward jumps sit on the dt_int = 0.125 lattice of
    windows starting at 0 (0.25, 0.5, 1.0) and coincide across the drivers
    (0.375, 0.5, 1.0); the backward legs are sampled."""
    sampled = benchmark_paths(ATOM, 2.0, 41)
    grid = np.linspace(0.0, 2.0, 9)
    legs = [_hand_leg(grid, [0.25, 0.375, 0.5, 1.0, 1.3],
                      [0.3, -0.2, 0.1, 0.25, -0.4], 1),
            _hand_leg(grid, [0.375, 0.5, 0.7, 1.0],
                      [0.15, -0.35, 0.2, 0.45], 2)]
    return [lm.TwoSidedPath(leg, p.backward) for leg, p in zip(legs, sampled)]


EULER_EDGES = [
    [0.0, 1.7],
    [1.6, 0.2],
    [-1.8, -0.35],
    [-0.4, -1.9],
    [-1.3, 0.9],
    [1.1, -0.6],
    [0.0, 0.25, 0.5, 0.5, 1.0, 0.375, -0.8, -0.8, -1.9, 1.2],
    list(np.linspace(-1.9, 1.9, 13)),
]


@pytest.mark.parametrize("scheme", ["euler", "expm"])
@pytest.mark.parametrize("paths_kind", ["sampled", "shifted", "lattice"])
def test_euler_stack_bitwise_equals_step_loop(scheme, paths_kind):
    if paths_kind == "lattice":
        paths = lattice_jump_paths()
    else:
        paths = benchmark_paths(ATOM, 2.0, 42)
    for system in (lm.benchmark_system_2d(), conjugated_system()):
        ev = lm.EulerEvaluator(system, paths, 0.125, scheme=scheme)
        if paths_kind == "shifted":
            ev = ev.shifted(0.0731)
            assert ev.horizon[1] < 2.0
        for edges in EULER_EDGES:
            loop = np.array([_euler_loop(ev, a, b)
                             for a, b in zip(edges[:-1], edges[1:])])
            assert ev.propagators(edges).tobytes() == loop.tobytes()
        for t in (-1.7, -0.125, 0.0, 0.5, 1.0, 1.85):
            assert ev.matrix(t).tobytes() == _euler_loop(ev, 0.0, t).tobytes()
            assert ev.inverse(t).tobytes() == _euler_loop(ev, t, 0.0).tobytes()


def _blowup_path(jump_time, kappa):
    """Forward-only driver on [0, 1]: a continuous skeleton flat up to 0.6
    that rises by 1e305 on (0.6, 0.7], and one jump."""
    nodes = np.union1d([0.0, 0.3, 0.6, 0.7, 1.0], [jump_time])
    cont = np.where(nodes > 0.6, 1e305, 0.0)
    return lm.JumpPath(nodes, cont, np.array([jump_time]),
                       np.array([kappa]))


def _blowup_evaluator(jump_time):
    # the jump factor diag(0, 0.5) is singular but keeps the second
    # coordinate alive, so a later overflowing step still overflows
    system = lm.LinearSystem(np.zeros((2, 2)), (np.diag([2.0, 1.0]),))
    return lm.EulerEvaluator(system, [_blowup_path(jump_time, -0.5)], 0.1)


def _dead_step_evaluator():
    # the steps (0, 0.5] and (0.5, 1] are I + 0.5 a = 0 exactly, so the
    # forward product over (0, 1] is singular; its jump factor is not
    path = lm.JumpPath(np.array([0.0, 0.5, 1.0]), np.zeros(3),
                       np.array([0.5]), np.array([0.5]))
    system = lm.LinearSystem(-2.0 * np.eye(2), (np.eye(2),))
    return lm.EulerEvaluator(system, [path], 1.0)


def _loop_error(ev, edges):
    for a, b in zip(edges[:-1], edges[1:]):
        try:
            _euler_loop(ev, a, b)
        except lm.LevyMetError as exc:
            return exc
    return None


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("jump_time, edges, first", [
    # one window: singular jump factor, then overflowing step
    (0.3, [0.0, 1.0], SingularityError),
    # one window: overflowing step, then singular jump factor
    (0.9, [0.0, 1.0], lm.InstabilityError),
    # overflow in the first window, singular jump in the second
    (0.9, [0.0, 0.8, 1.0], lm.InstabilityError),
    # singular jump in the first window, overflow in the second (backward)
    (0.9, [0.8, 1.0, 0.0], SingularityError),
    # a failing window before a window outside the horizon
    (0.3, [0.0, 1.0, 0.5, 3.0], SingularityError),
])
def test_euler_first_failing_factor_wins(jump_time, edges, first):
    ev = _blowup_evaluator(jump_time)
    loop = _loop_error(ev, edges)
    assert type(loop) is first
    with pytest.raises(first) as stacked:
        ev.propagators(edges)
    assert str(stacked.value) == str(loop)


def test_euler_stack_horizon_after_good_windows():
    ev = lm.EulerEvaluator(lm.benchmark_system_2d(),
                           benchmark_paths(ATOM, 2.0, 43), 0.1)
    with pytest.raises(HorizonError, match="window outside"):
        ev.propagators([0.0, 1.0, 2.5, 1.0])
    assert ev.propagators([0.4]).shape == (0, 2, 2)


LADDER_STEPS = 0.125 / 2.0 ** np.arange(4)


def _ladder_jobs(scheme):
    """One job per path kind and system: the halving ladder on (0, 1.85]
    (lattice-aligned jumps fall on its first rungs), then windows of
    other step sizes, backward ones and ones across 0 included."""
    t0 = np.concatenate([np.zeros(4), [1.6, -1.3, -0.4, 0.5]])
    t1 = np.concatenate([np.full(4, 1.85), [0.2, 0.9, -1.9, 0.5]])
    h = np.concatenate([LADDER_STEPS, [0.1, 0.0625, 0.3, 0.125]])
    for paths_kind in ("sampled", "shifted", "lattice"):
        paths = (lattice_jump_paths() if paths_kind == "lattice"
                 else benchmark_paths(ATOM, 2.0, 42))
        for system in (lm.benchmark_system_2d(), conjugated_system()):
            ev = lm.EulerEvaluator(system, paths, 0.01, scheme=scheme)
            if paths_kind == "shifted":
                ev = ev.shifted(0.0731)
            yield ev, t0, t1, h


@pytest.mark.parametrize("scheme", ["euler", "expm"])
def test_euler_ladder_batch_bitwise_equals_step_loop(scheme):
    # every window of every job from one fold, each equal to the step loop
    # of an evaluator whose dt_int is that window's step size
    jobs = list(_ladder_jobs(scheme))
    stacks = lm.cocycle._euler_propagators(jobs)
    assert len(stacks) == len(jobs)
    for (ev, t0, t1, h), stack in zip(jobs, stacks):
        assert stack.shape == (t0.size, 2, 2)
        for k in range(t0.size):
            rung = lm.EulerEvaluator(ev.system, ev.driver_paths, h[k],
                                     scheme=scheme)
            loop = _euler_loop(rung, t0[k], t1[k])
            assert stack[k].tobytes() == loop.tobytes()
            if t0[k] == 0.0:
                assert stack[k].tobytes() == rung.matrix(t1[k]).tobytes()


def test_euler_matrix_of_times_stacks_scalar_calls():
    ev = lm.EulerEvaluator(conjugated_system(),
                           benchmark_paths(ATOM, 2.0, 49), 0.05)
    times = np.array([0.7, -1.2, 0.0, 1.9, 0.7])
    stack = ev.matrix(times)
    assert stack.shape == (5, 2, 2)
    for t, M in zip(times, stack):
        assert M.tobytes() == ev.matrix(float(t)).tobytes()
    with pytest.raises(HorizonError):
        ev.matrix(np.array([0.5, 2.5]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("budget", [None, 1])
def test_euler_batch_failing_job_leaves_others_unchanged(monkeypatch, budget):
    if budget is not None:  # every window folded alone
        monkeypatch.setattr(lm.cocycle, "_FOLD_BYTES", budget)
    good = lm.EulerEvaluator(lm.benchmark_system_2d(),
                             benchmark_paths(ATOM, 2.0, 43), 0.1)
    edges = np.array([0.0, 0.8, 1.0, 0.0])
    cases = [
        (good, edges),
        (_blowup_evaluator(0.3), np.array([0.0, 0.5, 1.0])),  # singular
        (_blowup_evaluator(0.9), np.array([0.0, 1.0])),  # overflow
        (_dead_step_evaluator(), np.array([1.0, 0.0])),  # singular forward
        (good, np.array([0.0, 1.0, 2.5])),  # leaves the horizon
        (good, np.array([0.4])),  # no window
        (good, edges[::-1]),
    ]
    jobs = [(ev, e[:-1], e[1:], np.full(e.size - 1, ev.dt_int))
            for ev, e in cases]
    for (ev, e), out in zip(cases, lm.cocycle._euler_propagators(jobs)):
        try:
            want = ev.propagators(e)
        except lm.LevyMetError as exc:
            loop = _loop_error(ev, e)
            assert type(out) is type(exc) is type(loop)
            assert str(out) == str(exc) == str(loop)
        else:
            assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("budget", [1, 600, 3000])
def test_euler_batch_groups_fold_bitwise_like_one_group(monkeypatch, budget):
    # a fold budget of 1 byte folds every window alone, the others cut the
    # sorted windows into groups mixing jobs and rungs
    jobs = list(_ladder_jobs("euler"))
    whole = lm.cocycle._euler_propagators(jobs)
    monkeypatch.setattr(lm.cocycle, "_FOLD_BYTES", budget)
    for want, got in zip(whole, lm.cocycle._euler_propagators(jobs)):
        assert got.tobytes() == want.tobytes()


def _ladder_peak_bytes(n_paths):
    """Peak traced allocation of one batch call on the halving ladders
    (0, 2] at 1e-3 / 2^k, k = 0..3, of n_paths benchmark paths."""
    steps = 1e-3 / 2.0 ** np.arange(4)
    jobs = [(lm.EulerEvaluator(lm.benchmark_system_2d(),
                               benchmark_paths(ATOM, 2.0, 60 + i), 1e-3),
             np.zeros(4), np.full(4, 2.0), steps) for i in range(n_paths)]
    tracemalloc.start()
    try:
        lm.cocycle._euler_propagators(jobs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_euler_batch_peak_memory_does_not_grow_with_the_batch():
    # the four rungs hold 30k factors a path; folded all at once, 8 paths'
    # buffers would be 4x those of 2 paths
    assert _ladder_peak_bytes(8) < 1.5 * _ladder_peak_bytes(2)


# -- non-diagonal oracle: the benchmark conjugated by P ----------------------------


def test_euler_conjugated_system_is_conjugated_euler():
    # every factor of the conjugated system is P F P^-1, so the products
    # agree up to rounding
    paths = benchmark_paths(ATOM, 2.0, 44)
    Pi = np.linalg.inv(P_CONJ)
    for scheme in ("euler", "expm"):
        base = lm.EulerEvaluator(lm.benchmark_system_2d(), paths,
                                 0.01, scheme=scheme)
        conj = lm.EulerEvaluator(conjugated_system(), paths, 0.01,
                                 scheme=scheme)
        for t in (-1.6, 0.7, 1.5):
            want = P_CONJ @ base.matrix(t) @ Pi
            err = np.linalg.norm(conj.matrix(t) - want) / np.linalg.norm(want)
            assert err < 1e-12


def test_euler_conjugated_first_order_against_exact():
    paths = benchmark_paths(ATOM, 2.0, 15)
    system = conjugated_system()
    exact = (P_CONJ @ lm.ExactDiagonal2D(paths).matrix(1.5)
             @ np.linalg.inv(P_CONJ))
    errs = [np.linalg.norm(lm.EulerEvaluator(system, paths, 0.02 / 2**k)
                           .matrix(1.5) - exact) for k in range(5)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.7 <= r <= 2.3 for r in ratios)


def test_euler_and_expm_schemes_agree_to_first_order():
    paths = benchmark_paths(ATOM, 2.0, 45)
    system = conjugated_system()
    gaps = []
    for k in range(5):
        dt = 0.02 / 2**k
        euler = lm.EulerEvaluator(system, paths, dt, scheme="euler")
        expm_ev = lm.EulerEvaluator(system, paths, dt, scheme="expm")
        gaps.append(np.linalg.norm(euler.matrix(1.5) - expm_ev.matrix(1.5)))
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(1.7 <= r <= 2.3 for r in ratios)


@pytest.mark.parametrize("seed", [47, 48])
def test_euler_conjugated_spectrum_matches_exact(seed):
    T, h = 50.0, 0.0025
    paths = benchmark_paths(ATOM, T, seed)
    euler = lm.spectrum_qr(lm.EulerEvaluator(conjugated_system(),
                                             paths, h), T)
    exact = lm.spectrum_qr(lm.ExactDiagonal2D(paths), T)
    # Tolerance.  Between jumps coordinate i of the diagonal system grows at
    # r_i = c_i - (compensation rate), and an Euler step turns r h into
    # log(1 + r h), off by at most (r h)^2 / (2 (1 - |r| h)): a bias of at most
    # r_i^2 h / (2 (1 - |r_i| h)) per unit time.  Conjugating by P moves the
    # top estimate (1/T) log |P E P^-1 e_1| off (1/T) log E_11 by at most
    # log(cond P)/T above and -log(sigma_min(P) |(P^-1)_11|)/T below; by the
    # sum rule the second exponent moves by the same amount.
    r = np.array([2.0, -4.0]) - paths[0].triplet.compensation_rate()
    bias = r**2 * h / (2.0 * (1.0 - np.abs(r) * h))
    Pi = np.linalg.inv(P_CONJ)
    conj = max(math.log(np.linalg.cond(P_CONJ)),
               -math.log(np.linalg.svd(P_CONJ, compute_uv=False)[-1]
                         * abs(Pi[0, 0]))) / T
    assert np.all(np.abs(euler.raw - exact.raw) <= bias + conj)
    # the leading Euler bias is what separates them: explicit Euler
    # underestimates each growth rate
    assert np.all(euler.raw < exact.raw)


@settings(max_examples=40, deadline=None)
@given(s=st.floats(-2.5, 2.5), seed=st.integers(0, 2**16))
def test_exact_shifted_equals_fresh_evaluator(s, seed):
    paths = benchmark_paths(ATOM, 3.0, seed)
    shifted = lm.ExactDiagonal2D(paths).shifted(s)
    fresh = lm.ExactDiagonal2D([p.shift(s) for p in paths])
    lo, hi = fresh.horizon
    assert shifted.horizon == (lo, hi)
    times = np.concatenate([np.linspace(lo, hi, 9),
                            fresh.driver_paths[0].jumps_in(lo, hi)[0]])
    assert (shifted.log_growth(times).tobytes()
            == fresh.log_growth(times).tobytes())
    for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
        assert shifted.matrix(t).tobytes() == fresh.matrix(t).tobytes()


# -- auxiliary system and Picard oracle ---------------------------------------------


def _psi_pair(system, paths, t, dt_int=1e-3):
    """(psi_t, psi_t^(-1)): the last entries of the auxiliary pair on the
    breakpoint grid of [0, t] that Picard iterates on."""
    times = lm.cocycle._breakpoints(paths, t, dt_int)
    psis, psinvs = lm.cocycle._psi_grid(system, paths, times)
    return psis[-1], psinvs[-1]


def test_psi_identity_cases():
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(ATOM, 2.0, 19)
    psi, psinv = _psi_pair(system, paths, 0.0)
    np.testing.assert_array_equal(psi, np.eye(2))
    np.testing.assert_array_equal(psinv, np.eye(2))


def test_psi_no_small_jumps_is_identity():
    # all atoms above delta: the compensated small-jump driver vanishes
    measure = lm.LevyMeasure.from_atoms([(0.7, 2.0)])
    drivers = (lm.scalar_triplet(measure=measure, delta=0.5),
               lm.scalar_triplet(measure=measure, delta=0.5))
    system = lm.LinearSystem(np.diag([2.0, -4.0]),
                             (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    paths = [lm.sample_two_sided(drivers[i], 2.0, 0.5, 23, driver=i)
             for i in range(2)]
    psi, psinv = _psi_pair(system, paths, 2.0, 0.05)
    np.testing.assert_array_equal(psi, np.eye(2))
    np.testing.assert_array_equal(psi @ psinv, np.eye(2))


def test_psi_inverse_consistency_under_refinement():
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(ATOM, 2.0, 24)
    defects = []
    for dt in (0.02, 0.01, 0.005):
        psi, psinv = _psi_pair(system, paths, 2.0, dt)
        defects.append(np.linalg.norm(psi @ psinv - np.eye(2)))
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 0.02


def test_picard_deterministic_ode():
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(EMPTY, 2.0, 25)
    x = np.array([1.0, 1.0])
    res = lm.picard_solve(system, paths, 1.0, 30, x, dt_int=5e-4)
    target = np.array([math.exp(2.0), math.exp(-4.0)])
    assert np.all(np.abs(res.value - target) / target < 5e-3)
    # factorial tail: successive differences die off well past the hump
    assert res.diffs[-1] < 1e-10


def test_picard_first_iterate_hand_formula():
    # X^1 = psi_t (x + int_0^t psi_s^(-1) B x ds + sum psi^(-1) sigma x u),
    # left-endpoint sums on the same breakpoint grid
    system = lm.benchmark_system_2d()
    paths = benchmark_paths(ATOM, 2.0, 26)
    x = np.array([0.7, -0.4])
    t, dt = 1.0, 0.01
    res = lm.picard_solve(system, paths, t, 1, x, dt_int=dt)

    from levymet.cocycle import _breakpoints, _psi_grid
    times = _breakpoints(paths, t, dt)
    psis, psinvs = _psi_grid(system, paths, times)
    B = system.a + sum(s * p.triplet.drift
                       for s, p in zip(system.sigmas, paths))
    acc = x.astype(float).copy()
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        acc = acc + h * (psinvs[k - 1] @ (B @ x))
        # benchmark drivers have no jumps above delta, so no counting term
    hand = psis[-1] @ acc
    np.testing.assert_allclose(res.value, hand, rtol=1e-12)


def test_picard_matches_exact_benchmark():
    paths = benchmark_paths(ATOM, 2.0, 27)
    system = lm.benchmark_system_2d()
    exact = lm.ExactDiagonal2D(paths)
    x = np.array([1.0, 1.0])
    res = lm.picard_solve(system, paths, 1.0, 24, x, dt_int=0.005)
    target = exact.matrix(1.0) @ x
    assert np.linalg.norm(res.value - target) < 0.05 * np.linalg.norm(target)
    assert res.diffs[-1] < 1e-6 * np.linalg.norm(target)


def test_picard_large_jump_term():
    # driver with jumps above delta exercises the counting-measure sum; the
    # drift 0.3 is in the one triplet both solvers read, with a = 0
    measure = lm.LevyMeasure.from_atoms([(0.7, 2.0)])
    triplet = lm.scalar_triplet(drift=0.3, measure=measure, delta=0.5)
    system = lm.LinearSystem(np.array([[0.0]]), (np.array([[1.0]]),))
    path = lm.sample_two_sided(triplet, 2.0, 0.5, 29)
    assert path.forward.jumps_in(0.0, 1.5)[0].size > 0
    res = lm.picard_solve(system, [path], 1.5, 16, np.array([1.0]), dt_int=0.002)
    dd = lm.StochasticExponential1D(path)
    assert res.value[0] == pytest.approx(dd.value(1.5), rel=5e-3)


def test_picard_refuses_a_gaussian_driver_and_a_path_without_law():
    # the integral equation has no dW term: on a Gaussian driver it returned
    # exactly 1.0 where the Doleans value exp(W_1 - 1/2) is 1.0041
    system = lm.LinearSystem(np.zeros((1, 1)), (np.eye(1),))
    path = lm.sample_two_sided(lm.scalar_triplet(gauss=1.0), 2.0, 0.01, 5)
    with pytest.raises(ConfigurationError, match="Gaussian part"):
        lm.picard_solve(system, [path], 1.0, 4, np.ones(1))
    with pytest.raises(StructuralError, match="no triplet"):
        lm.picard_solve(system, [_relabelled(path, None)], 1.0, 4, np.ones(1))


def test_picard_overflow_raises_its_divergence_error():
    # the iterates of a = 1e6 over t = 7 overflow: the solver's own error,
    # not a RuntimeWarning from the products before it
    path = lm.sample_two_sided(lm.scalar_triplet(delta=0.5), 8.0, 0.1, 1)
    system = lm.LinearSystem(np.array([[1e6]]), (np.eye(1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="overflowed"):
            lm.picard_solve(system, [path], 7.0, 100, np.ones(1), dt_int=0.1)


# -- cocycle law and integrability ----------------------------------------------------


def test_residual_zero_at_origin():
    ev = exact_ev(ATOM, 3.0, 30)
    assert lm.cocycle_residual(ev, 0.0, 1.2) < 1e-13
    assert lm.cocycle_residual(ev, 1.2, 0.0) < 1e-13


def test_residual_exact_backend_small():
    ev = exact_ev(ATOM, 3.0, 31)
    rng = np.random.default_rng(0)
    for _ in range(40):
        s = float(rng.uniform(-0.9, 0.9))
        t = float(rng.uniform(-0.9, 0.9))
        assert lm.cocycle_residual(ev, s, t) < 1e-10


def test_residual_euler_halves_under_refinement():
    paths = benchmark_paths(ATOM, 3.0, 32)
    system = lm.benchmark_system_2d()
    # off-lattice shifts: if s were a multiple of dt_int, the composed and
    # direct integration grids would coincide and the residual would collapse
    # to rounding instead of O(dt)
    pairs = [(0.3701293, 0.5317777), (-0.4104917, 0.7712347),
             (0.1311113, -0.2917191)]
    res = []
    for dt in (0.04, 0.02, 0.01):
        ev = lm.EulerEvaluator(system, paths, dt)
        res.append(np.mean([lm.cocycle_residual(ev, s, t) for s, t in pairs]))
    # between jumps the generator is constant, so the shared first-order
    # Euler error cancels in the law: the defect decays at least first order
    # (second order in practice)
    ratios = [a / b for a, b in zip(res, res[1:])]
    assert all(r > 1.5 for r in ratios)
    assert res[-1] < 0.01 * 1.0  # <= C*dt with a modest constant


def _residual_reference(paths, s, t):
    """The cocycle-law residual of the exact benchmark backend, term by
    term, with the shifted evaluator built afresh on the shifted paths."""
    ev = lm.ExactDiagonal2D(paths)
    shifted = lm.ExactDiagonal2D([p.shift(s) for p in paths])
    return float(np.linalg.norm(ev.matrix(s + t)
                                - shifted.matrix(t) @ ev.matrix(s)))


# pairs whose windows (s, s + t) cross 0, start or end at it, or do not
RESIDUAL_PAIRS = [(0.6, -1.1), (-0.8, 1.5), (0.3, 0.4), (-0.5, -0.7),
                  (0.0, 1.2), (1.2, 0.0), (0.9, -0.9), (-1.4, 2.1)]


@pytest.mark.parametrize("seed", [50, 51])
def test_residual_arrays_equal_scalar_calls(seed):
    paths = benchmark_paths(ATOM, 3.0, seed)
    s, t = np.array(RESIDUAL_PAIRS).T
    backends = [  # the Doléans-Dade exponential runs forward only
        (lm.ExactDiagonal2D(paths), s, t),
        (lm.EulerEvaluator(conjugated_system(), paths, 0.05), s, t),
        (doleans_ev(ATOM, 3.0, seed), np.abs(s) / 2, np.abs(t) / 2),
    ]
    for ev, s_, t_ in backends:
        res = lm.cocycle_residual(ev, s_, t_)
        assert res.shape == (s.size,)
        assert res.tolist() == [lm.cocycle_residual(ev, float(a), float(b))
                                for a, b in zip(s_, t_)]
    res = lm.cocycle_residual(backends[0][0], s, t)
    assert res.tolist() == [_residual_reference(paths, a, b)
                            for a, b in RESIDUAL_PAIRS]


def test_residual_array_reports_first_failing_pair():
    ev = exact_ev(ATOM, 3.0, 52)
    # the second pair shifts past the horizon, the third evaluates past it
    s, t = np.array([0.5, 3.5, 1.0]), np.array([0.2, -1.0, 2.5])
    with pytest.raises(HorizonError, match="shift offset leaves"):
        lm.cocycle_residual(ev, s, t)
    with pytest.raises(HorizonError, match="t=3.5 outside horizon"):
        lm.cocycle_residual(ev, s[::-1], t[::-1])


def _end_jump_paths():
    """Benchmark paths on [-2, 2] whose forward legs carry a jump exactly
    at their end, 2.0, and others inside, under the sampled drivers' law."""
    sampled = benchmark_paths(ATOM, 2.0, 53)
    grid = np.linspace(0.0, 2.0, 9)
    law = sampled[0].triplet
    legs = [_hand_leg(grid, [0.4, 1.1, 2.0], [0.2, -0.3, 0.25], 3, law),
            _hand_leg(grid, [0.9, 2.0], [0.15, 0.3], 4, law)]
    return [lm.TwoSidedPath(leg, p.backward) for leg, p in zip(legs, sampled)]


def test_exact_shifted_rebuilds_a_cut_jump_table():
    # shifted by -0.3 the horizon ends at (2 + 0.3) - 0.3, one ulp below
    # 2.0 once the offset is added back, so jumps_in drops the end jump
    paths = _end_jump_paths()
    assert (2.0 + 0.3) - 0.3 < 2.0
    ev = lm.ExactDiagonal2D(paths)
    for shifts in ([-0.3], [-0.3, 0.3], [0.7], [0.7, -1.1]):
        moved, fresh_paths = ev, paths
        for s in shifts:
            moved = moved.shifted(s)
            fresh_paths = [p.shift(s) for p in fresh_paths]
        fresh = lm.ExactDiagonal2D(fresh_paths)
        lo, hi = fresh.horizon
        assert moved.horizon == (lo, hi)
        times = np.concatenate([np.linspace(lo, hi, 11),
                                fresh.driver_paths[0].jumps_in(lo, hi)[0]])
        assert (moved.log_growth(times).tobytes()
                == fresh.log_growth(times).tobytes())
    assert (ev.shifted(-0.3)._jump_t[0].size
            == ev._jump_t[0].size - 1)
    s, t = np.array([-0.3, 0.2, -0.3]), np.array([0.9, -0.5, -1.2])
    # the stacked residual declines these shifts and runs the pairs one at
    # a time, through the rebuilt tables
    assert ev._shifted_matrices(s, t) is None
    res = lm.cocycle_residual(ev, s, t)
    assert res.tolist() == [_residual_reference(paths, a, b)
                            for a, b in zip(s, t)]


def _per_pair_residuals(ev, s, t):
    """The cocycle-law residuals pair by pair, each from a shifted
    evaluator of its own; raises what the first failing pair raises."""
    return np.array([np.linalg.norm(ev.matrix(a + b)
                                    - ev.shifted(a).matrix(b) @ ev.matrix(a))
                     for a, b in zip(s.tolist(), t.tolist())])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), end_jumps=st.booleans(),
       pairs=st.lists(st.tuples(st.floats(-2.6, 2.6), st.floats(-2.6, 2.6)),
                      min_size=1, max_size=8))
# shifts whose horizon cuts the end jump off, then one past the horizon and
# one evaluating past it
@example(seed=0, end_jumps=True, pairs=[(0.2, -0.5), (-0.3, 0.9)])
@example(seed=0, end_jumps=True, pairs=[(0.5, 0.2), (2.5, -1.0), (1.0, 1.5)])
@example(seed=0, end_jumps=False, pairs=[(1.0, 1.5), (2.5, -1.0)])
# shifts onto a jump time, so a re-timed jump sits at 0
@example(seed=0, end_jumps=True, pairs=[(0.4, 0.3), (0.9, -0.5)])
# past the horizon by less than the 1e-12 slack of evaluation: phi(s) and
# phi(s + t) evaluate, but the shift, or the evaluation at t on the shifted
# paths, does not
@example(seed=0, end_jumps=False, pairs=[(0.5, 0.2), (2.0 + 5e-13, -1.0)])
@example(seed=0, end_jumps=False, pairs=[(0.5, 0.2), (-2.0 - 5e-13, 1.0)])
@example(seed=0, end_jumps=False, pairs=[(0.5, 0.2), (-1.89, 3.890000000001)])
def test_stacked_residual_is_the_per_pair_loop(seed, end_jumps, pairs):
    # bitwise the per-pair residuals, or the same error as the per-pair
    # loop, on paths whose shifted tables are re-timed or rebuilt
    paths = _end_jump_paths() if end_jumps else benchmark_paths(ATOM, 2.0,
                                                                seed)
    ev = lm.ExactDiagonal2D(paths)
    s, t = np.array(pairs).T
    try:
        want = _per_pair_residuals(ev, s, t)
    except LevyMetError as exc:
        with pytest.raises(type(exc)) as info:
            lm.cocycle_residual(ev, s, t)
        assert str(info.value) == str(exc)
        return
    assert lm.cocycle_residual(ev, s, t).tobytes() == want.tobytes()
    # shifted's tables are those of an evaluator built on the shifted paths
    assert want.tolist() == [_residual_reference(paths, a, b)
                             for a, b in pairs]
    theta = ev._shifted_matrices(s, t)
    if not end_jumps:  # sampled paths keep every jump on these shifts
        assert theta is not None
    if theta is not None:
        assert theta.tobytes() == np.stack(
            [ev.shifted(a).matrix(b) for a, b in pairs]).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), kind=st.sampled_from(["euler", "doleans"]),
       pairs=st.lists(st.tuples(st.floats(-0.5, 2.6), st.floats(-0.5, 2.6)),
                      min_size=1, max_size=4))
# the Doléans-Dade exponential raises for t < 0; both raise past the horizon
@example(seed=0, kind="doleans", pairs=[(0.5, 0.2), (0.3, -0.1)])
@example(seed=0, kind="euler", pairs=[(0.5, 0.2), (1.0, 1.5), (2.5, 0.1)])
def test_residual_without_a_stacked_form_is_the_per_pair_loop(seed, kind,
                                                              pairs):
    # the Euler and Doléans-Dade backends have no stacked shifted form:
    # their residual is the per-pair loop, bitwise, or its first error
    if kind == "doleans":
        ev = doleans_ev(ATOM, 2.0, seed)
    else:
        ev = lm.EulerEvaluator(lm.benchmark_system_2d(),
                               benchmark_paths(ATOM, 2.0, seed), 0.1)
    s, t = np.array(pairs).T
    assert ev._shifted_matrices(s, t) is None
    try:
        want = _per_pair_residuals(ev, s, t)
    except LevyMetError as exc:
        with pytest.raises(type(exc)) as info:
            lm.cocycle_residual(ev, s, t)
        assert str(info.value) == str(exc)
        return
    assert lm.cocycle_residual(ev, s, t).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       pairs=st.lists(st.tuples(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4)),
                      min_size=1, max_size=6))
@example(seed=0, pairs=[(0.6, -1.1), (-0.8, 1.5), (1.3, -1.4)])
def test_cocycle_law_exact_backend(seed, pairs):
    ev = exact_ev(ATOM, 3.0, seed)
    s, t = np.array(pairs).T
    res = lm.cocycle_residual(ev, s, t)
    norms = np.linalg.norm(ev.matrix(s + t), axis=(1, 2))
    assert np.all(res <= 1e-12 * norms)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), d=st.sampled_from([2, 3]),
       s=st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True),
       t=st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True))
def test_cocycle_law_dense_euler_expm(seed, d, s, t):
    # A dense random system has no closed form, so the defect is measured
    # against m = max |phi| over s, s + t and 0.  The shifted evaluator
    # steps on a lattice anchored at s, so Euler keeps a defect of order
    # dt_int.  With no drift or Gaussian part the skeleton is the line
    # -comp t, every step is expm(h (a - comp sigma)), and expm steps
    # compose to rounding.  The defect of one draw is not monotone in
    # dt_int, so each rung gets its own bound.
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (d, d))
    sigma = rng.normal(0.0, 0.5, (d, d))
    driver = lm.scalar_triplet(
        measure=lm.LevyMeasure.from_atoms([(0.2, 3.0), (-0.3, 1.0)]),
        delta=0.5)
    system = lm.LinearSystem(a, (sigma,))
    paths = [lm.sample_two_sided(driver, 3.0, 0.1, seed)]
    for dt_int in (0.02, 0.01, 0.005):
        for scheme, bound in (("euler", dt_int), ("expm", 1e-12)):
            ev = lm.EulerEvaluator(system, paths, dt_int, scheme=scheme)
            m = np.linalg.norm(ev.matrix(np.array([s, s + t, 0.0])),
                               axis=(1, 2)).max()
            assert lm.cocycle_residual(ev, s, t) <= bound * m


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_liouville_identity_euler_expm(seed):
    # det expm(G) = e^(tr G), so the log-determinant of every window is
    # tr(a) h + sum_i tr(sigma_i) dc_i over its steps plus
    # log|det(I + u sigma_i)| over its jumps; summed over the windows the
    # steps telescope to the increments over (0, T].  phi(T) itself is too
    # ill-conditioned for slogdet: sum window by window.
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, (3, 3))
    sigmas = tuple(rng.normal(0.0, 0.5, (3, 3)) for _ in range(2))
    assert np.linalg.norm(a @ sigmas[0] - sigmas[0] @ a) > 1e-3
    drivers = (lm.scalar_triplet(gauss=0.3, measure=ATOM, delta=0.5),
               lm.scalar_triplet(measure=ATOM, delta=0.5))
    T = 5.0
    paths = [lm.sample_two_sided(drivers[i], T, 0.1, seed, driver=i)
             for i in range(2)]
    ev = lm.EulerEvaluator(lm.LinearSystem(a, sigmas), paths, 0.01,
                           scheme="expm")
    sign, logdet = np.linalg.slogdet(ev.propagators(np.linspace(0.0, T, 6)))
    assert np.all(sign != 0.0)
    terms = [np.trace(a) * T]
    for sigma, p in zip(sigmas, paths):
        dc = float(p.continuous_increment(0.0, T))
        terms.append(np.trace(sigma) * dc)
        _, sizes = p.jumps_in(0.0, T)
        terms.extend(np.linalg.slogdet(np.eye(3) + u * sigma)[1]
                     for u in sizes)
    assert len(terms) > 10
    assert abs(float(np.sum(logdet)) - math.fsum(terms)) <= \
        1e-10 * max(1.0, math.fsum(abs(x) for x in terms))


def test_integrability_identity_cocycle_1d():
    # zero 1d system: phi = 1 identically, both functionals vanish
    tri = lm.scalar_triplet()
    p = lm.sample_two_sided(tri, 2.0, 0.5, 33)
    dd = lm.StochasticExponential1D(p)
    ap, am = lm.integrability_alpha(dd, lm.TimeGrid(0.0, 1.0, 0.25))
    assert ap == 0.0 and am == 0.0


def test_integrability_deterministic_values():
    ev = exact_ev(EMPTY, 2.0, 34)
    ap, am = lm.integrability_alpha(ev, lm.TimeGrid(0.0, 1.0, 0.05))
    assert ap == pytest.approx(2.0 + 0.5 * math.log1p(math.exp(-12.0)), abs=1e-12)
    assert am == pytest.approx(4.0 + 0.5 * math.log1p(math.exp(-12.0)), abs=1e-12)


def test_integrability_sup_monotone_in_grid():
    ev = exact_ev(ATOM, 2.0, 35)
    coarse, _ = lm.integrability_alpha(ev, lm.TimeGrid(0.0, 1.0, 0.5))
    fine, _ = lm.integrability_alpha(ev, lm.TimeGrid(0.0, 1.0, 0.05))
    assert fine >= coarse - 1e-15


def _alpha_loop(ev, grid):
    """integrability_alpha node by node, one running product at a time:
    the reference the stacked version must equal bitwise."""
    times = np.asarray(grid.times(), float)
    nodes = lm.cocycle._with_jumps(getattr(ev, "driver_paths", []), times)
    M = np.eye(ev.d)
    a_plus = max(0.0, math.log(np.linalg.norm(M)))
    a_minus = a_plus
    for P in ev.propagators(nodes):
        M = P @ M
        if abs(np.linalg.det(M)) < 1e-300:
            raise SingularityError("propagator numerically singular")
        a_plus = max(a_plus, math.log(np.linalg.norm(M)))
        a_minus = max(a_minus, math.log(np.linalg.norm(np.linalg.inv(M))))
    return max(0.0, a_plus), max(0.0, a_minus)


def _alpha_backends():
    paths = benchmark_paths(ATOM, 2.0, 38)
    tri = lm.scalar_triplet(measure=ATOM, delta=0.5)
    yield lm.ExactDiagonal2D(paths)
    yield lm.EulerEvaluator(conjugated_system(), paths, 0.01)
    yield lm.EulerEvaluator(lm.benchmark_system_2d(), paths, 0.02,
                            scheme="expm")
    yield lm.StochasticExponential1D(lm.sample_two_sided(tri, 2.0, 0.1, 39))
    for seed in range(100, 200):
        yield exact_ev(ATOM, 2.0, seed)


def test_integrability_alpha_bitwise_equals_node_loop():
    for ev in _alpha_backends():
        for grid in (lm.TimeGrid(0.0, 1.0, 0.05), lm.TimeGrid(0.0, 2.0, 0.5)):
            assert lm.integrability_alpha(ev, grid) == _alpha_loop(ev, grid)


class _Shrinking:
    """A cocycle whose running product turns numerically singular at its
    second node: every window multiplies the determinant by 1e-200."""

    d = 2

    def propagators(self, edges):
        return np.tile(np.diag([1e-100, 1e-100]), (len(edges) - 1, 1, 1))


def test_integrability_alpha_singular_node():
    grid = lm.TimeGrid(0.0, 1.0, 0.05)
    for alpha in (lm.integrability_alpha, _alpha_loop):
        with pytest.raises(SingularityError):
            alpha(_Shrinking(), grid)


def test_linear_system_validation():
    with pytest.raises(StructuralError):
        lm.LinearSystem(np.zeros((2, 2)), ())
    with pytest.raises(StructuralError):
        lm.LinearSystem(np.zeros((2, 2)), (np.zeros((3, 3)),))


def test_backend_determinism():
    a = exact_ev(ATOM, 3.0, 36).matrix(2.0)
    b = exact_ev(ATOM, 3.0, 36).matrix(2.0)
    np.testing.assert_array_equal(a, b)
    paths = benchmark_paths(ATOM, 2.0, 37)
    system = lm.benchmark_system_2d()
    m1 = lm.EulerEvaluator(system, paths, 0.01).matrix(1.0)
    m2 = lm.EulerEvaluator(system, paths, 0.01).matrix(1.0)
    np.testing.assert_array_equal(m1, m2)
