import math

import numpy as np
import pytest

import levymet as lm
from levymet.errors import (
    DegeneracyError,
    HorizonError,
    SingularityError,
    StructuralError,
)

ATOM = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
EMPTY = lm.LevyMeasure.empty()


def benchmark_paths(measure, T, seed, dt=0.1):
    drivers = lm.benchmark_drivers(measure, 0.5)
    return [lm.sample_two_sided(drivers[i], T, dt, seed, driver=i) for i in range(2)]


def exact_ev(measure, T, seed, dt=0.1):
    return lm.ExactDiagonal2D(benchmark_paths(measure, T, seed, dt), measure, 0.5)


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
                               + float(np.sum(np.log1p(sizes[:, 0]))))
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
                           - float(np.sum(np.log1p(sizes[:, 0]))))
    np.testing.assert_allclose(np.diag(ev.matrix(t)), hand, rtol=1e-12)


def test_exact_singular_jump_rejected():
    paths = benchmark_paths(ATOM, 2.0, 3)
    p = paths[0].forward
    bad = lm.JumpPath(p.grid, p.node_times, p.cont, np.array([0.7]),
                      np.array([[-1.0]]), triplet=p.triplet,
                      comp_rate=p.comp_rate, band=p.band)
    two = lm.two_sided(bad, paths[0].backward)
    with pytest.raises(SingularityError):
        lm.ExactDiagonal2D([two, paths[1]], ATOM, 0.5)


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
    M, logscale = ev.matrix_scaled(300.0)
    lg = ev.log_growth(300.0)
    assert logscale == pytest.approx(float(np.max(lg)))
    assert M[0, 0] == pytest.approx(1.0)


# -- stochastic exponential -------------------------------------------------------


def test_doleans_unit_at_zero():
    tri = lm.scalar_triplet(measure=ATOM, delta=0.5)
    dd = lm.StochasticExponential1D(lm.sample_two_sided(tri, 1.0, 0.5, 4))
    assert dd.value(0.0) == 1.0


def test_doleans_brownian_exponential_martingale():
    tri = lm.scalar_triplet(gauss=1.0)
    p = lm.sample_forward(tri, lm.TimeGrid(0.0, 1.0, 0.01), 5)
    dd = lm.StochasticExponential1D(p)
    w1 = p.evaluate(1.0)[0]
    assert dd.value(1.0) == pytest.approx(math.exp(w1 - 0.5), rel=1e-14)


def test_doleans_single_jump_hand_formula():
    # one jump of 0.5 at s = 0.3, no continuous part:
    # Y_1 = exp(Gamma_1) * (1.5) * exp(-0.5) = 1.5
    grid = lm.TimeGrid(0.0, 1.0, 0.5)
    nodes = np.array([0.0, 0.3, 0.5, 1.0])
    p = lm.JumpPath(grid, nodes, np.zeros((4, 1)), np.array([0.3]),
                    np.array([[0.5]]))
    dd = lm.StochasticExponential1D(p)
    assert dd.value(1.0) == pytest.approx(1.5, rel=1e-14)
    assert dd.value(0.2) == pytest.approx(1.0, rel=1e-14)


def test_doleans_degenerate_jump():
    grid = lm.TimeGrid(0.0, 1.0, 0.5)
    nodes = np.array([0.0, 0.5, 1.0])
    p = lm.JumpPath(grid, nodes, np.zeros((3, 1)), np.array([0.5]),
                    np.array([[-1.0]]))
    dd = lm.StochasticExponential1D(p)
    with pytest.raises(DegeneracyError):
        dd.value(1.0)


def test_doleans_matches_exact_coordinate():
    paths = benchmark_paths(ATOM, 3.0, 12)
    ev = lm.ExactDiagonal2D(paths, ATOM, 0.5)
    dd = lm.StochasticExponential1D(lm.with_drift(paths[0], 2.0))
    for t in (0.3, 1.1, 2.9):
        assert dd.log_value(t) == pytest.approx(ev.log_growth(t)[0], abs=1e-12)


# -- window-propagator stream ---------------------------------------------------


def _stream_backend(kind):
    paths = benchmark_paths(ATOM, 3.0, 21)
    if kind == "exact":
        return lm.ExactDiagonal2D(paths, ATOM, 0.5)
    if kind == "doleans":
        return lm.StochasticExponential1D(lm.with_drift(paths[0], 2.0))
    system = lm.benchmark_system_2d(ATOM, 0.5)
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
    assert stack.shape == (len(edges) - 1, ev.d, ev.d)
    np.testing.assert_array_equal(stack, np.array(per_window))


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
    system = lm.benchmark_system_2d(ATOM, 0.5)
    paths = benchmark_paths(ATOM, 2.0, 13)
    ev = lm.EulerEvaluator(system, paths, 0.01)
    np.testing.assert_array_equal(ev.propagate(0.7, 0.7), np.eye(2))


def test_euler_deterministic_first_order():
    system = lm.benchmark_system_2d(EMPTY, 0.5)
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
    system = lm.benchmark_system_2d(ATOM, 0.5)
    exact = lm.ExactDiagonal2D(paths, ATOM, 0.5).matrix(1.5)
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
    system = lm.LinearSystem(np.zeros((1, 1)), (np.array([[-1.0 / 0.7]]),), drivers)
    path = lm.sample_two_sided(drivers[0], 4.0, 0.5, 17)
    assert path.forward.jump_times.size > 0  # rate 2 on [0,4]
    ev = lm.EulerEvaluator(system, [path], 0.1)
    with pytest.raises(SingularityError):
        ev.matrix(4.0)


def test_euler_horizon_error():
    system = lm.benchmark_system_2d(ATOM, 0.5)
    paths = benchmark_paths(ATOM, 2.0, 18)
    ev = lm.EulerEvaluator(system, paths, 0.01)
    with pytest.raises(HorizonError):
        ev.matrix(3.0)


# -- auxiliary system and Picard oracle ---------------------------------------------


def test_psi_identity_cases():
    system = lm.benchmark_system_2d(ATOM, 0.5)
    paths = benchmark_paths(ATOM, 2.0, 19)
    np.testing.assert_array_equal(lm.auxiliary_psi(system, paths, 0.0), np.eye(2))
    np.testing.assert_array_equal(lm.auxiliary_psi_inverse(system, paths, 0.0),
                                  np.eye(2))


def test_psi_no_small_jumps_is_identity():
    # all atoms above delta: the compensated small-jump driver vanishes
    measure = lm.LevyMeasure.from_atoms([(0.7, 2.0)])
    drivers = (lm.scalar_triplet(measure=measure, delta=0.5),
               lm.scalar_triplet(measure=measure, delta=0.5))
    system = lm.LinearSystem(np.diag([2.0, -4.0]),
                             (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), drivers)
    paths = [lm.sample_two_sided(drivers[i], 2.0, 0.5, 23, driver=i)
             for i in range(2)]
    psi = lm.auxiliary_psi(system, paths, 2.0, 0.05)
    psinv = lm.auxiliary_psi_inverse(system, paths, 2.0, 0.05)
    np.testing.assert_array_equal(psi, np.eye(2))
    np.testing.assert_array_equal(psi @ psinv, np.eye(2))


def test_psi_inverse_consistency_under_refinement():
    system = lm.benchmark_system_2d(ATOM, 0.5)
    paths = benchmark_paths(ATOM, 2.0, 24)
    defects = []
    for dt in (0.02, 0.01, 0.005):
        psi = lm.auxiliary_psi(system, paths, 2.0, dt)
        psinv = lm.auxiliary_psi_inverse(system, paths, 2.0, dt)
        defects.append(np.linalg.norm(psi @ psinv - np.eye(2)))
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 0.02


def test_picard_deterministic_ode():
    system = lm.benchmark_system_2d(EMPTY, 0.5)
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
    system = lm.benchmark_system_2d(ATOM, 0.5)
    paths = benchmark_paths(ATOM, 2.0, 26)
    x = np.array([0.7, -0.4])
    t, dt = 1.0, 0.01
    res = lm.picard_solve(system, paths, t, 1, x, dt_int=dt)

    from levymet.cocycle import _breakpoints, _psi_grid
    times = _breakpoints(paths, t, dt)
    psis, psinvs = _psi_grid(system, paths, times)
    B = system.drift_matrix()
    acc = x.astype(float).copy()
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        acc = acc + h * (psinvs[k - 1] @ (B @ x))
        # benchmark drivers have no jumps above delta, so no counting term
    hand = psis[-1] @ acc
    np.testing.assert_allclose(res.value, hand, rtol=1e-12)


def test_picard_matches_exact_benchmark():
    paths = benchmark_paths(ATOM, 2.0, 27)
    system = lm.benchmark_system_2d(ATOM, 0.5)
    exact = lm.ExactDiagonal2D(paths, ATOM, 0.5)
    x = np.array([1.0, 1.0])
    res = lm.picard_solve(system, paths, 1.0, 24, x, dt_int=0.005)
    target = exact.matrix(1.0) @ x
    assert np.linalg.norm(res.value - target) < 0.05 * np.linalg.norm(target)
    assert res.diffs[-1] < 1e-6 * np.linalg.norm(target)


def test_picard_large_jump_term():
    # driver with jumps above delta exercises the counting-measure sum
    measure = lm.LevyMeasure.from_atoms([(0.7, 2.0)])
    drivers = (lm.scalar_triplet(measure=measure, delta=0.5),)
    system = lm.LinearSystem(np.array([[0.3]]), (np.array([[1.0]]),), drivers)
    path = lm.sample_two_sided(drivers[0], 2.0, 0.5, 29)
    assert path.forward.jumps_in(0.0, 1.5)[0].size > 0
    res = lm.picard_solve(system, [path], 1.5, 16, np.array([1.0]), dt_int=0.002)
    dd = lm.StochasticExponential1D(lm.with_drift(path, 0.3))
    assert res.value[0] == pytest.approx(dd.value(1.5), rel=5e-3)


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
    system = lm.benchmark_system_2d(ATOM, 0.5)
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


def test_linear_system_validation():
    with pytest.raises(StructuralError):
        lm.LinearSystem(np.zeros((2, 2)), (), ())
    with pytest.raises(StructuralError):
        lm.LinearSystem(np.zeros((2, 2)), (np.zeros((3, 3)),),
                        (lm.scalar_triplet(),))
    sys2 = lm.benchmark_system_2d(ATOM, 0.5)
    np.testing.assert_allclose(sys2.drift_matrix(), np.diag([2.0, -4.0]))


def test_backend_determinism():
    a = exact_ev(ATOM, 3.0, 36).matrix(2.0)
    b = exact_ev(ATOM, 3.0, 36).matrix(2.0)
    np.testing.assert_array_equal(a, b)
    paths = benchmark_paths(ATOM, 2.0, 37)
    system = lm.benchmark_system_2d(ATOM, 0.5)
    m1 = lm.EulerEvaluator(system, paths, 0.01).matrix(1.0)
    m2 = lm.EulerEvaluator(system, paths, 0.01).matrix(1.0)
    np.testing.assert_array_equal(m1, m2)
