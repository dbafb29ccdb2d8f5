import gc
import hashlib
import io
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levymet as lm
from levymet.errors import (ConfigurationError, HorizonError, StructuralError,
                            SupportError)
from levymet.measures import ATOMS
from levymet.paths import (_PACKED_SORT_MIN, _draw_jumps, _merge_nodes,
                           _time_order, substream)

ATOM = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
ATOM_TRIPLET = lm.scalar_triplet(measure=ATOM, delta=0.5)


def test_time_grid_validation():
    g = lm.TimeGrid(0.0, 2.0, 0.5)
    assert g.n_steps == 4
    np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ConfigurationError):
        lm.TimeGrid(0.0, 1.0, 0.3)
    with pytest.raises(ConfigurationError):
        lm.TimeGrid(1.0, 0.0, 0.5)
    # step counts past the float range
    for grid in ((-1e308, 1e308, 0.5), (0.0, 60.0, 1e-320)):
        with pytest.raises(ConfigurationError, match="= inf steps"):
            lm.TimeGrid(*grid)
    # step counts within rounding of the integer 0: no step at all
    for grid in ((0.0, 200.0, 1e300), (0.0, 1e-320, 0.05)):
        with pytest.raises(ConfigurationError, match="rounds to 0 steps"):
            lm.TimeGrid(*grid)


def test_pure_drift_forward_path():
    tri = lm.scalar_triplet(drift=1.0)
    p = lm.sample_forward(tri, lm.TimeGrid(0.0, 2.0, 0.5), 1)
    np.testing.assert_allclose(p.values, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert p.jump_times.size == 0


def test_pure_drift_backward_path():
    tri = lm.scalar_triplet(drift=1.0)
    p = lm.sample_backward(tri, lm.TimeGrid(-2.0, 0.0, 0.5), 2)
    assert p.evaluate(-2.0) == pytest.approx(-2.0)
    assert p.evaluate(0.0) == 0.0
    assert p.evaluate(-1.3) == pytest.approx(-1.3)


def test_zero_triplet_backward_is_zero():
    tri = lm.scalar_triplet()
    p = lm.sample_backward(tri, lm.TimeGrid(-2.0, 0.0, 0.5), 3)
    for t in (-2.0, -1.1, 0.0):
        assert p.evaluate(t) == 0.0


def test_direction_tags_enforced():
    # the grid is the direction: forward from 0, backward up to 0
    tri = lm.scalar_triplet(drift=1.0)
    with pytest.raises(ConfigurationError):
        lm.sample_backward(tri, lm.TimeGrid(0.0, 1.0, 0.5), 1)
    with pytest.raises(ConfigurationError):
        lm.sample_forward(tri, lm.TimeGrid(-1.0, 0.0, 0.5), 1)


def test_forward_jump_count_monte_carlo():
    # Poisson(3) jumps on [0,1]; ensemble mean within 3*sqrt(3/N) of 3
    n = 10_000
    counts = np.empty(n)
    grid = lm.TimeGrid(0.0, 1.0, 1.0)
    for s in range(n):
        counts[s] = lm.sample_forward(ATOM_TRIPLET, grid, substream(101, s)).jump_times.size
    assert abs(counts.mean() - 3.0) < 3.0 * math.sqrt(3.0 / n)


def test_backward_jump_count_monte_carlo():
    n = 10_000
    grid = lm.TimeGrid(-1.0, 0.0, 1.0)
    tri = ATOM_TRIPLET
    counts = np.empty(n)
    for s in range(n):
        counts[s] = lm.sample_backward(tri, grid, substream(103, s)).jump_times.size
    assert abs(counts.mean() - 3.0) < 3.0 * math.sqrt(3.0 / n)


def test_compensated_small_jump_martingale_mean():
    # E L_1 = 0 for the compensated small-jump part; CLT band with
    # var = int u^2 nu = 0.12
    n = 10_000
    grid = lm.TimeGrid(0.0, 1.0, 1.0)
    vals = np.empty(n)
    for s in range(n):
        vals[s] = lm.sample_forward(ATOM_TRIPLET, grid, substream(107, s)).evaluate(1.0)
    assert abs(vals.mean()) < 3.0 * math.sqrt(0.12 / n)


def test_independent_increments_covariance():
    n = 10_000
    grid = lm.TimeGrid(0.0, 2.0, 1.0)
    inc1 = np.empty(n)
    inc2 = np.empty(n)
    for s in range(n):
        p = lm.sample_forward(ATOM_TRIPLET, grid, substream(109, s))
        a, b, c = p.evaluate(0.0), p.evaluate(1.0), p.evaluate(2.0)
        inc1[s] = b - a
        inc2[s] = c - b
    cov = float(np.mean(inc1 * inc2) - inc1.mean() * inc2.mean())
    assert abs(cov) < 3.0 * 0.12 / math.sqrt(n)


def test_determinism_bit_identical():
    a = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 42)
    b = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 42)
    assert np.array_equal(a.forward.values, b.forward.values)
    assert np.array_equal(a.backward.values, b.backward.values)
    assert np.array_equal(a.forward.jump_times, b.forward.jump_times)
    c = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 43)
    assert not np.array_equal(a.forward.values, c.forward.values)


def test_evaluate_cadlag_at_jumps():
    p = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 7)
    assert p.forward.jump_times.size > 0
    s = float(p.forward.jump_times[0])
    kappa = float(p.forward.jump_sizes[0])
    at = p.evaluate(s)
    below = p.evaluate(s - 1e-12)
    # value at the jump time includes the jump; just below excludes it
    assert at - below == pytest.approx(kappa, abs=1e-9)
    # grid nodes return stored values
    node = p.forward.node_times[3]
    assert p.forward.evaluate(node) == pytest.approx(p.forward.values[3])


def test_jump_reconstruction_along_refinement():
    p = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 11)
    s = float(p.forward.jump_times[1])
    kappa = float(p.forward.jump_sizes[1])
    errs = [abs(p.evaluate(s) - p.evaluate(s - h) - kappa)
            for h in (1e-3, 1e-6, 1e-9)]
    assert errs[0] > errs[-1]
    assert errs[-1] < 1e-8


def test_two_sided_construction_checks():
    fwd = lm.sample_forward(ATOM_TRIPLET, lm.TimeGrid(0.0, 2.0, 0.5), 1)
    bwd = lm.sample_backward(ATOM_TRIPLET, lm.TimeGrid(-2.0, 0.0, 0.5), 2)
    ts = lm.TwoSidedPath(fwd, bwd)
    assert ts.evaluate(0.0) == 0.0
    # positive times never read the backward leg
    assert ts.evaluate(1.3) == fwd.evaluate(1.3)
    assert ts.evaluate(-1.3) == bwd.evaluate(-1.3)
    bad = lm.JumpPath(fwd.node_times, fwd.cont + 1.0, fwd.jump_times,
                      fwd.jump_sizes)
    with pytest.raises(StructuralError):
        lm.TwoSidedPath(bad, bwd)


@pytest.mark.parametrize("zero_node_value", [0.0, -0.25, 0.25, math.nan])
def test_origin_check_is_evaluate_at_zero(zero_node_value):
    # legs whose nodes repeat 0 and with jumps at 0 or before it: a leg
    # passes the check exactly when its evaluate(0.0) is 0 (forward: at
    # -0.25, backward: at 0.25)
    fwd = lm.JumpPath([0.0, 0.0, 1.0, 2.0], [3.0, zero_node_value, 0.1, 0.2],
                      [0.0, 1.5], [0.25, 0.1])
    bwd = lm.JumpPath([-2.0, -1.0, 0.0, 0.0], [0.3, 0.2, 7.0, zero_node_value],
                      [-1.0, -0.5], [0.5, -0.75])
    good_fwd = lm.sample_forward(ATOM_TRIPLET, lm.TimeGrid(0.0, 2.0, 0.5), 1)
    good_bwd = lm.sample_backward(ATOM_TRIPLET, lm.TimeGrid(-2.0, 0.0, 0.5), 2)
    for legs, leg in (((fwd, good_bwd), fwd), ((good_fwd, bwd), bwd)):
        if np.all(leg.evaluate(0.0) == 0.0):
            lm.TwoSidedPath(*legs)
        else:
            with pytest.raises(StructuralError, match="vanish at the origin"):
                lm.TwoSidedPath(*legs)


@pytest.mark.parametrize("law", [
    {"drift": math.inf}, {"gauss": math.nan},
    {"measure": lm.LevyMeasure.from_atoms([(10.0, 1e308)]), "delta": 10.0},
    # finite constants whose products with T = 2 are not
    {"drift": 1e308},
    {"measure": lm.LevyMeasure.from_atoms([(10.0, 1e307)]), "delta": 10.0}])
def test_sampler_refuses_non_finite_constants(law):
    # with these and their products with T finite, a sampled leg is finite
    # and vanishes at 0 by construction, so the two-sided origin check reads
    # only hand-built legs
    tri = lm.scalar_triplet(**law)
    with np.errstate(over="ignore"), pytest.raises(ConfigurationError,
                                                   match="must be finite"):
        lm.sample_forward(tri, lm.TimeGrid(0.0, 2.0, 0.5), 1)


@pytest.mark.parametrize("read", [False, True])
def test_overflowing_jump_sums_are_sampled_not_refused(read):
    # jumps of 1e308 overflow a leg's running sums from its second jump on;
    # both legs are sampled and glued alike, built or not, and their values
    # past the overflow are not finite
    tri = lm.scalar_triplet(measure=lm.LevyMeasure.from_atoms([(1e308, 1.0)]))
    p = lm.sample_two_sided(tri, 8.0, 0.5, 3)
    assert p.forward.jump_sizes.size >= 2 and p.backward.jump_sizes.size >= 2
    with np.errstate(over="ignore", invalid="ignore"):
        if read:
            p.forward.cont, p.backward.cont
        p = lm.TwoSidedPath(p.forward, p.backward)
        assert p.evaluate(0.0) == 0.0
        assert not np.isfinite(p.backward.values).any()
        assert np.isinf(p.forward.values[-1])


def test_zero_two_sided_path():
    tri = lm.scalar_triplet()
    ts = lm.sample_two_sided(tri, 2.0, 0.5, 5)
    for t in (-2.0, -0.7, 0.0, 1.9):
        assert ts.evaluate(t) == 0.0


def test_shift_identity_and_drift():
    ts = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 13)
    same = ts.shift(0.0)
    for t in (-4.0, -0.5, 0.0, 2.5):
        assert same.evaluate(t) == ts.evaluate(t)
    drift = lm.sample_two_sided(lm.scalar_triplet(drift=1.0), 5.0, 0.5, 14)
    shifted = drift.shift(1.0)
    for s in (-1.0, 0.0, 2.0):
        assert shifted.evaluate(s) == pytest.approx(s, abs=1e-14)


def test_shift_group_law_exact():
    ts = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 15)
    a = ts.shift(1.25).shift(-0.5)
    b = ts.shift(0.75)
    for t in (-2.0, -0.3, 0.0, 1.1, 3.0):
        assert a.evaluate(t) == b.evaluate(t)


def test_shift_and_evaluate_range_errors():
    ts = lm.sample_two_sided(ATOM_TRIPLET, 2.0, 0.5, 16)
    with pytest.raises(HorizonError):
        ts.shift(5.0)
    with pytest.raises(HorizonError):
        ts.evaluate(3.0)
    with pytest.raises(HorizonError):
        ts.shift(1.0).evaluate(1.5)


def test_shifted_jump_list_retimed():
    ts = lm.sample_two_sided(ATOM_TRIPLET, 5.0, 0.5, 17)
    sh = ts.shift(1.0)
    t0, s0 = ts.jumps_in(-5.0, 5.0)
    t1, s1 = sh.jumps_in(-5.0, 3.9)
    keep = (t0 > -4.0) & (t0 <= 4.9)
    np.testing.assert_allclose(t1, t0[keep] - 1.0, atol=0)
    np.testing.assert_allclose(s1, s0[keep], atol=0)


def test_brownian_gaussian_part():
    tri = lm.scalar_triplet(gauss=1.0)
    n = 4000
    grid = lm.TimeGrid(0.0, 1.0, 0.25)
    vals = np.array([lm.sample_forward(tri, grid, substream(119, s)).evaluate(1.0)
                     for s in range(n)])
    assert abs(vals.mean()) < 3.0 / math.sqrt(n)
    assert abs(vals.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)


def test_infinite_activity_requires_cut():
    pl = lm.LevyMeasure.power_law(0.8, 0.5, 0.5)
    tri = lm.LevyTriplet(0.0, 0.0, pl, 0.5, eps_cut=0.0)
    with pytest.raises(ConfigurationError):
        lm.sample_forward(tri, lm.TimeGrid(0.0, 1.0, 0.5), 1)
    # the variance-rule default keeps the rate simulable here
    ok = lm.scalar_triplet(measure=pl, delta=0.5)
    p = lm.sample_forward(ok, lm.TimeGrid(0.0, 1.0, 0.5), 1)
    assert p.jump_times.size > 0


def test_power_law_band_jump_sizes():
    pl = lm.LevyMeasure.power_law(0.8, 0.5, 0.5)
    tri = lm.scalar_triplet(measure=pl, delta=0.5)
    p = lm.sample_forward(tri, lm.TimeGrid(0.0, 5.0, 1.0), 21)
    eps = tri.effective_cut()
    mags = np.abs(p.jump_sizes)
    assert np.all(mags >= eps * (1 - 1e-12))
    assert np.all(mags <= 0.5 * (1 + 1e-12))


def test_path_csv_dump():
    ts = lm.sample_two_sided(ATOM_TRIPLET, 2.0, 0.5, 19)
    buf = io.StringIO()
    lm.dump_path_csv(ts, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,component_1,is_jump"
    n_jump_rows = sum(1 for ln in lines[1:] if ln.endswith(",1"))
    assert n_jump_rows == ts.forward.jump_times.size + ts.backward.jump_times.size


def test_jump_path_rejects_inconsistent_tables():
    nodes, zeros = [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]
    # one jump time, two sizes
    with pytest.raises(StructuralError, match="jump_sizes length mismatch"):
        lm.JumpPath(nodes, zeros, [0.5], [0.1, 0.2])
    with pytest.raises(StructuralError, match="cont length mismatch"):
        lm.JumpPath(nodes, zeros[:2], [], [])
    # unsorted times would count the jump at 1.5 at t = 0.7
    with pytest.raises(StructuralError, match="jump_times must not decrease"):
        lm.JumpPath(nodes, zeros, [1.5, 0.5], [0.1, 0.2])
    with pytest.raises(StructuralError, match="node_times must not decrease"):
        lm.JumpPath([0.0, 2.0, 1.0], zeros, [], [])
    # repeated times stay legal
    p = lm.JumpPath([0.0, 0.0, 1.0, 2.0], np.zeros(4), [0.5, 0.5], [0.1, 0.2])
    assert p.evaluate(0.7) == 0.1 + 0.2
    assert p.evaluate(0.4) == 0.0


def test_gaussian_branch_is_pinned():
    """No shipped config has a Gaussian part, so the Gaussian branch of the
    sampler, the characteristic exponent and the Doléans exponential is
    pinned here, bit for bit."""
    m = lm.LevyMeasure.from_atoms([(0.2, 3.0), (-0.3, 1.0)])
    tri = lm.scalar_triplet(drift=0.7, gauss=1.3, measure=m, delta=0.5)
    path = lm.sample_two_sided(tri, 5.0, 0.25, 11)
    buf = io.StringIO()
    lm.dump_path_csv(path, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "ab4cf1078b0ae3fcf6b4f4440aae18abf63c39a1c0a4c2b90f4dd1444d5bf255")
    assert repr(lm.characteristic_exponent(tri, 1.7)) == (
        "(-2.74104149576921+1.1922840295395356j)")
    assert repr(lm.StochasticExponential1D(path).log_value(3.3)) == (
        "0.5084241146643882")
    # the stable_1d config's triplet, as its scaling check reads it
    stable = lm.scalar_triplet(
        drift=1.0, measure=lm.LevyMeasure.power_law(0.8, 0.5, 0.5), delta=0.5)
    assert repr(lm.stable_scaling_residual(stable, 0.8, 2.0, 1.0)) == (
        "0.4680512822425999")


# -- array lookups -------------------------------------------------------------


def _lookup_times(lo, hi, seed, extra=()):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(lo, hi, 40), [lo, hi], extra])


@pytest.mark.parametrize("seed", [51, 52])
def test_jump_path_array_lookups_match_scalar_calls(seed):
    p = lm.sample_forward(lm.scalar_triplet(gauss=0.6, measure=ATOM, delta=0.5),
                          lm.TimeGrid(0.0, 3.0, 0.1), seed)
    t0 = _lookup_times(0.0, 3.0, seed, p.jump_times[:3])
    t1 = _lookup_times(0.0, 3.0, seed + 1, p.node_times[5:8])
    at = p.continuous_at(t0)
    inc = p.continuous_increment(t0, t1)
    assert at.shape == inc.shape == (t0.size,)
    for k in range(t0.size):
        assert at[k].tobytes() == p.continuous_at(float(t0[k])).tobytes()
        assert (inc[k].tobytes()
                == p.continuous_increment(float(t0[k]), float(t1[k])).tobytes())


@pytest.mark.parametrize("offset", [0.0, 0.83, -1.37])
def test_two_sided_array_lookups_match_scalar_calls(offset):
    path = lm.sample_two_sided(lm.scalar_triplet(gauss=0.6, measure=ATOM),
                               3.0, 0.1, 53).shift(offset)
    lo, hi = path.horizon
    # windows on either side of 0, across it in both directions, and ending
    # exactly at the base origin
    t0 = _lookup_times(lo, hi, 54, [-offset, 0.5 - offset, -offset - 0.5])
    t1 = _lookup_times(lo, hi, 55, [0.4 - offset, -offset, -offset + 0.7])
    assert np.any(t0 + offset < 0.0) and np.any(t1 + offset >= 0.0)
    assert np.any((t0 + offset < 0.0) != (t1 + offset < 0.0))
    inc = path.continuous_increment(t0, t1)
    for k in range(t0.size):
        assert (inc[k].tobytes()
                == path.continuous_increment(float(t0[k]), float(t1[k])).tobytes())
    # a scalar end against an array of starts broadcasts
    np.testing.assert_array_equal(path.continuous_increment(t0, 0.0),
                                  -path.continuous_increment(0.0, t0))
    # evaluate is elementwise too, with and without a Gaussian part
    plain = lm.sample_two_sided(lm.scalar_triplet(drift=1.0, measure=ATOM),
                                3.0, 0.1, 53).shift(offset)
    for p in (path, plain):
        at = p.evaluate(t0)
        assert at.shape == t0.shape
        for k in range(t0.size):
            assert at[k].tobytes() == p.evaluate(float(t0[k])).tobytes()
    # windows wholly on the forward leg, wholly on the backward leg, and
    # across 0, against each leg's continuous_at(t1) - continuous_at(t0)
    s0, s1 = t0 + offset, t1 + offset
    for on in (np.minimum(s0, s1) >= 0.0, np.maximum(s0, s1) < 0.0,
               (s0 >= 0.0) != (s1 >= 0.0)):
        assert np.any(on)
        assert (path.continuous_increment(t0[on], t1[on]).tobytes()
                == _two_sided_increment(path, t0[on], t1[on]).tobytes())


def _two_sided_increment(path, t0, t1):
    """TwoSidedPath.continuous_increment from each leg's continuous_at(t1)
    - continuous_at(t0), with both legs called whatever the windows."""
    def leg_increment(leg, a, b):
        return leg.continuous_at(b) - leg.continuous_at(a)

    s0, s1 = t0 + path.offset, t1 + path.offset
    fwd0, fwd1 = s0 >= 0.0, s1 >= 0.0
    out = np.empty(s0.shape)
    for leg, on in ((path.forward, fwd0 & fwd1),
                    (path.backward, ~fwd0 & ~fwd1)):
        out[on] = leg_increment(leg, s0[on], s1[on])
    cross = fwd0 != fwd1
    a, b = s0[cross], s1[cross]
    sgn = np.where(b >= a, 1.0, -1.0)
    out[cross] = sgn * (leg_increment(path.backward, np.minimum(a, b), 0.0)
                        + leg_increment(path.forward, 0.0, np.maximum(a, b)))
    return out


def test_array_lookups_outside_horizon():
    fwd = lm.sample_forward(ATOM_TRIPLET, lm.TimeGrid(0.0, 2.0, 0.5), 56)
    with pytest.raises(HorizonError, match="t=2.5 outside"):
        fwd.continuous_at(np.array([0.5, 2.5, 1.0]))
    with pytest.raises(HorizonError):
        fwd.continuous_increment(np.array([0.1, 0.2]), np.array([1.0, -0.1]))
    # both ends outside: the error names the end's time, as continuous_at(t1)
    # - continuous_at(t0) does
    with pytest.raises(HorizonError, match=r"^t=2\.5 outside"):
        fwd.continuous_increment(np.array([0.1, -0.3]), np.array([1.0, 2.5]))
    ts = lm.sample_two_sided(ATOM_TRIPLET, 2.0, 0.5, 57).shift(0.5)
    with pytest.raises(HorizonError):
        ts.continuous_increment(np.array([-2.6, 0.0]), np.array([0.3, 0.4]))
    with pytest.raises(HorizonError):
        ts.continuous_increment(np.array([0.0, -1.0]), np.array([0.3, 1.6]))


def _bits(a):
    return np.ascontiguousarray(a, float).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(n_steps=st.integers(1, 40), dt=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
       data=st.data())
def test_node_merge_bitwise_equals_unique(n_steps, dt, data):
    grid = lm.TimeGrid(0.0, n_steps * dt, dt).times()
    T = float(grid[-1])
    drawn = data.draw(st.lists(st.floats(0.0, T), max_size=60))
    # jump times that hit grid values (0.0 and T among them), some repeated
    hits = data.draw(st.lists(st.sampled_from(grid.tolist()), max_size=10))
    jt = np.sort(np.array(drawn + hits + [0.0, T], float))
    merged = _merge_nodes(grid, jt)
    assert np.array_equal(_bits(merged),
                          _bits(np.unique(np.concatenate([grid, jt]))))
    # a third sorted input, e.g. a second driver's jump times
    kt = np.sort(np.array(data.draw(st.lists(st.floats(0.0, T), max_size=30))
                          + hits, float))
    assert np.array_equal(_bits(_merge_nodes(grid, jt, kt)),
                          _bits(np.unique(np.concatenate([grid, jt, kt]))))
    assert np.array_equal(_bits(_merge_nodes(grid, np.empty(0))), _bits(grid))


GROUP_PATH = lm.sample_two_sided(ATOM_TRIPLET, 3.0, 0.25, 61)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0), u=st.floats(-1.0, 1.0))
@example(s=-0.5, t=1.0, u=0.3)    # s < 0 < s + t: the window crosses 0
@example(s=0.7, t=-1.0, u=-0.6)   # s > 0 > s + t
@example(s=0.0, t=-0.25, u=0.25)  # shifts onto grid nodes
def test_shift_group_law_property(s, t, u):
    p = GROUP_PATH
    twice, once = p.shift(s).shift(t), p.shift(s + t)
    assert twice.offset == once.offset
    assert np.array_equal(twice.evaluate(u), once.evaluate(u))
    assert np.array_equal(twice.continuous_increment(0.0, u),
                          once.continuous_increment(0.0, u))
    for got, want in zip(twice.jumps_in(-1.0, u), once.jumps_in(-1.0, u)):
        assert np.array_equal(got, want)
    increment = p.evaluate(s + u) - p.evaluate(s)
    np.testing.assert_allclose(p.shift(s).evaluate(u), increment,
                               rtol=0.0, atol=1e-12)


# Sizes on both sides of _PACKED_SORT_MIN, and powers of two with their
# neighbours, where the index field of the packed key gains a bit.
_ORDER_SIZES = [1, 2, 3, 600, _PACKED_SORT_MIN - 1, _PACKED_SORT_MIN,
                2047, 2048, 2049, 4095, 4096, 4097, 20000]


def _times(kinds, n, seed):
    """n nonnegative finite times, each drawn from one of ``kinds``."""
    rng = np.random.default_rng(seed)
    pool = {
        "uniform": rng.uniform(0.0, 60.0, n),
        # exact ties, 0.0 among them
        "ties": rng.choice([0.0, 0.5, 1.0, 17.25, 59.0], n),
        # 0.0, subnormals and the smallest normals
        "tiny": rng.integers(0, 8, n) * 5e-324 + rng.integers(0, 2, n) * 2.2250738585072014e-308,
        # np.nextafter neighbours of one time: they share their high bits
        "neighbours": (np.array([37.5]).view(np.uint64)
                       + rng.integers(0, 64, n, dtype=np.uint64)).view(float),
    }
    pick = rng.integers(0, len(kinds), n)
    return np.choose(pick, [pool[k] for k in kinds])


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from(_ORDER_SIZES) | st.integers(1, 6000),
       kinds=st.lists(st.sampled_from(["uniform", "ties", "tiny", "neighbours"]),
                      min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1))
@example(n=4096, kinds=["neighbours"], seed=0)
@example(n=_PACKED_SORT_MIN, kinds=["ties", "tiny"], seed=1)
def test_time_order_is_the_stable_argsort(n, kinds, seed):
    t = _times(kinds, n, seed)
    order = _time_order(t)
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.all(np.diff(t[order]) >= 0.0)
    if n >= _PACKED_SORT_MIN:
        # equal times keep their index order
        assert np.array_equal(order, np.argsort(t, kind="stable"))
    else:
        assert np.array_equal(order, np.argsort(t))
    if np.unique(t).size == n:
        assert np.array_equal(order, np.argsort(t))


def test_time_order_of_distinct_times_is_argsort():
    rng = np.random.default_rng(7)
    for n in (0, 1, 5, 1999, 2000, 65536, 65537, 300000):
        t = rng.uniform(0.0, 60.0, n)
        assert np.unique(t).size == n
        assert np.array_equal(_time_order(t), np.argsort(t))


def _reference_sizes(measure, rng, n, lo, hi):
    """The power-law size draw as first written: full-size temporaries and
    an np.where sign."""
    if measure.kind == ATOMS:  # that branch is unchanged
        return measure.sample_sizes(rng, n, lo, hi)
    if n == 0:
        return np.empty(0)
    a = measure.alpha
    hi = min(hi, measure.cutoff)
    v = rng.random(n)
    if math.isinf(hi):
        mag = lo * (1.0 - v) ** (-1.0 / a)
    else:
        mag = (lo**-a - v * (lo**-a - hi**-a)) ** (-1.0 / a)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return sign * mag


def _reference_draw(triplet, T, rng):
    """The jump draw as first written: concatenated bands, np.argsort."""
    times, sizes = [], []
    for lo, hi, rate in lm.paths.check_jump_budget(triplet, T):
        n = int(rng.poisson(rate * T))
        times.append(rng.uniform(0.0, T, n))
        sizes.append(_reference_sizes(triplet.measure, rng, n, lo, hi))
    if times:
        t = np.concatenate(times)
        s = np.concatenate(sizes)
        order = np.argsort(t)
        return t[order], s[order]
    return np.empty(0), np.empty(0)


_DRAW_LAWS = {
    "shipped": lm.scalar_triplet(
        drift=1.0, measure=lm.LevyMeasure.power_law(0.8, 0.5, 0.5), delta=0.5),
    # two nonzero bands: the draws are concatenated
    "untruncated": lm.scalar_triplet(
        measure=lm.LevyMeasure.power_law(0.8, 0.5, math.inf), delta=0.5),
    "alpha_1.5": lm.scalar_triplet(
        measure=lm.LevyMeasure.power_law(1.5, 0.5, 0.5), delta=0.5, eps_cut=1e-3),
    "atoms": lm.scalar_triplet(
        measure=lm.LevyMeasure.from_atoms([(0.2, 3.0), (-0.3, 1.0), (1.5, 0.5)]),
        delta=0.5),
}


@pytest.mark.parametrize("law", list(_DRAW_LAWS))
def test_jump_draw_bitwise_equals_reference(law):
    tri = _DRAW_LAWS[law]
    rate = sum(r for _, _, r in tri._band_constants[1])
    counts = set()
    # about 1, 500 and 5000 expected jumps: n = 0 and 1, and both sides
    # of the packed-sort crossover
    for mean in (1.0, 500.0, 5000.0):
        for seed in range(8):
            got = _draw_jumps(tri, mean / rate, np.random.default_rng(seed))
            want = _reference_draw(tri, mean / rate, np.random.default_rng(seed))
            for g, w in zip(got, want):
                assert np.array_equal(_bits(g), _bits(w))
            counts.add(got[0].size)
    assert {0, 1} <= counts
    assert max(counts) >= _PACKED_SORT_MIN


def test_shipped_leg_draw_bitwise_equals_reference():
    tri = _DRAW_LAWS["shipped"]
    for seed in (3, 4):
        got = _draw_jumps(tri, 60.0, np.random.default_rng(seed))
        want = _reference_draw(tri, 60.0, np.random.default_rng(seed))
        assert got[0].size > 600_000
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("law", ["shipped", "untruncated", "alpha_1.5"])
@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_power_law_sizes_bitwise_equal_reference(law, n):
    m = _DRAW_LAWS[law].measure
    for seed in range(4):
        for lo, hi in ((1e-3, 0.5), (0.5, math.inf)):
            got = m.sample_sizes(np.random.default_rng(seed), n, lo, hi)
            want = _reference_sizes(m, np.random.default_rng(seed), n, lo, hi)
            assert np.array_equal(_bits(got), _bits(want))


def test_single_atom_sizes_bitwise_equal_choice():
    # one atom in the band: the sizes are that atom and the stream moves on
    # as Generator.choice with p = [1.0] would move it (checked on numpy
    # 2.4.6), so the uniform and Poisson draws after it are the same
    m = lm.LevyMeasure.from_atoms([(0.2, 3.0), (0.7, 1.0)])
    for index in range(50):
        n = 1 + 37 * index
        got, want = (substream(3, index, 0, 0) for _ in range(2))
        sizes = m.sample_sizes(got, n, 0.0, 0.5)
        assert np.array_equal(
            _bits(sizes), _bits(np.array([0.2])[want.choice(1, n, p=[1.0])]))
        assert _bits(got.uniform(0.0, 5.0, 3)).tolist() == _bits(
            want.uniform(0.0, 5.0, 3)).tolist()
        assert got.poisson(30.0) == want.poisson(30.0)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
def test_single_atom_sizes_on_other_bit_generators(bit_generator):
    # PCG64 alone takes the stream advance; a generator without advance, or
    # whose advance steps by blocks (Philox), draws through choice
    m = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
    got, want = (np.random.Generator(bit_generator(7)) for _ in range(2))
    sizes = m.sample_sizes(got, 25, 0.0, 0.5)
    assert np.array_equal(sizes, np.array([0.2])[want.choice(1, 25, p=[1.0])])
    assert got.random() == want.random()


def test_backward_leg_bitwise_equals_reflected_forward_leg():
    tri = _DRAW_LAWS["untruncated"]
    for seed in (5, 6):
        fwd = lm.sample_forward(tri, lm.TimeGrid(0.0, 0.05, 0.01), seed)
        bwd = lm.sample_backward(tri, lm.TimeGrid(-0.05, 0.0, 0.01), seed)
        sizes = fwd.jump_sizes[::-1]
        total = np.cumsum(sizes, axis=0)[-1] if sizes.size else 0.0
        assert np.array_equal(_bits(bwd.cont), _bits(-fwd.cont[::-1] - total))
        assert bwd.evaluate(0.0) == 0.0


def test_forward_leg_memory_peak():
    """A shipped stable_1d leg (about 664k jumps) allocates at most 5.5
    arrays of its jump count at once (5.0 measured on seeds 1-3, with the
    compensation subtracted in place), so no full-size temporary creeps
    back into the draw or into the skeleton it builds on first read."""
    tri = _DRAW_LAWS["shipped"]
    grid = lm.TimeGrid(0.0, 60.0, 0.5)
    tracemalloc.start()
    try:
        path = lm.sample_forward(tri, grid, 11)
        path.cont
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = path.jump_times.size
    assert n > 600_000
    assert peak <= 5.5 * 8 * n


def test_stable_1d_row_memory_peak():
    """stable_1d's row, a shipped leg read at its last node by the Doléans
    exponential, allocates at most 5.5 arrays of the leg's jump count at
    once (5.0 measured on seeds 1, 2, 3 and 11; 6.0 while the read built
    the skeleton)."""
    tri = _DRAW_LAWS["shipped"]
    grid = lm.TimeGrid(0.0, 60.0, 0.5)
    tracemalloc.start()
    try:
        path = lm.sample_forward(tri, grid, 11)
        lm.StochasticExponential1D(path).log_value(60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = path.jump_times.size
    assert n > 600_000
    assert peak <= 5.5 * 8 * n


def _end_reads(leg):
    """Times at and 1e-13 past a leg's end nodes, one at a time and as an
    array."""
    lo, hi = leg.horizon
    times = [lo, hi, lo - 1e-13, hi + 1e-13]
    return times + [np.array(times), np.array([hi, hi]), np.array([[lo]])]


@pytest.mark.parametrize("law", list(_DRAW_LAWS))
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_end_reads_are_the_built_skeleton_bits(law, backward):
    # a sampled leg read only at or past its end nodes answers from those
    # two nodes and stays unbuilt; a built twin reads the merged skeleton
    tri = _DRAW_LAWS[law]

    def leg(seed, T, dt):
        if backward:
            return lm.sample_backward(tri, lm.TimeGrid(-T, 0.0, dt), seed)
        return lm.sample_forward(tri, lm.TimeGrid(0.0, T, dt), seed)

    for seed in range(5):
        # T = 0.3, dt = 0.1: the last grid node is 0.30000000000000004
        for T, dt in ((1.0, 0.1), (0.3, 0.1)):
            path, twin = leg(seed, T, dt), leg(seed, T, dt)
            twin.node_times
            for t in _end_reads(path):
                for read in ("continuous_at", "evaluate"):
                    got = getattr(path, read)(t)
                    want = getattr(twin, read)(t)
                    assert type(got) is type(want)
                    assert np.array_equal(_bits(got), _bits(want))
            assert "_skeleton" not in vars(path)
            if T == 0.3:  # +-0.3 lies inside the horizon: the read builds
                t = -0.3 if backward else 0.3
                assert abs(t) < abs(path.horizon[0 if backward else 1])
                got, want = path.continuous_at(t), twin.continuous_at(t)
                assert "_skeleton" in vars(path)
                assert _bits(got) == _bits(want)


def test_nan_read_takes_the_skeleton_path():
    for t in (np.nan, np.array([0.0, np.nan])):
        path = lm.sample_forward(ATOM_TRIPLET, lm.TimeGrid(0.0, 2.0, 0.5), 4)
        assert np.isnan(path.continuous_at(t)).any()
        assert "_skeleton" in vars(path)


# (measure, delta, T, dt); the atoms fill both jump bands, {|u| <= 0.5}
# and {|u| > 0.5}
_TABLE_LAWS = {
    "atom_bands": (lm.LevyMeasure.from_atoms(
        [(0.2, 3.0), (-0.3, 1.0), (0.7, 0.5)]), 0.5, 20.0, 0.5),
    "power_law": (lm.LevyMeasure.power_law(0.8, 0.5, 0.5), 0.5, 1.0, 0.1),
    "none": (lm.LevyMeasure.empty(), 0.5, 20.0, 0.5),
}


# a doleans_1d config of each law of _TABLE_LAWS it accepts
_TABLE_CONFIGS = {
    "power_law": "measure.kind = power_law\nmeasure.alpha = 0.8\n"
                 "measure.c = 0.5\nhorizon = 1\ndt = 0.1\n",
    "none": "measure.kind = none\nhorizon = 20\ndt = 0.5\n",
}


def _skeletons_read(path):
    """``path``, each of its legs' skeletons built."""
    for leg in (path.forward, path.backward):
        leg.node_times
    return path


@pytest.mark.parametrize("law", list(_TABLE_LAWS))
def test_closed_form_is_bitwise_with_or_without_skeleton(law, monkeypatch):
    # the closed form reads the drivers' jumps alone: its QR and alpha
    # stacks, and the doleans_1d rows, are the same bits whether or not the
    # legs' skeletons were built first, and computing them builds none
    from levymet import experiments
    from levymet.cocycle import _alpha_stack
    from levymet.spectrum import _qr_stack

    def refuse(*args):
        raise AssertionError("the closed form built a skeleton")

    measure, delta, T, dt = _TABLE_LAWS[law]
    drivers = lm.benchmark_drivers(measure, delta)
    built = [[read(lm.sample_two_sided(drivers[i], T, dt, 7, path_index=3,
                                       driver=i)) for i in range(2)]
             for read in (lambda path: path, _skeletons_read)]
    n = [leg.jump_times.size for leg in (built[0][0].forward,
                                         built[0][0].backward)]
    if law == "none":
        assert n == [0, 0]
    elif law == "power_law":  # the packed _time_order branch
        assert min(n) > _PACKED_SORT_MIN
    if law == "atom_bands":
        # the closed form takes small jumps only, and refuses both alike;
        # its stacks return once it takes large jumps
        for x in built:
            with pytest.raises(SupportError, match="above delta"):
                lm.ExactDiagonal2D(x)
        return
    stacks = []
    for x in built:
        with monkeypatch.context() as m:
            if x is built[0]:
                m.setattr(lm.paths, "_merge_nodes", refuse)
            ev = lm.ExactDiagonal2D(x)
            stacks.append((_qr_stack(ev, T, dt), _qr_stack(ev, -T, dt),
                           _alpha_stack(ev, lm.TimeGrid(0.0, 1.0, 0.05))))
    for got, want in zip(*stacks):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    cfg = lm.parse_config("experiment = doleans_1d\nmaster_seed = 7\n"
                          + _TABLE_CONFIGS[law])
    rows = [repr([experiments._row_doleans_1d(cfg)(i) for i in range(4)])]
    monkeypatch.setattr(experiments, "sample_two_sided",
                        lambda *args, **kwargs: _skeletons_read(
                            lm.sample_two_sided(*args, **kwargs)))
    rows.append(repr([experiments._row_doleans_1d(cfg)(i) for i in range(4)]))
    assert rows[0] == rows[1]


def _leg_refs(path):
    return [weakref.ref(leg) for leg in (path.forward, path.backward)]


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_sampled_legs_are_freed_by_refcount(read):
    # a leg holds data, not a closure over itself: with the cycle collector
    # off, dropping the path frees both legs, before and after their
    # skeletons are built
    path = lm.sample_two_sided(lm.scalar_triplet(drift=1.0, measure=ATOM),
                               4.0, 0.5, 2)
    if read:
        _skeletons_read(path.shift(0.5))
        path.evaluate(np.array([-1.0, 1.0]))
    refs = _leg_refs(path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del path
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_sampled_path_round_trips_through_pickle(read):
    path = lm.sample_two_sided(ATOM_TRIPLET, 4.0, 0.5, 3)
    if read:
        _skeletons_read(path)
    back = pickle.loads(pickle.dumps(path))
    t = np.linspace(-4.0, 4.0, 17)
    for got, want in ((back.jumps_in(-4.0, 4.0), path.jumps_in(-4.0, 4.0)),
                      ((back.evaluate(t),), (path.evaluate(t),)),
                      ((back.forward.node_times, back.backward.node_times),
                       (path.forward.node_times, path.backward.node_times))):
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b))
