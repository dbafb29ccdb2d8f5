"""Càdlàg Lévy path sampling for positive and negative time.

Paths are stored as a continuous skeleton on a node set (the uniform grid
plus every jump time, so Brownian increments are exact at jump times) plus
an explicit jump list.  Evaluation linearly interpolates the skeleton and
adds all jumps at times <= t (right-continuous convention); the value at
time 0 is exactly 0.

Negative-time paths are built by time-reflecting an independent forward
sample: for a forward path F, the backward path is t -> -F((-t)-), which is
càdlàg, vanishes at 0, and carries the re-timed jumps (-s_k, kappa_k).

Two-sided paths support the shift flow theta_t as a lazy view: shifting
adds an offset and re-anchors at the new origin, so the group law
theta_s theta_t = theta_{s+t} holds exactly.

A reader of the jumps alone (the closed-form exact cocycle) can take a
two-sided jump table instead: the same draws from the same substreams,
without the skeleton.
"""

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HorizonError, StructuralError
from .measures import ATOMS


def _outside_horizon(t, horizon):
    """Mask of the times ``t`` outside (lo, hi) = ``horizon`` by > 1e-12."""
    lo, hi = horizon
    return (t < lo - 1e-12) | (t > hi + 1e-12)


def _check_in_horizon(t, horizon, name="horizon"):
    """Raise a HorizonError naming the first time of ``t`` outside."""
    outside = _outside_horizon(t, horizon)
    if np.any(outside):
        raise HorizonError(f"t={t[outside][0]} outside {name} "
                           f"[{horizon[0]}, {horizon[1]}]")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start + k*dt, k = 0..n_steps."""

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ConfigurationError("dt must be > 0")
        if not self.t_start < self.t_end:
            raise ConfigurationError("t_start must be < t_end")
        n = (self.t_end - self.t_start) / self.dt
        if not math.isfinite(n):
            raise ConfigurationError(f"(t_end - t_start)/dt = {n} steps; "
                                     "raise dt")
        if abs(n - round(n)) > 4.0 * np.finfo(float).eps * max(1.0, abs(n)):
            raise ConfigurationError("(t_end - t_start)/dt must be an integer")
        if round(n) == 0:
            raise ConfigurationError(f"(t_end - t_start)/dt = {n:.3g} rounds "
                                     "to 0 steps; lower dt")

    @property
    def n_steps(self):
        return int(round((self.t_end - self.t_start) / self.dt))

    def times(self):
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


class JumpPath:
    """One-sided scalar path: continuous skeleton at nodes + jump list, all
    1-D arrays.

    ``values`` (continuous part plus all jumps at times <= node) is what a
    càdlàg reader sees at the nodes; ``cont`` is the skeleton used for
    interpolation.  Node times include every jump time; node and jump times
    never decrease, and each jump time has one size.  ``triplet`` is the
    law the path was sampled from (None for a hand-built path); its
    simulated band and compensation rate are read from it, not stored.
    """

    def __init__(self, node_times, cont, jump_times, jump_sizes, triplet=None):
        self.node_times = np.asarray(node_times, float)
        self.cont = np.asarray(cont, float)
        self.jump_times = np.asarray(jump_times, float)
        self.jump_sizes = np.asarray(jump_sizes, float)
        self.triplet = triplet
        if self.node_times.shape != self.cont.shape:
            raise StructuralError("node_times and cont length mismatch")
        _check_not_decreasing(self.node_times, "node_times")
        _check_jump_table(self.jump_times, self.jump_sizes)
        self._jump_cum = np.zeros(self.jump_sizes.size + 1)
        np.cumsum(self.jump_sizes, out=self._jump_cum[1:])

    @property
    def t_start(self):
        return float(self.node_times[0])

    @property
    def t_end(self):
        return float(self.node_times[-1])

    @property
    def horizon(self):
        return (self.t_start, self.t_end)

    @property
    def values(self):
        """Right-continuous path values at the nodes."""
        idx = np.searchsorted(self.jump_times, self.node_times, side="right")
        return self.cont + self._jump_cum[idx]

    def continuous_at(self, t):
        """Interpolated skeleton at t, elementwise for arrays of times."""
        t = np.asarray(t, float)
        _check_in_horizon(t, self.horizon, "sampled horizon")
        return np.interp(t, self.node_times, self.cont)

    def evaluate(self, t):
        """Path value at t: interpolated skeleton + jumps at times <= t."""
        idx = np.searchsorted(self.jump_times, t, side="right")
        return self.continuous_at(t) + self._jump_cum[idx]

    def continuous_increment(self, t0, t1):
        """continuous_at(t1) - continuous_at(t0), elementwise for arrays,
        from one lookup of both ends; a HorizonError names the first time
        outside, of t1 before t0."""
        ends = self.continuous_at(np.stack(np.broadcast_arrays(t1, t0)))
        return ends[0] - ends[1]

    def jumps_in(self, a, b):
        """Jump times and sizes with a < s <= b."""
        return _leg_jumps_in(self.jump_times, self.jump_sizes, a, b)


def _check_not_decreasing(x, name):
    # bool temporaries only: np.diff would make a float one
    if np.any(x[1:] < x[:-1]):
        raise StructuralError(f"{name} must not decrease")


def _check_jump_table(times, sizes):
    """A leg's jump table: one size per time, times not decreasing."""
    if times.shape != sizes.shape:
        raise StructuralError("jump_times and jump_sizes length mismatch")
    _check_not_decreasing(times, "jump_times")


def _leg_jumps_in(times, sizes, a, b):
    """The jumps of one leg's table with a < s <= b."""
    i = np.searchsorted(times, a, side="right")
    j = np.searchsorted(times, b, side="right")
    return times[i:j], sizes[i:j]


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def substream(master_seed, path_index=0, driver=0, leg=0):
    """Independent, reproducible RNG substream keyed by
    (master_seed, path_index, driver, leg)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(path_index, driver, leg))
    return np.random.default_rng(ss)


# Most grid steps, and most expected jumps, one leg may sample.  Each step
# or jump adds a node time and a skeleton value of 8 bytes each, so at the
# budget each of a leg's arrays takes about 40 MB.
SAMPLER_BUDGET = 5e6


def check_jump_budget(triplet, T):
    """The triplet's jump bands (lo, hi, rate) of nonzero rate, sampled on
    (0, T).  Raises ConfigurationError for an infinite rate or an expected
    jump count above :data:`SAMPLER_BUDGET`."""
    m = triplet.measure
    bands = []
    for lo, hi, rate in triplet._band_constants[1]:
        if rate == 0.0:
            continue
        if not math.isfinite(rate):  # only a power law's cut can reach 0
            raise ConfigurationError(
                f"infinite simulated jump rate: the small-jump cut is {lo:.3g} "
                f"for the power law with alpha = {m.alpha}, c = {m.c}; lower "
                "measure.alpha or measure.c")
        if rate * T > SAMPLER_BUDGET:
            knobs = ("the measure.atoms rates" if m.kind == ATOMS
                     else "measure.alpha or measure.c")
            raise ConfigurationError(
                f"expected jump count {rate * T:.2e} exceeds the sampler "
                f"budget of {SAMPLER_BUDGET:.0e}; lower {knobs}, or shorten "
                "the horizon")
        bands.append((lo, hi, rate))
    return bands


# Fewest times :func:`_time_order` sorts by packed keys.  Below it a plain
# ``np.argsort`` is faster: on an AVX-512 Xeon with numpy 2.4 the packed sort
# took 22 against 11 us at 600 times, 34 against 34 us at 2,000 and 56
# against 69 us at 4,000.  The atom legs of the shipped configs (about 6 to
# 600 jumps) keep exactly the ``np.argsort`` call.
_PACKED_SORT_MIN = 2000


def _time_order(t):
    """The permutation that sorts the times ``t >= 0`` (never -0.0).

    Below :data:`_PACKED_SORT_MIN` times this is ``np.argsort(t)``, whose
    order among equal times is unspecified.  From there on it is
    ``np.argsort(t, kind="stable")``, from one integer sort: for t >= 0
    the float64 bit patterns order as the values, so each key packs the
    high bits of a time above its index.  Adjacent keys whose high bits
    agree are re-sorted by full time, with ties kept in index order.
    """
    n = t.size
    if n < _PACKED_SORT_MIN:
        return np.argsort(t)
    shift = np.uint64((n - 1).bit_length())
    key = t.view(np.uint64) >> shift
    key <<= shift
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & ((np.uint64(1) << shift) - np.uint64(1))).view(np.intp)
    key >>= shift  # the high bits alone
    tie = key[1:] == key[:-1]
    if tie.any():
        run = np.zeros(n, bool)
        run[1:] = tie
        run[:-1] |= tie
        pos = np.flatnonzero(run)
        sub = order[pos]
        order[pos] = sub[np.lexsort((t[sub], key[pos]))]
    return order


def _draw_jumps(triplet, T, rng):
    """Marked-Poisson jump draw on (0, T) over the bands of
    :func:`check_jump_budget`.  Returns the times sorted by
    :func:`_time_order` and the sizes in the same order: jumps at equal
    times keep their draw order from :data:`_PACKED_SORT_MIN` jumps on and
    come in ``np.argsort``'s unspecified order below."""
    times, sizes = [], []
    for lo, hi, rate in check_jump_budget(triplet, T):
        n = int(rng.poisson(rate * T))
        times.append(rng.uniform(0.0, T, n))
        sizes.append(triplet.measure.sample_sizes(rng, n, lo, hi))
    if not times:
        return np.empty(0), np.empty(0)
    if len(times) == 1:
        t, s = times[0], sizes[0]
    else:
        t, s = np.concatenate(times), np.concatenate(sizes)
    order = _time_order(t)
    return t[order], s[order]


def _merge_nodes(*times):
    """Sorted union of sorted time arrays, each value once: bitwise
    ``np.unique(np.concatenate(times))``.  The stable sort (timsort) finds
    the sorted runs and merges them, where ``np.unique`` sorts from
    scratch."""
    nodes = np.concatenate(times)
    nodes.sort(kind="stable")
    keep = np.empty(nodes.size, bool)
    keep[:1] = True
    np.not_equal(nodes[1:], nodes[:-1], out=keep[1:])
    return nodes[keep]


def sample_forward(triplet, grid, rng_seed):
    """Sample a forward path on [0, T] from the Lévy–Itô decomposition:
    drift + Gaussian part + compensated small jumps on [eps_cut, delta]
    + raw jumps above delta.  Node times are the grid plus every jump
    time.  Deterministic given the seed.
    """
    if grid.t_start != 0.0:
        raise ConfigurationError("forward grid must start at 0")
    rng = _as_rng(rng_seed)
    jt, js = _draw_jumps(triplet, grid.t_end, rng)
    node_times = _merge_nodes(grid.times(), jt)
    cont = node_times * triplet.drift
    if not triplet.measure.is_empty:
        cont -= triplet.compensation_rate() * node_times
    if triplet.gaussian:
        dW = rng.standard_normal(node_times.size - 1)
        dW *= np.sqrt(np.diff(node_times))
        W = np.zeros(node_times.size)
        np.cumsum(dW, out=W[1:])
        cont += triplet.gaussian * W
    return JumpPath(node_times, cont, jt, js, triplet)


def _reflected(times, sizes):
    """A forward leg's jump table re-timed to negative time: the jumps of
    t -> -F((-t)-), times not decreasing."""
    return -times[::-1], sizes[::-1]


def sample_backward(triplet, grid, rng_seed):
    """Sample a negative-time path on [t_start, 0] by reflecting an
    independent forward sample: L(t) = -F((-t)-)."""
    if grid.t_end != 0.0:
        raise ConfigurationError("backward grid must end at 0")
    fwd = sample_forward(triplet, TimeGrid(0.0, -grid.t_start, grid.dt),
                         rng_seed)
    path = JumpPath(-fwd.node_times[::-1], -fwd.cont[::-1],
                    *_reflected(fwd.jump_times, fwd.jump_sizes), triplet)
    # the jump total, accumulated in evaluation order, so the value at 0
    # cancels exactly
    path.cont -= path._jump_cum[-1]
    return path


class TwoSidedPath:
    """Forward leg on [0, T_f] glued to a backward leg on [-T_b, 0], both
    vanishing at 0.  ``offset`` realizes the shift flow lazily: this object
    evaluates s -> base(offset + s) - base(offset)."""

    def __init__(self, forward, backward, offset=0.0):
        if forward.t_start != 0.0 or backward.t_end != 0.0:
            raise StructuralError("legs must meet at 0")
        for leg in (forward, backward):
            # evaluate(0.0): np.interp returns the skeleton row of the last
            # node at 0 exactly, plus the jumps at times <= 0
            node = np.searchsorted(leg.node_times, 0.0, side="right") - 1
            jumps = np.searchsorted(leg.jump_times, 0.0, side="right")
            if leg.cont[node] + leg._jump_cum[jumps] != 0.0:
                raise StructuralError("legs must vanish at the origin")
        self.forward = forward
        self.backward = backward
        self._move_to(offset)

    def _move_to(self, offset):
        if not (self.backward.t_start <= offset <= self.forward.t_end):
            raise HorizonError("shift offset leaves the sampled horizon")
        self.offset = float(offset)
        self._anchor = None  # base(offset), read on the first evaluate

    @property
    def horizon(self):
        return (self.backward.t_start - self.offset,
                self.forward.t_end - self.offset)

    @property
    def triplet(self):
        return self.forward.triplet

    def _base_eval(self, s):
        return self.forward.evaluate(s) if s >= 0.0 else self.backward.evaluate(s)

    def evaluate(self, t):
        if self._anchor is None:
            self._anchor = self._base_eval(self.offset)
        return self._base_eval(t + self.offset) - self._anchor

    def continuous_increment(self, t0, t1):
        """Continuous increment over (t0, t1), elementwise for arrays.  A
        window crossing the origin adds the backward leg's part up to 0 and
        the forward leg's part from 0."""
        s0, s1 = np.broadcast_arrays(np.asarray(t0, float) + self.offset,
                                     np.asarray(t1, float) + self.offset)
        fwd0, fwd1 = s0 >= 0.0, s1 >= 0.0
        out = np.empty(s0.shape)
        for leg, on in ((self.forward, fwd0 & fwd1),
                        (self.backward, ~fwd0 & ~fwd1)):
            if np.any(on):
                out[on] = leg.continuous_increment(s0[on], s1[on])
        cross = fwd0 != fwd1
        if np.any(cross):
            a, b = s0[cross], s1[cross]
            sgn = np.where(b >= a, 1.0, -1.0)
            inc = (self.backward.continuous_increment(np.minimum(a, b), 0.0)
                   + self.forward.continuous_increment(0.0, np.maximum(a, b)))
            out[cross] = sgn * inc
        return out

    def jumps_in(self, a, b):
        """Jump times and sizes with a < s <= b (shift-adjusted times)."""
        a, b = a + self.offset, b + self.offset
        tb, sb = self.backward.jumps_in(a, b)
        tf, sf = self.forward.jumps_in(a, b)
        return np.concatenate([tb, tf]) - self.offset, np.concatenate([sb, sf])

    def shift(self, t):
        """The shifted path s -> self(t + s) - self(t).  Its legs are this
        path's, already checked, so only the new offset is."""
        out = copy.copy(self)
        out._move_to(self.offset + t)
        return out


def sample_two_sided(triplet, T, dt, master_seed, path_index=0, driver=0):
    """Two-sided sample on [-T, T] from independent substreams keyed by
    (master_seed, path_index, driver, leg)."""
    fwd = sample_forward(triplet, TimeGrid(0.0, T, dt),
                         substream(master_seed, path_index, driver, 0))
    bwd = sample_backward(triplet, TimeGrid(-T, 0.0, dt),
                          substream(master_seed, path_index, driver, 1))
    return TwoSidedPath(fwd, bwd)


@functools.lru_cache(maxsize=8)
def _leg_end(T, dt):
    """The last grid node of each leg of a two-sided sample on [-T, T], as
    ``sample_two_sided`` reads it, after the checks on both of its grids."""
    TimeGrid(-T, 0.0, dt)
    return float(TimeGrid(0.0, T, dt).times()[-1])


class _JumpTable:
    """The jumps of the two-sided sample ``sample_two_sided`` draws from the
    same arguments, without its continuous part: bitwise that path's
    ``horizon``, ``jumps_in`` and ``triplet``, and nothing else.  Both legs
    come from :func:`_draw_jumps` on the same substreams, so a reader of
    these three members (the closed-form exact cocycle) cannot tell the two
    apart."""

    def __init__(self, triplet, T, dt, master_seed, path_index=0, driver=0):
        end = _leg_end(T, dt)
        self.triplet = triplet
        fwd, bwd = (_draw_jumps(triplet, T, substream(master_seed, path_index,
                                                       driver, leg))
                    for leg in (0, 1))
        # a leg's last node: its grid's, or a later jump's
        ends = [max(end, float(t[-1])) if t.size else end
                for t, _ in (fwd, bwd)]
        self.horizon = (-ends[1], ends[0])
        self._legs = (_reflected(*bwd), fwd)
        for times, sizes in self._legs:
            _check_jump_table(times, sizes)

    def jumps_in(self, a, b):
        """Jump times and sizes with a < s <= b, backward leg first."""
        (tb, sb), (tf, sf) = (_leg_jumps_in(*leg, a, b) for leg in self._legs)
        return np.concatenate([tb, tf]), np.concatenate([sb, sf])


def with_drift(path, rate):
    """A copy of the path with an extra deterministic drift rate*t added to
    the continuous skeleton (both legs for two-sided paths)."""
    if isinstance(path, TwoSidedPath):
        return TwoSidedPath(with_drift(path.forward, rate),
                            with_drift(path.backward, rate), path.offset)
    cont = path.cont + rate * path.node_times
    return JumpPath(path.node_times, cont, path.jump_times, path.jump_sizes,
                    path.triplet)


def dump_path_csv(path, stream):
    """Debug dump: node rows `t,component_1,is_jump` with is_jump=0, plus
    one row per jump carrying its time and size."""
    stream.write("t,component_1,is_jump\n")
    two_sided = isinstance(path, TwoSidedPath)
    for leg in (path.backward, path.forward) if two_sided else (path,):
        for t, v in zip(leg.node_times.tolist(), leg.values.tolist()):
            stream.write(f"{t!r},{v!r},0\n")
        for t, s in zip(leg.jump_times.tolist(), leg.jump_sizes.tolist()):
            stream.write(f"{t!r},{s!r},1\n")
