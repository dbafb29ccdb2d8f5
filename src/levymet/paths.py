"""Càdlàg Lévy path sampling for positive and negative time.

Paths are stored as a continuous skeleton on a node set (the uniform grid
plus every jump time, so Brownian increments are exact at jump times) plus
an explicit jump list; a sampled leg without a Gaussian part builds its
skeleton on the first read strictly between its end nodes, and answers a
read at or beyond them from those two nodes.  Evaluation linearly
interpolates the skeleton and adds all jumps at times <= t
(right-continuous convention); the value at time 0 is exactly 0.

Negative-time paths are built by time-reflecting an independent forward
sample: for a forward path F, the backward path is t -> -F((-t)-), which is
càdlàg, vanishes at 0, and carries the re-timed jumps (-s_k, kappa_k).

Two-sided paths support the shift flow theta_t as a lazy view: shifting
adds an offset and re-anchors at the new origin, so the group law
theta_s theta_t = theta_{s+t} holds exactly.
"""

import copy
import math
from dataclasses import dataclass
from functools import cached_property

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
    A leg sampled without a Gaussian part stores its jump table, triplet,
    horizon and grid, and builds ``node_times`` and ``cont`` on first read
    of either, or of the skeleton strictly between its end nodes (see
    :meth:`continuous_at`); ``_grid`` is None for a hand-built path.
    """

    _grid = None

    def __init__(self, node_times, cont, jump_times, jump_sizes, triplet=None):
        self._skeleton = tuple(np.asarray(x, float) for x in (node_times, cont))
        self.jump_times = np.asarray(jump_times, float)
        self.jump_sizes = np.asarray(jump_sizes, float)
        self.triplet = triplet
        if self.node_times.shape != self.cont.shape:
            raise StructuralError("node_times and cont length mismatch")
        _check_not_decreasing(self.node_times, "node_times")
        if self.jump_times.shape != self.jump_sizes.shape:
            raise StructuralError("jump_times and jump_sizes length mismatch")
        _check_not_decreasing(self.jump_times, "jump_times")

    @classmethod
    def _sampled(cls, jump_times, jump_sizes, triplet, grid):
        """A sampled forward leg on ``grid``: jumps sorted, skeleton unbuilt."""
        path = cls.__new__(cls)
        path.jump_times, path.jump_sizes = jump_times, jump_sizes
        path.triplet, path._grid, path._backward = triplet, grid, False
        end = grid.dt * grid.n_steps  # the last node: the grid's, or a jump's
        if jump_times.size and jump_times[-1] > end:
            end = float(jump_times[-1])
        path.horizon = (0.0, end)
        return path

    def _reflection(self):
        """The reflection t -> -F((-t)-) of this sampled forward leg F; its
        skeleton is built on first read, or now if F's is."""
        path = JumpPath.__new__(JumpPath)
        path.jump_times = -self.jump_times[::-1]
        path.jump_sizes = self.jump_sizes[::-1]
        path.triplet, path._grid, path._backward = self.triplet, self._grid, True
        path.horizon = (-self.t_end, -self.t_start)
        if "_skeleton" in vars(self):  # a Gaussian leg's, drawn with it
            path._skeleton = _reflect(*self._skeleton, path)
        return path

    def _skeleton_on(self, node_times):
        """A sampled leg's skeleton on the forward node times ``node_times``,
        by the sampler's arithmetic: re-timed to this leg if it is backward."""
        skeleton = node_times, _forward_cont(self.triplet, node_times)
        return _reflect(*skeleton, self) if self._backward else skeleton

    @cached_property
    def _skeleton(self):
        """A sampled leg's (node_times, cont) on the grid and its jumps."""
        times = -self.jump_times[::-1] if self._backward else self.jump_times
        return self._skeleton_on(_merge_nodes(self._grid.times(), times))

    @cached_property
    def _jump_cum(self):
        cum = np.zeros(self.jump_sizes.size + 1)
        np.cumsum(self.jump_sizes, out=cum[1:])
        return cum

    node_times = property(lambda self: self._skeleton[0])
    cont = property(lambda self: self._skeleton[1])

    @cached_property
    def horizon(self):
        return (float(self.node_times[0]), float(self.node_times[-1]))

    t_start = property(lambda self: self.horizon[0])
    t_end = property(lambda self: self.horizon[1])

    @property
    def values(self):
        """Right-continuous path values at the nodes."""
        idx = np.searchsorted(self.jump_times, self.node_times, side="right")
        return self.cont + self._jump_cum[idx]

    def continuous_at(self, t):
        """Interpolated skeleton at t, elementwise for arrays of times.

        An unbuilt leg read only at or beyond its end nodes stays unbuilt:
        there ``np.interp`` returns the end values, and these are the
        skeleton's on its first and last node alone."""
        t = np.asarray(t, float)
        _check_in_horizon(t, self.horizon, "sampled horizon")
        if "_skeleton" not in vars(self):  # a Gaussian-free sampled leg
            lo, hi = self.horizon
            if np.all((t <= lo) | (t >= hi)):
                # hi - lo: the forward sample's last node, either way
                ends = self._skeleton_on(np.array([0.0, hi - lo]))
                return np.interp(t, *ends)
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
        i, j = self.jump_times.searchsorted((a, b), side="right")
        return self.jump_times[i:j], self.jump_sizes[i:j]


def _check_not_decreasing(x, name):
    # bool temporaries only: np.diff would make a float one
    if np.any(x[1:] < x[:-1]):
        raise StructuralError(f"{name} must not decrease")


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
    (0, T).  Raises ConfigurationError for an infinite rate, an expected
    jump count above :data:`SAMPLER_BUDGET`, or a drift, Gaussian scale or
    compensation rate that is not finite (a sampled leg's skeleton then
    vanishes at 0 by construction)."""
    m = triplet.measure
    comp = 0.0 if m.is_empty else triplet.compensation_rate()
    if not all(map(math.isfinite, (triplet.drift, triplet.gaussian, comp))):
        raise ConfigurationError(
            f"drift {triplet.drift}, Gaussian scale {triplet.gaussian} and "
            f"compensation rate {comp} must be finite")
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


def _forward_cont(triplet, node_times):
    """Drift less compensation at node times: a Gaussian-free skeleton."""
    cont = node_times * triplet.drift
    if not triplet.measure.is_empty:
        cont -= triplet.compensation_rate() * node_times
    return cont


def sample_forward(triplet, grid, rng_seed):
    """Sample a forward path on [0, T] from the Lévy–Itô decomposition:
    drift + Gaussian part + compensated small jumps on [eps_cut, delta]
    + raw jumps above delta.  Node times are the grid plus every jump
    time.  Deterministic given the seed.
    """
    if grid.t_start != 0.0:
        raise ConfigurationError("forward grid must start at 0")
    rng = _as_rng(rng_seed)
    path = JumpPath._sampled(*_draw_jumps(triplet, grid.t_end, rng), triplet,
                             grid)
    if triplet.gaussian:  # its increments follow the jumps in the stream
        node_times, cont = path._skeleton
        dW = rng.standard_normal(node_times.size - 1)
        dW *= np.sqrt(np.diff(node_times))
        W = np.zeros(node_times.size)
        np.cumsum(dW, out=W[1:])
        cont += triplet.gaussian * W
    return path


def _reflect(node_times, cont, path):
    """A forward skeleton re-timed to the backward leg ``path``, less its jump
    total in evaluation order, so its value at 0 cancels exactly."""
    cont = -cont[::-1]
    cont -= path._jump_cum[-1]
    return -node_times[::-1], cont


def sample_backward(triplet, grid, rng_seed):
    """Sample a negative-time path on [t_start, 0] by reflecting an
    independent forward sample: L(t) = -F((-t)-)."""
    if grid.t_end != 0.0:
        raise ConfigurationError("backward grid must end at 0")
    return sample_forward(triplet, TimeGrid(0.0, -grid.t_start, grid.dt),
                          rng_seed)._reflection()


class TwoSidedPath:
    """Forward leg on [0, T_f] glued to a backward leg on [-T_b, 0], both
    vanishing at 0.  ``offset`` realizes the shift flow lazily: this object
    evaluates s -> base(offset + s) - base(offset)."""

    def __init__(self, forward, backward, offset=0.0):
        if forward.t_start != 0.0 or backward.t_end != 0.0:
            raise StructuralError("legs must meet at 0")
        # a sampled leg vanishes at 0 by construction, its triplet's
        # constants finite; a hand-built one is checked
        for leg in (forward, backward):
            if leg._grid is None and leg.evaluate(0.0) != 0.0:
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
        """base(s), elementwise: the forward leg at s >= 0, else backward."""
        s = np.asarray(s, float)
        fwd = s >= 0.0
        out = np.empty(s.shape)
        for leg, on in ((self.forward, fwd), (self.backward, ~fwd)):
            if np.any(on):
                out[on] = leg.evaluate(s[on])
        return out[()]

    def evaluate(self, t):
        """Path value at t, elementwise for arrays of times."""
        if self._anchor is None:
            self._anchor = self._base_eval(self.offset)
        return self._base_eval(np.asarray(t, float) + self.offset) - self._anchor

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
    grid = TimeGrid(0.0, T, dt)  # checks what TimeGrid(-T, 0, dt) does
    fwd, bwd = (sample_forward(triplet, grid, substream(
        master_seed, path_index, driver, leg)) for leg in (0, 1))
    return TwoSidedPath(fwd, bwd._reflection())


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
