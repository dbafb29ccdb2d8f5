"""Linear cocycle evaluators over sampled Lévy paths.

Every evaluator maps t to an invertible d x d matrix phi(t) with phi(0) = I.
A backend implements one hook, ``propagate(t0, t1)``: the propagators
Phi(t0 -> t1) = phi(t1) phi(t0)^(-1) of equal-shape arrays of window ends.
The stream every window loop consumes, ``propagators(edges)`` over
consecutive windows, phi(t) = Phi(0 -> t) and its inverse derive from it.
Negative times use the group convention phi(t) = Phi(t -> 0)^(-1), i.e.
forward evaluation over the reflected window; this realizes backward-time
stochastic integrals and automatically satisfies the singular-value
reciprocity between phi(t) and phi(-t, theta_t omega).

Backends:

* :class:`ExactDiagonal2D` -- closed form for the decoupled 2d benchmark
  system dX^i = c_i X^i dt + X^i dL^i with compensated small-jump drivers;
* :class:`StochasticExponential1D` -- Doléans-Dade exponential of a scalar
  driver;
* :class:`EulerEvaluator` -- jump-adapted Euler for dX = aX dt + sigma_i X dL^i:
  jumps are applied exactly as multiplicative factors (I + u sigma_i), the
  flow between jumps is explicit Euler or an exact matrix exponential.  All
  windows of a ``propagate`` call share one stack of step and jump factors,
  built from one array lookup of the driver increments, and each window is
  folded sequentially (M <- F M) in the order a step-by-step loop would use;
  :func:`_euler_propagators` folds the windows of several evaluators, each
  at its own step size, in lockstep groups of bounded size;
* :func:`picard_solve` -- successive substitution for the equivalent random
  integral equation, used as an independent oracle for the Euler backend.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneracyError,
    DivergenceError,
    HorizonError,
    InstabilityError,
    LevyMetError,
    SingularityError,
    StructuralError,
    SupportError,
    raised,
)
from .paths import _check_in_horizon, _merge_nodes, _outside_horizon

_OVERFLOW_NORM = 1e300
_LOG_OVERFLOW = 700.0

# Drift rates (c_1, c_2) of the decoupled 2d benchmark system.
BENCHMARK_DRIFTS = (2.0, -4.0)


def _hs_norm(M):
    return float(np.linalg.norm(M))


_OVERFLOW_MSG = ("propagator overflow; reduce the step or use log-scaled "
                 "evaluation")


def _check_finite(M):
    if not np.all(np.isfinite(M)) or np.max(np.abs(M)) > _OVERFLOW_NORM:
        raise InstabilityError(_OVERFLOW_MSG)


@dataclass(frozen=True)
class LinearSystem:
    """Coefficients of dX = a X dt + sigma_i X dL^i with q independent
    scalar drivers, whose laws are their paths' triplets."""

    a: np.ndarray
    sigmas: tuple

    def __post_init__(self):
        a = np.asarray(self.a, float)
        object.__setattr__(self, "a", a)
        sig = tuple(np.asarray(s, float) for s in self.sigmas)
        object.__setattr__(self, "sigmas", sig)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError("a must be square")
        if len(sig) == 0:
            raise StructuralError("need q >= 1 sigma matrices, one per driver")
        for s in sig:
            if s.shape != a.shape:
                raise StructuralError("sigma shape mismatch")

    @property
    def d(self):
        return self.a.shape[0]

    @property
    def q(self):
        return len(self.sigmas)


def _fold(win, pos, factors, count):
    """Sequential products M <- F M over each window's factors, in the
    order given: factor ``factors[m]`` is number ``pos[m]`` of window
    ``win[m]``, which has ``count`` factors (at least one).  The windows are
    folded in lockstep, longest first, so the unfinished ones are a prefix
    of the stack.  Returns the running products, [j, rank[k]] the first
    j + 1 factors of window k, ``rank`` and, per window, the position of
    the first running product that :func:`_check_finite` rejects
    (``count.max()`` if none)."""
    W, d = count.size, factors.shape[-1]
    rank = np.empty(W, int)
    rank[np.argsort(-count, kind="stable")] = np.arange(W)
    active = np.sum(count[:, None] > np.arange(count.max()), axis=0)
    stack = np.zeros((active.size, W, d, d))
    stack[pos, rank[win]] = factors
    running = np.zeros_like(stack)
    prod = np.tile(np.eye(d), (W, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for step, run, m in zip(stack, running, active):
            prod = np.matmul(step[:m], prod[:m], out=run[:m])
        ok = np.abs(running) <= _OVERFLOW_NORM  # False for inf and nan
    first_bad = np.full(W, active.size)
    if not ok.all():  # per-matrix reductions are slow; only on failure
        bad = ~ok.all(axis=(2, 3))
        first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), active.size)
    return running, rank, first_bad[rank]


def _window_count(span, step):
    """The fewest equal windows of length <= step that cover span, at least
    one, elementwise for arrays; a span within rounding of a whole number
    of steps gets that number.  Raises a ConfigurationError for a count
    past the integer range."""
    with np.errstate(over="ignore"):  # a subnormal step: the check below
        n = np.ceil(np.abs(span) / step - 1e-9)
    if not np.all(n < 2.0**63):  # False for inf and nan too
        raise ConfigurationError(f"{np.max(n):.3g} windows overflow the "
                                 "window count; raise the step")
    return np.maximum(1, n.astype(int))


def _windows(t0, t1, step):
    """Edges of the fewest equal windows of length <= step from t0 to t1."""
    return np.linspace(t0, t1, _window_count(t1 - t0, step) + 1)


class _EvaluatorBase:
    """Shared plumbing on the one hook a backend implements,
    ``propagate(t0, t1)``: for equal-shape arrays of window ends, the
    ``t0.shape + (d, d)`` stack of Phi(t0 -> t1).  The stream, phi and its
    inverse are each one ``propagate`` call."""

    d = None

    def propagators(self, edges):
        """The (n, d, d) stack of Phi(edges[k] -> edges[k+1])."""
        return self.propagate(edges[:-1], edges[1:])

    @property
    def horizon(self):
        """Time span covered by every driver path."""
        los, his = zip(*(p.horizon for p in self.driver_paths))
        return (max(los), min(his))

    def matrix(self, t):
        """phi(t); an array of times gives the stack of phi at each."""
        return self.propagate(np.zeros(np.shape(t)), t)

    def inverse(self, t):
        return self.propagate(t, np.zeros(np.shape(t)))

    def _shifted_matrices(self, s, t):
        """The (n, d, d) stack of phi(t_k, theta_{s_k} omega) for equal-length
        arrays s and t, or None to have :func:`cocycle_residual` take the
        pairs one at a time, each on ``shifted(s_k)``.  Only the exact
        benchmark backend has a stacked form."""
        return None


class ExactDiagonal2D(_EvaluatorBase):
    """Closed-form cocycle of the decoupled benchmark system

        dX^1 = c_1 X^1 dt + X^1 dL^1,   dX^2 = c_2 X^2 dt + X^2 dL^2,

    with (c_1, c_2) = BENCHMARK_DRIFTS and compensated small-jump drivers
    sharing one law.  phi(t) is diagonal with log-entries

        (c_i + I - K) t + sum_{0 < s <= t} log(1 + kappa^i_s)

    where I and K are the band integrals of log(1+u)-u and log(1+u); for
    t < 0 the jump sum runs over (t, 0] with a minus sign, which is exactly
    the inverse of the forward window.  The law is the drivers' one shared
    triplet, with no drift or Gaussian part, and all integrals are over its
    simulated band, so the evaluator is the exact solution along the path.
    """

    d = 2
    # relative slack of the |u| <= delta test on the drivers' jumps
    _DELTA_SLACK = 1 + 1e-12

    def __init__(self, driver_paths):
        if len(driver_paths) != 2:
            raise StructuralError("need exactly two scalar driver paths")
        self.driver_paths = list(driver_paths)
        law, other = (p.triplet for p in self.driver_paths)
        if law is None or other != law:
            raise StructuralError("the closed form reads one law, the triplet "
                                  "both driver paths share")
        for part, value in (("drift", law.drift), ("Gaussian part", law.gaussian)):
            if value:
                raise ConfigurationError(f"the drivers have a {part} ({value}); "
                                         "the closed form leaves it out")
        I, K = law.log_integrals
        self._rate = I - K
        # per path: jump times and cumulative log(1 + kappa) tables
        self._jump_t, self._log_cum, self._anchor = [], [], []
        for p in self.driver_paths:
            times, sizes = p.jumps_in(*p.horizon)
            if np.any(sizes <= -1.0):
                raise SingularityError("jump factor 1 + u hit zero or below")
            if np.any(np.abs(sizes) > law.delta * self._DELTA_SLACK):
                raise SupportError("driver carries jumps above delta; the "
                                   "closed form covers small jumps only")
            self._jump_t.append(times)
            cum = np.concatenate([[0.0], np.cumsum(np.log1p(sizes))])
            self._log_cum.append(cum)
            self._anchor.append(cum[np.searchsorted(times, 0.0, side="right")])

    def log_growth(self, t):
        """log phi(t)_ii, exact in log scale for any horizon: a 2-vector for
        a scalar t, one row per time for an array of times."""
        t = np.asarray(t, float)
        _check_in_horizon(t, self.horizon)
        cols = []
        for c, times, cum, anchor in zip(BENCHMARK_DRIFTS, self._jump_t,
                                         self._log_cum, self._anchor):
            jump_sum = cum[np.searchsorted(times, t, side="right")] - anchor
            cols.append((c + self._rate) * t + jump_sum)
        return np.stack(cols, axis=-1)

    def propagate(self, t0, t1):
        ends = self.log_growth(np.stack([t0, t1]))
        return _diagonal_exp(ends[1] - ends[0])

    def shifted(self, s):
        """The evaluator on the shifted paths, whose triplet still holds
        the band integrals."""
        return ExactDiagonal2D([p.shift(s) for p in self.driver_paths])

    def _shifted_matrices(self, s, t):
        """phi(t_k, theta_{s_k} omega), bitwise ``shifted(s_k).matrix(t_k)``,
        for all pairs at once.  Each cumulative jump table is shift-invariant
        while the shifted horizon keeps every jump of its path, taken as
        ``jumps_in`` takes it: then the jump times move by the shifted offset
        ``p.offset + s_k`` (one row per shift) and the anchor is re-read.
        None where some ``shifted(s_k)`` would raise or its horizon cuts a
        jump off; raises, with a message of its own, where some
        ``matrix(t_k)`` on it would."""
        x = np.stack([np.zeros_like(t), t])  # the ends of Phi(0 -> t_k)
        cols = []
        for c, p, cum in zip(BENCHMARK_DRIFTS, self.driver_paths,
                             self._log_cum):
            off = (p.offset + s)[:, None]
            lo, hi = p.backward.t_start - off, p.forward.t_end - off
            times = np.concatenate([p.backward.jump_times,
                                    p.forward.jump_times])
            # TwoSidedPath.shift's offset check, then the jumps jumps_in
            # takes, those in (lo + off, hi + off]: adding the offset back
            # can round off the legs' ends
            if (not np.all((p.backward.t_start <= off)
                           & (off <= p.forward.t_end))
                    or cum.size != times.size + 1
                    or np.any(times <= lo + off) or np.any(times > hi + off)):
                return None
            if np.any(_outside_horizon(x, (lo[:, 0], hi[:, 0]))):
                raise HorizonError("t outside a shifted horizon")
            times = times - off
            # rounding is monotone, so each row stays sorted and the count of
            # its times <= 0 is searchsorted(row, 0.0, side="right")
            anchor = cum[np.sum(times <= 0.0, axis=1)]
            jump_sum = cum[np.sum(times <= x[..., None], axis=-1)] - anchor
            cols.append((c + self._rate) * x + jump_sum)
        ends = np.stack(cols, axis=-1)
        return _diagonal_exp(ends[1] - ends[0])


def _diagonal_exp(lg):
    """The stack of diagonal matrices exp(lg) of a stack of log-diagonals."""
    if np.any(np.abs(lg) > _LOG_OVERFLOW):
        raise InstabilityError("diagonal entry overflows; split the "
                               "window or use log_growth")
    return np.exp(lg)[..., None] * np.eye(lg.shape[-1])


class StochasticExponential1D(_EvaluatorBase):
    """Doléans-Dade exponential of a scalar semimartingale path G:

        Y_t = exp(G_t - [G,G]^c_t / 2) prod_{0<s<=t} (1 + dG_s) e^{-dG_s},

    for unit initial condition; the continuous bracket is sigma^2 t read
    from the path's triplet.  Forward time only.
    """

    d = 1

    def __init__(self, path):
        self.path = path
        self.driver_paths = [path]
        sigma = path.triplet.gaussian if path.triplet is not None else 0.0
        self._gauss_var = sigma * sigma

    def log_value(self, t):
        if t < 0.0:
            raise HorizonError("the exponential is defined for t >= 0 here")
        g = float(self.path.evaluate(t))
        sizes = self.path.jumps_in(0.0, t)[1]
        corr = 0.0
        if sizes.size:
            if sizes.min() <= -1.0:
                if np.any(sizes == -1.0):
                    raise DegeneracyError("jump of exactly -1: solution leaves Gl(1)")
                raise DegeneracyError("jump below -1: factor changes sign")
            terms = np.log1p(sizes)
            terms -= sizes
            corr = float(np.sum(terms))
        return g - 0.5 * self._gauss_var * t + corr

    def value(self, t):
        return math.exp(self.log_value(t))

    def propagate(self, t0, t1):
        # math.exp, window by window: np.exp may round differently
        vals = [math.exp(self.log_value(b) - self.log_value(a))
                for a, b in zip(np.ravel(t0).tolist(), np.ravel(t1).tolist())]
        return np.reshape(vals, np.shape(t0) + (1, 1))

    def shifted(self, s):
        return StochasticExponential1D(self.path.shift(s))


class EulerEvaluator(_EvaluatorBase):
    """Jump-adapted Euler propagator for dX = a X dt + sigma_i X dL^i.

    The step grid of a forward window (t0, t1] is the uniform lattice
    t0 + (t1 - t0) j/n, n = ceil((t1 - t0)/dt_int), refined by every jump
    time, so jumps are applied exactly as factors (I + kappa sigma_i);
    between jumps the continuous increments of the sampled drivers (drift,
    compensation, Gaussian part) feed an explicit Euler step I + G, or
    expm(G) when scheme="expm", with G = h a + sum_i dc_i sigma_i.

    A Gaussian part is interpolated linearly between the path's nodes, so
    with dt_int below their spacing the scheme tends to the Stratonovich
    solution, not the Itô one: for a = 0, sigma = 1, gauss = 1, dt = 0.01,
    phi(1) read 1.076, 1.587, 1.648 at dt_int = 1e-2, 1e-3, 1e-4, where
    exp(W_1 - 1/2) is 1.004 and exp(W_1) is 1.655.

    ``propagate(t0, t1)`` evaluates all windows at once: one node array,
    one array lookup of the continuous increments per driver, one (n, d, d)
    stack of step and jump factors.  Each window's factors are then folded
    in sequence order, M <- F M, every window in lockstep, so the result is
    bitwise that of stepping window by window; a pairwise reduction would be
    faster but would change the rounding.  A window raises what its first
    failing factor raises: a singular jump factor (SingularityError) or a
    running product that overflows (InstabilityError).  Backward windows
    are the inverses of the forward ones.
    """

    def __init__(self, system, driver_paths, dt_int, scheme="euler"):
        if len(driver_paths) != system.q:
            raise StructuralError("one driver path per sigma matrix")
        if dt_int <= 0.0:
            raise ConfigurationError("dt_int must be > 0")
        if scheme not in ("euler", "expm"):
            raise ConfigurationError("scheme must be 'euler' or 'expm'")
        self.system = system
        self.driver_paths = list(driver_paths)
        self.dt_int = float(dt_int)
        self.scheme = scheme
        self.d = system.d

    def propagate(self, t0, t1):
        t0, t1 = np.asarray(t0, float), np.asarray(t1, float)
        stack, = _euler_propagators([(self, t0.ravel(), t1.ravel(),
                                      np.full(t0.size, self.dt_int))])
        if isinstance(stack, Exception):
            raise stack
        return stack.reshape(t0.shape + (self.d, self.d))

    def _factors(self, a, b, h):
        """Factors of the forward windows (a_k, b_k] on lattices of step h_k,
        in sequence order: per window and node, the step ending there, then
        the jumps at that node by driver.  Returns the window and position
        of every factor, the factors, the factor count of every window, the
        position of its first singular jump factor (its count if none), and
        per window the error that factor raises (or None).  Windows with
        equal ends share one jump lookup."""
        d, W = self.d, a.size
        spans = {}
        jw, jt, ji, js = [], [], [], []
        for k in range(W):
            key = (a[k], b[k])
            if key not in spans:
                spans[key] = [p.jumps_in(*key) for p in self.driver_paths]
            for i, (times, sizes) in enumerate(spans[key]):
                jw.append(np.full(times.size, k))
                jt.append(times)
                ji.append(np.full(times.size, i))
                js.append(sizes)
        jw, jt, ji, js = map(np.concatenate, (jw, jt, ji, js))
        sw, sp, st = self._steps(a, b, h, jw, jt)

        G = (st - sp)[:, None, None] * self.system.a
        for sigma, p in zip(self.system.sigmas, self.driver_paths):
            dc = p.continuous_increment(sp, st)
            G = G + dc[:, None, None] * sigma
        if self.scheme == "expm":
            from scipy.linalg import expm  # only this library-only scheme needs it

            steps = expm(G)
        else:
            steps = np.eye(d) + G
        jumps = np.eye(d) + js[:, None, None] * np.array(self.system.sigmas)[ji]
        singular = np.abs(np.linalg.det(jumps)) < 1e-12

        win = np.concatenate([sw, jw])
        order = np.lexsort((np.arange(win.size), np.concatenate([st, jt]), win))
        win = win[order]
        count = np.bincount(win, minlength=W)
        start = np.cumsum(count) - count
        pos = np.arange(win.size) - start[win]
        # a singular jump factor is caught before its product is formed
        sing = np.concatenate([np.zeros(sw.size, bool), singular])[order]
        first_sing = count.copy()
        np.minimum.at(first_sing, win[sing], pos[sing])
        errors = [None] * W
        for k in np.flatnonzero(first_sing < count):
            f = order[start[k] + first_sing[k]] - sw.size
            errors[k] = SingularityError(
                f"jump factor I + u*sigma_{ji[f] + 1} is singular "
                f"(u={float(js[f])})")
        factors = np.concatenate([steps, jumps])[order]
        return win, pos, factors, count, first_sing, errors

    def _steps(self, a, b, h, jw, jt):
        """Window, start and end of every step.  The nodes of window k are
        its lattice a_k + (b_k - a_k) j/n_k (0 < j < n_k, n_k the fewest
        steps of length <= h_k), its jump times (window indices jw, times
        jt) and b_k; a step runs to each node from the one before it (from
        a_k for the first), if that is earlier."""
        n = _window_count(b - a, h)
        lw = np.repeat(np.arange(a.size), n - 1)
        j = 1 + np.arange(lw.size) - np.repeat(np.cumsum(n - 1) - (n - 1), n - 1)
        w = np.concatenate([lw, jw, np.arange(a.size)])
        t = np.concatenate([a[lw] + (b - a)[lw] * j / n[lw], jt, b])
        order = np.lexsort((t, w))
        w, t = w[order], t[order]
        new = np.ones(t.size, bool)
        new[1:] = (w[1:] != w[:-1]) | (t[1:] != t[:-1])
        w, t = w[new], t[new]
        prev = np.concatenate([[0.0], t[:-1]])
        opens = np.ones(t.size, bool)
        opens[1:] = w[1:] != w[:-1]
        prev[opens] = a[w[opens]]
        step = t > prev
        return w[step], prev[step], t[step]

    def shifted(self, s):
        return EulerEvaluator(self.system, [p.shift(s) for p in self.driver_paths],
                              self.dt_int, self.scheme)


# Byte budget of one fold.  _euler_propagators sorts the windows of a batch
# by lattice length and folds them in groups whose (longest lattice, windows,
# d, d) float64 stack stays within it, so the factor arrays and running
# products stay near one group's size however many paths and rungs the batch
# has (jumps add factors beyond the lattice).  A window over the budget is
# folded alone.  An euler_ladder batch (at most 16 paths x 5 rungs of at most
# ~420 factors, d = 2, about 1 MB) is one group.
_FOLD_BYTES = 2 * 2**20


def _euler_propagators(jobs):
    """Window propagators of several Euler evaluators from lockstep
    :func:`_fold` calls.

    ``jobs`` is a non-empty list of (ev, t0, t1, h): an
    :class:`EulerEvaluator`, the ends of its windows Phi(t0_k -> t1_k) and
    the step size h_k of each window's lattice.  ``ev.propagate(t0, t1)``
    is the one-job case, with h_k = ev.dt_int; a halving ladder is one
    window per step size.  The evaluators share one dimension.  The
    windows of all jobs are sorted by lattice length and cut into groups
    of at most :data:`_FOLD_BYTES`; a group builds its factors with one
    ``_factors`` call per job in it and folds them in one :func:`_fold`.
    Returns per job the (n, d, d) stack, bitwise what each window folded on its own
    gives, or the error ``propagate`` would raise: that of the first
    window with a failing factor, else a HorizonError if a window leaves
    the sampled horizon.
    """
    plans, windows, prods, errs = [], [], [], []
    job_of, local, steps = [], [], []
    for j, (ev, t0, t1, h) in enumerate(jobs):
        t0, t1 = np.asarray(t0, float), np.asarray(t1, float)
        outside = (_outside_horizon(t0, ev.horizon)
                   | _outside_horizon(t1, ev.horizon))
        n_in = int(np.argmax(outside)) if np.any(outside) else t0.size
        live = np.flatnonzero(t0[:n_in] != t1[:n_in])
        back = np.flatnonzero(t1[live] < t0[live])
        plans.append((ev, t0.size, n_in, live, back))
        a = np.minimum(t0[live], t1[live])
        b = np.maximum(t0[live], t1[live])
        h = np.asarray(h, float)[live]
        windows.append((a, b, h))
        prods.append(np.empty((live.size, ev.d, ev.d)))
        errs.append([None] * live.size)
        job_of.append(np.full(live.size, j))
        local.append(np.arange(live.size))
        steps.append(_window_count(b - a, h))
    job_of, local, steps = map(np.concatenate, (job_of, local, steps))
    order = np.argsort(-steps, kind="stable")
    cap = _FOLD_BYTES // (8 * jobs[0][0].d ** 2)
    i = 0
    while i < order.size:
        group = order[i:i + max(1, int(cap // steps[order[i]]))]
        i += group.size
        sels = [(j, np.sort(local[group[job_of[group] == j]]))
                for j in np.unique(job_of[group])]
        built = [jobs[j][0]._factors(*(x[sel] for x in windows[j]))
                 for j, sel in sels]
        win, pos, factors, count, first_sing, errors = zip(*built)
        stop = np.cumsum([c.size for c in count])
        start = stop - [c.size for c in count]
        count = np.concatenate(count)
        running, rank, first_bad = _fold(
            np.concatenate([w + s for w, s in zip(win, start)]),
            np.concatenate(pos), np.concatenate(factors), count)
        M = running[count - 1, rank]
        for (j, sel), s, e, fs, group_errs in zip(sels, start, stop,
                                                 first_sing, errors):
            prods[j][sel] = M[s:e]
            for k, err in zip(sel, group_errs):
                errs[j][k] = err
            # a running product overflows before any singular jump factor
            for k in sel[first_bad[s:e] < fs]:
                errs[j][k] = InstabilityError(_OVERFLOW_MSG)
    out = []
    for (ev, n, n_in, live, back), P, E in zip(plans, prods, errs):
        ok = np.array([E[j] is None for j in back], bool)
        singular = np.zeros(back.size, bool)
        singular[ok] = np.abs(np.linalg.det(P[back[ok]])) == 0.0
        for j in back[singular]:
            E[j] = SingularityError("forward window is singular")
        failed = [e for e in E if e is not None]
        if failed:
            out.append(failed[0])
        elif n_in < n:
            out.append(HorizonError("window outside the sampled horizon"))
        else:
            P[back] = np.linalg.inv(P[back])
            stack = np.tile(np.eye(ev.d), (n, 1, 1))
            stack[live] = P
            out.append(stack)
    return out


def _jump_events(driver_paths, a, b, keep=None):
    """{time: [(driver index, size)]} for the jumps in (a, b], optionally
    only those for which ``keep(driver index, size)`` holds."""
    events = {}
    for i, p in enumerate(driver_paths):
        times, sizes = p.jumps_in(a, b)
        for t, s in zip(times, sizes):
            if keep is None or keep(i, s):
                events.setdefault(float(t), []).append((i, float(s)))
    return events


# -- auxiliary linear system and Picard oracle ---------------------------------


def _psi_grid(system, driver_paths, times):
    """psi and psi^(-1) on a sorted breakpoint grid (first entry 0).

    psi solves d psi = sigma_i psi u dN~ restricted to |u| <= delta: between
    jumps d psi = -(sum_i sigma_i c_i) psi dt with c_i the small-jump
    compensation rate; at a small jump, psi <- (I + kappa sigma_i) psi and
    psi^(-1) <- psi^(-1) (I + kappa sigma_i)^(-1).  Each driver's delta
    and c_i are its path's triplet's.
    """
    d = system.d
    C = np.zeros((d, d))
    for s_mat, p in zip(system.sigmas, driver_paths):
        C += p.triplet.compensation_rate() * s_mat
    jumps = _jump_events(driver_paths, 0.0, times[-1],
                         lambda i, s: abs(s) <= driver_paths[i].triplet.delta)
    psis = np.empty((len(times), d, d))
    psinvs = np.empty((len(times), d, d))
    psi = np.eye(d)
    psinv = np.eye(d)
    psis[0], psinvs[0] = psi, psinv
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        if h > 0.0:
            psi = (np.eye(d) - h * C) @ psi
            psinv = psinv @ (np.eye(d) + h * C)
        for i, kappa in jumps.get(float(times[k]), ()):
            J = np.eye(d) + kappa * system.sigmas[i]
            det = np.linalg.det(J)
            if abs(det) < 1e-12:
                raise SingularityError("singular small-jump factor in the "
                                       "auxiliary system")
            psi = J @ psi
            psinv = psinv @ np.linalg.inv(J)
        _check_finite(psi)
        psis[k], psinvs[k] = psi, psinv
    return psis, psinvs


def _with_jumps(driver_paths, grid):
    """Sorted union of a grid from 0 and the jump times in (0, grid[-1]]."""
    return _merge_nodes(grid, *(p.jumps_in(0.0, grid[-1])[0]
                                for p in driver_paths))


def _breakpoints(driver_paths, t, dt_int):
    return _with_jumps(driver_paths, _windows(0.0, t, dt_int))


@dataclass
class PicardResult:
    """n-th successive-substitution iterate at time t plus the sup-norm
    differences between consecutive iterates."""

    value: np.ndarray
    diffs: list

    @property
    def tail(self):
        return self.diffs[-1] if self.diffs else 0.0


def picard_solve(system, driver_paths, t, n_iter, x, dt_int=1e-3):
    """Successive substitution for the random integral equation

        X_t = psi_t ( x + int_0^t psi_s^(-1) (a + sigma_i b^i) X_s ds
                        + int_0^t int_{|u|>delta} psi_s^(-1) sigma_i X_s u N(ds,du) ),

    starting from X^0 = x, with each driver's b^i, delta and compensation
    read from its path's triplet; a Gaussian part (no dW term) is refused.
    Time integrals are left-endpoint Riemann sums on the jump-adapted grid;
    the counting-measure sum evaluates integrands at s-.  Serves as an
    independent oracle for the Euler backend.
    """
    if n_iter < 1:
        raise ConfigurationError("n_iter must be >= 1")
    if t <= 0.0:
        raise HorizonError("solve on a window (0, t] with t > 0")
    laws = [p.triplet for p in driver_paths]
    if None in laws:
        raise StructuralError("a driver path has no triplet to read its law")
    if any(law.gaussian for law in laws):
        raise ConfigurationError("a driver has a Gaussian part; the integral "
                                 "equation has no dW term")
    x = np.asarray(x, float)
    d = system.d
    times = _breakpoints(driver_paths, t, dt_int)
    psis, psinvs = _psi_grid(system, driver_paths, times)
    B = system.a.copy()  # a + sigma_i b^i
    for s_mat, law in zip(system.sigmas, laws):
        B += s_mat * law.drift
    large = _jump_events(driver_paths, 0.0, t,
                         lambda i, s: abs(s) > laws[i].delta)

    # convergent iterates obey |X^{n+1}-X^n| <= (C3 xi_t)^n / n! * const, so
    # differences may grow until n ~ C3 xi_t; the divergence detector is
    # armed only past that hump, where genuine convergence forces decay
    c1 = max(_hs_norm(P) for P in psis)
    c2 = max(_hs_norm(P) for P in psinvs)
    c3 = c1 * c2 * (_hs_norm(B) + 1.0)
    xi = t
    for i, p in enumerate(driver_paths):
        jt, js = p.jumps_in(0.0, t)
        big = np.abs(js) > laws[i].delta
        xi += _hs_norm(system.sigmas[i]) * float(np.sum(np.abs(js[big])))
    hump = c3 * xi

    K = len(times)
    X_prev = np.tile(x, (K, 1))
    X_prev_pre = {k: x for k in range(K) if float(times[k]) in large}
    diffs = []
    grow = 0
    for _ in range(n_iter):
        X_new = np.empty((K, d))
        X_new_pre = {}
        acc = x.astype(float).copy()
        X_new[0] = x
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for k in range(1, K):
                h = times[k] - times[k - 1]
                acc = acc + h * (psinvs[k - 1] @ (B @ X_prev[k - 1]))
                hits = large.get(float(times[k]), ())
                if hits:
                    X_new_pre[k] = psis[k] @ acc
                    for i, kappa in hits:
                        acc = acc + kappa * (psinvs[k] @ (system.sigmas[i]
                                                          @ X_prev_pre[k]))
                X_new[k] = psis[k] @ acc
            step = float(np.max(np.abs(X_new - X_prev)))
        diffs.append(step)
        if not math.isfinite(step):
            raise DivergenceError("Picard iterate overflowed")
        if len(diffs) >= 2 and diffs[-1] > diffs[-2] and len(diffs) > hump:
            grow += 1
            if grow >= 3:
                raise DivergenceError("Picard differences grew for three "
                                      "consecutive iterates past the "
                                      "contraction threshold")
        else:
            grow = 0
        X_prev, X_prev_pre = X_new, X_new_pre
    return PicardResult(value=X_prev[-1], diffs=diffs)


# -- diagnostics ----------------------------------------------------------------


def cocycle_residual(ev, s, t):
    """Hilbert-Schmidt defect of the cocycle law,
    || phi(t+s) - phi(t, theta_s .) phi(s) ||, at (s, t), or one per pair
    for equal-length arrays s and t.  Where the backend has a stacked form
    of phi(t, theta_s .) (``_shifted_matrices``; the exact benchmark backend
    only), phi(s+t) and phi(s) of all pairs come from one stacked ``matrix``
    call and the compositions from one ``matmul``.  Otherwise, or if either
    stacked call raises, the pairs are evaluated one at a time, each on
    ``ev.shifted(s)``, so an error is the first failing pair's."""
    s_all = np.atleast_1d(np.asarray(s, float))
    t_all = np.atleast_1d(np.asarray(t, float))
    n = s_all.size
    try:
        theta = ev._shifted_matrices(s_all, t_all)
        if theta is not None:
            phi = ev.matrix(np.concatenate([s_all + t_all, s_all]))
    except LevyMetError:
        theta = None
    if theta is None:
        res = np.array([
            _hs_norm(ev.matrix(a + b) - ev.shifted(a).matrix(b) @ ev.matrix(a))
            for a, b in zip(s_all.tolist(), t_all.tolist())])
    else:
        res = np.array([_hs_norm(M) for M in phi[:n] - theta @ phi[n:]])
    return res if np.ndim(s) else float(res[0])


def integrability_alpha(ev, grid):
    """sup over grid nodes and jump times of log+ ||phi(t)|| and of
    log+ ||phi(t)^(-1)|| on [0, t_end]; empirical one-path versions of the
    integrability functionals of the spectral theorem."""
    return raised(_integrability_alphas([_alpha_stack(ev, grid)])[0])


def _alpha_stack(ev, grid):
    """The window stack integrability_alpha folds: the propagators of
    ``ev`` between the grid nodes and the jump times of [0, t_end]."""
    times = grid.times()
    if times[0] != 0.0:
        raise ConfigurationError("grid must start at 0")
    return ev.propagators(_with_jumps(getattr(ev, "driver_paths", []), times))


def _integrability_alphas(stacks):
    """``integrability_alpha`` from :func:`_alpha_stack` stacks, arrays of
    one dimension: their running products in one :func:`_fold`, one
    stacked det and inverse.  Per stack (alpha+, alpha-), or a
    SingularityError if one of its running products is singular."""
    if not stacks:  # every path of a batch failed before its alpha
        return []
    count = np.array([P.shape[0] for P in stacks])
    owner = np.repeat(np.arange(count.size), count)
    pos = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    running, rank, _ = _fold(owner, pos, np.concatenate(stacks), count)
    phis = running[pos, rank[owner]]
    singular = np.zeros(count.size, bool)
    singular[owner[np.abs(np.linalg.det(phis)) < 1e-300]] = True
    ok = ~singular[owner]
    floor = max(0.0, math.log(_hs_norm(np.eye(phis.shape[-1]))))
    plus, minus = (_log_norm_max(X, owner[ok], count.size, floor)
                   for X in (phis[ok], np.linalg.inv(phis[ok])))
    return [SingularityError("propagator numerically singular") if singular[k]
            else (plus[k], minus[k]) for k in range(count.size)]


def _log_norm_max(mats, owner, n, floor):
    """Per owner 0..n-1, the max of ``floor`` and math.log(_hs_norm(M))
    over its matrices.  A batched sum of squares rounds differently, so it
    only screens: the per-matrix norm is taken of the matrices within
    1e-12 of their owner's largest square (and of any NaN)."""
    sq = np.einsum("kij,kij->k", mats, mats)
    top = np.full(n, -np.inf)
    np.fmax.at(top, owner, sq)
    out = [floor] * n
    for k in np.flatnonzero(~(sq < top[owner] * (1.0 - 1e-12))):
        out[owner[k]] = max(out[owner[k]], math.log(_hs_norm(mats[k])))
    return out
