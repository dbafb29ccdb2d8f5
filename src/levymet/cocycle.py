"""Linear cocycle evaluators over sampled Lévy paths.

Every evaluator maps t to an invertible d x d matrix phi(t) with phi(0) = I
and exposes the window propagator Phi(t0 -> t1) = phi(t1) phi(t0)^(-1).
``propagators(edges)`` stacks those of consecutive windows; it is the
stream every window loop consumes, and phi(t) = Phi(0 -> t).
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
  windows of a stream share one (n, d, d) stack of step and jump factors,
  built from one array lookup of the driver increments, and each window is
  folded sequentially (M <- F M) in the order a step-by-step loop would use;
* :func:`picard_solve` -- successive substitution for the equivalent random
  integral equation, used as an independent oracle for the Euler backend.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    ConfigurationError,
    DegeneracyError,
    DivergenceError,
    HorizonError,
    InstabilityError,
    SingularityError,
    StructuralError,
    SupportError,
)

_OVERFLOW_NORM = 1e300
_LOG_OVERFLOW = 700.0


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
    scalar drivers."""

    a: np.ndarray
    sigmas: tuple
    drivers: tuple

    def __post_init__(self):
        a = np.asarray(self.a, float)
        object.__setattr__(self, "a", a)
        sig = tuple(np.asarray(s, float) for s in self.sigmas)
        object.__setattr__(self, "sigmas", sig)
        object.__setattr__(self, "drivers", tuple(self.drivers))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise StructuralError("a must be square")
        if len(sig) == 0 or len(sig) != len(self.drivers):
            raise StructuralError("need q >= 1 sigma matrices, one per driver")
        for s in sig:
            if s.shape != a.shape:
                raise StructuralError("sigma shape mismatch")
        for tr in self.drivers:
            if tr.d != 1:
                raise StructuralError("drivers must be scalar triplets")

    @property
    def d(self):
        return self.a.shape[0]

    @property
    def q(self):
        return len(self.sigmas)

    def drift_matrix(self):
        """a + sum_i sigma_i b^i."""
        B = self.a.copy()
        for s, tr in zip(self.sigmas, self.drivers):
            B += s * float(tr.drift[0])
        return B


def _fold(win, pos, factors, count):
    """Sequential products M <- F M over each window's factors, in the
    order given: factor ``factors[m]`` is number ``pos[m]`` of window
    ``win[m]``, which has ``count`` factors (at least one).  The windows are
    folded in lockstep, longest first, so the unfinished ones are a prefix
    of the stack.  Returns the window products and, per window, the
    position of the first running product that :func:`_check_finite`
    rejects (``count.max()`` if none)."""
    W, d = count.size, factors.shape[-1]
    rank = np.empty(W, int)
    rank[np.argsort(-count, kind="stable")] = np.arange(W)
    active = np.sum(count[:, None] > np.arange(count.max()), axis=0)
    stack = np.zeros((active.size, W, d, d))
    stack[pos, rank[win]] = factors
    running = np.zeros_like(stack)  # [j, r]: first j + 1 factors of rank r
    prod = np.tile(np.eye(d), (W, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for step, run, m in zip(stack, running, active):
            prod = np.matmul(step[:m], prod[:m], out=run[:m])
        bad = ~np.all(np.isfinite(running), axis=(2, 3))
        bad |= np.max(np.abs(running), axis=(2, 3)) > _OVERFLOW_NORM
    first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), active.size)
    return running[count - 1, rank], first_bad[rank]


def _windows(t0, t1, step):
    """Edges of the fewest equal windows of length <= step from t0 to t1."""
    n = max(1, int(math.ceil(abs(t1 - t0) / step - 1e-9)))
    return np.linspace(t0, t1, n + 1)


class _EvaluatorBase:
    """Shared plumbing on the window-propagator stream ``propagators(edges)``,
    the (n, d, d) stack of Phi(edges[k] -> edges[k+1]) that every window
    loop consumes.  A backend overrides ``propagate`` (stacked window by
    window) or ``propagators`` (then ``propagate`` is its one-window case).
    """

    d = None

    def propagate(self, t0, t1):
        return self.propagators(np.array([t0, t1], float))[0]

    def propagators(self, edges):
        stack = [self.propagate(a, b) for a, b in zip(edges[:-1], edges[1:])]
        return np.array(stack).reshape(-1, self.d, self.d)

    @property
    def horizon(self):
        """Time span covered by every driver path."""
        los, his = zip(*(p.horizon for p in self.driver_paths))
        return (max(los), min(his))

    def matrix(self, t):
        return self.propagate(0.0, t)

    def inverse(self, t):
        return self.propagate(t, 0.0)


class ExactDiagonal2D(_EvaluatorBase):
    """Closed-form cocycle of the decoupled benchmark system

        dX^1 = c_1 X^1 dt + X^1 dL^1,   dX^2 = c_2 X^2 dt + X^2 dL^2,

    with compensated small-jump drivers sharing one measure.  phi(t) is
    diagonal with log-entries

        (c_i + I - K) t + sum_{0 < s <= t} log(1 + kappa^i_s)

    where I and K are the band integrals of log(1+u)-u and log(1+u); for
    t < 0 the jump sum runs over (t, 0] with a minus sign, which is exactly
    the inverse of the forward window.  All integrals are over the actually
    simulated band, so the evaluator is the exact solution along the
    sampled path.
    """

    d = 2

    def __init__(self, driver_paths, measure, delta, drift_rates=(2.0, -4.0)):
        if len(driver_paths) != 2:
            raise StructuralError("need exactly two scalar driver paths")
        self.driver_paths = list(driver_paths)
        self.measure = measure
        self.delta = float(delta)
        self.drift_rates = tuple(float(c) for c in drift_rates)
        band = getattr(driver_paths[0], "band", None) or (0.0, self.delta)
        lo = min(band[0], self.delta)
        self.compensator_integral = measure.log_compensator(lo, self.delta)
        self._log_moment = measure.log_moment(lo, self.delta)
        self._tabulate_jumps()

    def _tabulate_jumps(self):
        """Per-path jump times and cumulative log(1 + kappa) tables."""
        self._jump_t = []
        self._log_cum = []
        self._anchor = []
        for p in self.driver_paths:
            if p.d != 1:
                raise StructuralError("driver paths must be scalar")
            lo_h, hi_h = p.horizon
            times, sizes = p.jumps_in(lo_h, hi_h)
            sizes = sizes[:, 0]
            if np.any(sizes <= -1.0):
                raise SingularityError("jump factor 1 + u hit zero or below")
            if np.any(np.abs(sizes) > self.delta * (1 + 1e-12)):
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
        lo, hi = self.horizon
        outside = (t < lo - 1e-12) | (t > hi + 1e-12)
        if np.any(outside):
            raise HorizonError(f"t={t[outside][0]} outside horizon "
                               f"[{lo}, {hi}]")
        rate = self.compensator_integral - self._log_moment
        cols = []
        for c, times, cum, anchor in zip(self.drift_rates, self._jump_t,
                                         self._log_cum, self._anchor):
            jump_sum = cum[np.searchsorted(times, t, side="right")] - anchor
            cols.append((c + rate) * t + jump_sum)
        return np.stack(cols, axis=-1)

    def propagators(self, edges):
        lg = np.diff(self.log_growth(edges), axis=0)
        if np.any(np.abs(lg) > _LOG_OVERFLOW):
            raise InstabilityError("diagonal entry overflows; split the "
                                   "window or use log_growth")
        return np.exp(lg)[:, :, None] * np.eye(2)

    def shifted(self, s):
        """The evaluator on the shifted paths.  The band integrals are
        shift-invariant, so only the jump tables are rebuilt."""
        ev = copy.copy(self)
        ev.driver_paths = [p.shift(s) for p in self.driver_paths]
        ev._tabulate_jumps()
        return ev


class StochasticExponential1D(_EvaluatorBase):
    """Doléans-Dade exponential of a scalar semimartingale path G:

        Y_t = exp(G_t - [G,G]^c_t / 2) prod_{0<s<=t} (1 + dG_s) e^{-dG_s},

    for unit initial condition; the continuous bracket is sigma^2 t read
    from the path's triplet.  Forward time only.
    """

    d = 1

    def __init__(self, path):
        if path.d != 1:
            raise StructuralError("path must be scalar")
        self.path = path
        self.driver_paths = [path]
        A = path.triplet.gaussian if path.triplet is not None else None
        self._gauss_var = float(np.sum(A * A)) if A is not None else 0.0

    def log_value(self, t):
        if t < 0.0:
            raise HorizonError("the exponential is defined for t >= 0 here")
        g = float(self.path.evaluate(t)[0])
        times, sizes = self.path.jumps_in(0.0, t)
        sizes = sizes[:, 0]
        if np.any(sizes == -1.0):
            raise DegeneracyError("jump of exactly -1: solution leaves Gl(1)")
        if np.any(sizes < -1.0):
            raise DegeneracyError("jump below -1: factor changes sign")
        corr = float(np.sum(np.log1p(sizes) - sizes)) if sizes.size else 0.0
        return g - 0.5 * self._gauss_var * t + corr

    def value(self, t):
        return math.exp(self.log_value(t))

    def propagate(self, t0, t1):
        return np.array([[math.exp(self.log_value(t1) - self.log_value(t0))]])

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

    ``propagators(edges)`` evaluates all windows at once: one node array,
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

    def propagators(self, edges):
        edges = np.asarray(edges, float)
        t0, t1 = edges[:-1], edges[1:]
        lo, hi = self.horizon
        outside = ((np.minimum(t0, t1) < lo - 1e-12)
                   | (np.maximum(t0, t1) > hi + 1e-12))
        n_in = int(np.argmax(outside)) if np.any(outside) else t0.size
        live = np.flatnonzero(t0[:n_in] != t1[:n_in])
        a, b = np.minimum(t0[live], t1[live]), np.maximum(t0[live], t1[live])
        M, errors = self._forward_products(a, b)
        back = np.flatnonzero(t1[live] < t0[live])
        ok = np.array([errors[k] is None for k in back], bool)
        singular = np.zeros(back.size, bool)
        singular[ok] = np.abs(np.linalg.det(M[back[ok]])) == 0.0
        for k in back[singular]:
            errors[k] = SingularityError("forward window is singular")
        failed = [e for e in errors if e is not None]
        if failed:
            raise failed[0]
        if n_in < t0.size:
            raise HorizonError("window outside the sampled horizon")
        M[back] = np.linalg.inv(M[back])
        out = np.tile(np.eye(self.d), (t0.size, 1, 1))
        out[live] = M
        return out

    def _forward_products(self, a, b):
        """Products over the forward windows (a_k, b_k] and, per window, the
        error its first failing factor raises (or None)."""
        d, W = self.d, a.size
        if W == 0:
            return np.empty((0, d, d)), []
        jw, jt, ji, js = [], [], [], []
        for k in range(W):
            for i, p in enumerate(self.driver_paths):
                times, sizes = p.jumps_in(a[k], b[k])
                jw.append(np.full(times.size, k))
                jt.append(times)
                ji.append(np.full(times.size, i))
                js.append(sizes[:, 0])
        jw, jt, ji, js = map(np.concatenate, (jw, jt, ji, js))
        sw, sp, st = self._steps(a, b, jw, jt)

        G = (st - sp)[:, None, None] * self.system.a
        for sigma, p in zip(self.system.sigmas, self.driver_paths):
            dc = p.continuous_increment(sp, st)[:, 0]
            G = G + dc[:, None, None] * sigma
        steps = expm(G) if self.scheme == "expm" else np.eye(d) + G
        jumps = np.eye(d) + js[:, None, None] * np.array(self.system.sigmas)[ji]
        singular = np.abs(np.linalg.det(jumps)) < 1e-12

        # sequence order: per window and node, the step ending there, then
        # the jumps at that node by driver
        win = np.concatenate([sw, jw])
        order = np.lexsort((np.arange(win.size), np.concatenate([st, jt]), win))
        win = win[order]
        count = np.bincount(win, minlength=W)
        start = np.cumsum(count) - count
        pos = np.arange(win.size) - start[win]
        M, first_bad = _fold(win, pos, np.concatenate([steps, jumps])[order],
                             count)
        # a singular jump factor is caught before its product is formed
        sing = np.concatenate([np.zeros(sw.size, bool), singular])[order]
        first_sing = np.full(W, count.max())
        np.minimum.at(first_sing, win[sing], pos[sing])
        errors = [None] * W
        for k in np.flatnonzero(np.minimum(first_sing, first_bad) < count):
            if first_sing[k] <= first_bad[k]:
                f = order[start[k] + first_sing[k]] - sw.size
                errors[k] = SingularityError(
                    f"jump factor I + u*sigma_{ji[f] + 1} is singular "
                    f"(u={float(js[f])})")
            else:
                errors[k] = InstabilityError(_OVERFLOW_MSG)
        return M, errors

    def _steps(self, a, b, jw, jt):
        """Window, start and end of every step.  The nodes of window k are
        its lattice a_k + (b_k - a_k) j/n_k (0 < j < n_k), its jump times
        (window indices jw, times jt) and b_k; a step runs to each node from
        the one before it (from a_k for the first), if that is earlier."""
        n = np.maximum(1, np.ceil((b - a) / self.dt_int - 1e-9).astype(int))
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


def _jump_events(driver_paths, a, b, keep=None):
    """{time: [(driver index, size)]} for the jumps in (a, b], optionally
    only those for which ``keep(driver index, size)`` holds."""
    events = {}
    for i, p in enumerate(driver_paths):
        times, sizes = p.jumps_in(a, b)
        for t, s in zip(times, sizes[:, 0]):
            if keep is None or keep(i, s):
                events.setdefault(float(t), []).append((i, float(s)))
    return events


# -- auxiliary linear system and Picard oracle ---------------------------------


def _psi_grid(system, driver_paths, times):
    """psi and psi^(-1) on a sorted breakpoint grid (first entry 0).

    psi solves d psi = sigma_i psi u dN~ restricted to |u| <= delta: between
    jumps d psi = -(sum_i sigma_i c_i) psi dt with c_i the small-jump
    compensation rate; at a small jump, psi <- (I + kappa sigma_i) psi and
    psi^(-1) <- psi^(-1) (I + kappa sigma_i)^(-1).
    """
    d = system.d
    C = np.zeros((d, d))
    for s_mat, p in zip(system.sigmas, driver_paths):
        C += float(p.comp_rate) * s_mat
    jumps = _jump_events(driver_paths, 0.0, times[-1],
                         lambda i, s: abs(s) <= system.drivers[i].delta)
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
    jumps = [p.jumps_in(0.0, grid[-1])[0] for p in driver_paths]
    return np.unique(np.concatenate([grid] + jumps))


def _breakpoints(driver_paths, t, dt_int):
    return _with_jumps(driver_paths, _windows(0.0, t, dt_int))


def _psi_at(system, driver_paths, t, dt_int):
    """(psi_t, psi_t^(-1)) for t >= 0."""
    if t < 0.0:
        raise HorizonError("auxiliary system is integrated forward from 0")
    if t == 0.0:
        return np.eye(system.d), np.eye(system.d)
    times = _breakpoints(driver_paths, t, dt_int)
    psis, psinvs = _psi_grid(system, driver_paths, times)
    return psis[-1], psinvs[-1]


def auxiliary_psi(system, driver_paths, t, dt_int=1e-3):
    """psi_t of the compensated small-jump auxiliary equation (t >= 0)."""
    return _psi_at(system, driver_paths, t, dt_int)[0]


def auxiliary_psi_inverse(system, driver_paths, t, dt_int=1e-3):
    """psi_t^(-1), integrated from its own equation (not by inverting psi):
    d psi^(-1) = -psi^(-1) dZ + jump corrections, which collapses to the
    factor (I + dZ_s)^(-1) at jumps."""
    return _psi_at(system, driver_paths, t, dt_int)[1]


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

    starting from X^0 = x.  Time integrals are left-endpoint Riemann sums
    on the jump-adapted grid; the counting-measure sum evaluates integrands
    at s-.  Serves as an independent oracle for the Euler backend.
    """
    if n_iter < 1:
        raise ConfigurationError("n_iter must be >= 1")
    if t <= 0.0:
        raise HorizonError("solve on a window (0, t] with t > 0")
    x = np.asarray(x, float)
    d = system.d
    times = _breakpoints(driver_paths, t, dt_int)
    psis, psinvs = _psi_grid(system, driver_paths, times)
    B = system.drift_matrix()
    large = _jump_events(driver_paths, 0.0, t,
                         lambda i, s: abs(s) > system.drivers[i].delta)

    # convergent iterates obey |X^{n+1}-X^n| <= (C3 xi_t)^n / n! * const, so
    # differences may grow until n ~ C3 xi_t; the divergence detector is
    # armed only past that hump, where genuine convergence forces decay
    c1 = max(_hs_norm(P) for P in psis)
    c2 = max(_hs_norm(P) for P in psinvs)
    c3 = c1 * c2 * (_hs_norm(B) + 1.0)
    xi = t
    for i, p in enumerate(driver_paths):
        jt, js = p.jumps_in(0.0, t)
        big = np.abs(js[:, 0]) > system.drivers[i].delta
        xi += _hs_norm(system.sigmas[i]) * float(np.sum(np.abs(js[big, 0])))
    hump = c3 * xi

    K = len(times)
    X_prev = np.tile(x, (K, 1))
    X_prev_pre = {k: x.copy() for k in range(K)}
    diffs = []
    grow = 0
    for _ in range(n_iter):
        X_new = np.empty((K, d))
        X_new_pre = {}
        acc = x.astype(float).copy()
        X_new[0] = x
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
        X_prev = X_new
        X_prev_pre = {k: v for k, v in X_new_pre.items()}
        for k in range(K):
            X_prev_pre.setdefault(k, X_prev[k])
    return PicardResult(value=X_prev[-1], diffs=diffs)


# -- diagnostics ----------------------------------------------------------------


def cocycle_residual(ev, s, t):
    """Hilbert-Schmidt defect of the cocycle law at (s, t):
    || phi(t+s) - phi(t, theta_s .) phi(s) ||."""
    direct = ev.matrix(s + t)
    composed = ev.shifted(s).matrix(t) @ ev.matrix(s)
    return _hs_norm(direct - composed)


def integrability_alpha(ev, grid):
    """sup over grid nodes and jump times of log+ ||phi(t)|| and of
    log+ ||phi(t)^(-1)|| on [0, t_end]; empirical one-path versions of the
    integrability functionals of the spectral theorem."""
    times = np.asarray(grid.times() if hasattr(grid, "times") else grid, float)
    if times[0] != 0.0:
        raise ConfigurationError("grid must start at 0")
    nodes = _with_jumps(getattr(ev, "driver_paths", []), times)
    props = ev.propagators(nodes)
    M, phis = np.eye(ev.d), np.empty_like(props)
    for k, P in enumerate(props):
        M = phis[k] = P @ M
    if np.any(np.abs(np.linalg.det(phis)) < 1e-300):
        raise SingularityError("propagator numerically singular")
    # per-matrix norms: a batched sum of squares rounds differently
    floor = max(0.0, math.log(_hs_norm(np.eye(ev.d))))
    a_plus = max([floor] + [math.log(_hs_norm(phi)) for phi in phis])
    a_minus = max([floor] + [math.log(_hs_norm(inv))
                             for inv in np.linalg.inv(phis)])
    return a_plus, a_minus
