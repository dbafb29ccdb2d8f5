"""Spectral data of a linear cocycle: Lyapunov exponents with
multiplicities, filtration flags and their metric, backward spectra, and
the Oseledets splitting.

Exponents are estimated by window-wise QR renormalization: an orthonormal
frame is pushed through the propagator, re-orthonormalized with a
positive-diagonal QR after every window, and the per-direction logs of the
R diagonal accumulate the growth rates.  This is the overflow-free
equivalent of diagonalizing (phi^T phi)^(1/2t); the literal construction
is kept in :func:`sym_root_spectrum` as a small-horizon cross-check.

Flags come from the same push through phi(t)^T = P_1^T ... P_n^T (Ginelli
et al., PRL 99, 130601, 2007): the identity frame's columns, by log R_kk,
converge to the right singular directions of phi(t), the slow ones exactly
orthogonal to the fast ones, so none underflows.  Blocks U_i collect the
columns whose rates cluster at one exponent; the nested V_i = U_p + ... +
U_i form the flag, and the metric is the largest projector-product norm
between blocks raised to h/|lambda_i - lambda_j|.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import _windows
from .errors import (
    ConfigurationError,
    InstabilityError,
    LevyMetError,
    ResolutionError,
    SingularityError,
    StructuralError,
    raised,
)


# -- singular values and exterior powers -----------------------------------------


def singular_values(M):
    """Singular values in descending order; raises if the smallest one
    indicates a numerically singular matrix."""
    M = np.asarray(M, float)
    if not np.all(np.isfinite(M)):
        raise SingularityError("matrix has non-finite entries")
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-13 * s[0]:
        raise SingularityError("matrix is numerically singular")
    return s


def exterior_power_norm(M, k):
    """Operator norm of the k-fold exterior power: the product of the k
    largest singular values (|det M| when k = d)."""
    M = np.asarray(M, float)
    d = M.shape[0]
    if not 1 <= k <= d:
        raise ConfigurationError(f"k must lie in 1..{d}")
    s = singular_values(M)
    return float(np.prod(s[:k]))


def sym_root_spectrum(M, t):
    """Rates and eigenvectors of (M^T M)^(1/2t): log sigma_i / t with the
    right singular directions.  Small-t cross-check for the QR estimates."""
    if t <= 0.0:
        raise ConfigurationError("t must be > 0")
    _, s, Vt = np.linalg.svd(np.asarray(M, float))
    return np.log(s) / t, Vt.T


def _qr_pos(Z):
    """QR factorization with the R diagonal forced positive, which makes
    frames unique and log R_kk well defined.  Leading axes of Z are batch
    axes: each matrix is factored on its own."""
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    sign = np.sign(diag)
    sign[sign == 0.0] = 1.0
    return Q * sign[..., None, :], np.abs(diag)


def _push(Q, propagators):
    """Push frames Q (..., d, k) through stacked window propagators
    (..., n, d, d), QR-renormalizing after each window.  Leading axes are
    batch axes that move in lockstep, one LAPACK call per window for the
    whole batch; a frame with no batch axis is the batch of one.

    Returns the new frames, the window-order sums of log R_kk (..., k) and
    a mask (...) of the frames that degenerated: an R diagonal below 1e-280
    or non-finite in some window.  The frame and logs of a degenerated
    batch entry are meaningless; every other entry is unaffected."""
    logs = np.zeros(Q.shape[:-2] + Q.shape[-1:])
    degenerated = np.zeros(Q.shape[:-2], bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(propagators.shape[-3]):
            Q, diag = _qr_pos(propagators[..., k, :, :] @ Q)
            degenerated |= ~np.all((diag >= 1e-280) & np.isfinite(diag),
                                   axis=-1)
            logs += np.log(diag)
    return Q, logs, degenerated


_DEGENERATED = "frame degenerated; shorten renorm_step"


def _transposed(props):
    """The window stack of phi^T in push order, C-contiguous."""
    return np.ascontiguousarray(np.swapaxes(props[..., ::-1, :, :], -1, -2))


# -- spectrum estimation ----------------------------------------------------------


def group_spectrum(raw, group_tol):
    """Greedy clustering of a descending exponent list: adjacent values are
    merged while their gap is <= group_tol.  Returns (groups, gap) with
    groups = [(lambda_i, d_i)] strictly decreasing and gap the smallest
    inter-group separation (None for a single group)."""
    raw = np.asarray(raw, float)
    if raw.size == 0:
        raise ConfigurationError("empty exponent list")
    if np.any(np.diff(raw) > 0.0):
        raise ConfigurationError("raw exponents must be sorted descending")
    clusters = [[raw[0]]]
    for v in raw[1:]:
        if clusters[-1][-1] - v <= group_tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    groups = [(float(np.mean(c)), len(c)) for c in clusters]
    if len(groups) == 1:
        return groups, None
    gap = float(min(groups[i][0] - groups[i + 1][0] for i in range(len(groups) - 1)))
    if gap <= group_tol:
        raise ResolutionError("inter-group gap does not exceed group_tol; "
                              "horizon too short to resolve the spectrum")
    return groups, gap


@dataclass
class SpectrumEstimate:
    """Sorted exponent estimates with grouping.

    raw: Lambda_1 >= ... >= Lambda_d (units 1/time); lambdas/multiplicities:
    the grouped distinct exponents; gap: smallest inter-group separation;
    horizon: signed time span used; logdet_over_T: independently accumulated
    (1/|T|) log|det phi|, which must match sum(raw); flag: the
    :func:`flag_at` of phi(horizon) with this grouping.  If that flag could
    not be cut, the exponents stand and reading ``flag`` raises the cut's
    error.
    """

    raw: np.ndarray
    lambdas: tuple
    multiplicities: tuple
    gap: float | None
    horizon: float
    logdet_over_T: float
    group_tol: float
    _flag: "Flag | LevyMetError | None" = None

    def __post_init__(self):
        self.raw = np.asarray(self.raw, float)
        if sum(self.multiplicities) != self.raw.size:
            raise StructuralError("multiplicities must sum to d")
        if any(self.lambdas[i] <= self.lambdas[i + 1]
               for i in range(len(self.lambdas) - 1)):
            raise StructuralError("grouped exponents must be strictly decreasing")
        defect = abs(float(np.sum(self.raw)) - self.logdet_over_T)
        if defect > 1e-6 * max(1.0, abs(self.logdet_over_T)):
            raise StructuralError(
                f"sum rule violated: sum(raw) - logdet/T = {defect:.3e}"
            )

    @property
    def flag(self):
        if isinstance(self._flag, LevyMetError):
            raise self._flag
        return self._flag

    @property
    def p(self):
        return len(self.lambdas)

    @property
    def grouped(self):
        return list(zip(self.lambdas, self.multiplicities))


# Fewest renorm windows a QR estimate accepts.
_QR_MIN_WINDOWS = 10


def _check_span(T, renorm_step):
    if abs(T) < _QR_MIN_WINDOWS * renorm_step:
        raise ConfigurationError(
            f"horizon must be at least {_QR_MIN_WINDOWS} renorm steps")


def _qr_stack(ev, T, renorm_step):
    """The window stack of the QR job (ev, T): the propagators of ``ev``
    over [0, T], T signed, in the fewest windows of at most renorm_step."""
    return ev.propagators(_windows(0.0, T, renorm_step))


def _qr_estimate(jobs, renorm_step):
    """QR estimates of (stack, T) jobs, at least one, in one lockstep push.
    A stack is the array :func:`_qr_stack` returns for an evaluator over
    [0, T].  Every job covers [0, T] with at least _QR_MIN_WINDOWS windows
    of at most renorm_step; T is signed (a negative T is the time-reversed
    cocycle) and all jobs share one |T| and one stack shape.  Each job
    pushes two frames: one through phi for its log growths, grouped per
    unit |T| with group_tol 10/|T|, and one through the transposed stack
    for its flag.  log|det| is accumulated independently of the QR
    diagonal for the sum rule.
    Returns one entry per job: its SpectrumEstimate, or the LevyMetError
    its push or grouping raised."""
    if len({abs(T) for _, T in jobs}) > 1:
        raise ConfigurationError("jobs must share one horizon length |T|")
    for _, T in jobs:
        _check_span(T, renorm_step)
    # entries 0..n-1 push the spectrum frames through the stacks, n..2n-1
    # the flag frames through the same stacks as _transposed returns them;
    # both halves fill one buffer, the only copy of the stacks made here
    n, shape = len(jobs), jobs[0][0].shape
    props = np.empty((2 * n,) + shape)  # (2 jobs, windows, d, d)
    np.stack([P for P, _ in jobs], out=props[:n])
    props[n:] = np.swapaxes(props[:n, ::-1], -1, -2)
    with np.errstate(invalid="ignore"):  # a non-finite window fails its path
        signs, lds = np.linalg.slogdet(props[:n])
    logdets = np.cumsum(lds, axis=-1)[:, -1]  # window order; np.sum is pairwise
    d = shape[-1]
    Q, logs, degenerated = _push(np.broadcast_to(np.eye(d), (2 * n, d, d)),
                                 props)
    out = []
    for j, (_, T) in enumerate(jobs):
        span = abs(T)
        tol = 10.0 / span
        if np.any(signs[j] == 0.0):
            out.append(SingularityError("window propagator is singular"))
        elif degenerated[j] or degenerated[n + j]:
            out.append(InstabilityError(_DEGENERATED))
        else:
            raw = np.sort(logs[j] / span)[::-1]
            try:
                groups, gap = group_spectrum(raw, tol)
                try:
                    cut = _cut_flag(Q[n + j], logs[n + j], T, groups)
                except LevyMetError as exc:  # the exponents stand without it
                    cut = exc
                out.append(SpectrumEstimate(
                    raw, tuple(g[0] for g in groups),
                    tuple(g[1] for g in groups), gap, T, logdets[j] / span, tol,
                    cut))
            except LevyMetError as exc:
                out.append(exc)
    return out


def _qr_single(ev, T, renorm_step):
    """The QR estimate of one evaluator, T signed: the job
    (_qr_stack(ev, T, renorm_step), T) of ``_qr_estimate``, its span
    checked before the stack is computed."""
    _check_span(T, renorm_step)
    return raised(_qr_estimate([(_qr_stack(ev, T, renorm_step), T)],
                               renorm_step)[0])


def spectrum_qr(ev, T, renorm_step=1.0):
    """Lyapunov spectrum over [0, T] by QR renormalization.

    Adjacent exponents at most 10/T apart are grouped, so the grouping
    resolution scales with the horizon.  The sum rule sum(raw) =
    (1/T) log|det phi(T)| is checked with a determinant accumulated
    independently of the QR diagonal.  A batch of window stacks, in either
    time direction, is one call of ``_qr_estimate``; each of its estimates
    is bitwise the one this function returns for that evaluator.
    """
    if T <= 0.0:
        raise ConfigurationError("T must be > 0")
    return _qr_single(ev, T, renorm_step)


def backward_spectrum(ev, T, renorm_step=1.0):
    """Spectrum of the time-reversed cocycle: growth rates of phi(-t) per
    unit |t|.  For the forward exponents lambda_1 > ... > lambda_p the
    grouped result is lambda^-_k = -lambda_{p+1-k} with reversed
    multiplicities.  It is the job of -T in ``_qr_estimate``."""
    if T <= 0.0:
        raise ConfigurationError("T must be > 0")
    return _qr_single(ev, -T, renorm_step)


def vector_exponent(ev, x, T, renorm_step=1.0):
    """(1/T) log |phi(T) x| with periodic renormalization of the vector."""
    x = np.asarray(x, float)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ConfigurationError("x must be nonzero")
    if T <= 0.0:
        raise ConfigurationError("T must be > 0")
    props = ev.propagators(_windows(0.0, T, renorm_step))
    _, logs, degenerated = _push((x / nrm)[:, None], props)
    if degenerated:
        raise InstabilityError(_DEGENERATED)
    return float(logs[0]) / T


# -- flags -------------------------------------------------------------------------


def _grouping(g):
    """Normalize a grouping argument: SpectrumEstimate or [(lambda, mult)]."""
    if isinstance(g, SpectrumEstimate):
        return tuple(g.lambdas), tuple(g.multiplicities)
    lams, dims = zip(*g)
    return tuple(float(v) for v in lams), tuple(int(m) for m in dims)


class Flag:
    """Nested subspaces V_p c ... c V_1 = R^d stored as orthonormal blocks
    U_1, ..., U_p ordered by decreasing exponent; V_i = U_p + ... + U_i."""

    def __init__(self, blocks):
        self.blocks = tuple(np.atleast_2d(np.asarray(b, float)) for b in blocks)
        basis = np.hstack(self.blocks)
        d = basis.shape[0]
        if basis.shape[1] != d:
            raise StructuralError("block dimensions must sum to d")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(d))) > 1e-10:
            raise StructuralError("concatenated flag basis is not orthonormal")
        self.d = d

    @property
    def dims(self):
        return tuple(b.shape[1] for b in self.blocks)

    @property
    def p(self):
        return len(self.blocks)

    def nested_basis(self, i):
        """Orthonormal basis of V_i (1-based block index)."""
        return np.hstack(self.blocks[i - 1:])


def _frame_flag(Q, dims):
    """Flag whose blocks are consecutive column groups of the orthonormal
    frame Q, of the given dimensions."""
    blocks, k = [], 0
    for m in dims:
        blocks.append(Q[:, k:k + m])
        k += m
    return Flag(blocks)


def coordinate_flag(dims):
    """Flag whose blocks are consecutive coordinate axes."""
    return _frame_flag(np.eye(sum(dims)), dims)


def random_flag(dims, rng):
    """Haar-random flag of the given block dimensions."""
    d = sum(dims)
    Q, _ = _qr_pos(rng.standard_normal((d, d)))
    return _frame_flag(Q, dims)


def _cut_flag(Q, logs, t, grouping):
    """Flag of the frame Q pushed through phi(t)^T with log R_kk ``logs``:
    columns in stable decreasing order of logs (on a diagonal cocycle Q
    stays +-I and the sort alone orders it), each one's rate per unit |t|
    nearest its own block's exponent, signed zeros made +0.0."""
    lams, dims = _grouping(grouping)
    if sum(dims) != Q.shape[-1]:
        raise StructuralError("grouping does not cover the dimension")
    order = np.argsort(-logs, kind="stable")
    if t != 0.0:
        dist = np.abs(logs[order, None] / abs(t) - np.array(lams))
        own = dist[np.arange(order.size), np.repeat(np.arange(len(dims)), dims)]
        if np.any(dist.min(axis=1) < own):
            raise ResolutionError("frame growth rates inconsistent with grouping")
    return _frame_flag(Q[:, order] + 0.0, dims)


def flag_at(ev, t, grouping):
    """Flag of right singular subspaces of phi(t), clustered by the given
    grouping: the identity frame pushed through phi(t)^T over unit windows
    (see the module docstring), so no horizon overflows or loses a slow
    direction.  With renorm_step = 1 it is the flag that spectrum_qr
    (t > 0) and backward_spectrum (t < 0) attach to their estimates."""
    props = ev.propagators(_windows(0.0, t, 1.0))
    Q, logs, degenerated = _push(np.eye(ev.d), _transposed(props))
    if degenerated:
        raise InstabilityError(_DEGENERATED)
    return _cut_flag(Q, logs, t, grouping)


@dataclass(frozen=True)
class FlagMetricParams:
    """Exponent labels and gap parameter h of the flag metric; valid when
    |lambda_i - lambda_j| >= (d-1) h for every pair."""

    lambdas: tuple
    h: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.h <= 0.0:
            raise ConfigurationError("h must be > 0")
        for i in range(len(self.lambdas)):
            for j in range(i + 1, len(self.lambdas)):
                diff = abs(self.lambdas[i] - self.lambdas[j])
                if diff == 0.0:
                    raise ConfigurationError("block exponents must be distinct")
                if diff / self.h < (self.dim - 1) - 1e-12:
                    raise ConfigurationError(
                        "metric parameters violate |l_i - l_j|/h >= d-1"
                    )


def flag_distance(F, G, params):
    """max over i != j of ||P_i Ptilde_j||_HS^(h/|lambda_i - lambda_j|),
    with P_i the orthogonal projector onto block U_i.  Zero iff the flags
    agree blockwise; symmetric because ||U_i^T V_j|| = ||V_j^T U_i||."""
    if F.dims != G.dims:
        raise StructuralError("flags have different types")
    if len(params.lambdas) != F.p:
        raise StructuralError("metric params do not match the flag type")
    best = 0.0
    for i in range(F.p):
        for j in range(F.p):
            if i == j:
                continue
            prod = np.linalg.norm(F.blocks[i].T @ G.blocks[j])
            expo = params.h / abs(params.lambdas[i] - params.lambdas[j])
            best = max(best, float(prod) ** expo)
    return best


@dataclass
class FlagConvergence:
    """log flag distances along increasing times, with points at the
    floating-point floor excluded from the slope fit."""

    times: np.ndarray
    log_distances: np.ndarray
    included: np.ndarray
    slope: float | None
    h: float


def flag_convergence_rate(ev, grouping, params, t_list, frame=None):
    """Convergence of push-forward frame flags to the limit flag.

    The frame (default: identity; pass a rotation to see a nontrivial
    transient) is pushed through the cocycle and QR-orthonormalized; its
    leading blocks span the images of the leading frame directions, which
    align with the limiting flag at rate e^(-h(d-1) t) per adjacent pair.
    Returns the log-distance series and the fitted slope over the points
    above the floating-point floor.  A generic backend's limit flag is the
    pushed flag at the last time.  A generic frame is aligned to ~1e-13,
    and ``flag_distance`` raises that to h/|lambda_i - lambda_j|, so its
    floor is 1e-13^(h/spread), spread the largest exponent difference.

    For a diagonal closed-form backend (d = 2, two groups) the limit flag
    is the coordinate flag, and the log-distance to it is computed in the
    log domain, so the decay stays resolvable far below the float64
    alignment floor of a generic frame computation (~1e-16).
    """
    t_list = np.asarray(sorted(t_list), float)
    if t_list.size < 2:
        raise ConfigurationError("need at least two times to fit a slope")
    lams, dims = _grouping(grouping)
    d = ev.d
    if frame is None:
        frame = np.eye(d)
    frame = np.asarray(frame, float)

    exact = hasattr(ev, "log_growth") and d == 2 and len(lams) == 2
    # generic frames saturate at the float alignment level; the log-domain
    # path resolves distances down to the exp underflow limit
    spread = max(params.lambdas) - min(params.lambdas)
    floor = 1e-300 if exact else 1e-13 ** (params.h / spread)
    logs = np.empty(t_list.size)
    if exact:
        g00, g10 = abs(frame[0, 0]), abs(frame[1, 0])
        for k, t in enumerate(t_list):
            lg = ev.log_growth(t)
            a = lg[0] + (math.log(g00) if g00 > 0.0 else -math.inf)
            b = lg[1] + (math.log(g10) if g10 > 0.0 else -math.inf)
            if b == -math.inf:
                log_sin = -math.inf
            elif a == -math.inf:
                log_sin = 0.0
            else:
                hi, lo = max(a, b), min(a, b)
                log_sin = b - hi - 0.5 * math.log1p(math.exp(2.0 * (lo - hi)))
            expo = params.h / abs(params.lambdas[0] - params.lambdas[1])
            logs[k] = expo * log_sin
    else:
        frames = []
        Q = _qr_pos(frame)[0]
        for a, b in zip(np.r_[0.0, t_list[:-1]], t_list):
            # renormalise over windows of at most unit length
            Q, _, degenerated = _push(Q, ev.propagators(_windows(a, b, 1.0)))
            if degenerated:
                raise InstabilityError(_DEGENERATED)
            frames.append(Q)
        target = _frame_flag(frames[-1], dims)
        with np.errstate(divide="ignore"):
            for k, Q in enumerate(frames):
                dist = flag_distance(_frame_flag(Q, dims), target, params)
                logs[k] = math.log(dist) if dist > 0.0 else -math.inf

    included = logs > math.log(floor)
    slope = None
    if int(np.sum(included)) >= 2:
        slope = float(np.polyfit(t_list[included], logs[included], 1)[0])
    return FlagConvergence(t_list, logs, included, slope, params.h)


# -- Oseledets splitting -------------------------------------------------------------


def _mT(X):
    return np.swapaxes(X, -1, -2)


def _by_key(items, key):
    """Indices of ``items`` grouped by ``key(item)``."""
    groups = {}
    for j, x in enumerate(items):
        groups.setdefault(key(x), []).append(j)
    return groups.values()


def principal_angles(A, B):
    """Principal angles between the column spans of A and B (radians), in
    increasing order; leading axes are batch axes.

    Knyazev–Argentati split (SIAM J. Sci. Comput. 23, 2002): the sines are
    the singular values of qb - qa (qa^T qb), with qa the wider basis; an
    angle with cos^2 >= 1/2 is the arcsin of its sine, any other the
    arccos of its cosine, so angles near 0 resolve to rounding rather than
    to the ~1.5e-8 floor of arccos.
    """
    qa, _ = np.linalg.qr(np.atleast_2d(np.asarray(A, float)))
    qb, _ = np.linalg.qr(np.atleast_2d(np.asarray(B, float)))
    if qb.shape[-1] > qa.shape[-1]:
        qa, qb = qb, qa
    m = _mT(qa) @ qb
    return _split_angles(qa, qb, m, np.linalg.svd(m, compute_uv=False))


def _split_angles(qa, qb, m, cos):
    """The angles of :func:`principal_angles` from orthonormal bases qa and
    qb, m = qa^T qb and its singular values ``cos`` (decreasing); the
    sines come from the narrower basis."""
    if qb.shape[-1] > qa.shape[-1]:
        qa, qb, m = qb, qa, _mT(m)
    sin = np.linalg.svd(qb - qa @ m, compute_uv=False)[..., ::-1]
    return np.where(cos * cos >= 0.5, np.arcsin(np.clip(sin, 0.0, 1.0)),
                    np.arccos(np.clip(cos, -1.0, 1.0)))


def _intersections(A, B, angle_tol):
    """Orthonormal bases of span(A_j) and span(B_j)'s intersections for
    stacked orthonormal A (n, d, ka) and B (n, d, kb), as a list: the
    principal directions in span(A_j) whose principal angle, as
    :func:`principal_angles` measures it, is <= angle_tol.  The angles
    increase as the cosines fall, so those directions are the leading left
    singular vectors of A_j^T B_j."""
    M = _mT(A) @ B
    U, cos, _ = np.linalg.svd(M, full_matrices=False)
    keep = np.sum(_split_angles(A, B, M, cos) <= angle_tol, axis=-1)
    out = [None] * len(A)
    for idx in _by_key(keep.tolist(), int):
        basis = A[idx] @ U[idx][..., :keep[idx[0]]]
        for j, E in zip(idx, np.linalg.qr(basis)[0] if basis.size else basis):
            out[j] = E
    return out


@dataclass
class OseledetsSplit:
    """Direct-sum decomposition R^d = E_1 + ... + E_p with orthonormal
    bases per summand, ordered by decreasing exponent."""

    subspaces: tuple
    dims: tuple

    def stacked(self):
        return np.hstack(self.subspaces)

    def angles_to(self, targets):
        """Largest principal angle of each E_i against a target basis."""
        return _angles_to([self], targets)[0]


def _angles_to(splits, targets):
    """``angles_to`` of each split, stacked over the splits whose bases
    have one shape."""
    out = [[] for _ in splits]
    for idx in _by_key(splits,
                       lambda s: tuple(E.shape for E in s.subspaces)):
        for E, T_ in zip(map(np.stack, zip(*(splits[j].subspaces
                                             for j in idx))), targets):
            angles = (np.max(principal_angles(E, T_), axis=-1) if E.size
                      else np.full(len(idx), math.inf))
            for j, a in zip(idx, angles.tolist()):
                out[j].append(a)
    return out


def oseledets_spaces(F_fwd, F_bwd, angle_tol=1e-6):
    """Oseledets spaces E_i = V_i  intersect  V^-_{p+1-i} from the forward
    and backward flags, via principal-angle intersections.  Checks the
    dimension of every intersection and the direct-sum property."""
    return raised(_oseledets_batch([(F_fwd, F_bwd)], angle_tol)[0])


def _oseledets_batch(pairs, angle_tol):
    """``oseledets_spaces`` of (forward, backward) flag pairs, the
    intersections stacked over the pairs of one flag type; per pair its
    split or its LevyMetError."""
    out = [None] * len(pairs)
    for idx in _by_key(pairs, lambda fb: (fb[0].dims, fb[1].dims)):
        dims, bdims = (F.dims for F in pairs[idx[0]])
        p = len(dims)
        spaces = [] if bdims != dims[::-1] else [_intersections(
            np.stack([pairs[j][0].nested_basis(i) for j in idx]),
            np.stack([pairs[j][1].nested_basis(p + 1 - i) for j in idx]),
            angle_tol) for i in range(1, p + 1)]
        for n, j in enumerate(idx):
            E = [S[n] for S in spaces]
            bad = [i for i in range(len(E)) if E[i].shape[1] != dims[i]]
            if not E:
                out[j] = StructuralError(
                    "flags have different numbers of blocks" if len(bdims) != p
                    else "backward multiplicities must be the reversed "
                         "forward multiplicities")
            elif bad:
                out[j] = ResolutionError(
                    f"intersection {bad[0] + 1} has dimension "
                    f"{E[bad[0]].shape[1]}, expected {dims[bad[0]]}; increase "
                    "the horizon or angle_tol")
            else:
                smin = np.linalg.svd(np.hstack(E), compute_uv=False)[-1]
                out[j] = (ResolutionError("summands do not span: smallest "
                                          f"singular value {smin:.3e}")
                          if smin <= 1e-8 else OseledetsSplit(tuple(E), dims))
    return out
