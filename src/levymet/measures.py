"""Scalar Lévy jump measures and process triplets.

A :class:`LevyMeasure` is a measure nu on the real line with nu({0}) = 0 and
integral of (u^2 and 1) finite.  Two kinds are supported:

* finite atom lists (compound Poisson) -- every integral is an exact sum,
  which makes them the main test vehicle;
* symmetric power laws c|u|^(-1-alpha) du on 0 < |u| <= cutoff, optionally
  untruncated (cutoff = inf) to provide heavy large-jump tails.

A :class:`LevyTriplet` bundles drift, Gaussian scale sigma, measure, and the
small/large jump split delta of a scalar driver, i.e. everything the
Lévy–Itô decomposition needs.  The module-level functions compute the
scalar integrals that feed closed-form Lyapunov exponents, compensation
rates, and the characteristic exponent of the Lévy–Khintchine formula.

Power-law integrals are closed forms in numpy: the moments directly, and
the log and characteristic-exponent integrands as even-power series (the
measure is symmetric).  scipy's ``quad`` is imported only for the few
inputs the series does not reach (see ``LevyMeasure._pl_series``).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, QuadratureError, SupportError

ATOMS = "atom_list"
POWER_LAW = "power_law_truncated"

DEFAULT_TOL = 1e-10


# The even-power series of the symmetric power law sums this many terms.
# They have decayed past rounding on |u| <= _LOG_REACH for log(1 - u^2) (the
# last term is below 1e-18 of the sum there) and on |zu| <= _COS_REACH for
# cos(zu) - 1 (past it, cancelling the alternating terms costs more than
# 1e-14 of the sum).
_M = np.arange(1, 161)
_LOG_REACH = 0.9
_COS_REACH = 8.0


def _log1m_sq_coeffs(h):
    """b_m h^(2m-2) of log(1 - u^2) = -sum_m u^(2m) / m."""
    return -(h * h) ** (_M - 1) / _M


def _quad(f, a, b, weight=None, wvar=None):
    """scipy quad wrapper that enforces the absolute tolerance."""
    from scipy import integrate  # on first use: no shipped config gets here

    value, abserr = integrate.quad(f, a, b, epsabs=DEFAULT_TOL, epsrel=1e-12,
                                   limit=400, weight=weight, wvar=wvar)
    if abserr > 100.0 * DEFAULT_TOL and abserr > 1e-10 * max(1.0, abs(value)):
        raise QuadratureError(
            f"integral on [{a}, {b}] did not converge (abserr={abserr:.3e})"
        )
    return value


def _checked_pow(x, p, what, measure):
    """x ** p for a constant of a power-law measure: a result past the float
    range is refused, naming the measure, instead of escaping as an
    OverflowError."""
    try:
        return x ** p
    except OverflowError:
        raise ConfigurationError(
            f"{what} overflows for the power law with alpha = {measure.alpha}, "
            f"c = {measure.c}") from None


class LevyMeasure:
    """Jump measure nu with nu({0}) = 0 and finite (u^2 and 1)-integral."""

    def __init__(self, kind, *, atoms=None, alpha=None, c=None, cutoff=None):
        self.kind = kind
        if kind == ATOMS:
            pairs = list(atoms or [])
            locs = np.asarray([u for u, _ in pairs], dtype=float)
            rates = np.asarray([r for _, r in pairs], dtype=float)
            if np.any(locs == 0.0):
                raise SupportError("atom at u = 0 (the measure must not charge 0)")
            if np.any(rates < 0.0):
                raise SupportError("atom rates must be >= 0")
            order = np.argsort(locs)
            self.atom_locs = locs[order]
            self.atom_rates = rates[order]
            self.support_bound = float(np.max(np.abs(locs))) if locs.size else 0.0
        elif kind == POWER_LAW:
            if not (0.0 < alpha < 2.0):
                raise ConfigurationError("power-law index must lie in (0, 2)")
            if c <= 0.0:
                raise ConfigurationError("power-law intensity c must be > 0")
            if cutoff <= 0.0:
                raise ConfigurationError("power-law cutoff must be > 0")
            self.alpha = float(alpha)
            self.c = float(c)
            self.cutoff = float(cutoff)
            self.support_bound = self.cutoff
        else:
            raise ConfigurationError(f"unknown measure kind {kind!r}")
        self._check_square_integrability()

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls):
        """The zero measure (no jumps)."""
        return cls(ATOMS, atoms=[])

    @classmethod
    def from_atoms(cls, pairs):
        """Finite atom list; ``pairs`` is an iterable of (location, rate)."""
        return cls(ATOMS, atoms=pairs)

    @classmethod
    def power_law(cls, alpha, c=1.0, cutoff=0.5):
        """Symmetric density c|u|^(-1-alpha) on 0 < |u| <= cutoff.

        ``cutoff=math.inf`` gives the untruncated stable-type tail.
        """
        return cls(POWER_LAW, alpha=alpha, c=c, cutoff=cutoff)

    # -- basics --------------------------------------------------------------

    @property
    def is_empty(self):
        return self.kind == ATOMS and self.atom_locs.size == 0

    def __repr__(self):
        if self.kind == ATOMS:
            body = f"atoms={list(zip(self.atom_locs, self.atom_rates))}"
        else:
            body = f"alpha={self.alpha}, c={self.c}, cutoff={self.cutoff}"
        return f"LevyMeasure({self.kind}, {body})"

    def _check_square_integrability(self):
        """nu({0}) = 0 holds by construction; verify the (u^2 and 1) integral
        is finite, in closed form."""
        if self.kind == ATOMS:
            # capped before squaring, so a huge atom cannot overflow
            val = float(np.sum(self.atom_rates
                               * np.minimum(np.abs(self.atom_locs), 1.0)**2))
        else:
            a, c = self.alpha, self.c
            inner = min(self.cutoff, 1.0)
            val = 2.0 * c * inner ** (2.0 - a) / (2.0 - a)
            if self.cutoff > 1.0:
                if math.isinf(self.cutoff):
                    val += 2.0 * c / a  # integral of u^(-1-a) from 1 to inf
                else:
                    val += 2.0 * c * (1.0 - self.cutoff ** (-a)) / a
        if not math.isfinite(val):
            raise SupportError("measure is not square-integrable near 0")

    # -- band integrals ------------------------------------------------------
    # All bands are {lo < |u| <= hi}.

    def _atom_band(self, lo, hi):
        m = (np.abs(self.atom_locs) > lo) & (np.abs(self.atom_locs) <= hi)
        return self.atom_locs[m], self.atom_rates[m]

    def _band_quad(self, g, lo, hi):
        """Generic band integral of g(u) nu(du) over {lo < |u| <= hi}: an
        exact sum for atoms, quadrature for the power law (every power-law
        caller passes lo > 0)."""
        if self.kind == ATOMS:
            u, r = self._atom_band(lo, hi)
            return float(np.sum(r * np.vectorize(g)(u))) if u.size else 0.0
        hi = min(hi, self.support_bound)
        if hi <= lo:
            return 0.0
        a, c = self.alpha, self.c
        dens = lambda u: c * abs(u) ** (-1.0 - a)
        pos = _quad(lambda u: g(u) * dens(u), lo, hi)
        neg = _quad(lambda u: g(-u) * dens(-u), lo, hi)
        return pos + neg

    def _pl_series(self, coeffs, lo, hi, reach, rest):
        """Power-law integral of g(u) nu(du) over {lo < |u| <= hi} for a g
        whose symmetrisation is an even power series, g(u) + g(-u) =
        sum_{m>=1} b_m u^(2m) on |u| < 1.  Term by term it is

            c sum_m b_m (hi^(2m-alpha) - lo^(2m-alpha)) / (2m-alpha),

        with hi capped at the cutoff; ``coeffs(h)`` returns b_m h^(2m-2) for
        the m of ``_M``.  The series covers the band up to ``reach``, and
        ``rest(a, b)`` the band {a < |u| <= b} above it, by quadrature.  Only
        these inputs get there: the characteristic exponent at |z| * cutoff
        above _COS_REACH, an untruncated measure (cutoff = inf) included, and
        a log integrand on a band past |u| = _LOG_REACH (a cutoff between 0.9
        and 1; preflight refuses 1 and above).  The shipped configs have
        cutoff 0.5 and take their scaling residuals at z <= 4."""
        lo = max(lo, 0.0)
        hi = min(hi, self.cutoff)
        top = min(hi, reach)
        val = 0.0
        if top > lo:
            p = 2.0 * _M - self.alpha
            # 1 - (lo/top)^p, accurate also for lo close to top
            frac = 1.0 if lo == 0.0 else -np.expm1(p * math.log(lo / top))
            val = self.c * top ** (2.0 - self.alpha) * float(
                np.sum(coeffs(top) * frac / p))
        if hi > max(lo, top):
            val += rest(max(lo, top), hi)
        return val

    def _pl_log(self, lo, hi):
        """Power-law integral of log(1+u) nu(du), and so of (log(1+u) - u)
        nu(du), over {lo < |u| <= hi}: both symmetrise to log(1 - u^2)."""
        return self._pl_series(_log1m_sq_coeffs, lo, hi, _LOG_REACH,
                               lambda a, b: self._band_quad(math.log1p, a, b))

    # -- public integrals -----------------------------------------------------

    def rate(self, lo, hi):
        """Total mass nu({lo < |u| <= hi}); closed form where available."""
        if self.kind == ATOMS:
            return float(np.sum(self._atom_band(lo, hi)[1]))
        a, c = self.alpha, self.c
        hi = min(hi, self.cutoff)
        if hi <= lo:
            return 0.0
        if lo <= 0.0:
            return math.inf
        lo_a = _checked_pow(lo, -a, f"the jump rate above {lo:.3g}", self)
        if math.isinf(hi):
            return 2.0 * c * lo_a / a
        return 2.0 * c * (lo_a - hi ** (-a)) / a

    def mean(self, lo, hi):
        """Integral of u nu(du) over {lo < |u| <= hi} (compensation rate)."""
        if self.kind == POWER_LAW:
            return 0.0  # symmetric
        return self._band_quad(lambda u: u, lo, hi)

    def second_moment(self, lo, hi):
        """Integral of u^2 nu(du) over {lo < |u| <= hi}."""
        if self.kind == POWER_LAW:
            a, c = self.alpha, self.c
            hi = min(hi, self.cutoff)
            if hi <= lo or hi <= 0.0:
                return 0.0
            lo = max(lo, 0.0)
            return 2.0 * c * (hi ** (2.0 - a) - lo ** (2.0 - a)) / (2.0 - a)
        return self._band_quad(lambda u: u * u, max(lo, 0.0), hi)

    def _require_support_above_minus_one(self, hi):
        if self.kind == ATOMS:
            u, _ = self._atom_band(0.0, hi)
            if np.any(u <= -1.0):
                raise SupportError("atom at u <= -1 inside the log-integrand band")
        elif min(hi, self.support_bound) >= 1.0:
            raise SupportError("log(1+u) integrand needs support inside (-1, 1)")

    def log_compensator(self, lo, hi):
        """Integral of (log(1+u) - u) nu(du) over {lo < |u| <= hi}.

        The integrand is O(u^2) at 0, so lo = 0 is admissible for every kind.
        """
        self._require_support_above_minus_one(hi)
        if self.kind == POWER_LAW:
            return self._pl_log(lo, hi)
        return self._band_quad(lambda u: math.log1p(u) - u, max(lo, 0.0), hi)

    def log_moment(self, lo, hi):
        """Integral of log(1+u) nu(du) over {lo < |u| <= hi}.

        Requires lo > 0 for infinite-activity measures with alpha >= 1
        (the integral diverges absolutely at 0 otherwise).
        """
        self._require_support_above_minus_one(hi)
        if self.kind == ATOMS:
            return self._band_quad(math.log1p, max(lo, 0.0), hi)
        if lo <= 0.0 and self.alpha >= 1.0:
            raise SupportError(
                "log(1+u) is not nu-integrable at 0 for alpha >= 1; "
                "integrate over a band lo > 0"
            )
        return self._pl_log(lo, hi)

    def char_exponent_jump(self, z, delta):
        """Jump part of the characteristic exponent at real z:
        compensated below delta, raw above."""
        z = float(z)
        if z == 0.0:
            return 0.0 + 0.0j

        if self.kind == POWER_LAW:
            # symmetric: the imaginary part is 0, so delta plays no part,
            # and cos(zu) - 1 symmetrises to 2 sum_m (-1)^m (zu)^(2m) / (2m)!
            def coeffs(h):  # b_1 = -z^2; b_(m+1) h^2 / b_m = -(zh)^2 / ((2m+1)(2m+2))
                ratios = -(z * h) ** 2 / ((2 * _M + 1) * (2 * _M + 2))
                return -z * z * np.concatenate(([1.0], np.cumprod(ratios[:-1])))

            def rest(a, b):  # Fourier-weight quadrature in v = |z|u, b = inf too
                s = abs(z)
                cos = _quad(lambda v: v ** (-1.0 - self.alpha), s * a, s * b,
                            weight="cos", wvar=1.0)
                return 2.0 * self.c * s ** self.alpha * cos - self.rate(a, b)

            re = self._pl_series(coeffs, 0.0, math.inf, _COS_REACH / abs(z), rest)
            return complex(re, 0.0)

        def g_re(u):  # cos(zu) - 1
            s = math.sin(0.5 * z * u)
            return -2.0 * s * s

        def g_im(u):  # sin(zu) - zu, the compensated small jumps
            x = z * u
            if abs(x) < 1e-4:
                return -x**3 / 6.0 * (1.0 - x * x / 20.0)
            return math.sin(x) - x

        re = self._band_quad(g_re, 0.0, math.inf)
        im = (self._band_quad(g_im, 0.0, delta)
              + self._band_quad(lambda u: math.sin(z * u), delta, math.inf))
        return complex(re, im)

    # -- sampling --------------------------------------------------------------

    def sample_sizes(self, rng, n, lo, hi):
        """Draw n jump sizes from nu restricted to {lo < |u| <= hi},
        normalized to a probability law.  Deterministic given rng state."""
        if n == 0:
            return np.empty(0)
        if self.kind == ATOMS:
            u, r = self._atom_band(lo, hi)
            if u.size == 0:
                raise ConfigurationError("no atoms in the requested band")
            probs = r / np.sum(r)
            return u[rng.choice(u.size, size=n, p=probs)]
        a = self.alpha
        hi = min(hi, self.cutoff)
        if lo <= 0.0:
            raise ConfigurationError("power-law band sampling needs lo > 0")
        # in place, with the operations of lo*(1 - v)**(-1/a) and
        # (lo**-a - v*(lo**-a - hi**-a))**(-1/a), so the bits are theirs
        mag = rng.random(n)
        if math.isinf(hi):
            np.subtract(1.0, mag, out=mag)
            mag **= -1.0 / a
            mag *= lo
        else:
            mag *= lo**-a - hi**-a
            np.subtract(lo**-a, mag, out=mag)
            mag **= -1.0 / a
        # negative for a second draw r < 1/2 (r - 1/2 < 0), else positive
        r = rng.random(n)
        r -= 0.5
        return np.copysign(mag, r, out=mag)


@dataclass(frozen=True)
class LevyTriplet:
    """Drift b, Gaussian scale sigma (0.0 for none), jump measure, and
    small-jump threshold delta of a scalar Lévy process.  One triplet
    drives both time directions; the sampling grid says which."""

    drift: float
    gaussian: float
    measure: LevyMeasure
    delta: float
    eps_cut: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "drift", float(self.drift))
        object.__setattr__(self, "gaussian", float(self.gaussian))
        if not self.delta > 0.0:
            raise ConfigurationError("delta must be > 0")

    def effective_cut(self):
        """Small-jump simulation floor: jumps below it are dropped together
        with their compensation, leaving a mean-zero error of variance
        <= 1e-6 per unit time."""
        if self.eps_cut is not None:
            return self.eps_cut
        m = self.measure
        if m.kind == ATOMS:
            return 0.0
        a, c = m.alpha, m.c
        eps = _checked_pow((2.0 - a) * 1e-6 / (2.0 * c), 1.0 / (2.0 - a),
                           "the small-jump cut", m)
        return min(eps, m.cutoff)

    # The band constants a sampled path reads are computed once per triplet.

    def compensation_rate(self):
        """Drift removed by compensating simulable small jumps:
        integral of u nu(du) over {eps_cut < |u| <= delta}."""
        return self._band_constants[0]

    @cached_property
    def _band_constants(self):
        """The compensation rate, and the (lo, hi, rate) of the two jump
        bands a path samples: the simulated small jumps {eps_cut < |u| <=
        delta} and the jumps above delta."""
        eps = self.effective_cut()
        return self.measure.mean(eps, self.delta), tuple(
            (lo, hi, self.measure.rate(lo, hi))
            for lo, hi in ((eps, self.delta), (self.delta, math.inf)))


def scalar_triplet(drift=0.0, gauss=0.0, measure=None, delta=0.5, **kw):
    """Keyword constructor of a triplet; no measure means no jumps."""
    measure = LevyMeasure.empty() if measure is None else measure
    return LevyTriplet(drift, gauss, measure, delta, **kw)


# -- module-level operations ----------------------------------------------------


def log_compensator_integral(measure, delta):
    """Integral of (log(1+u) - u) nu(du) over {|u| <= delta}.

    Exact atom sums for the atom kind; for the power law, the even-power
    series of log(1 - u^2), its symmetrisation.
    """
    return measure.log_compensator(0.0, delta)


def characteristic_exponent(triplet, z):
    """Characteristic exponent Psi(z) of the triplet at a real z.

    Psi(z) = -sigma^2 z^2 / 2 + i z b + jump integral with compensation
    below delta, where sigma is the Gaussian scale and b the drift.
    """
    z = float(z)
    val = 1j * (z * triplet.drift)
    if triplet.gaussian:
        val += -0.5 * (z * (triplet.gaussian * triplet.gaussian) * z)
    if not triplet.measure.is_empty:
        val += triplet.measure.char_exponent_jump(z, triplet.delta)
    return val


def stable_scaling_residual(triplet, alpha, k, z):
    """|Psi(kz) - k^alpha Psi(z)| at a real z: zero exactly when the triplet
    is alpha-stable, strictly positive e.g. for truncated power laws."""
    if k <= 0.0:
        raise ConfigurationError("scaling factor k must be > 0")
    return abs(characteristic_exponent(triplet, k * z)
               - k**alpha * characteristic_exponent(triplet, z))
