"""Scalar Lévy jump measures and process triplets.

A :class:`LevyMeasure` is a measure nu on the real line with nu({0}) = 0 and
integral of (u^2 and 1) finite.  Two kinds are supported:

* finite atom lists (compound Poisson) -- every integral is an exact sum,
  which makes them the main test vehicle;
* symmetric power laws c|u|^(-1-alpha) du on 0 < |u| <= cutoff, optionally
  untruncated (cutoff = inf) to provide heavy large-jump tails.

A :class:`LevyTriplet` bundles drift, Gaussian factor, measure, and the
small/large jump split delta, i.e. everything the Lévy–Itô decomposition
needs.  The module-level functions compute the scalar integrals that feed
closed-form Lyapunov exponents, compensation rates, and the characteristic
exponent of the Lévy–Khintchine formula.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate

from .errors import ConfigurationError, QuadratureError, StructuralError, SupportError

ATOMS = "atom_list"
POWER_LAW = "power_law_truncated"

DEFAULT_TOL = 1e-10


def _quad(f, a, b, tol, weight=None, wvar=None):
    """scipy quad wrapper that enforces the absolute tolerance."""
    kwargs = {"epsabs": tol, "epsrel": 1e-12, "limit": 400}
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    value, abserr = integrate.quad(f, a, b, **kwargs)
    if abserr > 100.0 * max(tol, 1e-14) and abserr > 1e-10 * max(1.0, abs(value)):
        raise QuadratureError(
            f"integral on [{a}, {b}] did not converge (abserr={abserr:.3e})"
        )
    return value


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
            val = float(np.sum(self.atom_rates * np.minimum(self.atom_locs**2, 1.0)))
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
        """Generic band integral of g(u) nu(du) over {lo < |u| <= hi};
        every power-law caller passes lo > 0."""
        if self.kind == ATOMS:
            u, r = self._atom_band(lo, hi)
            return float(np.sum(r * np.vectorize(g)(u))) if u.size else 0.0
        hi = min(hi, self.support_bound)
        if hi <= lo:
            return 0.0
        a, c = self.alpha, self.c
        dens = lambda u: c * abs(u) ** (-1.0 - a)
        pos = _quad(lambda u: g(u) * dens(u), lo, hi, DEFAULT_TOL)
        neg = _quad(lambda u: g(-u) * dens(-u), lo, hi, DEFAULT_TOL)
        return pos + neg

    def _pl_small(self, G, hi):
        """Power-law integral of u^2*G(u) nu(du) over {0 < |u| <= hi} via an
        algebraic-weight rule: the endpoint factor u^(1-alpha) is handled by
        the quadrature weight."""
        a, c = self.alpha, self.c
        hi = min(hi, self.cutoff)
        if hi <= 0.0:
            return 0.0
        sym = lambda u: c * (G(u) + G(-u))
        return _quad(sym, 0.0, hi, DEFAULT_TOL, weight="alg", wvar=(1.0 - a, 0.0))

    def _small_integral(self, g, G, hi):
        """Integral of g(u) nu(du) over {0 < |u| <= hi} for integrands that
        vanish quadratically at 0; G = g(u)/u^2 must be smooth and bounded."""
        if self.kind == POWER_LAW:
            return self._pl_small(G, hi)
        return self._band_quad(g, 0.0, hi)

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
        if math.isinf(hi):
            return 2.0 * c * lo ** (-a) / a
        return 2.0 * c * (lo ** (-a) - hi ** (-a)) / a

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
        g = lambda u: math.log1p(u) - u

        def G(u):
            if abs(u) < 1e-5:
                return -0.5 + u / 3.0 - u * u / 4.0
            return (math.log1p(u) - u) / (u * u)

        if lo <= 0.0:
            return self._small_integral(g, G, hi)
        return self._band_quad(g, lo, hi)

    def log_moment(self, lo, hi):
        """Integral of log(1+u) nu(du) over {lo < |u| <= hi}.

        Requires lo > 0 for infinite-activity measures with alpha >= 1
        (the integral diverges absolutely at 0 otherwise).
        """
        self._require_support_above_minus_one(hi)
        if lo <= 0.0 and self.kind == POWER_LAW:
            if self.alpha >= 1.0:
                raise SupportError(
                    "log(1+u) is not nu-integrable at 0 for alpha >= 1; "
                    "integrate over a band lo > 0"
                )
            # integrand = [log1p(u)/u] * c * u^(-alpha); the bounded factor
            # goes to the quadrature, the algebraic one to the weight
            a, c = self.alpha, self.c
            hi_eff = min(hi, self.cutoff)

            def H(u):
                if abs(u) < 1e-8:
                    return 1.0 - 0.5 * u
                return math.log1p(u) / u

            sym = lambda u: c * (H(u) - H(-u))
            return _quad(sym, 0.0, hi_eff, DEFAULT_TOL, weight="alg", wvar=(-a, 0.0))
        return self._band_quad(lambda u: math.log1p(u), max(lo, 0.0), hi)

    def char_exponent_jump(self, z, delta):
        """Jump part of the characteristic exponent at real z:
        compensated below delta, raw above."""
        z = float(z)
        if z == 0.0:
            return 0.0 + 0.0j

        # small jumps: integrand e^{izu} - 1 - izu vanishes quadratically
        def g_re(u):
            s = math.sin(0.5 * z * u)
            return -2.0 * s * s

        def g_im(u):
            x = z * u
            if abs(x) < 1e-4:
                return -x**3 / 6.0 * (1.0 - x * x / 20.0)
            return math.sin(x) - x

        def G_re(u):
            if abs(z * u) < 1e-8:
                return -0.5 * z * z
            return g_re(u) / (u * u)

        def G_im(u):
            if u == 0.0:
                return 0.0
            return g_im(u) / (u * u)

        re = self._small_integral(g_re, G_re, delta)
        im = self._small_integral(g_im, G_im, delta)

        # large jumps: integrand e^{izu} - 1, no compensation
        if self.support_bound > delta:
            re += self._band_quad(g_re, delta, math.inf)
            im += self._band_quad(lambda u: math.sin(z * u), delta, math.inf)
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
        v = rng.random(n)
        if math.isinf(hi):
            mag = lo * (1.0 - v) ** (-1.0 / a)
        else:
            mag = (lo**-a - v * (lo**-a - hi**-a)) ** (-1.0 / a)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign * mag


@dataclass(frozen=True)
class LevyTriplet:
    """Drift b, Gaussian factor A, jump measure, and small-jump threshold
    delta of a Lévy process.  One triplet drives both time directions; the
    sampling grid says which."""

    drift: np.ndarray
    gaussian: np.ndarray | None
    measure: LevyMeasure
    delta: float
    eps_cut: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "drift", np.atleast_1d(np.asarray(self.drift, float)))
        if self.drift.ndim != 1:
            raise StructuralError("drift must be a vector")
        if self.gaussian is not None:
            A = np.atleast_2d(np.asarray(self.gaussian, float))
            if A.shape[0] != self.d:
                raise StructuralError("gaussian factor row count must equal dim")
            if not np.any(A):
                A = None
            object.__setattr__(self, "gaussian", A)
        if not self.delta > 0.0:
            raise ConfigurationError("delta must be > 0")
        if not self.measure.is_empty and self.d != 1:
            raise StructuralError("jump measures are scalar; use d = 1 drivers")

    @property
    def d(self):
        return self.drift.shape[0]

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
        eps = ((2.0 - a) * 1e-6 / (2.0 * c)) ** (1.0 / (2.0 - a))
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
    """Convenience constructor for one-dimensional driving processes."""
    measure = LevyMeasure.empty() if measure is None else measure
    A = None if gauss == 0.0 else np.array([[float(gauss)]])
    return LevyTriplet(np.array([float(drift)]), A, measure, delta, **kw)


# -- module-level operations ----------------------------------------------------


def log_compensator_integral(measure, delta):
    """Integral of (log(1+u) - u) nu(du) over {|u| <= delta}.

    Exact atom sums for the atom kind; algebraic-weight quadrature for the
    power law.
    """
    return measure.log_compensator(0.0, delta)


def second_moment_small(measure, delta):
    """Integral of u^2 nu(du) over {|u| <= delta}."""
    return measure.second_moment(0.0, delta)


def characteristic_exponent(triplet, z):
    """Characteristic exponent Psi(z) of the triplet at a real vector z.

    Psi(z) = -<z, Qz>/2 + i<z, gamma> + jump integral with compensation
    below delta, where Q = A A^T and gamma is identified with the drift b.
    """
    z = np.atleast_1d(np.asarray(z, float))
    if z.shape != (triplet.d,):
        raise StructuralError(f"z must have shape ({triplet.d},)")
    val = 1j * float(np.dot(z, triplet.drift))
    if triplet.gaussian is not None:
        q = triplet.gaussian @ triplet.gaussian.T
        val += -0.5 * float(z @ q @ z)
    if not triplet.measure.is_empty:
        val += triplet.measure.char_exponent_jump(float(z[0]), triplet.delta)
    return val


def stable_scaling_residual(triplet, alpha, k, z):
    """|Psi(kz) - k^alpha Psi(z)|: zero exactly when the triplet is
    alpha-stable, strictly positive e.g. for truncated power laws."""
    if k <= 0.0:
        raise ConfigurationError("scaling factor k must be > 0")
    z = np.atleast_1d(np.asarray(z, float))
    return abs(characteristic_exponent(triplet, k * z)
               - k**alpha * characteristic_exponent(triplet, z))
