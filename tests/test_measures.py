import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levymet as lm
from levymet.errors import ConfigurationError, SupportError

ATOM = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
PL = lm.LevyMeasure.power_law(1.5, 1.0, 0.5)

# closed form 3*(log(1.2) - 0.2), computed before wiring the test
I_ATOM = -0.05303532961813613
# high-resolution trapezoid oracle on a log-spaced grid (see oracle below)
I_PL = -1.4533458762360298
# antiderivative: 2 * int_0^0.5 u^(1-alpha) du = 2 * 0.5^0.5 / 0.5
M2_PL = 2.8284271247461903


def trapezoid_log_compensator_oracle():
    # substitution u = w^2 removes the u^(-1/2) endpoint factor, then a fine
    # trapezoid rule converges; independent of the scipy-based main path
    w = np.linspace(0.0, math.sqrt(0.5), 400_001)
    g = np.empty_like(w)
    small = w < 1e-3
    g[small] = -2.0 * (1.0 + w[small] ** 4 / 2.0)
    ws = w[~small]
    g[~small] = 2.0 * np.log1p(-(ws**4)) / ws**4
    return float(np.trapezoid(g, w))


def test_log_compensator_empty_measure():
    assert lm.log_compensator_integral(lm.LevyMeasure.empty(), 0.5) == 0.0


def test_log_compensator_atom_closed_form():
    got = lm.log_compensator_integral(ATOM, 0.5)
    assert got == pytest.approx(3.0 * (math.log1p(0.2) - 0.2), rel=1e-14)
    assert got == pytest.approx(I_ATOM, rel=1e-12)


def test_log_compensator_power_law_vs_trapezoid_oracle():
    oracle = trapezoid_log_compensator_oracle()
    assert oracle == pytest.approx(I_PL, abs=5e-9)
    assert lm.log_compensator_integral(PL, 0.5) == pytest.approx(I_PL, abs=1e-9)


def test_log_compensator_additive_over_disjoint_atoms():
    a = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
    b = lm.LevyMeasure.from_atoms([(-0.1, 1.5)])
    ab = lm.LevyMeasure.from_atoms([(0.2, 3.0), (-0.1, 1.5)])
    assert lm.log_compensator_integral(ab, 0.5) == pytest.approx(
        lm.log_compensator_integral(a, 0.5) + lm.log_compensator_integral(b, 0.5),
        rel=1e-14,
    )


def test_log_compensator_support_error():
    bad = lm.LevyMeasure.from_atoms([(-1.2, 1.0)])
    with pytest.raises(SupportError):
        lm.log_compensator_integral(bad, 1.5)


def test_second_moment_small():
    assert lm.LevyMeasure.empty().second_moment(0.0, 0.5) == 0.0
    assert ATOM.second_moment(0.0, 0.5) == pytest.approx(0.12, rel=1e-14)
    assert PL.second_moment(0.0, 0.5) == pytest.approx(M2_PL, rel=1e-12)


def test_second_moment_monotone_in_delta():
    m = lm.LevyMeasure.from_atoms([(0.05, 1.0), (0.2, 3.0), (-0.4, 0.5)])
    vals = [m.second_moment(0.0, d) for d in (0.1, 0.25, 0.45, 0.6)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    pls = [PL.second_moment(0.0, d) for d in (0.1, 0.3, 0.5)]
    assert all(a < b for a, b in zip(pls, pls[1:]))


def test_atom_quadrature_matches_closed_form():
    # every quadrature-backed operation reduces to the exact sum for atoms
    m = lm.LevyMeasure.from_atoms([(0.2, 3.0), (-0.3, 0.7), (0.45, 0.2)])
    locs = np.array([0.2, -0.3, 0.45])
    rates = np.array([3.0, 0.7, 0.2])
    assert m.log_compensator(0.0, 0.5) == pytest.approx(
        float(np.sum(rates * (np.log1p(locs) - locs))), rel=1e-12)
    assert m.second_moment(0.0, 0.5) == pytest.approx(
        float(np.sum(rates * locs**2)), rel=1e-12)
    assert m.log_moment(0.0, 0.5) == pytest.approx(
        float(np.sum(rates * np.log1p(locs))), rel=1e-12)
    assert m.mean(0.0, 0.5) == pytest.approx(float(np.sum(rates * locs)), rel=1e-12)


def test_no_atom_at_zero():
    with pytest.raises(SupportError):
        lm.LevyMeasure.from_atoms([(0.0, 1.0)])


def test_log_moment_diverges_for_heavy_small_jumps():
    with pytest.raises(SupportError):
        PL.log_moment(0.0, 0.5)
    # band version is fine
    assert math.isfinite(PL.log_moment(1e-3, 0.5))
    # alpha < 1 integrates through zero
    soft = lm.LevyMeasure.power_law(0.5, 1.0, 0.5)
    assert math.isfinite(soft.log_moment(0.0, 0.5))


def test_characteristic_exponent_trivial_cases():
    tri_drift = lm.scalar_triplet(drift=2.5)
    assert lm.characteristic_exponent(tri_drift, [0.0]) == 0.0
    assert lm.characteristic_exponent(tri_drift, [1.0]) == pytest.approx(2.5j)
    tri_gauss = lm.scalar_triplet(gauss=1.0)
    assert lm.characteristic_exponent(tri_gauss, [2.0]) == pytest.approx(-2.0)


def test_characteristic_exponent_atom_vs_direct_sum():
    tri = lm.scalar_triplet(measure=ATOM, delta=0.5)
    z = 1.3
    expected = 3.0 * (np.exp(1j * z * 0.2) - 1.0 - 1j * z * 0.2)
    assert lm.characteristic_exponent(tri, [z]) == pytest.approx(expected, rel=1e-12)


def test_characteristic_exponent_conjugate_symmetry():
    tri = lm.scalar_triplet(measure=PL, delta=0.5)
    for z in (0.3, 1.1, 2.7):
        a = lm.characteristic_exponent(tri, [z])
        b = lm.characteristic_exponent(tri, [-z])
        assert a == pytest.approx(np.conj(b), abs=1e-12)


def test_stable_scaling_residuals():
    brown = lm.scalar_triplet(gauss=1.0)
    assert lm.stable_scaling_residual(brown, 2.0, 3.0, [0.7]) < 1e-12
    drift = lm.scalar_triplet(drift=1.0)
    assert lm.stable_scaling_residual(drift, 1.0, 3.0, [1.0]) < 1e-14
    truncated = lm.scalar_triplet(measure=PL, delta=0.5)
    # truncation breaks exact scaling: recorded as strictly positive
    assert lm.stable_scaling_residual(truncated, 1.5, 2.0, [1.0]) > 1e-3


def test_stable_scaling_requires_positive_k():
    with pytest.raises(ConfigurationError):
        lm.stable_scaling_residual(lm.scalar_triplet(drift=1.0), 1.0, 0.0, [1.0])


def test_effective_cut_variance_rule():
    tri = lm.scalar_triplet(measure=lm.LevyMeasure.power_law(0.8, 0.5, 0.5),
                            delta=0.5)
    eps = tri.effective_cut()
    assert 0.0 < eps < 0.5
    assert tri.measure.second_moment(0.0, eps) <= 1e-6 * (1 + 1e-9)
    # atoms are finite activity: keep everything
    assert lm.scalar_triplet(measure=ATOM, delta=0.5).effective_cut() == 0.0


def test_triplet_validation():
    with pytest.raises(ConfigurationError):
        lm.LevyTriplet(np.zeros(1), None, ATOM, delta=0.0)
    tri = lm.scalar_triplet(measure=ATOM, delta=0.5)
    assert tri.compensation_rate() == pytest.approx(0.6, rel=1e-14)


# -- the power law's even-power series against scipy's quad ---------------------
# Each oracle integrates the symmetrised integrand c (g(u) + g(-u)) u^(-1-a)
# with scipy.integrate.quad, called here.  From 0 the factor u^(1-a) goes to
# quad's algebraic weight, so the integrand left is bounded.  The bands and
# cutoffs straddle the series' reach (|u| = 0.9 for the log integrands,
# |z| * cutoff = 8 for the characteristic exponent), so both the series and
# the quadrature behind it are checked.

ALPHAS = (0.3, 0.8, 1.0, 1.5, 1.9)
ORACLE = {"rel": 1e-12, "abs": 1e-10}


def _quad_oracle(f, lo, hi, alg=None):
    from scipy import integrate

    kw = {} if alg is None else {"weight": "alg", "wvar": (alg, 0.0)}
    value, _ = integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13,
                              limit=500, **kw)
    return value


def _log_oracle(a, c, lo, hi):
    """c * integral of log(1 - u^2) u^(-1-a) over (lo, hi]."""
    if lo == 0.0:
        g = lambda u: c * math.log1p(-u * u) / (u * u) if u else -c
        return _quad_oracle(g, 0.0, hi, alg=1.0 - a)
    return _quad_oracle(lambda u: c * math.log1p(-u * u) * u ** (-1.0 - a),
                        lo, hi)


def _cos_oracle(a, c, z, cutoff):
    """c * integral of 2 (cos(zu) - 1) u^(-1-a) over (0, cutoff]."""
    g = lambda u: -4.0 * c * math.sin(0.5 * z * u) ** 2 / (u * u) if u else -c * z * z
    return _quad_oracle(g, 0.0, cutoff, alg=1.0 - a)


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("lo, hi, cutoff", [
    (0.0, 0.5, 0.5), (0.0, 0.89, 0.95), (0.0, 0.95, 0.95),
    (1e-4, 0.5, 0.5), (0.3, 0.7, 0.9), (0.85, 0.89, 0.95), (0.85, 0.93, 0.93),
    (0.91, 0.95, 0.95)])
def test_log_integrals_match_quad(a, lo, hi, cutoff):
    m = lm.LevyMeasure.power_law(a, 0.7, cutoff)
    want = _log_oracle(a, 0.7, lo, hi)
    assert m.log_compensator(lo, hi) == pytest.approx(want, **ORACLE)
    if lo > 0.0 or a < 1.0:
        assert m.log_moment(lo, hi) == pytest.approx(want, **ORACLE)


@pytest.mark.parametrize("a", ALPHAS)
def test_narrow_log_band_keeps_relative_precision(a):
    # 1 - (lo/hi)^(2m-a) cancels for lo close to hi, unless taken by expm1
    m = lm.LevyMeasure.power_law(a, 0.7, 0.5)
    lo, hi = 0.5 - 1e-10, 0.5
    assert m.log_compensator(lo, hi) == pytest.approx(
        _log_oracle(a, 0.7, lo, hi), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", ALPHAS)
@pytest.mark.parametrize("z", [0.5, -0.5, 1.0, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("cutoff", [0.5, 0.9, 0.99, 1.01, 1.5, 4.0])
def test_characteristic_exponent_matches_quad(a, z, cutoff):
    # delta 0.5 < cutoff except at 0.5; the compensation below delta only
    # touches the imaginary part, which symmetry makes exactly 0
    m = lm.LevyMeasure.power_law(a, 0.7, cutoff)
    psi = lm.characteristic_exponent(lm.scalar_triplet(measure=m, delta=0.5), [z])
    assert psi.imag == 0.0
    assert psi.real == pytest.approx(_cos_oracle(a, 0.7, z, cutoff), **ORACLE)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.05, 1.95), cutoff=st.floats(0.05, 0.99),
       cuts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_power_law_log_integral_is_additive_over_adjacent_bands(a, cutoff, cuts):
    m = lm.LevyMeasure.power_law(a, 0.7, cutoff)
    lo, mid, hi = sorted(u * cutoff for u in cuts)
    whole = m.log_compensator(lo, hi)
    parts = m.log_compensator(lo, mid) + m.log_compensator(mid, hi)
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-14)
