import math

import numpy as np
import pytest

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
    assert lm.second_moment_small(lm.LevyMeasure.empty(), 0.5) == 0.0
    assert lm.second_moment_small(ATOM, 0.5) == pytest.approx(0.12, rel=1e-14)
    assert lm.second_moment_small(PL, 0.5) == pytest.approx(M2_PL, rel=1e-12)


def test_second_moment_monotone_in_delta():
    m = lm.LevyMeasure.from_atoms([(0.05, 1.0), (0.2, 3.0), (-0.4, 0.5)])
    vals = [lm.second_moment_small(m, d) for d in (0.1, 0.25, 0.45, 0.6)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    pls = [lm.second_moment_small(PL, d) for d in (0.1, 0.3, 0.5)]
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
