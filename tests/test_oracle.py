import math

import numpy as np
import pytest

import levymet as lm
from levymet.errors import ConfigurationError

ATOM = lm.LevyMeasure.from_atoms([(0.2, 3.0)])


def test_drift_only_ground_truth():
    gt = lm.ground_truth_2d(lm.LevyMeasure.empty(), 0.5)
    assert gt.lambda1 == 2.0 and gt.lambda2 == -4.0


def test_atom_ground_truth_closed_form():
    gt = lm.ground_truth_2d(ATOM, 0.5)
    i_nu = 3.0 * (math.log1p(0.2) - 0.2)
    assert gt.compensator_integral == pytest.approx(i_nu, rel=1e-13)
    assert gt.lambda1 == pytest.approx(2.0 + i_nu, rel=1e-13)
    assert gt.lambda2 == pytest.approx(-4.0 + i_nu, rel=1e-13)


@pytest.mark.parametrize("measure", [
    lm.LevyMeasure.empty(),
    ATOM,
    lm.LevyMeasure.from_atoms([(0.1, 1.0), (-0.2, 2.0)]),
    lm.LevyMeasure.power_law(1.5, 1.0, 0.5),
])
def test_gap_is_measure_independent(measure):
    gt = lm.ground_truth_2d(measure, 0.5)
    assert gt.gap == pytest.approx(6.0, abs=1e-12)


def test_ground_truth_rate_sensitivity():
    # linear response of the exponents to the atom rate
    base = lm.ground_truth_2d(ATOM, 0.5)
    eps = 1e-3
    bumped = lm.ground_truth_2d(lm.LevyMeasure.from_atoms([(0.2, 3.0 + eps)]), 0.5)
    slope = (bumped.lambda1 - base.lambda1) / eps
    assert slope == pytest.approx(math.log1p(0.2) - 0.2, rel=1e-9)


def test_benchmark_system_shape():
    system = lm.benchmark_system_2d()
    np.testing.assert_allclose(system.a, np.diag([2.0, -4.0]))
    np.testing.assert_allclose(system.sigmas[0], np.diag([1.0, 0.0]))
    np.testing.assert_allclose(system.sigmas[1], np.diag([0.0, 1.0]))
    assert system.q == 2


def test_integrability_bound_formula():
    m2 = ATOM.second_moment(0.0, 0.5)
    expected = 4.0 + math.sqrt(m2) / 0.5 + 4.0 * m2 / 0.25
    assert lm.integrability_bound(ATOM, 0.5) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        lm.integrability_bound(ATOM, 1.5)


@pytest.mark.parametrize("delta", [1.0, 1.5])
def test_integrability_bound_rejects_delta_from_one(delta):
    with pytest.raises(ConfigurationError, match="0 < delta < 1"):
        lm.integrability_bound(ATOM, delta)
