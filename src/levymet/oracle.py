"""Closed-form ground truth for the decoupled 2d benchmark system

    dX^1 = 2 X^1 dt + X^1 dL^1,    dX^2 = -4 X^2 dt + X^2 dL^2,

driven by independent compensated small-jump processes with a common
measure nu.  Both Lyapunov exponents shift by the same compensator
integral I = integral of (log(1+u)-u) nu(du) over |u| <= delta:

    lambda_1 = 2 + I,    lambda_2 = -4 + I,

with eigenspaces the coordinate axes, limit matrix diag(e^lambda_1,
e^lambda_2), and Oseledets spaces E_1 = span(e_1), E_2 = span(e_2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import BENCHMARK_DRIFTS, LinearSystem
from .errors import ConfigurationError
from .measures import LevyTriplet, log_compensator_integral


@dataclass(frozen=True)
class GroundTruth2D:
    """Analytic exponents and the compensator integral they share."""

    lambda1: float
    lambda2: float
    compensator_integral: float

    @property
    def gap(self):
        return self.lambda1 - self.lambda2


def ground_truth_2d(measure, delta):
    """Closed-form spectrum of the benchmark system for the given measure."""
    i_nu = log_compensator_integral(measure, delta)
    return GroundTruth2D(BENCHMARK_DRIFTS[0] + i_nu, BENCHMARK_DRIFTS[1] + i_nu,
                         i_nu)


def benchmark_drivers(measure, delta):
    """The two independent scalar driving triplets (pure compensated small
    jumps: no drift, no Gaussian part).  Both drivers follow one law, so
    they share one triplet and its band constants."""
    triplet = LevyTriplet(0.0, 0.0, measure, delta)
    return (triplet, triplet)


def benchmark_system_2d():
    """The benchmark coefficients a = diag(2, -4) and sigma_i = e_i e_i^T,
    one coordinate per driver; the drivers' paths carry their law."""
    a = np.diag(BENCHMARK_DRIFTS)
    s1 = np.diag([1.0, 0.0])
    s2 = np.diag([0.0, 1.0])
    return LinearSystem(a, (s1, s2))


def integrability_bound(measure, delta):
    """Analytic upper bound for the expected one-step log-growth sup of
    the benchmark cocycle: 4 + E I_1 + E I_2 with

        E I_1 <= (1-delta)^(-1) (int_{|u|<=delta} u^2 nu(du))^(1/2),
        E I_2 <= 4 (1-delta)^(-2) int_{|u|<=delta} u^2 nu(du).

    A finite value certifies the integrability hypothesis numerically.
    """
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("the bound needs 0 < delta < 1")
    m2 = measure.second_moment(0.0, delta)
    bound_i1 = math.sqrt(m2) / (1.0 - delta)
    bound_i2 = 4.0 * m2 / (1.0 - delta) ** 2
    return 4.0 + bound_i1 + bound_i2
