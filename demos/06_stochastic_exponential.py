"""Doléans-Dade exponentials and stable-like scaling diagnostics.

The multiplicative solution of dY = Y dGamma is
exp(Gamma_t - [Gamma,Gamma]^c_t / 2) prod (1 + dGamma_s) e^(-dGamma_s);
applied to Gamma = 2t + L^1 it reproduces the first coordinate of the
benchmark cocycle exactly.
"""

import numpy as np

import levymet as lm

measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
drivers = lm.benchmark_drivers(measure, 0.5)
paths = [lm.sample_two_sided(drivers[i], 10.0, 0.25, 77, driver=i)
         for i in range(2)]
exact = lm.ExactDiagonal2D(paths)
dd = lm.StochasticExponential1D(lm.with_drift(paths[0], 2.0))

print("log Y_t vs log M^1_t:")
for t in (0.5, 2.0, 7.5):
    print(f"  t = {t:4.1f}   defect = "
          f"{abs(dd.log_value(t) - exact.log_growth(t)[0]):.2e}")

# Brownian special case: exp(W_t - t/2)
brown = lm.scalar_triplet(gauss=1.0)
bp = lm.sample_forward(brown, lm.TimeGrid(0.0, 1.0, 0.01), 5)
ddb = lm.StochasticExponential1D(bp)
w1 = bp.evaluate(1.0)
print("\nBrownian case vs exp(W_1 - 1/2):",
      abs(ddb.value(1.0) - np.exp(w1 - 0.5)))

# scaling diagnostics for stable-like measures: the Gaussian is exactly
# 2-stable, a truncated power law only approximately alpha-stable
print("\nscaling residual |Psi(kz) - k^alpha Psi(z)|:")
print("  Brownian, alpha = 2:",
      lm.stable_scaling_residual(brown, 2.0, 3.0, 1.0))
pl = lm.scalar_triplet(measure=lm.LevyMeasure.power_law(1.5, 1.0, 0.5),
                       delta=0.5)
for k in (2.0, 4.0):
    print(f"  truncated power law, alpha = 1.5, k = {k}:",
          lm.stable_scaling_residual(pl, 1.5, k, 1.0))

# 1d exponent of dY = mu Y dt + Y dL for a power-law driver
soft = lm.LevyMeasure.power_law(0.8, 0.5, 0.5)
tri = lm.scalar_triplet(measure=soft, delta=0.5)
mu = 1.0
lams = []
for k in range(20):
    p = lm.sample_two_sided(tri, 50.0, 0.5, 91, path_index=k)
    lams.append(lm.StochasticExponential1D(lm.with_drift(p, mu)).log_value(50.0) / 50.0)
target = mu + soft.log_compensator(0.0, 0.5)
print(f"\n1d exponent: mean {np.mean(lams):+.4f} +- "
      f"{np.std(lams, ddof=1)/np.sqrt(len(lams)):.4f}   target {target:+.4f}")
