"""Lyapunov spectrum estimation by QR renormalization.

Closed-form targets: lambda_1 = 2 + I, lambda_2 = -4 + I with
I = integral of (log(1+u) - u) nu(du); the gap is 6 for every measure.
"""

import numpy as np

import levymet as lm

measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
delta = 0.5
gt = lm.ground_truth_2d(measure, delta)
print("analytic targets: lambda_1 =", gt.lambda1, " lambda_2 =", gt.lambda2)

drivers = lm.benchmark_drivers(measure, delta)
T = 100.0
n_paths = 40
raw = np.empty((n_paths, 2))
for k in range(n_paths):
    paths = [lm.sample_two_sided(drivers[i], T, 0.5, 21, path_index=k, driver=i)
             for i in range(2)]
    ev = lm.ExactDiagonal2D(paths)
    est = lm.spectrum_qr(ev, T, renorm_step=1.0)
    raw[k] = est.raw

mean = raw.mean(axis=0)
se = raw.std(axis=0, ddof=1) / np.sqrt(n_paths)
print(f"\nensemble over {n_paths} paths, T = {T}:")
print(f"  Lambda_1 = {mean[0]:+.5f} +- {se[0]:.5f}   (target {gt.lambda1:+.5f})")
print(f"  Lambda_2 = {mean[1]:+.5f} +- {se[1]:.5f}   (target {gt.lambda2:+.5f})")
print(f"  gap      = {mean[0] - mean[1]:+.5f}            (target 6)")

# grouping and the sum rule on the last path
print("\ngrouped:", est.grouped, " gap:", est.gap)
print("sum rule |sum(raw) - logdet/T|:",
      abs(est.raw.sum() - est.logdet_over_T))

# per-direction exponents: lambda(x) = lambda_1 unless x lies in the slow
# subspace
ev = lm.ExactDiagonal2D(paths)
for x in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7]):
    print(f"vector exponent of {x}:", lm.vector_exponent(ev, x, T))

# small-horizon cross-check: literal symmetric-root construction
t = 5.0
rates, _ = lm.sym_root_spectrum(ev.matrix(t), t)
print("\nsym-root rates at t=5 vs log-growth/t:", np.sort(rates)[::-1],
      np.sort(ev.log_growth(t) / t)[::-1])
