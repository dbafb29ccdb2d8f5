"""Backward spectrum and the Oseledets splitting from two-sided paths.

Forward growth rates (lambda_1, lambda_2) pair with backward rates
(-lambda_2, -lambda_1); intersecting the forward filtration with the
backward one isolates the invariant summands E_i.
"""

import numpy as np

import levymet as lm

measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
delta = 0.5
drivers = lm.benchmark_drivers(measure, delta)
T = 80.0
paths = [lm.sample_two_sided(drivers[i], T, 0.5, 33, driver=i) for i in range(2)]
ev = lm.ExactDiagonal2D(paths)

fwd = lm.spectrum_qr(ev, T, 1.0)
bwd = lm.backward_spectrum(ev, T, 1.0)
print("forward  exponents:", fwd.raw)
print("backward exponents:", bwd.raw)
print("pair sums lambda^-_k + lambda_{p+1-k}:",
      [bwd.lambdas[k] + fwd.lambdas[fwd.p - 1 - k] for k in range(fwd.p)])
print("multiplicities reversed:",
      fwd.multiplicities == tuple(reversed(bwd.multiplicities)))

# flags of right singular subspaces at +-T, then the intersections
F_fwd = lm.flag_at(ev, T, fwd)
F_bwd = lm.flag_at(ev, -T, bwd)
split = lm.oseledets_spaces(F_fwd, F_bwd)
print("\nsplitting dimensions:", split.dims)
targets = [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
print("principal angles to the coordinate axes:", split.angles_to(targets))
print("smallest singular value of the stacked basis:",
      np.linalg.svd(split.stacked(), compute_uv=False)[-1])

# singular-value reciprocity between forward and reflected-backward windows
t = 2.0
sv_f = lm.singular_values(ev.matrix(t))
sv_b = lm.singular_values(ev.shifted(t).matrix(-t))
print("\nsingular values phi(t):", sv_f)
print("reciprocal of reversed phi(-t, theta_t):", 1.0 / sv_b[::-1])
