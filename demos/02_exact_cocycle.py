"""The decoupled 2d benchmark cocycle and its integrators.

The system dX^1 = 2 X^1 dt + X^1 dL^1, dX^2 = -4 X^2 dt + X^2 dL^2 has a
closed-form diagonal solution; the jump-adapted Euler scheme and the Picard
oracle must reproduce it.
"""

import numpy as np

import levymet as lm

measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
delta = 0.5
drivers = lm.benchmark_drivers(measure, delta)
paths = [lm.sample_two_sided(drivers[i], 4.0, 0.1, 11, driver=i)
         for i in range(2)]

exact = lm.ExactDiagonal2D(paths)
print("phi(0) =\n", exact.matrix(0.0))
print("phi(1) =\n", exact.matrix(1.0))
print("phi(-1) =\n", exact.matrix(-1.0))

# cocycle law: phi(t+s) = phi(t, theta_s omega) phi(s, omega)
print("\ncocycle residual at (s,t)=(0.7, 1.1):",
      lm.cocycle_residual(exact, 0.7, 1.1))

# inverse relation: phi(t)^(-1) = phi(-t, theta_t omega)
t = 1.3
defect = np.linalg.norm(exact.inverse(t) - exact.shifted(t).matrix(-t))
print("time-reversal inverse defect:", defect)

# jump-adapted Euler converges at first order to the exact solution
system = lm.benchmark_system_2d()
target = exact.matrix(2.0)
print("\nEuler error vs dt:")
for dt in (0.04, 0.02, 0.01, 0.005):
    ev = lm.EulerEvaluator(system, paths, dt)
    err = np.linalg.norm(ev.matrix(2.0) - target) / np.linalg.norm(target)
    print(f"  dt = {dt:7.3f}   rel error = {err:.3e}")

# Picard oracle for the equivalent random integral equation
x = np.array([1.0, 1.0])
res = lm.picard_solve(system, paths, 2.0, 20, x, dt_int=0.005)
print("\nPicard vs exact:",
      np.linalg.norm(res.value - target @ x) / np.linalg.norm(target @ x))
print("last successive differences:", ["%.2e" % d for d in res.diffs[-4:]])

# integrability functionals over one unit of time
ap, am = lm.integrability_alpha(exact, lm.TimeGrid(0.0, 1.0, 0.05))
print("\nempirical alpha+ / alpha-:", ap, am)
print("analytic bound for E alpha+:", lm.integrability_bound(measure, delta))
