"""The flag metric and the exponential alignment of pushed-forward frames.

The distance between flags is the largest projector-product norm between
blocks, raised to h/|lambda_i - lambda_j|.  Pushing a rotated orthonormal
frame through the benchmark cocycle aligns it with the limiting flag at
rate e^(-gap * t); the exact backend evaluates the log-distance in the log
domain, far below the float alignment floor.
"""

import math

import numpy as np

import levymet as lm

params = lm.FlagMetricParams((2.0, -4.0), h=6.0, dim=2)
f = lm.coordinate_flag((1, 1))
swapped = lm.Flag((f.blocks[1], f.blocks[0]))
print("distance(coordinate, itself):", lm.flag_distance(f, f, params))
print("distance(coordinate, swapped):", lm.flag_distance(f, swapped, params))

rng = np.random.default_rng(3)
g, h_ = lm.random_flag((1, 1), rng), lm.random_flag((1, 1), rng)
print("symmetry defect:",
      lm.flag_distance(g, h_, params) - lm.flag_distance(h_, g, params))

# convergence of frame flags for the benchmark system
measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
gt = lm.ground_truth_2d(measure, 0.5)
drivers = lm.benchmark_drivers(measure, 0.5)
paths = [lm.sample_two_sided(drivers[i], 100.0, 0.5, 55, driver=i)
         for i in range(2)]
ev = lm.ExactDiagonal2D(paths)

theta = 0.7
frame = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
mp = lm.FlagMetricParams((gt.lambda1, gt.lambda2), gt.gap, 2)
conv = lm.flag_convergence_rate(ev, [(gt.lambda1, 1), (gt.lambda2, 1)], mp,
                                np.linspace(10.0, 100.0, 10), frame=frame)
print("\nlog flag distance along t:")
for t, ld in zip(conv.times, conv.log_distances):
    print(f"  t = {t:6.1f}   log rho = {ld:10.2f}")
print("fitted slope:", conv.slope, " (limit rate -h =", -mp.h, ")")
