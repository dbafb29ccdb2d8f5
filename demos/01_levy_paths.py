"""Sample two-sided Lévy paths and inspect their structure.

A driver is described by a triplet (drift, Gaussian factor, jump measure,
small-jump threshold delta).  Small jumps are compensated; the backward leg
is an independent sample transported to negative time.
"""

import io

import numpy as np

import levymet as lm

measure = lm.LevyMeasure.from_atoms([(0.2, 3.0)])
triplet = lm.scalar_triplet(measure=measure, delta=0.5)

path = lm.sample_two_sided(triplet, T=5.0, dt=0.25, master_seed=7)

print("horizon:", path.horizon)
print("value at 0 (exact):", path.evaluate(0.0)[0])
print("value at 2.5:", path.evaluate(2.5)[0])
print("value at -2.5:", path.evaluate(-2.5)[0])
print("forward jumps:", path.forward.jump_times.size,
      "backward jumps:", path.backward.jump_times.size)

# cadlag convention: the value at a jump time includes the jump
s = float(path.forward.jump_times[0])
kappa = float(path.forward.jump_sizes[0, 0])
print(f"\njump of {kappa:+.3f} at t = {s:.4f}:")
print("  left limit :", path.evaluate(s - 1e-12)[0])
print("  value at s :", path.evaluate(s)[0])

# the shift flow re-anchors the path; the group law is exact
shifted = path.shift(1.5)
print("\nshifted value at 0:", shifted.evaluate(0.0)[0])
twice = path.shift(0.9).shift(0.6)
print("group law defect:",
      abs(twice.evaluate(1.0)[0] - shifted.evaluate(1.0)[0]))

# CSV dump (debugging format: node rows plus one row per jump)
buf = io.StringIO()
lm.dump_path_csv(path, buf)
print("\nfirst CSV lines:")
print("\n".join(buf.getvalue().splitlines()[:5]))

# ensemble mean of the compensated part is zero (martingale property)
vals = [lm.sample_two_sided(triplet, 1.0, 0.5, 7, path_index=k).evaluate(1.0)[0]
        for k in range(2000)]
print("\nensemble mean of L_1 over 2000 paths:", np.mean(vals),
      "(CLT band", 3 * np.sqrt(0.12 / 2000), ")")
