"""Machine speed, read from fixed reference kernels.

On the 2-core virtual machine this benchmark was written on, the same
serial experiment runs up to twice as slow for tens of seconds at a time
(process CPU time slows with it, so the host's other tenants slow the
cores rather than preempt them).  Medians over a run do not remove that:
25-second windows of one workload spread by 18-30 % (quartile distance
over median).  Every timed step is therefore bracketed by runs of a
kernel, and its wall clock is reported in reference seconds,

    wall * speed,   speed = reference seconds / kernel seconds,

the time the step would take while the kernel runs in its reference time.
The slowdowns hit code differently, so each workload names the kernel
that does the work its dominant layer does:

* ``interpreted`` -- small numpy calls from a Python loop, like the QR
  windows, exact propagators and Euler steps.  In 25-second windows of
  euler_ladder it cut the spread from 24 % to about 4 %;
* ``bulk`` -- sampling, sorting and de-duplicating arrays of 600k floats,
  like the jump sampler.  Over ten processes of stable_heavy it cut the
  spread from 11 % to 8.5 %, where ``interpreted`` raised it to 15 %.

The kernels use numpy only, never levymet, so a change to levymet moves
the figures by its own speed-up; the raw wall clock is printed beside
them.
"""

import statistics
import time

import numpy as np

REPEATS = {"interpreted": 5, "bulk": 3}
# Median kernel seconds on the reference machine (2-core Intel Xeon VM,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_S = {"interpreted": 0.012, "bulk": 0.05}

_RNG = np.random.default_rng(12345)
_MATS = _RNG.standard_normal((64, 2, 2))
_NODES = np.sort(_RNG.uniform(0.0, 100.0, 1000))
_BULK = _RNG.random(50_000)


def _interpreted():
    acc = 0.0
    for i in range(400):
        _, r = np.linalg.qr(_MATS[i % 64])
        acc += float(np.log(abs(r[0, 0])))
        acc += float(np.interp(i * 0.37, _NODES, _NODES))
        acc += float(np.searchsorted(_NODES, i % 100))
    acc += float(np.argsort(_BULK)[0])
    return acc


def _bulk():
    rng = np.random.default_rng(1)
    x = rng.random(600_000)
    order = np.argsort(x)
    merged = np.unique(np.concatenate([x, rng.uniform(0.0, 1.0, 600_000)]))
    return float((x ** -1.25)[order][0] + merged[0])


KERNELS = {"interpreted": _interpreted, "bulk": _bulk}


def speed(kernel):
    """Machine speed relative to the reference, read with the named
    kernel: above 1 when faster."""
    run = KERNELS[kernel]
    times = []
    for _ in range(REPEATS[kernel]):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return REFERENCE_S[kernel] / statistics.median(times)
