"""Outside-in layer tracing of one levymet experiment run.

The tracer wraps public names at the layer boundaries -- the functions
``levymet.experiments`` imports and calls, and the public methods of the
evaluator, path and measure classes -- and records a span each time a call
crosses into a layer.  A call nested inside a span of the same name (for
example ``log_growth`` inside ``propagate``) belongs to the outer span and
records nothing.  Each span carries the ``path_index`` of the path whose
worker opened it, taken from ``experiments._path_task``, the per-path entry
point of the serial runner.

Spans are folded, as they close, into self time (span minus the spans it
contains), inclusive time and crossing counts per span name, per
(parent, child) edge and per path.  Only serial runs are traced: pool
workers would not report their spans back.
"""

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, class or None, attribute names, span name).  Module-level
# functions are patched in ``levymet.experiments``, the namespace the
# experiment workers look them up in; methods are patched on their class.
SPANS = (
    ("experiments", None, ("run_experiment",), "experiments.run"),
    ("experiments", None, ("_path_task",), "experiments.path"),
    ("experiments", None, ("write_outputs",), "experiments.write"),
    ("config", "ExperimentConfig", ("build_measure",), "measures.build"),
    ("measures", "LevyMeasure",
     ("rate", "mean", "second_moment", "log_compensator", "log_moment",
      "char_exponent_jump"), "measures.integral"),
    ("measures", "LevyTriplet", ("effective_cut", "compensation_rate"),
     "measures.integral"),
    ("experiments", None, ("stable_scaling_residual",), "measures.integral"),
    ("measures", "LevyMeasure", ("sample_sizes",), "measures.sample"),
    ("experiments", None, ("sample_two_sided", "with_drift", "substream"),
     "paths.sample"),
    ("paths", "JumpPath",
     ("evaluate", "continuous_at", "continuous_increment", "jumps_in"),
     "paths.eval"),
    ("paths", "TwoSidedPath",
     ("evaluate", "continuous_at", "continuous_increment", "jumps_in",
      "shift"), "paths.eval"),
    ("cocycle", "ExactDiagonal2D", ("__init__", "shifted"), "cocycle.build"),
    ("cocycle", "EulerEvaluator", ("__init__", "shifted"), "cocycle.build"),
    ("cocycle", "StochasticExponential1D", ("__init__", "shifted"),
     "cocycle.build"),
    ("cocycle", "ExactDiagonal2D",
     ("propagate", "matrix", "inverse", "matrix_scaled", "log_growth"),
     "cocycle.propagate"),
    ("cocycle", "EulerEvaluator",
     ("propagate", "matrix", "inverse", "matrix_scaled"),
     "cocycle.propagate"),
    ("cocycle", "StochasticExponential1D",
     ("propagate", "matrix", "log_value", "value"), "cocycle.propagate"),
    ("experiments", None, ("cocycle_residual", "integrability_alpha"),
     "cocycle.diagnostics"),
    ("experiments", None, ("spectrum_qr", "backward_spectrum"),
     "spectrum.qr"),
    ("experiments", None, ("flag_at", "oseledets_spaces",
                           "flag_convergence_rate"), "spectrum.flags"),
    ("spectrum", "OseledetsSplit", ("angles_to",), "spectrum.flags"),
    ("experiments", None, ("ground_truth_2d", "benchmark_drivers",
                           "benchmark_system_2d", "integrability_bound"),
     "oracle.op"),
)


def _jump_count(path):
    return path.forward.jump_times.size + path.backward.jump_times.size


# Work counted at a boundary from the value it returns.
COUNTERS = {"sample_two_sided": ("paths.jumps", _jump_count)}

# Metrics of layer_metrics() that must repeat exactly between traced runs,
# and those that are self times (they partition the traced wall clock).
COUNT_METRICS = ("spectrum.windows", "cocycle.propagate_calls", "paths.jumps",
                 "paths.eval_calls")
SELF_TIME_METRICS = (
    "spectrum.qr_s", "spectrum.flags_s", "cocycle.propagate_s",
    "cocycle.build_s", "cocycle.diagnostics_s", "paths.sample_s",
    "paths.eval_s", "measures.sample_s", "measures.integral_s",
    "measures.build_s", "oracle.op_s", "experiments.self_s",
    "experiments.write_s")


class Tracer:
    """Span recorder for one traced run; see the module docstring."""

    def __init__(self):
        self._stack = []   # open spans: [name, child seconds, path_index]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()
        self.counts = Counter()
        self.path_s = {}
        self.by_path = defaultdict(lambda: defaultdict(float))

    def _wrap(self, fn, name, attr):
        stack = self._stack
        counter = COUNTERS.get(attr)

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if stack:
                parent, index = stack[-1][0], stack[-1][2]
            else:
                parent, index = None, None
            if name == "experiments.path":
                index = args[0][1]
            frame = [name, 0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.self_s[name] += own
                self.incl_s[name] += elapsed
                self.calls[name] += 1
                self.edges[parent, name] += 1
                self.by_path[index][name] += own
                if name == "experiments.path":
                    self.path_s[index] = elapsed
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self, lm):
        """Patch every boundary in SPANS for the duration of the block.

        Names a levymet version does not have are skipped; their layers
        then read zero.
        """
        undo = []
        try:
            for module, owner, attrs, name in SPANS:
                target = getattr(lm, module)
                if owner is not None:
                    target = getattr(target, owner, None)
                    if target is None:
                        continue
                for attr in attrs:
                    fn = getattr(target, attr, None)
                    if fn is None:
                        continue
                    had_own = attr in vars(target)
                    setattr(target, attr, self._wrap(fn, name, attr))
                    undo.append((target, attr, had_own, fn))
            yield self
        finally:
            for target, attr, had_own, fn in reversed(undo):
                if had_own:
                    setattr(target, attr, fn)
                else:
                    delattr(target, attr)

    def layer_metrics(self, wall_s, speed):
        """Per-layer figures of the traced run, times in reference seconds
        (see calibrate.py); ``wall_s`` is its wall clock measured around
        the run from outside and ``speed`` the machine speed then."""
        s, calls = self.self_s, self.calls
        path_times = sorted(self.path_s.values())
        if len(path_times) >= 2:
            q = statistics.quantiles(path_times, n=4)
            p50, p75 = q[1], q[2]
        else:
            p50 = p75 = path_times[0] if path_times else 0.0

        def rate(count, seconds):
            return count / seconds if seconds > 0.0 else 0.0

        figures = {
            "spectrum.qr_s": s["spectrum.qr"],
            "spectrum.windows": self.edges["spectrum.qr", "cocycle.propagate"],
            "spectrum.flags_s": s["spectrum.flags"],
            "cocycle.propagate_s": s["cocycle.propagate"],
            "cocycle.propagate_calls": calls["cocycle.propagate"],
            "cocycle.windows_per_s": rate(calls["cocycle.propagate"],
                                          self.incl_s["cocycle.propagate"]),
            "cocycle.build_s": s["cocycle.build"],
            "cocycle.diagnostics_s": s["cocycle.diagnostics"],
            "paths.sample_s": s["paths.sample"],
            "paths.jumps": self.counts["paths.jumps"],
            "paths.jumps_per_s": rate(self.counts["paths.jumps"],
                                      self.incl_s["paths.sample"]),
            "paths.eval_s": s["paths.eval"],
            "paths.eval_calls": calls["paths.eval"],
            "measures.sample_s": s["measures.sample"],
            "measures.integral_s": s["measures.integral"],
            "measures.build_s": s["measures.build"],
            "oracle.op_s": s["oracle.op"],
            "experiments.path_s_p50": p50,
            "experiments.path_s_p75": p75,
            "experiments.self_s": s["experiments.run"] + s["experiments.path"],
            "experiments.write_s": s["experiments.write"],
            "bench.coverage": sum(s.values()) / wall_s if wall_s > 0 else 0.0,
        }
        for k in SELF_TIME_METRICS + ("experiments.path_s_p50",
                                      "experiments.path_s_p75"):
            figures[k] *= speed
        for k in ("cocycle.windows_per_s", "paths.jumps_per_s"):
            figures[k] /= speed
        return figures

    def per_path(self):
        """Self seconds per span name for each path index (None: spans
        outside any path, such as aggregation and writing)."""
        return {str(k): dict(v) for k, v in self.by_path.items()}
