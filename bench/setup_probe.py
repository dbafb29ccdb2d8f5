"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Times, from the first line of this script: importing levymet, parsing the
workload's config, building its measure and computing its closed-form
target -- everything before the first path is sampled.  The caller
passes an environment with the BLAS threads pinned.  Prints one JSON
object with the phase times in seconds.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, use_checkout_source  # noqa: E402


def main(argv):
    workload = WORKLOADS[argv[1]]
    seed = int(argv[2])
    t_start = _T0
    lm = use_checkout_source()
    t_import = time.perf_counter()
    cfg = lm.parse_config(workload.config_text(seed, threads=workload.workers))
    t_parse = time.perf_counter()
    measure = cfg.build_measure()
    t_measure = time.perf_counter()
    workload.target(cfg, measure)
    t_target = time.perf_counter()
    print(json.dumps({
        "import_s": t_import - t_start,
        "parse_s": t_parse - t_import,
        "measure_s": t_measure - t_parse,
        "target_s": t_target - t_measure,
        "setup_s": t_target - t_start,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
