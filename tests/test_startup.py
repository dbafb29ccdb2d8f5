"""``import levymet`` loads numpy and not scipy.  scipy is imported where a
run first needs it: the quadrature of power-law measures and
``EulerEvaluator(scheme="expm")``.  Each check starts a fresh interpreter,
because this test process may have loaded scipy already."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
# integral of (log(1+u) - u) nu(du) over |u| <= 0.5 for the power law
# alpha = 1.5, c = 1, cutoff 0.5, as tests/test_measures.py pins it
I_PL = -1.4533458762360298


def _fresh(code):
    """Run ``code``, which sets ``value``, in a fresh interpreter.  Returns
    the scipy modules loaded at its end and ``value``."""
    script = (
        "import json, sys\nvalue = None\n" + code + "\n"
        "print(json.dumps({'scipy': sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy'), 'value': value}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, LEVY_MET_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return set(out["scipy"]), out["value"]


def test_import_loads_no_scipy():
    loaded, _ = _fresh("import levymet")
    assert "scipy" not in loaded


def test_atom_run_loads_no_scipy_integrate_or_linalg():
    loaded, passed = _fresh(
        "import levymet as lm\n"
        f"text = open({str(CONFIGS / 'example_2d_euler.cfg')!r}).read()\n"
        "value = lm.run_experiment(lm.parse_config(text)).passed")
    assert passed is True
    assert not loaded & {"scipy.integrate", "scipy.linalg"}


def test_power_law_quadrature_loads_scipy_integrate():
    loaded, (pinned, stable) = _fresh(
        "import levymet as lm\n"
        "pl = lm.LevyMeasure.power_law(1.5, 1.0, 0.5)\n"
        f"text = open({str(CONFIGS / 'stable_1d.cfg')!r}).read()\n"
        "cfg = lm.parse_config(text)\n"
        "value = [lm.log_compensator_integral(pl, 0.5),\n"
        "         lm.log_compensator_integral(cfg.build_measure(), cfg.delta)]")
    assert "scipy.integrate" in loaded
    assert pinned == pytest.approx(I_PL, abs=1e-9)
    # stable_1d's symmetric power law (alpha 0.8, c 0.5, cutoff delta 0.5):
    # the odd terms of log(1+u) - u = -sum_k (-u)^k / k cancel, leaving
    # -2c sum over even k of h^(k - alpha) / (k (k - alpha))
    a, c, h = 0.8, 0.5, 0.5
    series = -2.0 * c * sum(h ** (k - a) / (k * (k - a)) for k in range(2, 80, 2))
    assert stable == pytest.approx(series, abs=1e-9)
