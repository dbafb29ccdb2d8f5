"""``import levymet`` loads numpy and not scipy.  scipy is imported where a
run first needs it: ``EulerEvaluator(scheme="expm")``, and the quadrature
behind the few power-law inputs the even-power series does not reach.
Each check starts a fresh interpreter, because this test process may have
loaded scipy already."""

import json
import math
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


def _run_with_two_paths(name):
    """Code for ``_fresh``: run the shipped config ``name`` with n_paths cut
    to 2; ``value`` is [rows, path errors, passed]."""
    return (
        "import dataclasses\n"
        "import levymet as lm\n"
        f"text = open({str(CONFIGS / name)!r}).read()\n"
        "cfg = dataclasses.replace(lm.parse_config(text), n_paths=2)\n"
        "report = lm.run_experiment(cfg)\n"
        "value = [len(report.rows), len(report.path_errors), report.passed]\n")


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_shipped_config_loads_no_scipy_integrate_or_linalg(name):
    # every path finishes; ``passed`` is not asserted, because with 2 paths
    # a statistical check can miss (backward_spectrum's pairing does)
    loaded, (rows, errors, _) = _fresh(_run_with_two_paths(name))
    assert (rows, errors) == (2, 0)
    assert not loaded & {"scipy.integrate", "scipy.linalg"}


def test_stable_1d_run_loads_no_scipy_integrate():
    loaded, (rows, errors, passed, pinned, stable) = _fresh(
        _run_with_two_paths("stable_1d.cfg")
        + "pl = lm.LevyMeasure.power_law(1.5, 1.0, 0.5)\n"
        "value += [lm.log_compensator_integral(pl, 0.5),\n"
        "          lm.log_compensator_integral(cfg.build_measure(), cfg.delta)]")
    assert (rows, errors, passed) == (2, 0, True)
    assert "scipy.integrate" not in loaded
    assert pinned == pytest.approx(I_PL, abs=1e-9)
    # stable_1d's symmetric power law (alpha 0.8, c 0.5, cutoff delta 0.5):
    # the odd terms of log(1+u) - u = -sum_k (-u)^k / k cancel, leaving
    # -2c sum over even k of h^(k - alpha) / (k (k - alpha))
    a, c, h = 0.8, 0.5, 0.5
    series = -2.0 * c * sum(h ** (k - a) / (k * (k - a)) for k in range(2, 80, 2))
    assert stable == pytest.approx(series, abs=1e-9)


def test_untruncated_power_law_falls_back_to_scipy_integrate():
    # the series cannot sum out to cutoff = inf; the tail goes to quadrature
    loaded, psi = _fresh(
        "import math\n"
        "import levymet as lm\n"
        "pl = lm.LevyMeasure.power_law(1.5, 1.0, math.inf)\n"
        "psi = lm.characteristic_exponent(lm.scalar_triplet(measure=pl), 2.0)\n"
        "value = [psi.real, psi.imag]")
    assert "scipy.integrate" in loaded
    # strictly 1.5-stable: Re Psi(z) = -2c |z|^a Gamma(1 - a) cos(pi a / 2) / a
    a, z = 1.5, 2.0
    exact = -2.0 * abs(z) ** a * math.gamma(1.0 - a) * math.cos(math.pi * a / 2) / a
    assert psi == [pytest.approx(exact, rel=1e-9), 0.0]
