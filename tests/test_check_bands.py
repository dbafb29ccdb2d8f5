"""Every check can fail: each aggregator judged on hand-made rows just
inside and just outside its band.  An aggregator is a pure function of
(cfg, rows), so no path is sampled here."""

import pytest

import levymet as lm
from levymet import experiments
from levymet.experiments import EXPERIMENTS, SE_MULT, SPECTRUM_ABS

_ATOMS = "measure.kind = atoms\nmeasure.atoms = 0.2:3.0\n"


def _cfg(experiment, extra=""):
    return lm.parse_config(f"experiment = {experiment}\n{_ATOMS}horizon = 20\n"
                           f"dt = 0.5\n{extra}")


def _judge(cfg, rows, check_id):
    """(passed, summary) of one check of ``cfg``'s aggregator on ``rows``."""
    checks, summary, _ = EXPERIMENTS[cfg.experiment].aggregate(cfg, rows)
    return {c.check_id: c.passed for c in checks}[check_id], summary


def _spread(center, se):
    """Two values whose mean is ``center`` and standard error ``se``."""
    return [center - se, center + se]


def _stable_rows(values):
    return [{"index": i, "raw": [v], "logdet_over_T": v}
            for i, v in enumerate(values)]


@pytest.mark.parametrize("se,band", [
    pytest.param(1.0, SPECTRUM_ABS, id="abs_band"),   # 3 se is 3.0
    pytest.param(0.01, SE_MULT * 0.01, id="se_band"),  # 3 se is 0.03 < 0.05
    pytest.param(0.0, SPECTRUM_ABS, id="no_spread"),
])
@pytest.mark.parametrize("side,passed", [(0.97, True), (1.03, False)],
                         ids=["inside", "outside"])
def test_within_each_band_binding_alone(se, band, side, passed):
    assert experiments._within(1.0 + side * band, se, 1.0)[0] is passed
    assert experiments._within(1.0 - side * band, se, 1.0)[0] is passed
    # and through stable_exponent, an aggregator's check that reads it
    cfg = _cfg("stable_1d", "drift = 1.3\n")
    _, summary = _judge(cfg, _stable_rows([0.0, 0.0]), "stable_exponent")
    target = summary["lambda_target"]
    rows = _stable_rows(_spread(target + side * band, se))
    assert _judge(cfg, rows, "stable_exponent")[0] is passed


def _backward_rows(pair_sums):
    return [{"index": i, "raw": [1.0, -1.0], "logdet_over_T": 0.0,
             "pair_sums": [s], "mult_reversed": True}
            for i, s in enumerate(pair_sums)]


@pytest.mark.parametrize("side,passed", [(0.97, True), (1.03, False)],
                         ids=["inside", "outside"])
def test_backward_pairing_band(side, passed):
    cfg = _cfg("backward_spectrum")
    # se 0.01 sets the band SE_MULT * se; no spread sets it at 1e-8
    rows = _backward_rows(_spread(side * SE_MULT * 0.01, 0.01))
    assert _judge(cfg, rows, "backward_pairing")[0] is passed
    rows = _backward_rows([side * 1e-8] * 2)
    assert _judge(cfg, rows, "backward_pairing")[0] is passed


def test_backward_multiplicities():
    cfg = _cfg("backward_spectrum")
    rows = _backward_rows([0.0, 0.0])
    assert _judge(cfg, rows, "backward_multiplicities")[0] is True
    rows[1]["mult_reversed"] = False
    assert _judge(cfg, rows, "backward_multiplicities")[0] is False


@pytest.mark.parametrize("side,passed", [(-0.01, True), (0.01, False)],
                         ids=["inside", "outside"])
def test_flag_convergence_band(side, passed):
    cfg = _cfg("flag_convergence")
    _, summary = _judge(cfg, [{"index": 0, "slope": None}], "flag_convergence")
    edge = -summary["h"] + experiments.SLOPE_SLACK
    rows = [{"index": i, "slope": edge + side} for i in range(2)]
    assert _judge(cfg, rows, "flag_convergence")[0] is passed


@pytest.mark.parametrize("side,passed", [(0.9, True), (1.1, False)],
                         ids=["inside", "outside"])
def test_cocycle_law_exact_band(side, passed):
    cfg = _cfg("example_2d_euler")
    rows = [{"index": i, "euler_errors": [0.4, 0.2, 0.1, 0.05, 0.025],
             "exact_residual": r}
            for i, r in enumerate([0.0, side * experiments.RESIDUAL_TOL])]
    assert _judge(cfg, rows, "cocycle_law_exact")[0] is passed
    assert _judge(cfg, rows, "euler_convergence")[0] is True


@pytest.mark.parametrize("side,passed", [(0.9, True), (1.1, False)],
                         ids=["inside", "outside"])
def test_stochastic_exponential_band(side, passed):
    cfg = _cfg("doleans_1d")
    rows = [{"index": i, "max_log_defect": d}
            for i, d in enumerate([0.0, side * experiments.DOLEANS_TOL])]
    assert _judge(cfg, rows, "stochastic_exponential")[0] is passed
