import importlib.util
import json
import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levymet as lm
from levymet.cli import main
from levymet.cocycle import _window_count
from levymet.config import MEASURE_KINDS, _key
from levymet.errors import ConfigurationError, ParseError
from levymet.paths import check_jump_budget
from levymet import experiments
from levymet.experiments import EXPERIMENTS

ROOT = pathlib.Path(__file__).parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

MINIMAL = """
experiment = example_2d_exact
measure.kind = atoms
measure.atoms = 0.2:3.0
"""

# deterministic variant: every check passes identically on every run
DETERMINISTIC = """
experiment = example_2d_exact
measure.kind = none
"""


def test_minimal_config_defaults():
    cfg = lm.parse_config(MINIMAL)
    assert cfg.experiment == "example_2d_exact"
    assert cfg.delta == 0.5
    assert cfg.horizon == 200.0
    assert cfg.n_paths == 100
    assert cfg.threads == 1
    assert cfg.measure_atoms == ((0.2, 3.0),)
    # exponents are grouped at the spectrum's default, 10/horizon
    ((est, best),) = experiments._spectra(
        cfg, [experiments._exact_cocycle(cfg)(0)])
    assert est.group_tol == best.group_tol == 10.0 / cfg.horizon


def test_config_round_trip():
    cfg = lm.parse_config(MINIMAL)
    assert lm.parse_config(cfg.echo()) == cfg


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


def _within_jump_budget(alpha, c, delta, horizon):
    try:
        measure = lm.LevyMeasure.power_law(alpha, c, delta)
        check_jump_budget(lm.scalar_triplet(measure=measure, delta=delta),
                          horizon)
    except lm.LevyMetError:
        return False
    return True


def _measure_keys(kind, delta, horizon):
    """measure.* keys of a kind: atoms inside (-min(delta, 1), delta], and
    power laws (cut at delta < 1) of at most the sampler budget of jumps."""
    if kind == "atoms":
        loc = st.floats(min_value=-min(delta, 1.0), max_value=delta,
                        exclude_min=True).filter(bool)
        return st.fixed_dictionaries({"measure_atoms": st.lists(
            st.tuples(loc, st.floats(min_value=0.0, max_value=1e3)),
            min_size=1, max_size=3).map(tuple)})
    if kind == "power_law":
        return st.fixed_dictionaries({
            "measure_alpha": st.floats(min_value=0.0, max_value=2.0,
                                       exclude_min=True, exclude_max=True),
            "measure_c": st.floats(min_value=1e-6, max_value=1e3)}).filter(
            lambda m: _within_jump_budget(m["measure_alpha"], m["measure_c"],
                                          delta, horizon))
    return st.fixed_dictionaries({})


@st.composite
def _configs(draw):
    """Runnable configs of every experiment and measure kind, since parsing
    refuses any other; measure.* keys are set only for the configured
    kind, and the keys of some experiments only for those, since echo()
    prints only the keys a config reads."""
    kind = draw(st.sampled_from(MEASURE_KINDS))
    experiment = draw(st.sampled_from(list(EXPERIMENTS)))
    # example_2d_euler's cocycle-law probes reach 1.8
    horizon = draw(st.floats(min_value=1.8 if experiment == "example_2d_euler"
                             else 1.0, max_value=100.0))
    # example_2d_exact's integrability bound and a power law's factors
    # 1 + u >= 1 - delta need delta < 1
    delta = draw(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)
                 if experiment == "example_2d_exact" or kind == "power_law"
                 else _POSITIVE)
    # the keys only some experiments read, drawn for those alone
    own = {}
    if experiment == "stable_1d":
        # a skeleton's drift * horizon must be finite too
        own["drift"] = draw(_FINITE.filter(
            lambda b: math.isfinite(b * horizon)))
    if experiment in ("example_2d_exact", "backward_spectrum"):
        # the QR experiments need 10 to 1e6 renorm steps in the horizon
        own["renorm_step"] = draw(st.floats(
            min_value=horizon / 1e6, max_value=horizon / 10).filter(
            lambda r: horizon >= 10.0 * r and horizon / r <= 1e6))
    if experiment == "example_2d_euler":
        # the Euler ladder's finest rung takes at most 1e6 steps, and its
        # second rung more than one
        n = own["halvings"] = draw(st.integers(min_value=1, max_value=12))
        own["dt_int"] = draw(st.floats(
            min_value=horizon * 2.0**n / 1e6, max_value=1e6).filter(
            lambda h: horizon / (h / 2.0**n) <= 1e6
            and _window_count(horizon, h / 2) > 1))
    assert set(own) == set(EXPERIMENTS[experiment].keys)
    return lm.ExperimentConfig(
        experiment=experiment,
        measure_kind=kind,
        **draw(_measure_keys(kind, delta, horizon)),
        **own,
        delta=delta,
        horizon=horizon,
        # a grid on the horizon within the sampler budget
        dt=horizon / draw(st.integers(min_value=1, max_value=10**6)),
        n_paths=draw(st.integers(min_value=1, max_value=10**6)),
        master_seed=draw(st.integers(min_value=0, max_value=2**64)),
        threads=draw(st.integers(min_value=1, max_value=64)),
        output_dir=draw(st.text("abcxyz0123456789_-./", min_size=1,
                                max_size=20)),
    )


@settings(max_examples=200, deadline=None)
@given(_configs())
def test_echo_round_trips_generated_configs(cfg):
    assert lm.parse_config(cfg.echo()) == cfg


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_parse_and_round_trip(path):
    cfg = lm.parse_config(path.read_text())
    assert lm.parse_config(cfg.echo()) == cfg


def _bench_workloads():
    """The WORKLOADS table of bench/workloads.py, loaded without running
    anything else of the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(_bench_workloads()))
def test_bench_workload_configs_parse_and_pass_preflight(name):
    # the benchmark writes its configs itself; a key change must not break
    # them, and parsing makes every check a run makes before any path
    text = _bench_workloads()[name].config_text(seed=3, threads=2)
    cfg = lm.parse_config(text)
    assert lm.parse_config(cfg.echo()) == cfg


def test_shipped_configs_cover_every_experiment():
    kinds = {lm.parse_config(p.read_text()).experiment for p in CONFIGS}
    assert kinds == set(EXPERIMENTS)


def test_n_paths_must_be_positive():
    with pytest.raises(ParseError, match="n_paths must be >= 1"):
        lm.parse_config(MINIMAL + "n_paths = 0\n")


def test_experiment_specific_checks():
    with pytest.raises(ParseError, match=r"^example_2d_euler needs horizon "
                       r"<= 100 \(plain matrices overflow past that\)$"):
        lm.parse_config("experiment = example_2d_euler\nhorizon = 150\n")


@pytest.mark.parametrize("delta", ["1", "1.5"])
def test_example_2d_exact_needs_delta_below_one(tmp_path, capsys, delta):
    text = MINIMAL + f"delta = {delta}\nn_paths = 2\n"
    with pytest.raises(ParseError, match=r"^example_2d_exact needs delta < 1"):
        lm.parse_config(text)
    cfgfile = _write(tmp_path, "d.cfg", text + f"output_dir = {tmp_path}/out\n")
    assert main(["run", "--config", cfgfile]) == 2
    assert "needs delta < 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_jump_budget_preflight_before_any_path(tmp_path, capsys):
    # the power-law defaults demand ~1e22 jumps per leg
    text = "experiment = stable_1d\nmeasure.kind = power_law\nn_paths = 3\n"
    with pytest.raises(ConfigurationError, match="expected jump count"):
        lm.run_experiment(lm.parse_config(text))
    cfgfile = _write(tmp_path, "j.cfg", text + f"output_dir = {tmp_path}/out\n")
    assert main(["run", "--config", cfgfile]) == 2
    assert "expected jump count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_runs_the_jump_budget_preflight(tmp_path, capsys):
    text = "experiment = stable_1d\nmeasure.kind = power_law\n"
    assert main(["validate", "--config", _write(tmp_path, "v.cfg", text)]) == 2
    out, err = capsys.readouterr()
    assert "config OK" not in out
    assert "error: expected jump count 1.71e+22" in err
    # an atom measure's refusal names the key that sets its rates
    text = ("experiment = stable_1d\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:1e5\n")
    assert main(["validate", "--config", _write(tmp_path, "a.cfg", text)]) == 2
    assert ("exceeds the sampler budget of 5e+06; lower the measure.atoms "
            "rates, or shorten the horizon") in capsys.readouterr().err


def test_validate_accepts_a_huge_atom(tmp_path, capsys):
    # squaring the atom at 1e200 in the support check overflowed; delta
    # makes it a small jump, since no experiment takes one above delta
    text = ("experiment = stable_1d\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0, 1e200:1.0\ndelta = 1e201\n")
    assert main(["validate", "--config", _write(tmp_path, "h.cfg", text)]) == 0
    assert "config OK" in capsys.readouterr().out


def _fails_before_any_path(tmp_path, capsys, text, message):
    """``validate`` and ``run`` both exit 2 with one error line naming
    ``message``, and ``run`` writes nothing."""
    cfgfile = _write(tmp_path, "p.cfg", text + f"output_dir = {tmp_path}/out\n")
    for command in ("validate", "run"):
        assert main([command, "--config", cfgfile]) == 2
        out, err = capsys.readouterr()
        assert "config OK" not in out
        assert err.count("error:") == 1 and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha,c,message", [
    pytest.param("1.99", "1e-30", "the small-jump cut overflows for the power "
                 "law with alpha = 1.99, c = 1e-30", id="small_jump_cut"),
    pytest.param("1.9", "1e20", "the jump rate above 9.77e-274 overflows for "
                 "the power law with alpha = 1.9, c = 1e+20", id="jump_rate"),
    # the refusals of an unsimulable jump rate name config keys, not
    # LevyTriplet's eps_cut
    pytest.param("1.99", "1e-3", "the small-jump cut is 0 for the power law "
                 "with alpha = 1.99, c = 0.001; lower measure.alpha or "
                 "measure.c", id="infinite_rate"),
    pytest.param("1.5", "1", "expected jump count 1.71e+22 exceeds the "
                 "sampler budget of 5e+06; lower measure.alpha or measure.c, "
                 "or shorten the horizon", id="over_budget"),
])
def test_power_law_overflow_fails_before_any_path(tmp_path, capsys, alpha, c,
                                                  message):
    text = ("experiment = stable_1d\nmeasure.kind = power_law\n"
            f"measure.alpha = {alpha}\nmeasure.c = {c}\nn_paths = 3\n")
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        lm.run_experiment(lm.parse_config(text))
    _fails_before_any_path(tmp_path, capsys, text, message)


@pytest.mark.parametrize("experiment",
                         ["example_2d_exact", "stable_1d", "flag_convergence"])
def test_horizon_off_the_dt_grid_fails_before_any_path(tmp_path, capsys,
                                                       experiment):
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 20\ndt = 0.3\nn_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text,
                           "(t_end - t_start)/dt must be an integer")


@pytest.mark.parametrize("experiment",
                         ["example_2d_exact", "backward_spectrum"])
def test_qr_horizon_below_ten_renorm_steps_fails_before_any_path(
        tmp_path, capsys, experiment):
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 5\ndt = 0.5\nn_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text,
                           "needs horizon >= 10 * renorm_step")


# a short run of every experiment: 10 QR windows
_SHORT_RUN = "horizon = 10\ndt = 0.5\nn_paths = 3\n"
# each experiment's own keys on a horizon of 2: the Euler ladder, and ten
# QR windows
_SHORT = {"example_2d_euler": "dt_int = 0.08\nhalvings = 3\n",
          "example_2d_exact": "renorm_step = 0.2\n",
          "backward_spectrum": "renorm_step = 0.2\n"}


@pytest.mark.parametrize("experiment,measure,message", [
    pytest.param(name, "measure.atoms = -1.2:1, 0.2:3\n",
                 "charges u = -1.2 <= -1", id=f"{name}-atom_below_-1")
    for name in EXPERIMENTS] + [
    pytest.param(name, "measure.atoms = 0.7:1\n",
                 "charges |u| up to 0.7 > delta = 0.5; " + (
                     "stable_1d's target covers |u| <= delta only"
                     if name == "stable_1d" else
                     "the exact benchmark cocycle takes small jumps only"),
                 id=f"{name}-atom_above_delta")
    for name in EXPERIMENTS] + [
    pytest.param("doleans_1d", "measure.atoms = -1:1\ndelta = 1.5\n",
                 "charges u = -1.0 <= -1", id="atom_at_-1"),
    pytest.param("stable_1d", "measure.atoms = -1.5:1, 0.2:1\n",
                 "charges u = -1.5 <= -1", id="stable_atom_below_-1"),
    pytest.param("stable_1d", "measure.kind = power_law\nmeasure.alpha = 0.5\n"
                 "measure.c = 0.1\ndelta = 1\n",
                 "charges u = -1.0 <= -1", id="power_law_cutoff_1"),
])
def test_bad_jump_measure_fails_before_any_path(
        tmp_path, capsys, experiment, measure, message):
    kind = "" if "measure.kind" in measure else "measure.kind = atoms\n"
    text = f"experiment = {experiment}\n{kind}{measure}{_SHORT_RUN}"
    with pytest.raises(lm.errors.SupportError, match=re.escape(message)):
        lm.run_experiment(lm.parse_config(text))
    _fails_before_any_path(tmp_path, capsys, text, message)


@pytest.mark.parametrize("experiment,measure", [
    # jumps of size delta are small jumps
    ("example_2d_exact", "measure.atoms = 0.5:1, -0.5:1\n"),
])
def test_preflight_keeps_measures_every_path_takes(experiment, measure):
    cfg = lm.parse_config(f"experiment = {experiment}\nmeasure.kind = atoms\n"
                          f"{measure}{_SHORT_RUN}")
    assert not lm.run_experiment(cfg).path_errors


@pytest.mark.parametrize("extra,message", [
    ("master_seed = -1\nmeasure.atoms = 0.2:3.0\n",
     "master_seed must be >= 0"),
    ("threads = 0\nmeasure.atoms = 0.2:3.0\n", "threads must be >= 1"),
    ("measure.atoms = inf:1\n",
     "line 3: bad value for 'measure.atoms': non-finite value"),
    ("measure.atoms = 0.2:nan\n",
     "line 3: bad value for 'measure.atoms': non-finite value"),
    ("measure.atoms = 0.2:3.0\nmeasure.alpha = 0.3\n",
     "line 4: key 'measure.alpha' is not a key of measure.kind = atoms"),
], ids=["negative_seed", "zero_threads", "infinite_atom", "nan_rate",
        "power_law_alpha"])
def test_bad_values_fail_at_parse(tmp_path, capsys, extra, message):
    text = ("experiment = example_2d_exact\nmeasure.kind = atoms\n" + extra
            + _SHORT_RUN)
    with pytest.raises(ParseError, match=message):
        lm.parse_config(text)
    _fails_before_any_path(tmp_path, capsys, text, "config error: " + message)


@pytest.mark.parametrize("text,message", [
    pytest.param("experiment = doleans_1d\nmeasure.kind = atoms\n"
                 "measure.atoms = 5e307:3.0\ndelta = 5e307\nhorizon = 20\n"
                 "dt = 0.5\nn_paths = 1\n",
                 "the drift 0.0 and compensation rate 1.5e+308 times "
                 "T = 20.0, must be finite", id="compensation"),
    pytest.param("experiment = stable_1d\nmeasure.kind = atoms\n"
                 "measure.atoms = 0.2:3.0\ndrift = 1e308\nhorizon = 20\n"
                 "dt = 0.5\n", "the drift 1e+308 and compensation rate",
                 id="drift"),
])
def test_an_overflowing_skeleton_fails_at_parse(tmp_path, capsys, text,
                                                message):
    # each constant is finite and its product with the horizon is not; on
    # 81 of seeds 1-100 the doleans_1d run passed, its log Y -inf or NaN
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        lm.parse_config(text)
    _fails_before_any_path(tmp_path, capsys, text, message)


def test_flag_convergence_gap_rounding_to_zero_fails_at_parse(tmp_path,
                                                              capsys):
    # at I = -3e17 the closed-form gap (2 + I) - (-4 + I) is 0.0, and every
    # path failed alike, building its flag metric
    text = ("experiment = flag_convergence\nmeasure.kind = atoms\n"
            "measure.atoms = 1e17:3.0\ndelta = 1e17\nhorizon = 120\n"
            "dt = 0.5\n")
    message = ("flag_convergence needs a gap > 0 between the closed-form "
               "exponents 2 + I and -4 + I; with I = -3e+17 it rounds to 0.0")
    with pytest.raises(ParseError, match=re.escape(message)):
        lm.parse_config(text)
    _fails_before_any_path(tmp_path, capsys, text, "config error: " + message)


@pytest.mark.parametrize("experiment,key", [
    ("flag_convergence", "frame_angle = 0.7"),
    ("flag_convergence", "fit_t_min = 10"),
    ("flag_convergence", "fit_t_max = 100"),
    ("flag_convergence", "fit_points = 10"),
    ("stable_1d", "measure.cutoff = 0.5"),
])
def test_fixed_settings_are_not_keys(tmp_path, capsys, experiment, key):
    # flag_convergence fits at k * horizon / 12 from a fixed frame; the
    # power law is cut at delta
    text = (f"experiment = {experiment}\nmeasure.kind = power_law\n{key}\n"
            + _SHORT_RUN)
    message = f"line 3: unknown key {key.split(' =')[0]!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        lm.parse_config(text)
    _fails_before_any_path(tmp_path, capsys, text, "config error: " + message)


# the keys only some experiments read, by experiment, and a value other
# than each key's default
_OWN_KEYS = {"example_2d_exact": {"renorm_step"},
             "example_2d_euler": {"dt_int", "halvings"},
             "stable_1d": {"drift"}, "doleans_1d": set(),
             "flag_convergence": set(), "backward_spectrum": {"renorm_step"}}
_OTHER_VALUE = {"drift": 1.3, "renorm_step": 0.25, "dt_int": 0.04,
                "halvings": 2}
_UNREAD = [(name, key) for name in EXPERIMENTS for key in _OTHER_VALUE
           if key not in _OWN_KEYS[name]]


def test_each_entry_declares_the_config_fields_it_reads():
    names = {f.name for f in fields(lm.ExperimentConfig)}
    for entry in EXPERIMENTS.values():
        assert set(entry.keys) <= names
    assert {name: set(e.keys) for name, e in EXPERIMENTS.items()} == _OWN_KEYS
    assert len(_UNREAD) == 19


@pytest.mark.parametrize("experiment,key", [
    (name, key) for name in EXPERIMENTS for key in sorted(_OWN_KEYS[name])])
def test_each_declared_key_changes_the_run(experiment, key):
    # a key an experiment declares is one its run reads
    horizon = 2 if experiment == "example_2d_euler" else 40
    cfg = lm.parse_config(
        f"experiment = {experiment}\nmeasure.kind = atoms\n"
        f"measure.atoms = 0.2:3.0, -0.3:1.0\nhorizon = {horizon}\ndt = 0.5\n"
        "n_paths = 3\nthreads = 1\nmaster_seed = 5\n")
    tables = lm.run_experiment(cfg).csv_tables
    other = lm.run_experiment(replace(cfg, **{key: _OTHER_VALUE[key]}))
    assert not other.path_errors
    assert other.csv_tables.keys() == tables.keys()
    assert other.csv_tables != tables


@pytest.mark.parametrize("experiment,key", _UNREAD)
def test_a_key_the_experiment_does_not_read_is_refused(tmp_path, capsys,
                                                       experiment, key):
    base = _short(experiment) + "measure.atoms = 0.2:3.0\nn_paths = 3\n"
    cfg = lm.parse_config(base)
    message = f"key {key!r} is not a key of experiment = {experiment}"
    lineno = base.count("\n") + 1
    default = getattr(cfg, key)
    for value in (_OTHER_VALUE[key], default):  # set at all, it is refused
        text = base + f"{key} = {value}\n"
        with pytest.raises(ParseError, match=re.escape(
                f"line {lineno}: {message}")):
            lm.parse_config(text)
    _fails_before_any_path(tmp_path, capsys, text,
                           f"config error: line {lineno}: {message}")
    # a built config refuses a value other than the default
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        replace(cfg, **{key: _OTHER_VALUE[key]})
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        lm.ExperimentConfig(**{**vars(cfg), key: _OTHER_VALUE[key]})


def test_a_built_config_refuses_a_measure_key_of_another_kind():
    cfg = lm.parse_config(MINIMAL)
    with pytest.raises(ParseError, match="^key 'measure.alpha' is not a key "
                       "of measure.kind = atoms$"):
        replace(cfg, measure_alpha=0.3)
    assert replace(cfg, measure_alpha=1.5) == cfg  # its default


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize("measure", [
    "measure.kind = atoms\nmeasure.atoms = 0.2:3.0\n",
    "measure.kind = power_law\nmeasure.alpha = 0.8\n"],
    ids=["atoms", "power_law"])
def test_echo_prints_only_the_keys_the_config_reads(experiment, measure):
    cfg = lm.parse_config(f"experiment = {experiment}\n{measure}"
                          + _SHORT.get(experiment, "") + "horizon = 2\n")
    printed = {line.partition(" = ")[0] for line in cfg.echo().splitlines()}
    unread = set(_OTHER_VALUE) - _OWN_KEYS[experiment]
    unread |= ({"measure.alpha", "measure.c"} if "atoms" in measure
               else {"measure.atoms"})
    assert printed == {_key(f.name) for f in fields(cfg)} - unread


def test_sampling_grid_over_the_budget_fails_before_any_path(tmp_path, capsys):
    # 200 / 1e-6 = 2e8 steps per leg, 1.6 GB per array of grid times.  Only
    # parse_config and validate are called: neither samples a path.
    text = ("experiment = example_2d_exact\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\ndt = 0.000001\n")
    with pytest.raises(ConfigurationError, match=r"2e\+08 steps per leg"):
        lm.parse_config(text)
    assert main(["validate", "--config", _write(tmp_path, "g.cfg", text)]) == 2
    out, err = capsys.readouterr()
    assert "config OK" not in out
    assert err.count("error:") == 1 and "above the sampler budget" in err
    # the budget's edge: 5e6 steps pass, one more fails
    edge = "experiment = stable_1d\nhorizon = {}\ndt = 0.000001\n"
    lm.parse_config(edge.format(5))
    with pytest.raises(ConfigurationError, match=r"5e\+06 steps per leg"):
        lm.parse_config(edge.format(5.000001))


def test_negative_seed_flag_fails_before_any_path(tmp_path, capsys):
    cfgfile = _write(tmp_path, "s.cfg", MINIMAL + _SHORT_RUN +
                     f"output_dir = {tmp_path}/out\n")
    assert main(["run", "--config", cfgfile, "--seed", "-1"]) == 2
    assert "config error: master_seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_euler_ladder_over_the_step_budget_fails_at_parse(tmp_path, capsys):
    # 2 / (1e-9 / 2^4) = 3.2e10 steps on the finest rung
    text = ("experiment = example_2d_euler\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 2\ndt_int = 1e-9\n"
            "n_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text,
                           "finest rung needs 3.2e+10 Euler steps")
    # exactly 1e6 steps: 7.62939453125 / 2^-17; the sampling grid is one
    # step
    edge = ("experiment = example_2d_euler\nhorizon = 7.62939453125\n"
            "dt = 7.62939453125\ndt_int = 0.03125\nhalvings = {}\n")
    lm.parse_config(edge.format(12))
    with pytest.raises(ParseError, match=r"needs 2e\+06 Euler steps"):
        lm.parse_config(edge.format(13))


def test_euler_ladder_of_two_one_step_rungs_fails_at_parse(tmp_path, capsys):
    # dt_int = 5 and 2.5 both cover horizon 2 in one step: the halving
    # ratio of the two rungs is exactly 1
    text = ("experiment = example_2d_euler\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 2\ndt_int = 5\n"
            "halvings = 1\nn_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text, "example_2d_euler needs "
                           "dt_int / 2 < horizon")
    # 2 / (3.9 / 2) takes two windows
    lm.parse_config(text.replace("dt_int = 5", "dt_int = 3.9"))


def test_euler_ladder_past_the_float_range_fails_at_parse(tmp_path, capsys):
    # 2.0 ** 2000 overflows a float; the message names the step count
    text = ("experiment = example_2d_euler\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 2\ndt_int = 0.08\n"
            "halvings = 2000\nn_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text, "finest rung needs "
                           "2 / (0.08 / 2^2000) Euler steps per path")


@pytest.mark.parametrize("experiment",
                         ["example_2d_exact", "backward_spectrum"])
def test_qr_horizon_over_the_window_budget_fails_before_any_path(
        tmp_path, capsys, experiment):
    # 20 / 1e-300 windows: cast to an integer count, it would overflow
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 20\ndt = 0.5\n"
            "renorm_step = 1e-300\nn_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text,
                           "needs 2e+301 QR windows per direction")
    edge = (f"experiment = {experiment}\nhorizon = 20\ndt = 0.5\n"
            "renorm_step = {}\n")
    lm.parse_config(edge.format(2e-5))
    with pytest.raises(ParseError, match=r"needs 2\.5e\+06 QR windows"):
        lm.parse_config(edge.format(8e-6))


@pytest.mark.parametrize("experiment,grid,message", [
    ("stable_1d", "horizon = 60\ndt = 1e-320\n",
     "(t_end - t_start)/dt = inf steps"),
    ("flag_convergence", "horizon = 1e308\ndt = 0.5\n",
     "(t_end - t_start)/dt = inf steps"),
    ("example_2d_exact", "horizon = 1e308\ndt = 0.5\n",
     "needs 1e+308 QR windows per direction"),
])
def test_infinite_step_count_fails_before_any_path(tmp_path, capsys,
                                                   experiment, grid, message):
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            f"measure.atoms = 0.2:3.0\n{grid}n_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text, message)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize("grid", ["horizon = 2\ndt = 1e300\n",
                                  "horizon = 1e-320\ndt = 0.05\n"],
                         ids=["huge_dt", "tiny_horizon"])
def test_grid_of_no_step_fails_before_any_path(tmp_path, capsys, experiment,
                                               grid):
    # 2 / 1e300 passes for an integer step count, but that integer is 0
    message = "rounds to 0 steps"
    if "1e-320" in grid:  # three experiments refuse the horizon first
        message = {"example_2d_exact": "needs horizon >= 1 ",
                   "example_2d_euler": "needs horizon >= 1.8 ",
                   "backward_spectrum": "needs horizon >= 10 * renorm_step",
                   }.get(experiment, message)
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            f"measure.atoms = 0.2:3.0\n{grid}{_SHORT.get(experiment, '')}"
            "n_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text, message)


@pytest.mark.parametrize("experiment,keys,short,shipped,message", [
    pytest.param("example_2d_exact", "dt = 0.05\nrenorm_step = 0.05\n", 0.5,
                 200, "example_2d_exact needs horizon >= 1 "
                 "(integrability_alpha's grid)", id="example_2d_exact"),
    pytest.param("example_2d_euler", "dt = 0.1\ndt_int = 0.08\nhalvings = 2\n",
                 1.0, 2, "example_2d_euler needs horizon >= 1.8 "
                 "(its cocycle-law probes s + t)", id="example_2d_euler"),
])
def test_horizon_below_the_fixed_probes_fails_before_any_path(
        tmp_path, capsys, experiment, keys, short, shipped, message):
    # integrability_alpha is read on [0, 1], and the Euler experiment's
    # cocycle-law probes s + t reach 1.8: every path would fail on them
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            f"measure.atoms = 0.2:3.0\n{keys}n_paths = 3\n")
    _fails_before_any_path(tmp_path, capsys, text + f"horizon = {short}\n",
                           "config error: " + message)
    lm.parse_config(text + f"horizon = {shipped}\n")


def test_duplicate_key_names_both_lines():
    text = "experiment = stable_1d\nmeasure.kind = power_law\ndelta = 0.5\ndelta = 0.4\n"
    with pytest.raises(ParseError, match=r"lines 3 and 4"):
        lm.parse_config(text)


# checks use fixed thresholds, exponents are grouped at 10/horizon and the
# Euler ladder steps with the euler scheme: no config key sets them
_REMOVED_KEYS = ("tol.spectrum_abs", "tol.se_mult", "tol.angle", "tol.residual",
                 "tol.rel_exact", "tol.ratio_lo", "tol.ratio_hi",
                 "tol.slope_slack", "group_tol", "between_jump_scheme")


def test_unknown_key_names_line():
    for key in ("bogus",) + _REMOVED_KEYS:
        with pytest.raises(ParseError, match=rf"^line 2: unknown key '{key}'$"):
            lm.parse_config(f"experiment = stable_1d\n{key} = 1\n")


def test_bad_value_names_key_and_line():
    with pytest.raises(ParseError, match=r"line 2: bad value for 'n_paths'"):
        lm.parse_config("experiment = stable_1d\nn_paths = many\n")


def test_missing_experiment():
    with pytest.raises(ParseError, match="experiment"):
        lm.parse_config("delta = 0.5\n")


def test_comments_and_blank_lines():
    cfg = lm.parse_config("# header\n\nexperiment = doleans_1d  # inline\n")
    assert cfg.experiment == "doleans_1d"


def test_atoms_required_for_atom_kind():
    with pytest.raises(ParseError, match="measure.atoms"):
        lm.parse_config("experiment = stable_1d\nmeasure.kind = atoms\n")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_validate_and_run(tmp_path, capsys):
    cfgfile = _write(tmp_path, "c.cfg", DETERMINISTIC + (
        "horizon = 40\ndt = 0.5\nn_paths = 4\nmaster_seed = 5\n"
        f"output_dir = {tmp_path}/out\n"))
    assert main(["validate", "--config", cfgfile]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert main(["run", "--config", cfgfile]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    for name in ("spectrum.csv", "flags.csv", "oseledets.csv", "report.txt"):
        assert os.path.exists(tmp_path / "out" / name)
    with open(tmp_path / "out" / "spectrum.csv") as fh:
        header = fh.readline().strip()
    assert header == "path_index,Lambda_1,Lambda_2,logdet_over_T"


def test_cli_exit_code_on_failing_check(tmp_path, capsys):
    # Euler steps of 1, 0.5 and 0.25 on [0, 2] are too coarse for first
    # order: the halving ratios fall below 1.7 (the run is deterministic
    # given master_seed)
    cfgfile = _write(tmp_path, "f.cfg", (
        "experiment = example_2d_euler\nmeasure.kind = atoms\n"
        "measure.atoms = 0.2:3.0\nhorizon = 2\ndt = 0.1\ndt_int = 1\n"
        "halvings = 2\nn_paths = 3\nmaster_seed = 5\n"
        f"output_dir = {tmp_path}/out_f\n"))
    assert main(["run", "--config", cfgfile]) == 1
    assert "[FAIL] euler_convergence: halving ratios" in capsys.readouterr().out


def test_cli_flag_overrides(tmp_path, capsys):
    cfgfile = _write(tmp_path, "o.cfg", DETERMINISTIC + (
        "horizon = 40\ndt = 0.5\nn_paths = 2\nmaster_seed = 5\n"))
    out_dir = str(tmp_path / "ovr")
    assert main(["run", "--config", cfgfile, "--paths", "3", "--seed", "9",
                 "--output", out_dir]) == 0
    capsys.readouterr()
    with open(os.path.join(out_dir, "spectrum.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 1 + 3


def _refuse_sampling(monkeypatch):
    """Make every path batch record itself and fail; returns the record."""
    sampled = []

    def refuse(args):
        sampled.append(args)
        raise AssertionError("a path was sampled")
    monkeypatch.setattr(experiments, "_path_task", refuse)
    return sampled


def test_empty_output_dir_fails_at_parse(tmp_path, capsys, monkeypatch):
    sampled = _refuse_sampling(monkeypatch)
    text = DETERMINISTIC + "horizon = 40\ndt = 0.5\nn_paths = 2\n"
    message = "config error: output_dir must not be empty"
    empty = _write(tmp_path, "e.cfg", text + "output_dir = \n")
    for command in ("validate", "run"):
        assert main([command, "--config", empty]) == 2
        out, err = capsys.readouterr()
        assert "config OK" not in out and message in err
    full = _write(tmp_path, "f.cfg", text)
    assert main(["run", "--config", full, "--output", ""]) == 2
    assert message in capsys.readouterr().err
    assert sampled == []


def test_unwritable_output_dir_fails_before_any_path(tmp_path, capsys,
                                                     monkeypatch):
    sampled = _refuse_sampling(monkeypatch)
    (tmp_path / "plain").write_text("")
    cfgfile = _write(tmp_path, "u.cfg", DETERMINISTIC + (
        "horizon = 40\ndt = 0.5\nn_paths = 2\n"
        f"output_dir = {tmp_path}/plain/out\n"))
    assert main(["run", "--config", cfgfile]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "plain/out" in err
    assert sampled == []


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "experiment = nope\n")
    assert main(["run", "--config", bad]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_cli_selftest_checks_3d_oseledets_spaces(capsys):
    assert main(["selftest"]) == 0
    assert "[PASS] oseledets_3d: max principal angle" in capsys.readouterr().out


def test_reproducible_outputs_across_worker_counts(tmp_path):
    outs = {}
    for label, threads in (("a", 1), ("b", 3)):
        cfgfile = _write(tmp_path, f"r{threads}.cfg", MINIMAL + (
            "horizon = 40\ndt = 0.5\nn_paths = 6\nmaster_seed = 77\n"
            f"threads = {threads}\n"))
        out_dir = tmp_path / f"rep_{label}"
        proc = subprocess.run(
            [sys.executable, "-m", "levymet.cli", "run", "--config", cfgfile,
             "--output", str(out_dir)],
            capture_output=True)
        assert proc.returncode in (0, 1)  # bytes must match either way
        outs[label] = {
            name: (out_dir / name).read_bytes()
            for name in ("spectrum.csv", "flags.csv", "oseledets.csv")
        }
    assert outs["a"] == outs["b"]


def test_no_module_reads_the_environment():
    # the config is the whole input of a run; threads sets its processes
    for path in sorted((ROOT / "src" / "levymet").glob("*.py")):
        text = path.read_text()
        assert "os.environ" not in text and "getenv" not in text, path.name


def test_a_process_count_variable_in_the_environment_is_ignored(tmp_path):
    cfgfile = _write(tmp_path, "e.cfg", DETERMINISTIC + (
        "horizon = 40\ndt = 0.5\nn_paths = 1\n"))
    env = {k: v for k, v in os.environ.items() if k != "LEVY_MET_THREADS"}
    outs = []
    for label, extra in (("a", {}), ("b", {"LEVY_MET_THREADS": "abc"})):
        out_dir = tmp_path / f"env_{label}"
        proc = subprocess.run(
            [sys.executable, "-m", "levymet.cli", "run", "--config", cfgfile,
             "--output", str(out_dir)],
            env={**env, **extra}, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append({name: (out_dir / name).read_bytes() for name in
                     ("spectrum.csv", "flags.csv", "oseledets.csv")})
    assert outs[0] == outs[1]


def test_batches_split_paths_contiguously():
    # the QR experiments cap a batch at 64 paths, the others at BATCH_PATHS
    caps = {name: e.batch_paths for name, e in EXPERIMENTS.items()}
    assert caps == {**dict.fromkeys(EXPERIMENTS, experiments.BATCH_PATHS),
                    "example_2d_exact": 64, "backward_spectrum": 64}
    for cap in sorted(set(caps.values())):
        for workers in (1, 2, 3):
            for n in range(1, 300):
                batches = experiments._batches(n, workers, cap)
                assert [i for b in batches for i in b] == list(range(n))
                sizes = [len(b) for b in batches]
                assert max(sizes) <= cap
                assert max(sizes) - min(sizes) <= 1
                assert len(batches) >= min(n, workers)
                # every process gets the same number of batches
                assert len(batches) % min(len(batches), workers) == 0


@pytest.mark.parametrize("experiment", ["example_2d_exact", "backward_spectrum"])
def test_rows_do_not_depend_on_batching(experiment):
    cfg = lm.parse_config(MINIMAL.replace("example_2d_exact", experiment) +
                          "horizon = 40\ndt = 0.5\nmaster_seed = 3\n")
    k = 5
    seen = set()
    # batches of at most 64: serial 1, 2 and 3 batches; pooled on 2
    # processes 2 and 4 batches, on 3 processes 3 batches
    for n_paths, threads in ((k, 1), (65, 1), (129, 1), (k, 2), (129, 2),
                             (k, 3), (65, 3)):
        report = lm.run_experiment(replace(cfg, n_paths=n_paths,
                                           threads=threads))
        assert not report.path_errors
        seen.add(repr(report.rows[:k]))
    assert len(seen) == 1


def _euler_row_per_rung(cfg, index):
    """The example_2d_euler row one rung and one residual probe at a time:
    an Euler evaluator per step size dt_int / 2^k, and the scalar
    cocycle-law residual of each probe (s, t) drawn in turn."""
    exact = experiments._ladder_path(cfg)(index)[0]
    paths = exact.driver_paths
    system = lm.benchmark_system_2d()
    target = exact.matrix(cfg.horizon)
    scale = float(np.linalg.norm(target))
    errors = []
    for k in range(cfg.halvings + 1):
        ev = lm.EulerEvaluator(system, paths, cfg.dt_int / 2.0**k)
        errors.append(float(np.linalg.norm(ev.matrix(cfg.horizon) - target))
                      / scale)
    rng = lm.paths.substream(cfg.master_seed, path_index=index, driver=7,
                             leg=7)
    residual = 0.0
    for _ in range(8):
        s = float(rng.uniform(-0.9, 0.9))
        t = float(rng.uniform(-0.9, 0.9))
        residual = max(residual, lm.cocycle_residual(exact, s, t))
    return {"index": index, "euler_errors": errors, "exact_residual": residual}


def _per_rung_triple(cfg, index):
    try:
        return (index, _euler_row_per_rung(cfg, index), None)
    except lm.LevyMetError as exc:
        return (index, None, f"{type(exc).__name__}: {exc}")


def _short(experiment):
    """A config of ``experiment`` on the Euler ladder's short horizon,
    with the keys of its own that give it real rows (``_SHORT``)."""
    return f"""
experiment = {experiment}
measure.kind = atoms
delta = 0.5
horizon = 2
dt = 0.1
master_seed = 31
""" + _SHORT.get(experiment, "")


EULER = _short("example_2d_euler")


@pytest.mark.parametrize("experiment,extra", [
    pytest.param("example_2d_euler", "measure.atoms = 0.2:3.0\n",
                 id="measure.atoms = 0.2:3.0\n")
] + [pytest.param(name, "measure.atoms = 0.2:3.0\n", id=name)
     for name in EXPERIMENTS if name != "example_2d_euler"])
def test_euler_rows_equal_per_rung_rows_in_any_batch(experiment, extra):
    # every experiment: each triple of a batch, its error included, is
    # bitwise the triple of that path run alone; the Euler rows are also
    # those of one rung and one probe at a time
    cfg = lm.parse_config(_short(experiment) + extra)
    rows = EXPERIMENTS[experiment].rows
    batch = rows(cfg, tuple(range(7)))
    assert [triple[0] for triple in batch] == list(range(7))
    for i in range(7):
        want = repr(rows(cfg, (i,))[0])
        assert repr(batch[i]) == want
        if experiment == "example_2d_euler":
            assert repr(_per_rung_triple(cfg, i)) == want
    assert repr(rows(cfg, (5, 2))) == repr([batch[5], batch[2]])


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_check_outcomes_pass_python_bools(experiment):
    # a numpy comparison gives numpy's bool_, which json.dumps refuses
    cfg = lm.parse_config(_short(experiment) +
                          "measure.atoms = 0.2:3.0\nn_paths = 3\n")
    checks = lm.run_experiment(cfg).checks
    assert checks and all(type(c.passed) is bool for c in checks)
    json.dumps([vars(c) for c in checks])


def test_unequal_exponent_counts_fail_backward_pairing(tmp_path, capsys):
    # the grouping tolerance 10 / 1.8 sits just under the gap of 6: path 0
    # resolves two exponents, paths 1 and 2 one each
    text = ("experiment = backward_spectrum\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0, -0.3:1.0\nhorizon = 1.8\ndt = 0.05\n"
            "renorm_step = 0.05\nn_paths = 3\nmaster_seed = 5\n"
            f"output_dir = {tmp_path}/out\n")
    report = lm.run_experiment(lm.parse_config(text))
    assert [len(r["pair_sums"]) for r in report.rows] == [2, 1, 1]
    detail = "paths resolve different exponent counts [1, 2]"
    assert {c.check_id: (c.passed, c.detail) for c in report.checks}[
        "backward_pairing"] == (False, detail)
    assert main(["run", "--config", _write(tmp_path, "b.cfg", text)]) == 1
    assert f"[FAIL] backward_pairing: {detail}\n" in capsys.readouterr().out


def test_flag_distances_at_the_rounding_floor_pass_vacuously():
    # at T = 1200 the fit times start at t = 100, where the flag distance of
    # every path has reached the rounding floor: no slope is fitted
    report = lm.run_experiment(lm.parse_config(
        "experiment = flag_convergence\nmeasure.kind = atoms\n"
        "measure.atoms = 0.2:3.0\nhorizon = 1200\ndt = 0.5\nn_paths = 2\n"))
    assert report.passed and not report.path_errors
    assert report.summary == {"h": 6.0, "n_slopes": 0}
    assert [(c.check_id, c.detail) for c in report.checks] == [
        ("flag_convergence",
         "all distances at the rounding floor; vacuously satisfied")]
    assert report.csv_tables["spectrum.csv"] == \
        "path_index,slope\n0,nan\n1,nan\n"


_ONE_ATOM = "measure.kind = atoms\nmeasure.atoms = 0.2:3.0\n"
_TWO_ATOMS = "measure.kind = atoms\nmeasure.atoms = 0.2:3.0, -0.3:1.0\n"


def _grid_config(experiment, horizon, dt, renorm_step, measure):
    """A config of test_a_parsed_config_runs' grid; renorm_step is set for
    the QR experiments only, which alone read it."""
    step = (f"renorm_step = {renorm_step!r}\n"
            if experiment in ("example_2d_exact", "backward_spectrum") else "")
    return (f"experiment = {experiment}\n{measure}horizon = {horizon!r}\n"
            f"dt = {dt!r}\n{step}n_paths = 3\nthreads = 1\nmaster_seed = 5\n")


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_the_grid_of_parsed_configs_holds_every_experiment(experiment):
    # test_a_parsed_config_runs returns on a parse error, so it runs an
    # experiment only if some config of its grid parses
    lm.parse_config(_grid_config(experiment, 2.0, 0.1, 0.1, _ONE_ATOM))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(EXPERIMENTS)),
       st.sampled_from([1e-320, 0.3, 0.5, 0.99, 1.0, 1.5, 1.79, 1.8, 2.0]),
       st.sampled_from([0.05, 0.1, 1e300]), st.sampled_from([0.05, 0.1]),
       st.sampled_from(["measure.kind = none\n", _ONE_ATOM, _TWO_ATOMS]))
# a grid of no step, on either side
@example("stable_1d", 2.0, 1e300, 0.1, _ONE_ATOM)
@example("flag_convergence", 1e-320, 0.05, 0.1, _ONE_ATOM)
# horizons below integrability_alpha's grid and the cocycle-law probes
@example("example_2d_exact", 0.5, 0.05, 0.05, _ONE_ATOM)
@example("example_2d_euler", 1.0, 0.1, 0.1, _ONE_ATOM)
# paths that resolve different exponent counts
@example("backward_spectrum", 1.8, 0.05, 0.05, _TWO_ATOMS)
def test_a_parsed_config_runs(experiment, horizon, dt, renorm_step, measure):
    # parse_config raises, or the paths of the run do not all fail for one
    # reason, which the config alone would set
    try:
        cfg = lm.parse_config(_grid_config(experiment, horizon, dt,
                                           renorm_step, measure))
    except lm.LevyMetError:
        return
    errors = lm.run_experiment(cfg).path_errors
    types = {err.split(":")[0] for _, err in errors}
    assert len(errors) < cfg.n_paths or len(types) > 1, errors


def test_expm_ladder_fold_equals_per_window_propagate():
    # the example_2d_euler stage with the expm scheme: every rung of every
    # path's ladder, folded in lockstep, is bitwise the propagate(0, T) of
    # an evaluator stepping at that rung's step size
    cfg = lm.parse_config(EULER + "measure.atoms = 0.2:3.0, -0.3:1.0\n")
    system = lm.benchmark_system_2d()
    steps = cfg.dt_int / 2.0 ** np.arange(cfg.halvings + 1)
    ladder_path = experiments._ladder_path(cfg)
    paths = [ladder_path(i)[0].driver_paths for i in range(7)]
    jobs = [(lm.EulerEvaluator(system, p, cfg.dt_int, scheme="expm"),
             np.zeros(steps.size), np.full(steps.size, cfg.horizon), steps)
            for p in paths]
    for p, ladder in zip(paths, lm.cocycle._euler_propagators(jobs)):
        for h, M in zip(steps, ladder):
            rung = lm.EulerEvaluator(system, p, h, scheme="expm")
            assert M.tobytes() == rung.propagate(0.0, cfg.horizon).tobytes()


def test_stage_error_fails_every_built_path():
    def path(index):
        if index == 1:
            raise lm.errors.HorizonError("no path")
        return index

    def build(cfg):
        return path

    def stage(cfg, built):
        raise lm.errors.SingularityError("stage broke")

    rows = experiments._lockstep(build, stage, lambda *args: {})
    assert rows(None, (0, 1, 2)) == [
        (0, None, "SingularityError: stage broke"),
        (1, None, "HorizonError: no path"),
        (2, None, "SingularityError: stage broke")]


def test_euler_failing_rung_quarantines_only_its_path():
    # 1 + u is 1e-13: the exact backend takes the jump, the Euler jump
    # factor is singular (|det| < 1e-12), so a path with a forward jump
    # fails at its first rung and the others keep their rows
    cfg = lm.parse_config(EULER.replace("delta = 0.5", "delta = 1.0") +
                          "measure.atoms = -0.9999999999999:0.2\n")
    batch = EXPERIMENTS["example_2d_euler"].rows(cfg, tuple(range(8)))
    failed = [i for i, row, err in batch if err is not None]
    assert 0 < len(failed) < 8
    for triple in batch:
        assert repr(triple) == repr(_per_rung_triple(cfg, triple[0]))
    assert all(batch[i][2].startswith("SingularityError: jump factor")
               for i in failed)


def test_euler_failing_residual_reports_its_first_probe(monkeypatch):
    # at T = 0.5 some probe (s, t) leaves the horizon.  Parsing refuses
    # horizons below 1.8, so the experiment's check is lifted to reach the
    # quarantine of the rows
    monkeypatch.setitem(EXPERIMENTS, "example_2d_euler",
                        EXPERIMENTS["example_2d_euler"]._replace(
                            check=lambda cfg: None))
    cfg = lm.parse_config(EULER.replace("horizon = 2", "horizon = 0.5") +
                          "measure.atoms = 0.2:3.0\n")
    batch = EXPERIMENTS["example_2d_euler"].rows(cfg, tuple(range(4)))
    assert all(err.startswith("HorizonError") for _, _, err in batch)
    assert [repr(t) for t in batch] == [repr(_per_rung_triple(cfg, i))
                                        for i in range(4)]


class _BreakingPool:
    """Executor that runs tasks in-process, except that the batch holding
    path ``broken`` fails as a crashed worker's future does."""

    broken = 0

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        future = Future()
        if self.broken in task[1]:
            future.set_exception(BrokenProcessPool(
                "A process in the process pool was terminated abruptly"))
        else:
            future.set_result(fn(task))
        return future


def test_worker_crash_quarantines_its_batch(tmp_path, capsys, monkeypatch):
    # 4 paths on 2 processes: the pool runs batch (0, 1), this process
    # runs batch (2, 3)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _BreakingPool)
    text = MINIMAL + ("horizon = 40\ndt = 0.5\nn_paths = 4\nthreads = 2\n"
                      f"output_dir = {tmp_path}/out\n")
    report = lm.run_experiment(lm.parse_config(text))
    crash = ("BrokenProcessPool: A process in the process pool was "
             "terminated abruptly")
    assert report.path_errors == [(0, crash), (1, crash)]
    assert [r["index"] for r in report.rows] == [2, 3]
    assert not report.passed
    assert report.checks[0].check_id == "error_rate"
    assert main(["run", "--config", _write(tmp_path, "w.cfg", text)]) == 1
    assert "[FAIL] error_rate: 2/4 paths errored" in capsys.readouterr().out
    assert f"path 1: {crash}" in (tmp_path / "out" / "report.txt").read_text()
    # the calling process's own batch is quarantined the same way
    task = experiments._path_task

    def own_batch_fails(args):
        if 3 in args[1]:
            raise MemoryError("out of memory")
        return task(args)

    monkeypatch.setattr(experiments, "_path_task", own_batch_fails)
    monkeypatch.setattr(_BreakingPool, "broken", None)
    report = lm.run_experiment(lm.parse_config(text))
    oom = "MemoryError: out of memory"
    assert report.path_errors == [(2, oom), (3, oom)]
    assert [r["index"] for r in report.rows] == [0, 1]
    assert report.checks[0].check_id == "error_rate"


def test_pool_is_no_larger_than_its_batches(monkeypatch):
    sizes = []

    class SizedPool(_BreakingPool):
        """In-process executor that records the pool size asked for."""

        broken = None

        def __init__(self, max_workers):
            sizes.append(max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SizedPool)
    text = DETERMINISTIC + "horizon = 10\ndt = 0.5\nn_paths = {}\nthreads = {}\n"
    for n_paths, threads in ((4, 64), (40, 3), (1, 3)):
        report = lm.run_experiment(lm.parse_config(text.format(n_paths, threads)))
        assert len(report.rows) == n_paths
    # 4 batches of one path on 4 processes, 3 batches of at most 64 on 3:
    # the calling process is one of them, so the pool is one smaller; one
    # batch starts no pool
    assert sizes == [3, 2]


def test_pooled_run_leaves_no_child_process(monkeypatch):
    # threads = 3 on 3 batches: exactly 2 processes are started, and none
    # outlives the run
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(self):
        started.append(self)
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    assert not multiprocessing.active_children()
    report = lm.run_experiment(lm.parse_config(
        DETERMINISTIC + "horizon = 10\ndt = 0.5\nn_paths = 6\nthreads = 3\n"))
    assert len(report.rows) == 6
    assert len(started) == 2
    assert not multiprocessing.active_children()


def _stable_row_two_sided(cfg, index):
    """The stable_1d row computed from a two-sided path on [-T, T] of the
    triplet with the config's drift."""
    triplet = lm.scalar_triplet(drift=cfg.drift, measure=cfg.build_measure(),
                                delta=cfg.delta)
    path = lm.sample_two_sided(triplet, cfg.horizon, cfg.dt, cfg.master_seed,
                               path_index=index, driver=0)
    dd = lm.StochasticExponential1D(path)
    lam = dd.log_value(cfg.horizon) / cfg.horizon
    return {"index": index, "raw": [lam], "logdet_over_T": lam}


STABLE_MEASURES = {
    "power_law": "measure.kind = power_law\nmeasure.alpha = 0.8\n"
                 "measure.c = 0.5\nhorizon = 3\n",
    "atoms": "measure.kind = atoms\nmeasure.atoms = 0.2:3.0\nhorizon = 40\n",
}


@pytest.mark.parametrize("measure", sorted(STABLE_MEASURES))
def test_stable_row_bitwise_equals_two_sided_row(measure):
    cfg = lm.parse_config("experiment = stable_1d\ndrift = 1.3\ndt = 0.5\n"
                          "master_seed = 17\n" + STABLE_MEASURES[measure])
    for index in range(4):
        row = experiments._row_stable_1d(cfg)(index)
        assert repr(row) == repr(_stable_row_two_sided(cfg, index))


def _doleans_row_two_sided(cfg, index):
    """The doleans_1d row computed from the two-sided benchmark paths: the
    exact cocycle of the sampled paths, and the Doléans exponential of
    driver 0's forward leg with the benchmark drift added to its skeleton
    by hand."""
    drivers = lm.benchmark_drivers(cfg.build_measure(), cfg.delta)
    paths = [lm.sample_two_sided(drivers[i], cfg.horizon, cfg.dt,
                                 cfg.master_seed, path_index=index, driver=i)
             for i in range(2)]
    ev = lm.ExactDiagonal2D(paths)
    fwd = paths[0].forward
    dd = lm.StochasticExponential1D(lm.JumpPath(
        fwd.node_times, fwd.cont + 2.0 * fwd.node_times, fwd.jump_times,
        fwd.jump_sizes))
    rng = lm.paths.substream(cfg.master_seed, path_index=index, driver=7,
                             leg=7)
    times = np.sort(rng.uniform(0.0, cfg.horizon, 16)).tolist()
    worst = np.max([abs(dd.log_value(t) - ev.log_growth(t)[0]) for t in times])
    return {"index": index, "max_log_defect": worst}


DOLEANS_MEASURES = {
    "power_law": STABLE_MEASURES["power_law"],
    "atoms": "measure.kind = atoms\nmeasure.atoms = 0.2:3.0, -0.3:1.0\n"
             "horizon = 40\n",
}


@pytest.mark.parametrize("measure", sorted(DOLEANS_MEASURES))
def test_doleans_row_bitwise_equals_two_sided_row(measure):
    # the exponential samples the forward leg of a triplet with drift 2;
    # the exact cocycle reads jump tables
    cfg = lm.parse_config("experiment = doleans_1d\ndt = 0.5\n"
                          "master_seed = 17\n" + DOLEANS_MEASURES[measure])
    for index in range(4):
        row = experiments._row_doleans_1d(cfg)(index)
        assert repr(row) == repr(_doleans_row_two_sided(cfg, index))


@pytest.mark.parametrize("experiment", ["example_2d_exact", "backward_spectrum",
                                        "flag_convergence"])
def test_qr_build_samples_no_continuous_skeleton(monkeypatch, experiment):
    # the closed form reads the drivers' jumps alone, so no leg of its
    # two-sided paths merges its nodes
    def refuse(*args, **kwargs):
        raise AssertionError(f"{experiment} built a continuous skeleton")

    monkeypatch.setattr(lm.paths, "_merge_nodes", refuse)
    text = (f"experiment = {experiment}\nmeasure.kind = atoms\n"
            "measure.atoms = 0.2:3.0\nhorizon = 20\ndt = 0.5\nn_paths = 3\n")
    report = lm.run_experiment(lm.parse_config(text))
    assert not report.path_errors
    assert [r["index"] for r in report.rows] == [0, 1, 2]


def _three_rows(experiment):
    text = (f"experiment = {experiment}\n" + STABLE_MEASURES["atoms"] +
            "n_paths = 3\n")
    report = lm.run_experiment(lm.parse_config(text))
    assert not report.path_errors
    assert [r["index"] for r in report.rows] == [0, 1, 2]


def test_stable_1d_samples_no_backward_leg(monkeypatch):
    # the row reads its forward leg at the leg's last node only, so no path
    # builds a skeleton, and nothing in the row samples or reflects a
    # backward leg
    merges = []

    def merge(*times, _merge=lm.paths._merge_nodes):
        merges.append(len(times))
        return _merge(*times)

    def refuse(*args, **kwargs):
        raise AssertionError("stable_1d sampled a backward leg")

    monkeypatch.setattr(lm.paths, "_merge_nodes", merge)
    monkeypatch.setattr(lm.paths, "sample_backward", refuse)
    monkeypatch.setattr(lm.paths.JumpPath, "_reflection", refuse)
    monkeypatch.setattr(lm.experiments, "sample_two_sided", refuse)
    _three_rows("stable_1d")
    assert merges == []


def test_doleans_1d_builds_one_skeleton_per_path(monkeypatch):
    # the exponential reads its forward leg's skeleton; the exact cocycle
    # reads the jumps of both legs of its two-sided paths and builds none
    merges = []

    def merge(*times, _merge=lm.paths._merge_nodes):
        merges.append(len(times))
        return _merge(*times)

    monkeypatch.setattr(lm.paths, "_merge_nodes", merge)
    _three_rows("doleans_1d")
    assert merges == [2] * 3  # one grid and one jump table a path
