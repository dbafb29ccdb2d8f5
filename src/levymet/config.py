"""Line-oriented experiment configuration.

The format is flat ``key = value`` with dotted keys for nesting and ``#``
comments, e.g.::

    experiment = example_2d_exact
    measure.kind = atoms
    measure.atoms = 0.2:3.0
    delta = 0.5
    horizon = 200
    n_paths = 100
    master_seed = 12345

Unknown keys, duplicate keys, type mismatches, and missing required fields
are rejected with the key and line number.  A built config can run: it
also refuses what would fail every path (``experiments._check_runnable``),
so :func:`parse_config` raises or returns a config ``run_experiment`` runs.

Adding a key is adding one field to :class:`ExperimentConfig`: its dotted
name follows the field name (``measure_kind`` -> ``measure.kind``) and its
value converter the field type.  Field metadata holds what the type cannot
say: the atom-list ``parse``/``format`` and the ``measure_kind`` the key
belongs to; a key read by only some experiments is named in their entries
of ``experiments.EXPERIMENTS``.  A config refuses a key it does not read,
set in its text or to a non-default value, and ``echo`` prints the others.
"""

import math
from dataclasses import dataclass, field, fields

from .errors import ParseError
from .experiments import EXPERIMENTS, _check_runnable
from .measures import LevyMeasure

MEASURE_KINDS = ("none", "atoms", "power_law")


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite value")
    return value


def _parse_atoms(text):
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        loc, _, rate = item.partition(":")
        pairs.append((_parse_float(loc), _parse_float(rate)))
    if not pairs:
        raise ValueError("empty atom list")
    return tuple(pairs)


def _format_atoms(atoms):
    return ", ".join(f"{u}:{r}" for u, r in atoms)


def _key(name):
    """Dotted config key of a field name: measure_kind -> measure.kind."""
    return name.replace("measure_", "measure.", 1)


_POWER_LAW = {"measure_kind": "power_law"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the module docstring for the
    on-disk schema."""

    experiment: str
    measure_kind: str = "none"
    measure_atoms: tuple = field(default=(), metadata={
        "measure_kind": "atoms", "parse": _parse_atoms,
        "format": _format_atoms})
    measure_alpha: float = field(default=1.5, metadata=_POWER_LAW)
    measure_c: float = field(default=1.0, metadata=_POWER_LAW)
    delta: float = 0.5
    drift: float = 0.0
    horizon: float = 200.0
    dt: float = 0.1
    dt_int: float = 0.01
    renorm_step: float = 1.0
    n_paths: int = 100
    master_seed: int = 12345
    threads: int = 1                  # processes a run uses
    output_dir: str = "out"
    halvings: int = 4

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ParseError(f"unknown experiment {self.experiment!r}; "
                             f"choose one of {', '.join(EXPERIMENTS)}")
        if self.measure_kind not in MEASURE_KINDS:
            raise ParseError(f"measure.kind must be one of {MEASURE_KINDS}")
        if self.measure_kind == "atoms" and not self.measure_atoms:
            raise ParseError("measure.kind = atoms requires measure.atoms")
        for f in fields(self):
            why = _refusal(_key(f.name), self.experiment, self.measure_kind)
            if why and getattr(self, f.name) != f.default:
                raise ParseError(why)
        if self.n_paths < 1:
            raise ParseError("n_paths must be >= 1")
        for name in ("delta", "horizon", "dt", "dt_int", "renorm_step"):
            if getattr(self, name) <= 0.0:
                raise ParseError(f"{name} must be > 0")
        if self.master_seed < 0:
            raise ParseError("master_seed must be >= 0")
        for name in ("threads", "halvings"):
            if getattr(self, name) < 1:
                raise ParseError(f"{name} must be >= 1")
        if not self.output_dir:
            raise ParseError("output_dir must not be empty")
        _check_runnable(self)

    def build_measure(self):
        if self.measure_kind == "none":
            return LevyMeasure.empty()
        if self.measure_kind == "atoms":
            return LevyMeasure.from_atoms(self.measure_atoms)
        # cut at delta: stable_1d's target compensates the jumps below it
        return LevyMeasure.power_law(self.measure_alpha, self.measure_c,
                                     self.delta)

    def echo(self):
        """Canonical config text (round-trips through parse_config)."""
        lines = []
        for f in fields(self):
            if not _refusal(_key(f.name), self.experiment, self.measure_kind):
                fmt = f.metadata.get("format", str)
                lines.append(f"{_key(f.name)} = {fmt(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


_FIELDS = {_key(f.name): f for f in fields(ExperimentConfig)}
_CLAIMED = {name for entry in EXPERIMENTS.values() for name in entry.keys}


def _refusal(key, experiment, kind):
    """Why a config of this experiment and measure kind does not read
    ``key``, or None if it does: a measure.* key is read for its own kind
    only, a key of an entry's ``keys`` by the experiments naming it only,
    any other key always."""
    f = _FIELDS[key]
    if f.metadata.get("measure_kind", kind) != kind:
        return f"key {key!r} is not a key of measure.kind = {kind}"
    if f.name in _CLAIMED and f.name not in EXPERIMENTS[experiment].keys:
        return f"key {key!r} is not a key of experiment = {experiment}"
    return None


def parse_config(text):
    """Parse config text into a validated :class:`ExperimentConfig`."""
    values = {}
    seen = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got "
                             f"{rawline.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELDS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"duplicate key {key!r} (lines {seen[key]} and "
                             f"{lineno})")
        seen[key] = lineno
        f = _FIELDS[key]
        parse = f.metadata.get("parse",
                               _parse_float if f.type is float else f.type)
        try:
            values[f.name] = parse(raw)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}")
    if "experiment" not in values:
        raise ParseError("missing required key 'experiment'")
    experiment, kind = values["experiment"], values.get("measure_kind", "none")
    for key, lineno in seen.items():
        # an unknown experiment is refused by the config itself
        why = experiment in EXPERIMENTS and _refusal(key, experiment, kind)
        if why:
            raise ParseError(f"line {lineno}: {why}")
    return ExperimentConfig(**values)
