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
are rejected with the key and line number.

Adding a key is adding one field to :class:`ExperimentConfig`: its dotted
name follows the field name (``measure_kind`` -> ``measure.kind``) and its
value converter the field type.  Field metadata holds what the type cannot
say: the atom-list ``parse``/``format`` and the ``measure_kind`` the key
belongs to (a key of another kind is rejected, and ``echo`` prints only the
keys of the configured kind).
"""

import math
from dataclasses import dataclass, field, fields

from .errors import ParseError
from .experiments import EXPERIMENTS
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


@dataclass
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
    drift: float = 0.0                # 1d experiments
    horizon: float = 200.0
    dt: float = 0.1
    dt_int: float = 0.01
    renorm_step: float = 1.0
    n_paths: int = 100
    master_seed: int = 12345
    threads: int = 0                  # 0 -> LEVY_MET_THREADS or serial
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
        if self.n_paths < 1:
            raise ParseError("n_paths must be >= 1")
        for name in ("delta", "horizon", "dt", "dt_int", "renorm_step"):
            if getattr(self, name) <= 0.0:
                raise ParseError(f"{name} must be > 0")
        for name in ("master_seed", "threads"):
            if getattr(self, name) < 0:
                raise ParseError(f"{name} must be >= 0")
        if self.halvings < 1:
            raise ParseError("halvings must be >= 1")
        if not self.output_dir:
            raise ParseError("output_dir must not be empty")
        EXPERIMENTS[self.experiment].check(self)

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
            # measure.* keys of other measure kinds are left out
            kind = f.metadata.get("measure_kind", self.measure_kind)
            if kind == self.measure_kind:
                fmt = f.metadata.get("format", str)
                lines.append(f"{_key(f.name)} = {fmt(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


_FIELDS = {_key(f.name): f for f in fields(ExperimentConfig)}


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
    kind = values.get("measure_kind", "none")
    for key, lineno in seen.items():
        if _FIELDS[key].metadata.get("measure_kind", kind) != kind:
            raise ParseError(f"line {lineno}: key {key!r} is not a key of "
                             f"measure.kind = {kind}")
    return ExperimentConfig(**values)
