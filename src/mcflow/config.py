"""Flat key-value run configuration.

The on-disk format is one `key = value` pair per line; blank lines and
`#` comments are ignored.  Unknown keys, and float values that are not
finite numbers, are an error.  `serialize`
produces a canonical form (fixed key order, shortest round-trip float
representation) so equal configs serialize identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .scenarios import (
    PLANE_AMPLITUDE,
    SCENARIOS,
    SPHERE_CORNER_TEMPER,
    SPHERE_EXTENT,
)


class ConfigError(Exception):
    """Raised for malformed config text or unknown keys."""


@dataclass
class ScenarioConfig:
    """Everything a flow run needs."""

    scenario: str = "perturbed_plane"
    degree: int = 2
    smoothness: int = 1
    elements_per_side: int = 20
    dt: float = 0.0015625
    t_final: float = 0.8
    snapshot_stride: int = 0
    output_dir: str = ""
    perturbation_amplitude: float = PLANE_AMPLITUDE
    patch_polar_extent: float = SPHERE_EXTENT
    patch_corner_temper: float = SPHERE_CORNER_TEMPER

    def scenario_params(self):
        """Keyword parameters of `scenarios.get_scenario` for this run."""
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        keys = SCENARIOS[self.scenario].config_keys
        return {param: getattr(self, key) for param, key in keys.items()}


_FIELDS = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_value(key: str, text: str):
    kind = _FIELDS[key]
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(text)
            return value
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc


def parse_config(text: str) -> ScenarioConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val)
    return ScenarioConfig(**values)


def load_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if f.type == "float":
            value = repr(float(value))
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
