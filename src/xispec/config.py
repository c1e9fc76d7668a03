"""Run configuration: defaults < config file < explicit flags.

The config file is a flat ``key = value`` text file; ``#`` starts a
comment.  Unknown keys are rejected rather than ignored, so typos fail
fast with a usage error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError

_POSITIVE_FLOAT_KEYS = {"t_max", "tol"}
_POSITIVE_INT_KEYS = {"n_zeros", "m"}
_FLOAT_KEYS = {"perturb"}
_STRING_KEYS = {"format", "out", "cache"}
_ALL_KEYS = _POSITIVE_FLOAT_KEYS | _POSITIVE_INT_KEYS | _FLOAT_KEYS | _STRING_KEYS

_FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    t_max: float = 50.0
    tol: float = 1e-8
    n_zeros: int = 200
    perturb: float = 0.0
    m: int = 1
    format: str = "json"
    out: str | None = None
    cache: str | None = None

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0):
            raise ConfigError(f"t_max must be positive, got {self.t_max!r}")
        if not (self.tol > 0.0):
            raise ConfigError(f"tol must be positive, got {self.tol!r}")
        if self.n_zeros < 1:
            raise ConfigError(f"n_zeros must be positive, got {self.n_zeros!r}")
        if self.m < 1:
            raise ConfigError(f"m must be a positive integer, got {self.m!r}")
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {self.format!r}")


def _coerce(key: str, raw: str):
    try:
        if key in _POSITIVE_FLOAT_KEYS or key in _FLOAT_KEYS:
            return float(raw)
        if key in _POSITIVE_INT_KEYS:
            return int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Flat key = value file -> override dict; unknown keys rejected."""
    overrides: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        overrides[key] = _coerce(key, raw)
    return overrides


def build_config(
    file_path: str | None, flag_overrides: dict
) -> RunConfig:
    """Merge defaults, config file, then explicit flags (None = not given)."""
    merged: dict = {}
    if file_path is not None:
        merged.update(parse_config_file(file_path))
    for key, value in flag_overrides.items():
        if value is not None:
            merged[key] = value
    known = {f.name for f in fields(RunConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)
