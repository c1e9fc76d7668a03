"""Run configuration: defaults < config file < explicit flags.

``RunConfig``'s fields are the only list of run options: ``OPTION_TYPES``
derives from them the CLI's common flags and the config-file keys,
``parse_option`` turns the text of a flag or of a file value into its type,
and ``RunConfig.__post_init__`` validates every value, whichever source gave
it.

The config file is a flat ``key = value`` text file; ``#`` starts a
comment.  Unknown keys are rejected rather than ignored, so typos fail
fast with a usage error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .specfun.xi import EM_MAX_T

_FORMATS = ("json", "csv")

#: Highest t_max a run accepts: the height up to which Euler-Maclaurin
#: settles every Z sign the zero finder is in doubt of, so every zero a run
#: reports lies within its abs_err.
T_MAX_CEILING = EM_MAX_T

#: Highest m a run accepts.  The Carlson audit samples xi at m*1 .. m*10,
#: and xi's Gamma factor overflows double precision at 35*10 = 350.
M_CEILING = 34


@dataclass
class RunConfig:
    t_max: float = 50.0
    tol: float = 1e-8
    n_zeros: int = 200
    perturb: float = 0.0
    m: int = field(default=1, metadata={"help": "integer grid scale"})
    format: str = "json"
    out: str | None = None
    cache: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.t_max <= T_MAX_CEILING):
            raise ConfigError(
                f"t_max must be positive and at most {T_MAX_CEILING:g}, "
                f"got {self.t_max!r}"
            )
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol must be positive and finite, got {self.tol!r}")
        if self.n_zeros < 1:
            raise ConfigError(f"n_zeros must be positive, got {self.n_zeros!r}")
        if not math.isfinite(self.perturb):
            raise ConfigError(f"perturb must be finite, got {self.perturb!r}")
        if not (1 <= self.m <= M_CEILING):
            raise ConfigError(
                f"m must be an integer from 1 to {M_CEILING}, got {self.m!r}"
            )
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {self.format!r}")


#: Option name -> the type its text parses to: the type of the field's
#: default, or str for the paths whose default is None.
OPTION_TYPES = {
    f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)
}


def parse_config_file(path: str) -> dict:
    """Flat key = value file -> override dict; unknown keys rejected."""
    overrides: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTION_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        overrides[key] = parse_option(key, raw, f"{path}:{lineno}: config key {key!r}")
    return overrides


def parse_option(key: str, raw: str, source: str):
    """The text of option ``key`` as its type; ``source`` names the text's origin."""
    try:
        return OPTION_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: cannot parse {raw!r}") from exc


def build_config(file_path: str | None, flag_overrides: dict) -> RunConfig:
    """Merge defaults, config file, then explicit flags (None = not given)."""
    merged = parse_config_file(file_path) if file_path is not None else {}
    merged.update((k, v) for k, v in flag_overrides.items() if v is not None)
    return RunConfig(**merged)
