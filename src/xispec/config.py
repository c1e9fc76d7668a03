"""Run configuration: defaults < config file < explicit flags.

``RunConfig``'s fields are the only list of run options.  Each field's
metadata names the subcommands that read it; ``COMMAND_OPTIONS`` derives
from that each subcommand's flags and config-file keys, ``OPTION_TYPES``
the type each option's text parses to.  ``parse_option`` turns the text of
a flag or of a file value into its type, and ``RunConfig.__post_init__``
validates every value, whichever source gave it.

The config file is a flat ``key = value`` text file; ``#`` starts a
comment.  One rule covers flags and keys: a subcommand accepts only the
options it reads.  A key it does not read is rejected like an unknown one,
so typos and misplaced options fail fast with a usage error.
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

#: The subcommands; each field's metadata names those that read it.
COMMANDS = ("zeros", "audit", "plot")


@dataclass
class RunConfig:
    t_max: float = field(default=50.0, metadata={"commands": COMMANDS, "help": (
        "scan critical-line zeros up to this height (default 50, at most "
        f"{T_MAX_CEILING:g})"
    )})
    tol: float = field(default=1e-8, metadata={"commands": COMMANDS, "help": (
        "bracket width each zero is refined to (default 1e-8)"
    )})
    n_zeros: int = field(default=200, metadata={"commands": ("audit", "plot"), "help": (
        "factors of the Hadamard product and coincidence audits, scanning past "
        "--t-max for them if needed (default 200)"
    )})
    perturb: float = field(default=0.0, metadata={"commands": ("audit",), "help": (
        "shift added to the first coincidence probe (default 0)"
    )})
    m: int = field(default=1, metadata={"commands": ("audit", "plot"), "help": (
        "integer grid scale of the Carlson audit, which samples xi at m, 2m, "
        f"..., 10m (default 1, at most {M_CEILING})"
    )})
    format: str = field(default="json", metadata={"commands": ("audit",), "help": (
        "audit report format: json or csv (default json)"
    )})
    out: str | None = field(default=None, metadata={"commands": COMMANDS, "help": (
        "audit: report directory (default reports); zeros: also write the "
        "table to this CSV file; plot: SVG file (default <target>.svg)"
    )})
    cache: str | None = field(default=None, metadata={"commands": COMMANDS, "help": (
        "zero cache file, read when it covers the run and written after a "
        "scan (default: no cache)"
    )})

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

#: Subcommand -> the options it reads, which are its flags and config keys.
COMMAND_OPTIONS = {
    command: tuple(f.name for f in fields(RunConfig) if command in f.metadata["commands"])
    for command in COMMANDS
}


def parse_config_file(path: str, command: str) -> dict:
    """Flat key = value file -> override dict; keys ``command`` does not read rejected."""
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
        if key not in COMMAND_OPTIONS[command]:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r} for {command}")
        overrides[key] = parse_option(key, raw, f"{path}:{lineno}: config key {key!r}")
    return overrides


def parse_option(key: str, raw: str, source: str):
    """The text of option ``key`` as its type; ``source`` names the text's origin."""
    try:
        return OPTION_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: cannot parse {raw!r}") from exc


def build_config(file_path: str | None, flag_overrides: dict, command: str) -> RunConfig:
    """Merge defaults, config file, then explicit flags (None = not given).

    ``command`` is the subcommand the config is for: the file may set only
    the options it reads (``COMMAND_OPTIONS``).
    """
    merged = parse_config_file(file_path, command) if file_path is not None else {}
    merged.update((k, v) for k, v in flag_overrides.items() if v is not None)
    return RunConfig(**merged)
