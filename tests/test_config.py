import pytest

from xispec.config import (
    M_CEILING,
    T_MAX_CEILING,
    RunConfig,
    build_config,
    parse_config_file,
)
from xispec.errors import ConfigError
from xispec.specfun.xi import EM_MAX_T


def test_defaults():
    cfg = build_config(None, {})
    assert cfg.t_max == 50.0
    assert cfg.tol == 1e-8
    assert cfg.format == "json"


def test_flag_overrides():
    cfg = build_config(None, {"t_max": 30.0, "tol": None})
    assert cfg.t_max == 30.0
    assert cfg.tol == 1e-8


def test_file_then_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t-max = 40\nn-zeros = 300   # product zeros\n\n# comment\n")
    cfg = build_config(str(path), {"t_max": 60.0})
    assert cfg.t_max == 60.0       # flag wins
    assert cfg.n_zeros == 300


def test_threads_key_rejected(tmp_path):
    # The zero scan sizes its pool from the CPU count; there is no knob.
    path = tmp_path / "run.cfg"
    path.write_text("threads = 2\n")
    with pytest.raises(ConfigError, match="threads"):
        parse_config_file(str(path))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_mox = 40\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_unparsable_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_max = soon\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t_max": -1.0},
        {"t_max": 0.0},
        {"tol": 0.0},
        {"n_zeros": 0},
        {"m": 0},
        {"t_max": float("nan")},
        {"format": "xml"},
        {"t_max": float("inf")},
        {"tol": float("inf")},
        {"t_max": 2.0 * T_MAX_CEILING},
        {"perturb": float("nan")},
        {"perturb": float("inf")},
        {"m": M_CEILING + 1},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


def test_t_max_ceiling_accepted():
    assert RunConfig(t_max=T_MAX_CEILING).t_max == T_MAX_CEILING


def test_t_max_ceiling_is_where_every_z_sign_is_certain():
    # Above EM_MAX_T Euler-Maclaurin cannot settle a doubtful Z sign.
    assert T_MAX_CEILING == EM_MAX_T == 5e5


def test_m_ceiling_accepted():
    assert RunConfig(m=M_CEILING).m == M_CEILING


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config_file("/nonexistent/path.cfg")


def test_config_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"t_max = 30\n\xff\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config_file(str(path))
