import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import xispec
from xispec import carlson, cli
from xispec.config import RunConfig, parse_config_file
from xispec.errors import NonConvergenceError
from xispec.report import get_report_schema
from xispec.specfun import xi_critical
from xispec.zeros import CACHE_VERSION, cache_checksum


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NO_COLOR", "1")
    return tmp_path


def run(args):
    return cli.main(args)


def test_zeros_rows(capsys):
    assert run(["zeros", "--t-max", "30", "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    first = out[0].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(14.134725141734693, abs=1e-6)
    assert float(first[2]) <= 1e-8


def test_zeros_cache_reuse_is_identical(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    first = capsys.readouterr().out
    assert os.path.exists("zeros.csv")
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_zeros_run_does_not_import_mpmath():
    # mpmath is the tests' oracle only; a Riemann-Siegel scan must not need it.
    src = str(Path(xispec.__file__).resolve().parents[1])
    code = (
        "import xispec.cli, sys; xispec.cli.main(['zeros', '--t-max', '300']); "
        "assert 'mpmath' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 138


def test_zeros_bad_flag_exit_code():
    assert run(["zeros", "--t-max", "-1"]) == 2


@pytest.mark.parametrize("flag", ["--t-max", "--tol"])
def test_zeros_infinite_value_is_a_usage_error(capsys, flag):
    assert run(["zeros", flag, "inf"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("xispec: usage error:")


def test_cache_corruption_exit_code(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    raw = Path("zeros.csv").read_bytes().replace(b"14.13", b"14.15", 1)
    Path("zeros.csv").write_bytes(raw)
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 3


def _reseal(header: str, data: bytes) -> bytes:
    """The header line with its checksum recomputed for ``data``."""
    head = header.rsplit(" checksum=", 1)[0]
    return f"{head} checksum={cache_checksum(head, data):016x}\n".encode()


@pytest.mark.parametrize(
    "edit,args",
    [
        (("tmax=100.0", "tmax=900.0"), ["--t-max", "900"]),
        (("tol=1e-08", "tol=1e-06"), ["--t-max", "100", "--tol", "1e-6"]),
    ],
    ids=["tmax", "tol"],
)
def test_cache_header_edit_exit_code(capsys, edit, args):
    # The edited header claims a run the cache would serve; it must not.
    assert run(["zeros", "--t-max", "100", "--cache", "zeros.csv"]) == 0
    raw = Path("zeros.csv").read_text()
    assert raw.count(edit[0]) == 1
    Path("zeros.csv").write_text(raw.replace(*edit))
    capsys.readouterr()
    assert run(["zeros", *args, "--cache", "zeros.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "xispec: cache corruption: cache zeros.csv: checksum mismatch"
    ]


def test_cache_of_another_version_is_rescanned(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    first = capsys.readouterr().out
    current = Path("zeros.csv").read_bytes()
    header, data = current.decode().split("\n", 1)
    old = header.split(" checksum=")[0].replace(f" {CACHE_VERSION} ", " v1 ")
    assert " v1 " in old
    Path("zeros.csv").write_text(f"{old} checksum={cache_checksum(old, data.encode()):016x}\n{data}")
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    assert capsys.readouterr().out == first
    assert Path("zeros.csv").read_bytes() == current


def test_cache_rows_out_of_order_exit_code(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    header, first, second, *rest = Path("zeros.csv").read_text().splitlines()
    data = "".join(row + "\n" for row in [second, first, *rest]).encode()
    Path("zeros.csv").write_bytes(_reseal(header, data) + data)
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 3


def test_cache_rows_not_utf8_exit_code(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    header, data = Path("zeros.csv").read_bytes().split(b"\n", 1)
    data = data.replace(b"14.13", b"14.1\xff", 1)
    Path("zeros.csv").write_bytes(_reseal(header.decode(), data) + data)
    capsys.readouterr()
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "cache corruption" in err[0] and "not UTF-8" in err[0]


def test_audit_eq5_report(capsys):
    assert run(["audit", "eq5", "--out", "reports"]) == 0
    payload = json.loads(Path("reports/audit_eq5.json").read_text())
    jsonschema.validate(payload, get_report_schema())
    assert payload["verdict"] == "CONSISTENT_UP_TO_CONSTANT"
    assert payload["params"]["claimed_coefficient"] == 0.125
    assert payload["params"]["standard_coefficient"] == 0.5
    assert payload["params"]["implied_coefficient"] == pytest.approx(0.5, rel=1e-8)
    out = capsys.readouterr().out
    assert "CONSISTENT_UP_TO_CONSTANT" in out
    assert "\x1b[" not in out  # NO_COLOR honored


def test_audit_coincidence_perturbed_fails(capsys):
    code = run(
        [
            "audit", "coincidence", "--perturb", "0.01",
            "--n-zeros", "50", "--out", "reports",
        ]
    )
    assert code == 1
    payload = json.loads(Path("reports/audit_coincidence.json").read_text())
    assert payload["verdict"] == "DISTINCT"
    assert payload["params"]["perturb"] == 0.01


@pytest.mark.parametrize("perturb", ["1e5", "1e300"])
def test_audit_coincidence_far_probe_fails(capsys, perturb):
    # A probe so far off that the 800-factor product overflows is DISTINCT
    # (exit 1), not INCONCLUSIVE with a NaN residual and numpy warnings,
    # and not an OverflowError traceback.
    args = ["audit", "coincidence", "--t-max", "30", "--n-zeros", "800",
            f"--perturb={perturb}", "--out", "reports"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("zero-coincidence: DISTINCT [residual inf")
    payload = json.loads(Path("reports/audit_coincidence.json").read_text())
    assert payload["verdict"] == "DISTINCT"
    assert payload["measured"][0] == "inf"


def test_audit_coincidence_probes_only_kept_factors():
    # With fewer factors than probes, a probe beyond the product's zeros
    # must not read as a foreign zero.
    assert run(["audit", "coincidence", "--n-zeros", "4", "--out", "reports"]) == 0
    payload = json.loads(Path("reports/audit_coincidence.json").read_text())
    assert payload["verdict"] == "COINCIDE"
    assert payload["params"]["probe_count"] == 4
    assert all(payload["params"]["probe_is_member"])


def test_audit_all_aggregate_and_determinism():
    args = ["audit", "all", "--t-max", "40", "--n-zeros", "50", "--cache", "zeros_all.csv"]
    assert run(args + ["--out", "r1"]) == 0
    assert run(args + ["--out", "r2"]) == 0
    names = sorted(os.listdir("r1"))
    assert "audit_all.json" in names
    for name in names:
        assert Path("r1", name).read_bytes() == Path("r2", name).read_bytes()
    aggregate = json.loads(Path("r1/audit_all.json").read_text())
    assert len(aggregate["audits"]) == 5
    for entry in aggregate["audits"]:
        jsonschema.validate(entry, get_report_schema())
    assert aggregate["metadata"]["tool"] == "xispec"
    assert "em_order_cap" in aggregate["metadata"]
    # 50 zeros need t = 149.7, below the Riemann-Siegel crossover.
    assert aggregate["metadata"]["z_method_at_scan_top"] == "euler-maclaurin"


def test_count_driven_cache_is_reused(monkeypatch):
    args = ["audit", "all", "--t-max", "40", "--n-zeros", "50", "--cache", "C"]
    assert run(args + ["--out", "r1"]) == 0
    # 50 zeros need t = 149.6953125, which the header must keep exactly.
    assert " tmax=149.6953125 " in Path("C").read_text().splitlines()[0]

    def no_scan(*args, **kwargs):
        raise AssertionError("the cache covers this run; no scan is needed")

    monkeypatch.setattr(cli, "scan_zeros", no_scan)
    assert run(args + ["--out", "r2"]) == 0
    names = sorted(os.listdir("r1"))
    assert names == sorted(os.listdir("r2"))
    for name in names:
        assert Path("r1", name).read_bytes() == Path("r2", name).read_bytes()


def test_audit_all_scans_once(monkeypatch):
    calls = []
    scan = cli.scan_zeros

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_zeros", counted)
    assert run(["audit", "all", "--t-max", "40", "--n-zeros", "50", "--out", "r"]) == 0
    assert len(calls) == 1


def test_audit_all_fits_eq9_once(monkeypatch):
    # The eq9 and Carlson audits share one fit of 51 xi samples; the rest is
    # the Hadamard targets (21) and the Carlson growth grids and integers
    # (2 x 16 + 10).
    calls = []
    for module in (cli, carlson):
        def counted(s, xi=module.xi):
            calls.append(s)
            return xi(s)

        monkeypatch.setattr(module, "xi", counted)
    assert run(["audit", "all", "--t-max", "40", "--n-zeros", "50", "--out", "r"]) == 0
    assert len(calls) == 51 + 21 + 2 * 16 + 10


def test_threads_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run(["zeros", "--t-max", "30", "--threads", "2"])
    assert excinfo.value.code == 2


def test_plot_remaining_targets():
    assert run(["plot", "eq5-ratio", "--out", "ratio.svg"]) == 0
    assert os.path.exists("ratio.svg")
    assert run(["plot", "residuals", "--out", "res.svg"]) == 0
    assert os.path.exists("res.svg")


def test_audit_csv_format():
    assert run(
        ["audit", "eq5", "--format", "csv", "--out", "reports_csv"]
    ) == 0
    rows = Path("reports_csv/audit_eq5.csv").read_text().strip().splitlines()
    assert rows[0].startswith("order_kind,order_magnitude")
    assert len(rows) == 13


def test_audit_all_csv_aggregate():
    assert run(
        [
            "audit", "all", "--format", "csv", "--t-max", "40",
            "--n-zeros", "50", "--cache", "zeros_csv.csv", "--out", "allcsv",
        ]
    ) == 0
    rows = Path("allcsv/audit_all.csv").read_text().strip().splitlines()
    assert rows[0].startswith("name,verdict")
    assert len(rows) == 6
    assert sorted(os.listdir("allcsv")) == [
        "audit_all.csv",
        "audit_carlson.csv",
        "audit_coincidence.csv",
        "audit_eq5.csv",
        "audit_eq9.csv",
        "audit_hadamard.csv",
    ]


def test_cache_mismatch_recomputes(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zc.csv", "--tol", "1e-6"]) == 0
    capsys.readouterr()
    # different tolerance: the cache must be ignored and rewritten
    assert run(["zeros", "--t-max", "30", "--cache", "zc.csv", "--tol", "1e-8"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    header = Path("zc.csv").read_text().splitlines()[0]
    assert "tol=1e-08" in header


def test_audit_exit_4_on_numerical_failure(monkeypatch):
    def boom(cfg):
        raise NonConvergenceError("synthetic")

    monkeypatch.setitem(cli._AUDIT_RUNNERS, "eq9", boom)
    assert run(["audit", "eq9", "--out", "reports"]) == 4


def test_plot_xi_critical_crosses_zero_three_times():
    assert run(["plot", "xi-critical", "--t", "0:30", "--out", "xi.svg"]) == 0
    svg = Path("xi.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg
    # the plotted data: recompute on the same grid and count sign changes
    ts = np.linspace(0.0, 30.0, 601)
    values = [xi_critical(float(t)) for t in ts]
    signs = np.sign(values)
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    assert crossings == 3
    assert run(["plot", "xi-critical", "--t", "0:30", "--out", "xi2.svg"]) == 0
    assert Path("xi.svg").read_bytes() == Path("xi2.svg").read_bytes()


def test_plot_empty_range_exit_code():
    assert run(["plot", "xi-critical", "--t", "5:5", "--out", "bad.svg"]) == 2
    assert run(["plot", "xi-critical", "--t", "oops", "--out", "bad.svg"]) == 2


def test_plot_product_convergence_is_non_increasing():
    assert run(
        [
            "plot", "product-convergence", "--n-zeros", "50",
            "--cache", "zeros_pc.csv", "--out", "pc.svg",
        ]
    ) == 0
    assert os.path.exists("pc.svg")


def test_report_command(capsys):
    assert run(["audit", "eq5", "--out", "reports"]) == 0
    capsys.readouterr()
    assert run(["report", "--out", "reports"]) == 0
    out = capsys.readouterr().out
    assert "norm-integral-ratio" in out
    # explicit path form
    assert run(["report", "reports/audit_eq5.json"]) == 0
    assert "norm-integral-ratio" in capsys.readouterr().out


def test_report_lists_each_audit_once(capsys):
    args = ["audit", "all", "--t-max", "40", "--n-zeros", "50", "--out", "reports"]
    assert run(args) == 0
    capsys.readouterr()
    assert run(["report", "--out", "reports"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert len({line.split(": ")[1] for line in lines}) == 5


def test_report_command_flags_failures(capsys):
    assert (
        run(
            [
                "audit", "coincidence", "--perturb", "0.01",
                "--n-zeros", "50", "--out", "rfail",
            ]
        )
        == 1
    )
    capsys.readouterr()
    assert run(["report", "--out", "rfail"]) == 1


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"name": "x"}'],
    ids=["missing", "not-json", "missing-keys"],
)
def test_report_bad_file_is_a_usage_error(capsys, content):
    if content is not None:
        with open("bad.json", "w") as handle:
            handle.write(content)
    assert run(["report", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("xispec: usage error: bad.json: ")
    assert err.count("\n") == 1


def test_config_file_flow(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max = 30\ntol = 1e-8\n")
    assert run(["zeros", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_config_unknown_key_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("speed = 11\n")
    assert run(["zeros", "--config", str(cfg)]) == 2


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"t-max = 30\n\xff\n")
    assert run(["zeros", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"xispec: usage error: cannot read config file {cfg}: ")
    assert err.count("\n") == 1


def test_zeros_out_file(capsys):
    assert run(["zeros", "--t-max", "30", "--out", "table.csv"]) == 0
    rows = Path("table.csv").read_text().strip().splitlines()
    assert rows[0] == "n,gamma,abs_err"
    assert len(rows) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "coincidence", "--perturb", "nan"],
        ["audit", "coincidence", "--perturb", "inf"],
        ["audit", "carlson", "--m", "35"],
        ["audit", "carlson", "--m", "10000"],
        ["audit", "eq9", "--format", "xml"],
        ["audit", "carlson", "--t-max", "soon"],
        ["audit", "hadamard", "--n-zeros", "3"],
        ["audit", "all", "--n-zeros", "30"],
        ["plot", "product-convergence", "--n-zeros", "20"],
        ["plot", "xi-critical", "--t", "0:inf"],
    ],
)
def test_bad_option_value_is_one_usage_line(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("xispec: usage error:")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["zeros", "--t-max", "30", "--out", "taken_dir"], "taken_dir"),
        (["audit", "eq9", "--out", "taken_file"], "taken_file"),
        (["zeros", "--t-max", "30", "--cache", "missing_dir/z.csv"], "missing_dir/z.csv"),
        (["plot", "xi-critical", "--out", "missing_dir/x.svg"], "missing_dir/x.svg"),
    ],
    ids=["zeros-out-dir", "audit-out-file", "cache-missing-dir", "plot-missing-dir"],
)
def test_unusable_output_path_is_one_usage_line(capsys, argv, path):
    os.mkdir("taken_dir")
    Path("taken_file").write_text("")
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"'{path}'" in err[0]
    assert err[0].startswith("xispec: cannot write output:")
    assert not [name for name in os.listdir(".") if name.endswith(".tmp")]


_SAMPLE_TEXT = {float: "2.5", int: "3", str: "json"}


#: The RunConfig options each subcommand reads: its flags and config keys.
_COMMAND_FLAGS = {
    "zeros": {"t_max", "tol", "out", "cache"},
    "audit": {"t_max", "tol", "n_zeros", "perturb", "m", "format", "out", "cache"},
    "plot": {"t_max", "tol", "n_zeros", "m", "out", "cache"},
}


@pytest.mark.parametrize(
    "argv, own",
    [(["zeros"], set()), (["audit", "eq5"], {"which"}), (["plot", "residuals"], {"target", "t"})],
    ids=["zeros", "audit", "plot"],
)
def test_common_flags_are_the_run_config_fields(argv, own):
    parser = cli.build_parser()
    flags = set(vars(parser.parse_args(argv))) - own - {"command", "func", "config"}
    assert flags == _COMMAND_FLAGS[argv[0]]
    for f in fields(RunConfig):
        kind = str if f.default is None else type(f.default)
        flag = "--" + f.name.replace("_", "-")
        if f.name not in flags:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([*argv, flag, _SAMPLE_TEXT[kind]])
            assert excinfo.value.code == 2
            continue
        cfg = cli._config_from_args(parser.parse_args([*argv, flag, _SAMPLE_TEXT[kind]]))
        value = getattr(cfg, f.name)
        assert type(value) is kind and value == kind(_SAMPLE_TEXT[kind])


@pytest.mark.parametrize("command", ["zeros", "audit", "plot"])
def test_every_common_flag_has_help(command):
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in subcommands.choices[command]._actions}
    for name in sorted(_COMMAND_FLAGS[command]) + ["config"]:
        assert helps[name], name


@pytest.mark.parametrize(
    "argv, option",
    [
        (["zeros", "--t-max", "30"], "perturb"),
        (["zeros", "--t-max", "30"], "format"),
        (["zeros", "--t-max", "30"], "n_zeros"),
        (["zeros", "--t-max", "30"], "m"),
        (["plot", "xi-critical"], "perturb"),
        (["plot", "xi-critical"], "format"),
    ],
)
def test_config_key_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv, option):
    # Like the flag (test_common_flags_are_the_run_config_fields), the key
    # is rejected as unknown to the command: exit 2, one line, no output.
    path = tmp_path / "run.cfg"
    path.write_text(f"{option} = 3\n")
    assert run([*argv, "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"xispec: usage error: {path}:1: unknown config key {option!r} for {argv[0]}\n"
    )
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_unparsable_value_names_its_source(tmp_path, capsys):
    assert run(["audit", "carlson", "--m", "abc"]) == 2
    assert capsys.readouterr().err == "xispec: usage error: --m: cannot parse 'abc'\n"
    path = tmp_path / "run.cfg"
    path.write_text("# scale\nm = abc\n")
    assert run(["audit", "carlson", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"xispec: usage error: {path}:2: config key 'm': cannot parse 'abc'\n"
    )


def test_zeros_out_is_opened_before_the_scan(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before opening --out")

    monkeypatch.setattr(cli, "scan_zeros", no_scan)
    os.mkdir("taken_dir")
    assert run(["zeros", "--t-max", "30", "--out", "taken_dir"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("xispec: cannot write output:")


def test_warning_is_one_line(capsys):
    # Zeros 922 and 923 share one scan cell, so the fine rescan warns.
    assert run(["zeros", "--t-max", "1331"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 924
    warned, summary = captured.err.splitlines()
    assert warned == (
        "xispec: warning: StepResolutionWarning: scan step 0.25 under-resolved "
        "(1327.750, 1330.250): 2 sign change(s) in the fine rescan"
    )
    assert summary.startswith("# 924 zeros <= 1331 ")


def test_config_keys_are_the_run_config_fields(tmp_path):
    path = tmp_path / "run.cfg"
    kinds = {f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)}
    path.write_text("".join(f"{name} = {_SAMPLE_TEXT[kind]}\n" for name, kind in kinds.items()))
    parsed = parse_config_file(str(path), "audit")
    assert parsed == {name: kind(_SAMPLE_TEXT[kind]) for name, kind in kinds.items()}
    assert {name: type(value) for name, value in parsed.items()} == kinds
