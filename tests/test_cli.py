import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from xispec import cli
from xispec.errors import NonConvergenceError
from xispec.report import get_report_schema
from xispec.specfun import xi_critical
from xispec.zeros import fnv1a64


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


def test_cache_rows_out_of_order_exit_code(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    header, first, second, *rest = Path("zeros.csv").read_text().splitlines()
    data = "".join(row + "\n" for row in [second, first, *rest]).encode()
    header = header.rsplit("=", 1)[0] + f"={fnv1a64(data):016x}\n"
    Path("zeros.csv").write_bytes(header.encode() + data)
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 3


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


def test_zeros_out_file(capsys):
    assert run(["zeros", "--t-max", "30", "--out", "table.csv"]) == 0
    rows = Path("table.csv").read_text().strip().splitlines()
    assert rows[0] == "n,gamma,abs_err"
    assert len(rows) == 4
