import argparse
import bisect
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import hardy_z_without_zeros_2_and_3, report_schema

import xispec
from xispec import carlson, cli, config, svgplot
from xispec import zeros as zeros_module
from xispec.config import RunConfig, parse_config_file
from xispec.errors import NonConvergenceError
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


def test_zeros_stdout_is_the_rows_one_per_line(capsys):
    from xispec.zeros import scan_zeros

    assert run(["zeros", "--t-max", "60", "--tol", "1e-8"]) == 0
    rows = cli.format_rows(scan_zeros(60.0, 1e-8))
    assert capsys.readouterr().out == "".join(row + "\n" for row in rows)


def test_zeros_cache_reuse_is_identical(capsys):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    first = capsys.readouterr().out
    assert os.path.exists("zeros.csv")
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("t_max", ["25.05", "30.3749"])
def test_zeros_at_t_max_cold_and_from_a_higher_cache(capsys, monkeypatch, t_max):
    # gamma_3 = 25.0109 and gamma_4 = 30.4249: three zeros in both cases, at
    # tol 0.5 too, where zero 3 of a scan to 40 has its bracket midpoint at
    # 25.096 and zero 4 at 30.307.  A cache to 40 lists what a cold scan does.
    assert run(["zeros", "--t-max", t_max, "--tol", "0.5"]) == 0
    cold = [row.split(",")[0] for row in capsys.readouterr().out.splitlines()]
    assert cold == ["1", "2", "3"]
    assert run(["zeros", "--t-max", "40", "--tol", "0.5", "--cache", "zeros.csv"]) == 0
    capsys.readouterr()

    def no_scan(*args, **kwargs):
        raise AssertionError("the cache covers this run; no scan is needed")

    monkeypatch.setattr(cli, "scan_zeros", no_scan)
    assert run(["zeros", "--t-max", t_max, "--tol", "0.5", "--cache", "zeros.csv"]) == 0
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()] == cold


def test_zeros_run_does_not_import_mpmath(tmp_path):
    # mpmath is the tests' oracle only; a Riemann-Siegel scan must not need
    # it.  Nor may a zeros run, an audit run or a coupling spectrum load the
    # modules the package avoids on purpose: hashlib (OpenSSL's RSS; zeros
    # takes _blake2), numpy.ma (np.unique), fractions and decimal.
    src = str(Path(xispec.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, sys, xispec.cli\n"
        "from xispec.coupling import coupling_spectrum\n"
        "from xispec.zeros import scan_zeros\n"
        "xispec.cli.main(['zeros', '--t-max', '300'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = xispec.cli.main(['audit', 'all', '--t-max', '30', '--n-zeros', '50',\n"
        f"                            '--out', {str(tmp_path / 'reports')!r}])\n"
        "assert code == 0, code\n"
        "coupling_spectrum(scan_zeros(30.0, 1e-8))\n"
        "loaded = {'mpmath', 'hashlib', 'numpy.ma', 'fractions', 'decimal'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
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


def test_cache_longer_than_bound_exit_code(capsys, monkeypatch):
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 0
    size = Path("zeros.csv").stat().st_size
    monkeypatch.setattr(zeros_module, "_CACHE_MAX_BYTES", size - 1)
    capsys.readouterr()
    assert run(["zeros", "--t-max", "30", "--cache", "zeros.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"xispec: cache corruption: cache zeros.csv: longer than {size - 1} bytes"
    ]


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
    jsonschema.validate(payload, report_schema())
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


@pytest.mark.parametrize("perturb", ["1e5", "1e300", "-20"])
def test_audit_coincidence_far_probe_fails(capsys, monkeypatch, perturb):
    # A far probe within Z's range is judged by Z there: DISTINCT, exit 1.
    # One outside (0, EM_MAX_T] is a one-line error, exit 2, and Z is never
    # evaluated there (at 1e300 its main sum would need about 4e149 terms).
    from xispec import hadamard

    z = hadamard.hardy_z
    heights = []
    monkeypatch.setattr(hadamard, "hardy_z", lambda t: heights.append(t) or z(t))
    args = ["audit", "coincidence", "--t-max", "30", "--n-zeros", "800",
            f"--perturb={perturb}", "--out", "reports"]
    code = run(args)
    captured = capsys.readouterr()
    if perturb == "1e5":
        assert code == 1
        assert heights[0][0] == pytest.approx(1e5 + 14.134725141734693)
        assert captured.err == ""
        assert captured.out.startswith("zero-coincidence: DISTINCT [residual ")
        payload = json.loads(Path("reports/audit_coincidence.json").read_text())
        assert payload["verdict"] == "DISTINCT"
        assert payload["params"]["probe_verdicts"][0] == "DISTINCT"
        assert 0.0 < payload["measured"][0] < 10.0
    else:
        assert code == 2
        assert heights == []
        assert captured.out == ""
        assert captured.err.startswith("xispec: error: coincidence probe ")
        assert captured.err.count("\n") == 1
        assert not Path("reports/audit_coincidence.json").exists()


def test_audit_coincidence_probes_only_kept_factors():
    # With fewer zeros asked for than probes, only those zeros are probed.
    assert run(["audit", "coincidence", "--n-zeros", "4", "--out", "reports"]) == 0
    payload = json.loads(Path("reports/audit_coincidence.json").read_text())
    assert payload["verdict"] == "COINCIDE"
    assert payload["params"]["probe_count"] == 4
    assert payload["params"]["probe_verdicts"] == ["COINCIDE"] * 4


def test_audit_coincidence_csv_rows():
    args = ["audit", "coincidence", "--tol", "1e-8", "--format", "csv", "--out", "reports"]
    assert run(args) == 0
    rows = Path("reports/audit_coincidence.csv").read_text().splitlines()
    assert rows[0] == "probe,abs_z,verdict"
    assert len(rows) == 6
    assert all(row.endswith(",COINCIDE") for row in rows[1:])
    assert float(rows[1].split(",")[0]) == pytest.approx(14.134725141734693, abs=1e-8)


def test_audit_hadamard_passes_at_a_coarse_tol(capsys):
    # The listed ordinates are off by up to 0.05 at tol 0.1; the bound
    # covers that, so the true list does not FAIL (it did, residual 2.13).
    args = ["audit", "hadamard", "--n-zeros", "800", "--t-max", "50", "--tol", "0.1",
            "--out", "reports"]
    assert run(args) == 0
    payload = json.loads(Path("reports/audit_hadamard.json").read_text())
    assert payload["verdict"] == "PASS"
    assert payload["ratio_or_residual"] <= 1.0


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
        jsonschema.validate(entry, report_schema())
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


def test_riemann_siegel_metadata_cold_and_warm(monkeypatch):
    # 800 zeros need t = 1188, above RS_MIN_T: 13 main-sum terms.  A warm
    # run evaluates no Z at that height, yet writes the same metadata.
    args = ["audit", "all", "--t-max", "50", "--n-zeros", "800", "--cache", "C"]
    assert run(args + ["--out", "r1"]) == 0

    def no_scan(*args, **kwargs):
        raise AssertionError("the cache covers this run; no scan is needed")

    monkeypatch.setattr(cli, "scan_zeros", no_scan)
    assert run(args + ["--out", "r2"]) == 0
    cold, warm = (Path(d, "audit_all.json").read_bytes() for d in ("r1", "r2"))
    assert cold == warm
    metadata = json.loads(cold)["metadata"]
    assert metadata["z_method_at_scan_top"] == "riemann-siegel"
    assert metadata["z_terms_at_scan_top"] == 13


def test_audit_all_scans_once(monkeypatch):
    calls = []
    scan = cli.scan_zeros

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_zeros", counted)
    assert run(["audit", "all", "--t-max", "40", "--n-zeros", "50", "--out", "r"]) == 0
    assert len(calls) == 1


def test_audit_all_builds_one_product(monkeypatch):
    # The Hadamard and coincidence audits share the product of the run's zeros.
    built = []
    spec = cli.ProductSpec

    def counted(*args, **kwargs):
        built.append(args or kwargs)
        return spec(*args, **kwargs)

    monkeypatch.setattr(cli, "ProductSpec", counted)
    assert run(["audit", "all", "--t-max", "40", "--n-zeros", "50", "--out", "r"]) == 0
    assert len(built) == 1


def test_scan_height_holds_the_zeros_it_is_raised_for(zeros_for_products):
    # A scan to _t_for_zero_count(n) finds at least n zeros for every n an
    # audit can ask for (n_zeros capped at the largest truncation, 800), so
    # a run never needs a second, higher scan.
    gammas = [z.gamma for z in zeros_for_products]
    assert max(cli.HADAMARD_TRUNCATIONS) == 800
    assert cli._t_for_zero_count(800) <= gammas[-1]
    for n in range(1, 801):
        assert bisect.bisect_right(gammas, cli._t_for_zero_count(n)) >= n, n


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


@pytest.mark.parametrize(
    "argv", [["zeros", "--t-max", "30", "--perturb", "3"], ["audit", "bogus"]]
)
def test_argparse_error_is_one_usage_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("xispec: usage error: ")


def test_plot_remaining_targets():
    assert run(["plot", "eq5-ratio", "--out", "ratio.svg"]) == 0
    assert os.path.exists("ratio.svg")
    assert run(["plot", "residuals", "--out", "res.svg"]) == 0
    assert os.path.exists("res.svg")


def test_flat_series_gets_few_y_ticks_inside_the_box():
    # Values that agree to 6e-14, like the eq5 ratios: the y span is floored
    # at five of the 6-significant-digit labels' last digit, so a few ticks,
    # each inside the plot box and with its own label.
    ys = [4.0 + 3e-14 * (-1) ** i for i in range(12)]
    svg = svgplot.render_line_plot([float(i) for i in range(12)], ys, "t", "x", "y")
    tick = rf'<line x1="{svgplot._MARGIN_L - 5}" y1="([-0-9.]+)"[^\n]*\n<text[^>]*>([^<]*)</text>'
    ticks = re.findall(tick, svg)
    box = (svgplot._MARGIN_T, svgplot._HEIGHT - svgplot._MARGIN_B)
    assert 2 <= len(ticks) <= 10
    assert all(box[0] <= float(y) <= box[1] for y, _ in ticks)
    assert len({label for _, label in ticks}) == len(ticks)


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


def _verdicts(out_dir: str) -> list[str]:
    audits = json.loads(Path(out_dir, "audit_all.json").read_text())["audits"]
    return [a["verdict"] for a in audits]


def _cache_tol(path: str) -> str:
    """The tol field of a cache file's header."""
    header = Path(path).read_text().splitlines()[0]
    return next(field for field in header.split() if field.startswith("tol="))


def test_audit_default_tol_keeps_the_verdicts_of_1e_8():
    # audit and plot scan at 1e-6 unless told otherwise; no verdict moves.
    args = ["audit", "all", "--t-max", "50", "--n-zeros", "800"]
    assert run(args + ["--cache", "fine.csv", "--tol", "1e-8", "--out", "fine"]) == 0
    assert run(args + ["--cache", "coarse.csv", "--out", "coarse"]) == 0
    assert _verdicts("coarse") == _verdicts("fine") == [
        "CONSISTENT_UP_TO_CONSTANT", "NOT_APPLICABLE", "PASS", "COINCIDE", "INCONCLUSIVE",
    ]
    metadata = json.loads(Path("coarse/audit_all.json").read_text())["metadata"]
    assert metadata["config"]["tol"] == 1e-06
    assert _cache_tol("coarse.csv") == "tol=1e-06"
    assert _cache_tol("fine.csv") == "tol=1e-08"


def test_audit_config_file_tol_wins_over_the_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-8\n")
    args = ["audit", "all", "--t-max", "40", "--n-zeros", "50", "--cache", "C"]
    assert run(args + ["--config", str(cfg), "--out", "r"]) == 0
    metadata = json.loads(Path("r/audit_all.json").read_text())["metadata"]
    assert metadata["config"]["tol"] == 1e-08
    assert _cache_tol("C") == "tol=1e-08"


def test_zeros_and_audit_share_a_cache_file(capsys, monkeypatch):
    # The cache is keyed by tol: zeros (1e-8) and audit (1e-6) each miss the
    # other's cache, rescan and rewrite it, and the audit writes a cold
    # audit's reports.  Each cache covers the next run's height (50 zeros
    # need t = 149.7), so only the tol makes it miss.
    scans = []
    scan = cli.scan_zeros

    def counted(t_max, tol):
        scans.append(tol)
        return scan(t_max, tol)

    monkeypatch.setattr(cli, "scan_zeros", counted)
    audit = ["audit", "all", "--n-zeros", "50"]
    assert run(audit + ["--cache", "cold.csv", "--out", "cold"]) == 0
    assert run(["zeros", "--t-max", "150", "--cache", "c.csv"]) == 0
    assert _cache_tol("c.csv") == "tol=1e-08"
    assert run(audit + ["--cache", "c.csv", "--out", "shared"]) == 0
    assert _cache_tol("c.csv") == "tol=1e-06"
    assert run(["zeros", "--t-max", "149", "--cache", "c.csv"]) == 0
    assert _cache_tol("c.csv") == "tol=1e-08"
    assert scans == [1e-6, 1e-8, 1e-6, 1e-8]
    assert "Traceback" not in capsys.readouterr().err
    names = sorted(os.listdir("cold"))
    assert names == sorted(os.listdir("shared"))
    for name in names:
        assert Path("shared", name).read_bytes() == Path("cold", name).read_bytes(), name


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


def test_report_directory_argument_lists_it_as_out_does(capsys):
    args = ["audit", "all", "--t-max", "40", "--n-zeros", "50", "--out", "reports"]
    assert run(args) == 0
    capsys.readouterr()
    assert run(["report", "--out", "reports"]) == 0
    listed = capsys.readouterr()
    assert run(["report", "reports"]) == 0
    assert capsys.readouterr() == listed
    assert len(listed.out.splitlines()) == 5
    # A file and a directory in one call: the file's entry, then the listing.
    assert run(["report", "reports/audit_eq5.json", "reports"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == listed.out.splitlines()
    assert lines[0].startswith("audit_eq5.json: norm-integral-ratio: ")


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


# A report whose every key is present, with a measured value no float holds.
_HUGE_MEASURED = json.dumps({
    "name": "x", "params": {}, "measured": [0], "reference": [1.0],
    "ratio_or_residual": 0.0, "tolerance": 1.0, "verdict": "PASS", "provenance": {},
}).replace('"measured": [0]', '"measured": [' + "9" * 401 + "]")


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"name": "x"}', "[" * 200_000 + "]" * 200_000, _HUGE_MEASURED],
    ids=["missing", "not-json", "missing-keys", "too-deep", "measured-overflows-float"],
)
def test_report_bad_file_is_a_usage_error(capsys, content):
    if content is not None:
        with open("bad.json", "w") as handle:
            handle.write(content)
    assert run(["report", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("xispec: usage error: bad.json: ")
    assert err.count("\n") == 1


def test_report_longer_than_bound_exit_code(capsys, monkeypatch):
    assert run(["audit", "eq5", "--out", "reports"]) == 0
    path = "reports/audit_eq5.json"
    size = Path(path).stat().st_size
    monkeypatch.setattr(config, "_READ_MAX_BYTES", size)
    capsys.readouterr()
    assert run(["report", path]) == 0
    assert "norm-integral-ratio" in capsys.readouterr().out
    monkeypatch.setattr(config, "_READ_MAX_BYTES", size - 1)
    assert run(["report", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"xispec: usage error: {path}: longer than {size - 1} bytes"
    ]


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


def test_config_longer_than_bound_exit_code(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max = 30\ntol = 1e-8\n")
    size = cfg.stat().st_size
    monkeypatch.setattr(config, "_READ_MAX_BYTES", size)
    assert run(["zeros", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    monkeypatch.setattr(config, "_READ_MAX_BYTES", size - 1)
    assert run(["zeros", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"xispec: usage error: cannot read config file {cfg}: longer than {size - 1} bytes"
    ]


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


def test_zeros_below_the_first_zero_estimate_none(capsys):
    assert run(["zeros", "--t-max", "0.5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "# 0 zeros <= 0.5 (count estimate 0)\n"


def test_warning_is_one_line(capsys, monkeypatch):
    # The scan of zeros 922 and 923, which share a 0.25 cell, warns no more:
    # a Rosser block holds both.  A warning a command does raise is one line.
    assert run(["zeros", "--t-max", "1331"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 924
    assert captured.err == "# 924 zeros <= 1331 (count estimate 924)\n"

    def warning_scan(t_max, tol):
        warnings.warn("synthetic", UserWarning)
        return zeros_module.ZeroTable(*np.empty((4, 0)))

    monkeypatch.setattr(cli, "scan_zeros", warning_scan)
    assert run(["zeros", "--t-max", "30"]) == 0
    warned, summary = capsys.readouterr().err.splitlines()
    assert warned == "xispec: warning: UserWarning: synthetic"
    assert summary.startswith("# 0 zeros <= 30 ")


def test_short_rosser_block_exit_code(capsys, monkeypatch):
    # Z without the sign changes of zeros 2 and 3: exit 4 with one line, and
    # no rows.
    monkeypatch.setattr(zeros_module, "hardy_z", hardy_z_without_zeros_2_and_3)
    assert run(["zeros", "--t-max", "30"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "xispec: numerical failure: Rosser block [17.845600, 27.670182] (Gram "
        "points g_0 to g_2) shows 0 of its 2 sign changes with each interval "
        "split 4096 ways\n"
    )


def test_config_keys_are_the_run_config_fields(tmp_path):
    path = tmp_path / "run.cfg"
    kinds = {f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)}
    path.write_text("".join(f"{name} = {_SAMPLE_TEXT[kind]}\n" for name, kind in kinds.items()))
    parsed = parse_config_file(str(path), "audit")
    assert parsed == {name: kind(_SAMPLE_TEXT[kind]) for name, kind in kinds.items()}
    assert {name: type(value) for name, value in parsed.items()} == kinds
