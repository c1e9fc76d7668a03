import json

import jsonschema
import pytest

from conftest import report_schema

from xispec.report import (
    AuditReport,
    Verdict,
    canonical_json,
    report_csv_rows,
    write_report,
)


@pytest.fixture
def sample_report():
    return AuditReport(
        name="demo-check",
        params={"t_max": 30.0, "orders": ["real:0.5"]},
        measured=[4.0, 4.0],
        reference=[1.0],
        ratio_or_residual=8.7e-15,
        tolerance=1e-6,
        verdict=Verdict.CONSISTENT_UP_TO_CONSTANT,
        provenance="eq5",
    )


def test_roundtrip(sample_report):
    recovered = AuditReport.from_dict(sample_report.to_dict())
    assert recovered == sample_report


def test_schema_validation(sample_report):
    jsonschema.validate(sample_report.to_dict(), report_schema())


def test_schema_rejects_bad_verdict(sample_report):
    payload = sample_report.to_dict()
    payload["verdict"] = "MAYBE"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, report_schema())


def test_non_finite_encoded_as_strings(sample_report):
    sample_report.measured = [float("nan"), float("inf")]
    payload = sample_report.to_dict()
    assert payload["measured"] == ["nan", "inf"]
    jsonschema.validate(payload, report_schema())
    # canonical serialization stays strict JSON
    json.loads(canonical_json(payload))


def test_canonical_json_sorted_and_stable(sample_report):
    text = canonical_json(sample_report.to_dict())
    assert text == canonical_json(sample_report.to_dict())
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)
    assert text.endswith("\n")


def test_write_report_bytes_stable(tmp_path, sample_report):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(sample_report, str(p1))
    write_report(sample_report, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_property(sample_report):
    assert not sample_report.failed
    sample_report.verdict = Verdict.DISTINCT
    assert sample_report.failed
    sample_report.verdict = Verdict.INCONCLUSIVE
    assert not sample_report.failed


def test_csv_rows(sample_report):
    rows = report_csv_rows([sample_report])
    assert rows[0].startswith("name,verdict")
    assert "demo-check" in rows[1]
