"""Machine-readable audit reports.

One `AuditReport` per named check; serialization is canonical JSON
(UTF-8, keys sorted, fixed separators) so identical runs produce
byte-identical files.  Every report file validates against the schema
that ships with the package, ``schema/audit_report.schema.json``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Any


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    CONSISTENT_UP_TO_CONSTANT = "CONSISTENT_UP_TO_CONSTANT"
    COINCIDE = "COINCIDE"
    DISTINCT = "DISTINCT"
    INCONCLUSIVE = "INCONCLUSIVE"
    NOT_APPLICABLE = "NOT_APPLICABLE"


#: Verdicts that fail a run; INCONCLUSIVE is flagged but never fails.
FAILING_VERDICTS = frozenset({Verdict.FAIL, Verdict.DISTINCT})


def _jsonable_number(x: float) -> float | str:
    # The schema allows the three non-finite values as strings, keeping the
    # JSON strict while not losing a diverged measurement entirely.
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


@dataclass
class AuditReport:
    """Outcome of one named check against its reference and tolerance."""

    name: str
    params: dict[str, Any]
    measured: list[float]
    reference: list[float]
    ratio_or_residual: float
    tolerance: float
    verdict: Verdict
    provenance: str

    @property
    def failed(self) -> bool:
        return self.verdict in FAILING_VERDICTS

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            # A non-finite float param is written as the measurements write it.
            "params": {
                k: _jsonable_number(v) if isinstance(v, float) else v
                for k, v in sorted(self.params.items())
            },
            "measured": [_jsonable_number(v) for v in self.measured],
            "reference": [_jsonable_number(v) for v in self.reference],
            "ratio_or_residual": _jsonable_number(self.ratio_or_residual),
            "tolerance": _jsonable_number(self.tolerance),
            "verdict": self.verdict.value,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AuditReport":
        def num(v: Any) -> float:
            return float(v)
        return cls(
            name=data["name"],
            params=dict(data["params"]),
            measured=[num(v) for v in data["measured"]],
            reference=[num(v) for v in data["reference"]],
            ratio_or_residual=num(data["ratio_or_residual"]),
            tolerance=num(data["tolerance"]),
            verdict=Verdict(data["verdict"]),
            provenance=data["provenance"],
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(payload: Any) -> str:
    return json.dumps(
        payload,
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ": "),
        indent=2,
        allow_nan=False,
    ) + "\n"


def write_report(report: AuditReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report.to_json())


def write_aggregate(reports: list[AuditReport], metadata: dict[str, Any], path: str) -> None:
    payload = {
        "audits": [r.to_dict() for r in reports],
        "metadata": dict(sorted(metadata.items())),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(canonical_json(payload))


def report_csv_rows(reports: list[AuditReport]) -> list[str]:
    rows = ["name,verdict,ratio_or_residual,tolerance,provenance"]
    for r in reports:
        rows.append(
            f"{r.name},{r.verdict.value},{r.ratio_or_residual:.12g},"
            f"{r.tolerance:.12g},{r.provenance}"
        )
    return rows

