"""Verification reports: ordered named checks with exact residual witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .exactnum import Scalar
from .multilinear import Functional, TensorElement

_WITNESS_TERMS = 6


def render_witness(witness: object) -> str | None:
    """Compact human-readable form of a nonzero residual."""
    if witness is None:
        return None
    if isinstance(witness, str):
        return witness
    if isinstance(witness, Scalar):
        return str(witness)
    if isinstance(witness, Functional):
        witness = TensorElement.vector(list(witness.coords))
    if isinstance(witness, TensorElement):
        items = witness.sorted_items()
        parts = [f"{key}: {value}" for key, value in items[:_WITNESS_TERMS]]
        if len(items) > _WITNESS_TERMS:
            parts.append(f"... {len(items) - _WITNESS_TERMS} more")
        return "{" + ", ".join(parts) + "}"
    return repr(witness)


@dataclass
class CheckRow:
    name: str
    passed: bool
    witness: object | None = None

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "status": "pass" if self.passed else "fail",
                     "residual": "zero" if self.passed else "nonzero"}
        if not self.passed:
            out["witness"] = render_witness(self.witness)
        return out


@dataclass
class VerificationReport:
    subject: str
    rows: list[CheckRow] = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: object | None = None) -> CheckRow:
        row = CheckRow(name, passed, None if passed else witness)
        self.rows.append(row)
        return row

    def check_zero(self, name: str, residual: TensorElement | Scalar) -> CheckRow:
        passed = residual.is_zero()
        return self.add(name, passed, None if passed else residual)

    def extend(self, other: "VerificationReport") -> None:
        self.rows.extend(other.rows)

    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[CheckRow]:
        return [row for row in self.rows if not row.passed]

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "rows": [row.to_json() for row in self.rows],
            "total": len(self.rows),
            "failed": len(self.failures()),
        }

    def render_text(self) -> str:
        lines = [f"== {self.subject}"]
        for row in self.rows:
            status = "pass" if row.passed else "FAIL"
            line = f"  [{status}] {row.name}"
            if not row.passed:
                rendered = render_witness(row.witness)
                if rendered:
                    line += f"  residual {rendered}"
            lines.append(line)
        lines.append(f"  {len(self.rows)} checks, {len(self.failures())} failed")
        return "\n".join(lines)


def merge_reports(subject: str, reports: Iterable[VerificationReport]) -> VerificationReport:
    merged = VerificationReport(subject)
    for rep in reports:
        merged.extend(rep)
    return merged
