"""Report records and serialization.

Report bodies are deterministic: the same inputs and seeds produce the same
JSON and CSV bytes.  Timestamps live in the header only.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple, Optional, TextIO

CSV_COLUMNS = ["check", "group", "n", "inputs", "lhs", "rhs", "margin", "pass"]
# records per encoder call: the text of a report is never built whole
RECORD_BLOCK = 4096
# the one-shot C encoder (it has no indent); the separator indents record keys
_RECORDS = json.JSONEncoder(separators=(",\n   ", ": "))


@dataclass(slots=True)
class CheckResult:
    """Outcome of one check instance.

    margin is the room the check had before it would fail, tolerance
    included: a passing inequality has margin >= 0 (> 0 when strict), and
    `bound` is the one place that derives it.  Census records, which cannot
    fail, carry margin 0.  skipped results count as neither pass nor fail
    in summaries.
    """

    check: str
    group: str
    n: int
    inputs: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    skipped: bool = False
    seed: Optional[int] = None
    note: str = ""

    @classmethod
    def bound(
        cls,
        check: str,
        group: str,
        n: int,
        inputs: str,
        lhs: float,
        rhs: float,
        tol: float = 0.0,
        op: str = "<=",
        **extra,
    ) -> CheckResult:
        """The record of `lhs op rhs` up to `tol`, with margin and passed derived.

        For finite doubles `a - b` has the sign of `a` against `b`, so each
        verdict is exactly the comparison `lhs <= rhs + tol`, `lhs > rhs - tol`,
        `|lhs - rhs| <= tol`, and so on.
        """
        lhs, rhs = float(lhs), float(rhs)
        if op in ("<=", "<"):
            margin = rhs + tol - lhs
        elif op in (">=", ">"):
            margin = lhs - (rhs - tol)
        elif op == "==":
            margin = tol - abs(lhs - rhs)
        else:
            raise ValueError(f"unknown comparison {op!r}")
        passed = margin > 0 if op in ("<", ">") else margin >= 0
        return cls(check, group, n, inputs, lhs, rhs, margin, bool(passed), **extra)

    def row(self) -> dict:
        return {
            "check": self.check,
            "group": self.group,
            "n": self.n,
            "inputs": self.inputs,
            "lhs": repr(self.lhs),
            "rhs": repr(self.rhs),
            "margin": repr(self.margin),
            "pass": "skip" if self.skipped else str(self.passed),
        }

    def as_dict(self) -> dict:
        d = {
            "check": self.check,
            "group": self.group,
            "n": self.n,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
        }
        if self.skipped:
            d["skipped"] = True
        if self.seed is not None:
            d["seed"] = self.seed
        if self.note:
            d["note"] = self.note
        return d


class Tally(NamedTuple):
    """Record counts of one report; a skipped record is neither pass nor fail."""

    passed: int
    failed: int
    skipped: int

    @property
    def verdict(self) -> str:
        return "PASS" if self.failed == 0 else "FAIL"

    @property
    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 1


@dataclass
class ReportDocument:
    """A full report: header (may carry a timestamp), body, summary."""

    title: str
    results: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    timestamp: Optional[str] = None

    def stamp(self) -> None:
        self.timestamp = datetime.now(timezone.utc).isoformat()

    def tally(self) -> Tally:
        """Pass, fail and skip counts, from one walk over the records."""
        passed = failed = skipped = 0
        for r in self.results:
            if r.skipped:
                skipped += 1
            elif r.passed:
                passed += 1
            else:
                failed += 1
        return Tally(passed, failed, skipped)

    @property
    def fail_count(self) -> int:
        return self.tally().failed

    @property
    def pass_count(self) -> int:
        return self.tally().passed

    @property
    def skip_count(self) -> int:
        return self.tally().skipped

    @property
    def verdict(self) -> str:
        return self.tally().verdict

    def _body(self, results: list) -> dict:
        tally = self.tally()
        return {
            "title": self.title,
            "meta": self.meta,
            "results": results,
            "summary": {
                "pass": tally.passed,
                "fail": tally.failed,
                "skip": tally.skipped,
                "verdict": tally.verdict,
            },
        }

    def body_dict(self) -> dict:
        """Everything except the header; deterministic."""
        return self._body([r.as_dict() for r in self.results])

    def as_dict(self) -> dict:
        """The JSON document: the header, then the body."""
        return {"header": {"generated": self.timestamp}, **self.body_dict()}

    def to_json(self) -> str:
        buf = io.StringIO()
        _write_json(self, buf)
        return buf.getvalue()

    def to_csv(self) -> str:
        buf = io.StringIO()
        _write_csv(self, buf)
        return buf.getvalue()

    def summary_lines(self, tally: Optional[Tally] = None) -> list[str]:
        """The summary line, then one line per failed record.

        `tally` is this document's `tally()`, passed by a caller that has it.
        """
        if tally is None:
            tally = self.tally()
        lines = [
            f"{self.title}: {tally.passed} pass, "
            f"{tally.failed} fail, {tally.skipped} skip -> {tally.verdict}"
        ]
        if tally.failed:
            lines += [
                f"  FAIL {r.check} {r.group} {r.inputs} lhs={r.lhs!r} rhs={r.rhs!r}"
                for r in self.results
                if not r.passed and not r.skipped
            ]
        return lines


def _blocks(results: list[CheckResult]):
    for start in range(0, len(results), RECORD_BLOCK):
        yield results[start:start + RECORD_BLOCK]


def _write_json(doc: ReportDocument, fh: TextIO) -> None:
    """Write exactly `json.dumps(doc.as_dict(), indent=1) + "\n"`.

    With an indent the standard library encodes in pure Python, so only the
    header, meta and summary go that way, around an empty `results`.  The
    records are encoded a block at a time by the C encoder, whose item
    separator already carries the indent of a record's keys; one replace
    then breaks the records apart.  Records are flat and `ensure_ascii`
    escapes every newline inside a string, so "},\n   {" is only ever the
    boundary between two records.
    """
    head = {"header": {"generated": doc.timestamp}, **doc._body([])}
    before, _, after = json.dumps(head, indent=1).rpartition('"results": []')
    fh.write(before + '"results": [')
    if doc.results:
        sep = "\n  {\n   "
        for block in _blocks(doc.results):
            text = _RECORDS.encode([r.as_dict() for r in block])
            fh.write(sep)
            fh.write(text[2:-2].replace("},\n   {", "\n  },\n  {\n   "))
            fh.write("\n  }")
            sep = ",\n  {\n   "
        fh.write("\n ")
    fh.write("]" + after + "\n")


def _write_csv(doc: ReportDocument, fh: TextIO) -> None:
    """The bytes of `csv.DictWriter` over CSV_COLUMNS, a block of rows at a time."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for block in _blocks(doc.results):
        writer.writerows([row[c] for c in CSV_COLUMNS] for row in map(CheckResult.row, block))


def write_report(doc: ReportDocument, path: str, fmt: str = "json") -> None:
    """Write the report, streamed: the same bytes as `to_json` or `to_csv`."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        (_write_json if fmt == "json" else _write_csv)(doc, fh)
