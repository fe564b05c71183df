"""Report records and serialization.

A report holds its records in blocks of columns (`Records`): one check on
one group, with float64 `lhs`, `rhs` and `margin`, bool `passed` and
`skipped`, and coded notes.  Sweeps build blocks directly; a list of
`CheckResult` rows becomes blocks when it is added to a document, so there
is one storage form and one writer path.  `ReportDocument.results` reads
the blocks back as immutable `CheckResult` rows, and `ReportDocument.tally`
counts them from the columns.

Report bodies are deterministic: the same inputs and seeds produce the same
JSON and CSV bytes.  Timestamps and the tolerances in effect live in the
header only.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional, TextIO

import numpy as np

CSV_COLUMNS = ["check", "group", "n", "inputs", "lhs", "rhs", "margin", "pass"]
# records per formatted chunk: the text of a report is never built whole
RECORD_BLOCK = 4096
# the JSON of one value, as `json.dumps` writes it
_SCALAR = json.JSONEncoder().encode
# per-record columns of a block, in `CheckResult` order
_COLUMNS = ("lhs", "rhs", "margin", "passed", "skipped")
# the pass cell, indexed by passed + 2 * skipped
_CSV_PASS = ("False", "True", "skip", "skip")
# indexed by passed, and by skipped
_JSON_PASS = ("false", "true")
_JSON_SKIPPED = ("", ',\n   "skipped": true')


def bound_margin(lhs, rhs, tol=0.0, op: str = "<="):
    """(margin, passed) of `lhs op rhs` up to `tol`, on floats or float64 arrays alike.

    For finite doubles `a - b` has the sign of `a` against `b`, so each
    verdict is exactly the comparison `lhs <= rhs + tol`, `lhs > rhs - tol`,
    `|lhs - rhs| <= tol`, and so on.  Arrays take the same IEEE operations
    in the same order, so a margin has the same bits either way.
    """
    if op in ("<=", "<"):
        margin = rhs + tol - lhs
    elif op in (">=", ">"):
        margin = lhs - (rhs - tol)
    elif op == "==":
        margin = tol - abs(lhs - rhs)
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return margin, (margin > 0 if op in ("<", ">") else margin >= 0)


class CheckResult(NamedTuple):
    """Outcome of one check instance, immutable.

    margin is the room the check had before it would fail, tolerance
    included: a passing inequality has margin >= 0 (> 0 when strict), and
    `bound_margin` is the one place that derives it.  Census records, which
    cannot fail, carry margin 0.  skipped results count as neither pass nor
    fail in summaries.
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
        """The record of `lhs op rhs` up to `tol`, with margin and passed derived."""
        lhs, rhs = float(lhs), float(rhs)
        margin, passed = bound_margin(lhs, rhs, tol, op)
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


@dataclass(eq=False)
class Records:
    """A block of records of one check on one group, held as columns.

    `check`, `group`, `n` and `seed` are shared by the block.  With m =
    len(suffixes), record i has inputs `prefixes[i // m] + suffixes[i % m]`:
    a sweep gives one prefix per pair and one suffix per class, a list of
    rows one prefix per row and the suffix "".  `lhs`, `rhs` and `margin`
    are float64, whatever number type a row gave them.  `note` holds codes
    into `notes`.
    """

    check: str
    group: str
    n: int
    prefixes: Sequence
    suffixes: Sequence
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    skipped: Optional[np.ndarray] = None
    note: Optional[np.ndarray] = None
    notes: tuple = ("",)
    seed: Optional[int] = None

    def __post_init__(self):
        size = len(self.prefixes) * len(self.suffixes)
        if self.skipped is None:
            self.skipped = np.zeros(size, dtype=bool)
        if self.note is None:
            self.note = np.zeros(size, dtype=np.intp)
        self.lhs, self.rhs, self.margin = (
            np.ravel(np.asarray(c, dtype=np.float64)) for c in (self.lhs, self.rhs, self.margin)
        )
        self.passed = np.ravel(np.asarray(self.passed, dtype=bool))
        self.skipped = np.ravel(np.asarray(self.skipped, dtype=bool))
        self.note = np.ravel(np.asarray(self.note, dtype=np.intp))
        if any(getattr(self, c).size != size for c in (*_COLUMNS, "note")):
            raise ValueError(f"a {self.check} block of {size} records has a column of another length")

    @classmethod
    def from_rows(cls, rows) -> list[Records]:
        """Rows as blocks, one per run of rows that share check, group, n and seed."""

        def shared(r):
            return r.check, r.group, r.n, type(r.n), r.seed, type(r.seed)

        blocks = []
        for _, run in itertools.groupby(rows, key=shared):
            run = list(run)
            codes: dict = {}
            note = [codes.setdefault(r.note, len(codes)) for r in run]
            first = run[0]
            blocks.append(
                cls(
                    first.check, first.group, first.n, [r.inputs for r in run], ("",),
                    *([getattr(r, c) for r in run] for c in ("lhs", "rhs", "margin")),
                    [bool(r.passed) for r in run], [bool(r.skipped) for r in run],
                    note, tuple(codes), first.seed,
                )
            )
        return blocks

    def __len__(self) -> int:
        return self.lhs.size

    def tally(self) -> Tally:
        skipped = int(np.count_nonzero(self.skipped))
        passed = int(np.count_nonzero(self.passed & ~self.skipped))
        return Tally(passed, len(self) - passed - skipped, skipped)

    def row(self, i: int) -> CheckResult:
        """Record i as a `CheckResult`."""
        m = len(self.suffixes)
        columns = (getattr(self, c)[i].item() for c in _COLUMNS)
        return CheckResult(
            self.check, self.group, self.n, self.prefixes[i // m] + self.suffixes[i % m],
            *columns, self.seed, self.notes[self.note[i]],
        )

    def rows(self):
        """Every record as a `CheckResult`, in order, built RECORD_BLOCK at a time."""
        m = len(self.suffixes)
        for lo, hi, prefixes, at in self._chunks():
            yield from map(
                CheckResult,
                *(itertools.repeat(v) for v in (self.check, self.group, self.n)),
                [prefixes[a // m] + self.suffixes[a % m] for a in at],
                *(getattr(self, c)[lo:hi].tolist() for c in _COLUMNS),
                itertools.repeat(self.seed),
                map(self.notes.__getitem__, self.note[lo:hi].tolist()),
            )

    def _chunks(self):
        """(lo, hi, prefixes, at) per RECORD_BLOCK records [lo, hi).

        Record lo + j has prefix `prefixes[at[j] // m]` and suffix
        `suffixes[at[j] % m]`, with m = len(suffixes).
        """
        m = len(self.suffixes)
        for lo in range(0, len(self), RECORD_BLOCK):
            hi = min(lo + RECORD_BLOCK, len(self))
            first = lo // m
            yield lo, hi, self.prefixes[first : -(-hi // m)], range(lo - first * m, hi - first * m)

    def json_chunks(self):
        """The records' JSON text, RECORD_BLOCK records at a time.

        Each chunk holds its records as `json.dumps(..., indent=1)` writes
        them in a report's `results`, joined by ",\n  ".
        """
        head = (
            f'{{\n   "check": {_SCALAR(self.check)},\n   "group": {_SCALAR(self.group)},'
            f'\n   "n": {_SCALAR(self.n)},\n   "inputs": '
        )
        seed = "" if self.seed is None else f',\n   "seed": {_SCALAR(self.seed)}'
        template = (
            head.replace("%", "%%")
            + '%s%s,\n   "lhs": %s,\n   "rhs": %s,\n   "margin": %s,\n   "pass": %s%s'
            + seed.replace("%", "%%")
            + "%s\n  }"
        )
        m = len(self.suffixes)
        # JSON escapes per character, so a quoted string is its prefix's quoted
        # text without the closing quote, then its suffix's without the opening one
        suffixes = [encode_basestring_ascii(s)[1:] for s in self.suffixes]
        notes = [f',\n   "note": {_SCALAR(s)}' if s else "" for s in self.notes]
        for lo, hi, prefixes, at in self._chunks():
            quoted = [encode_basestring_ascii(p)[:-1] for p in prefixes]
            cols = zip(
                [quoted[a // m] for a in at],
                [suffixes[a % m] for a in at],
                *(_json_floats(getattr(self, c)[lo:hi]) for c in ("lhs", "rhs", "margin")),
                map(_JSON_PASS.__getitem__, self.passed[lo:hi].tolist()),
                map(_JSON_SKIPPED.__getitem__, self.skipped[lo:hi].tolist()),
                map(notes.__getitem__, self.note[lo:hi].tolist()),
            )
            yield ",\n  ".join(map(template.__mod__, cols))

    def csv_chunks(self):
        """The records' CSV rows, RECORD_BLOCK at a time, as `CheckResult.row` gives them."""
        m = len(self.suffixes)
        for lo, hi, prefixes, at in self._chunks():
            passes = self.passed[lo:hi].view(np.int8) + 2 * self.skipped[lo:hi].view(np.int8)
            yield zip(
                itertools.repeat(self.check),
                itertools.repeat(self.group),
                itertools.repeat(self.n),
                [prefixes[a // m] + self.suffixes[a % m] for a in at],
                *(
                    map(float.__repr__, getattr(self, c)[lo:hi].tolist())
                    for c in ("lhs", "rhs", "margin")
                ),
                map(_CSV_PASS.__getitem__, passes.tolist()),
            )


def _json_floats(col: np.ndarray) -> list[str]:
    """The JSON of each value: `float.__repr__`, or NaN and Infinity as `json` spells them."""
    return list(map(float.__repr__ if np.isfinite(col).all() else _SCALAR, col.tolist()))


class RecordRows(Sequence):
    """The records of a list of blocks as a sequence of `CheckResult` rows.

    Rows are built from the columns as they are read, a chunk at a time
    when iterated; assigning to a field of one raises.
    """

    def __init__(self, blocks: list[Records]):
        self.blocks = blocks

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def __getitem__(self, i: int) -> CheckResult:
        if i < 0:
            i += len(self)
        for block in self.blocks:
            if 0 <= i < len(block):
                return block.row(i)
            i -= len(block)
        raise IndexError("record index out of range")

    def __iter__(self):
        for block in self.blocks:
            yield from block.rows()


class ReportDocument:
    """A full report: header (may carry a timestamp), body, summary.

    The body's records are `blocks`; `results` reads them as rows.
    `results` given here is anything `add` takes.
    """

    def __init__(self, title: str, results=(), meta: Optional[dict] = None):
        self.title = title
        self.blocks: list[Records] = []
        self.meta = {} if meta is None else meta
        self.timestamp: Optional[str] = None
        # header entries after the timestamp; outside the body
        self.header: dict = {}
        self.add(results)

    @property
    def results(self) -> RecordRows:
        return RecordRows(self.blocks)

    def add(self, records) -> None:
        """Append a block, another document's blocks, or rows (one or an iterable)."""
        if isinstance(records, ReportDocument):
            self.blocks += records.blocks
        elif isinstance(records, Records):
            self.blocks.append(records)
        else:
            rows = [records] if isinstance(records, CheckResult) else records
            self.blocks += Records.from_rows(rows)

    def stamp(self) -> None:
        self.timestamp = datetime.now(timezone.utc).isoformat()

    def tally(self) -> Tally:
        """Pass, fail and skip counts, from the columns of each block."""
        passed = failed = skipped = 0
        for block in self.blocks:
            counts = block.tally()
            passed += counts.passed
            failed += counts.failed
            skipped += counts.skipped
        return Tally(passed, failed, skipped)

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

    def header_dict(self) -> dict:
        return {"generated": self.timestamp, **self.header}

    def as_dict(self) -> dict:
        """The JSON document: the header, then the body."""
        return {"header": self.header_dict(), **self.body_dict()}

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
            failed = (
                b.row(i) for b in self.blocks for i in np.flatnonzero(~b.passed & ~b.skipped).tolist()
            )
            lines += [
                f"  FAIL {r.check} {r.group} {r.inputs} lhs={r.lhs!r} rhs={r.rhs!r}" for r in failed
            ]
        return lines


def _write_json(doc: ReportDocument, fh: TextIO) -> None:
    """Write exactly `json.dumps(doc.as_dict(), indent=1) + "\n"`.

    With an indent the standard library encodes in pure Python, so only the
    header, meta and summary go that way, around an empty `results`.  The
    records are formatted from the columns, a chunk at a time, by one
    template per block (`Records.json_chunks`).
    """
    head = {"header": doc.header_dict(), **doc._body([])}
    before, _, after = json.dumps(head, indent=1).rpartition('"results": []')
    fh.write(before + '"results": [')
    sep = "\n  "
    for block in doc.blocks:
        for text in block.json_chunks():
            fh.write(sep)
            fh.write(text)
            sep = ",\n  "
    if sep != "\n  ":
        fh.write("\n ")
    fh.write("]" + after + "\n")


def _write_csv(doc: ReportDocument, fh: TextIO) -> None:
    """The bytes of `csv.DictWriter` over CSV_COLUMNS, a chunk of rows at a time."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for block in doc.blocks:
        for rows in block.csv_chunks():
            writer.writerows(rows)


def write_report(doc: ReportDocument, path: str, fmt: str = "json") -> None:
    """Write the report, streamed: the same bytes as `to_json` or `to_csv`."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        (_write_json if fmt == "json" else _write_csv)(doc, fh)
