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
from typing import NamedTuple, Optional, TextIO, Union

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
# between two records of `results`
_JSON_SEP = ",\n  "
# a block of at most this many records formats each value in turn: finding
# its distinct values would cost more than it saves
_FEW_RECORDS = 64


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

    `check` and `group` are shared by the block.  `n` and `seed` are shared
    values, or lists with one value per record when they differ within the
    block.  With m = len(suffixes), record i has inputs
    `prefixes[i // m] + suffixes[i % m]`: a sweep gives one prefix per pair
    and one suffix per class, a list of rows one prefix per row and the
    suffix "".  `lhs`, `rhs` and `margin` are float64, whatever number type
    a row gave them.  `note` holds codes into `notes`.
    """

    check: str
    group: str
    n: Union[int, list]
    prefixes: Sequence
    suffixes: Sequence
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    skipped: Optional[np.ndarray] = None
    note: Optional[np.ndarray] = None
    notes: tuple = ("",)
    seed: Union[None, int, list] = None

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
        lengths = [getattr(self, c).size for c in (*_COLUMNS, "note")]
        lengths += [len(v) for v in (self.n, self.seed) if isinstance(v, list)]
        if any(length != size for length in lengths):
            raise ValueError(f"a {self.check} block of {size} records has a column of another length")

    @classmethod
    def from_rows(cls, rows) -> list[Records]:
        """Rows as blocks, one per run of rows that share check and group.

        A run's `n` is shared when every row has the same value of the same
        type, and the list of the rows' values otherwise; so is its `seed`.
        """
        blocks = []
        for (check, group), run in itertools.groupby(rows, key=lambda r: (r.check, r.group)):
            run = list(run)
            codes: dict = {}
            note = [codes.setdefault(r.note, len(codes)) for r in run]
            blocks.append(
                cls(
                    check, group, _shared([r.n for r in run]), [r.inputs for r in run], ("",),
                    *([getattr(r, c) for r in run] for c in ("lhs", "rhs", "margin")),
                    [bool(r.passed) for r in run], [bool(r.skipped) for r in run],
                    note, tuple(codes), _shared([r.seed for r in run]),
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
        n, seed = (v[i] if isinstance(v, list) else v for v in (self.n, self.seed))
        columns = (getattr(self, c)[i].item() for c in _COLUMNS)
        return CheckResult(
            self.check, self.group, n, self.prefixes[i // m] + self.suffixes[i % m],
            *columns, seed, self.notes[self.note[i]],
        )

    def rows(self):
        """Every record as a `CheckResult`, in order, built RECORD_BLOCK at a time."""
        m = len(self.suffixes)
        for lo, hi, prefixes, at in self._chunks():
            yield from map(
                CheckResult,
                itertools.repeat(self.check),
                itertools.repeat(self.group),
                _per_record(self.n, lo, hi),
                [prefixes[a // m] + self.suffixes[a % m] for a in at],
                *(getattr(self, c)[lo:hi].tolist() for c in _COLUMNS),
                _per_record(self.seed, lo, hi),
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
        them in a report's `results`, joined by ",\n  ".  A record is the
        join of a few pieces, each read from a table of distinct texts: its
        quoted prefix and suffix, its float members (`_float_texts`), and
        the members after them, one text per passed + 2 skipped + 4 note.
        Only an `n` or `seed` that differs within the block is formatted
        record by record.
        """
        m = len(self.suffixes)
        head = f'{{\n   "check": {_SCALAR(self.check)},\n   "group": {_SCALAR(self.group)},\n   "n": '
        inputs = ',\n   "inputs": '
        lead = inputs if isinstance(self.n, list) else head + _SCALAR(self.n) + inputs
        # JSON escapes per character, so a quoted string is its prefix's quoted
        # text without the closing quote, then its suffix's without the opening one
        suffixes = _objects(encode_basestring_ascii(s)[1:] for s in self.suffixes)
        # indexed by passed + 2 skipped, and by note
        passes = [f',\n   "pass": {p}{s}' for s in _JSON_SKIPPED for p in _JSON_PASS]
        closes = [(f',\n   "note": {_SCALAR(s)}' if s else "") + "\n  }" + _JSON_SEP for s in self.notes]
        if not isinstance(self.seed, list):
            seed = _seed_member(self.seed)
            tails = _objects(p + seed + c for c in closes for p in passes)
        floats = (_float_texts(getattr(self, c), f',\n   "{c}": ') for c in ("lhs", "rhs", "margin"))
        for (lo, hi, prefixes, at), *members in zip(self._chunks(), *floats):
            pair, cls = np.divmod(np.arange(at.start, at.stop), m)
            quoted = _objects(lead + encode_basestring_ascii(p)[:-1] for p in prefixes)
            code = self.passed[lo:hi].view(np.int8) + 2 * self.skipped[lo:hi].view(np.int8)
            if isinstance(self.seed, list):
                tail = [
                    passes[c] + _seed_member(s) + closes[t]
                    for c, s, t in zip(code.tolist(), self.seed[lo:hi], self.note[lo:hi].tolist())
                ]
            else:
                tail = tails[code + 4 * self.note[lo:hi]]
            pieces = [quoted[pair], suffixes[cls], *members, tail]
            if isinstance(self.n, list):
                pieces.insert(0, [head + _SCALAR(v) for v in self.n[lo:hi]])
            parts = _interleave(pieces)
            parts[-1] = parts[-1][: -len(_JSON_SEP)]
            yield "".join(parts)

    def csv_chunks(self):
        """The records' CSV rows, RECORD_BLOCK at a time, as `CheckResult.row` gives them."""
        m = len(self.suffixes)
        floats = (_float_texts(getattr(self, c)) for c in ("lhs", "rhs", "margin"))
        for (lo, hi, prefixes, at), *cells in zip(self._chunks(), *floats):
            passes = self.passed[lo:hi].view(np.int8) + 2 * self.skipped[lo:hi].view(np.int8)
            yield zip(
                itertools.repeat(self.check),
                itertools.repeat(self.group),
                _per_record(self.n, lo, hi),
                [prefixes[a // m] + self.suffixes[a % m] for a in at],
                *cells,
                map(_CSV_PASS.__getitem__, passes.tolist()),
            )


def _shared(values: list):
    """The one value in `values`, or `values` itself when two differ in value or type."""
    first = values[0]
    return first if all(type(v) is type(first) and v == first for v in values) else values


def _per_record(value, lo: int, hi: int):
    """Records [lo, hi) of a per-record list, or a shared value repeated."""
    return value[lo:hi] if isinstance(value, list) else itertools.repeat(value, hi - lo)


def _seed_member(seed) -> str:
    """A record's JSON `seed` member with its leading comma, or "" for no seed."""
    return "" if seed is None else f',\n   "seed": {_SCALAR(seed)}'


def _objects(texts) -> np.ndarray:
    """A 1-d object array of the given strings, for gathering by index."""
    return np.array(list(texts), dtype=object)


def _interleave(columns) -> list:
    """Record 0's piece from every column, then record 1's, and so on."""
    width = len(columns)
    pieces = [None] * (width * len(columns[0]))
    for j, col in enumerate(columns):
        pieces[j::width] = col.tolist() if isinstance(col, np.ndarray) else col
    return pieces


def _float_texts(col: np.ndarray, label: str = ""):
    """The text of every value of `col`, as one list per RECORD_BLOCK chunk.

    With a label, a text is a JSON member: the label, then the value as
    `json` writes it.  Without one it is a CSV cell, `float.__repr__`.
    Values are told apart by their bits, so -0.0 and 0.0 stay apart and NaN
    stays NaN.  Each distinct value is formatted once, on the first chunk
    that holds it.  A value that occurs more than once keeps its text until
    the chunk that holds its last occurrence, found by counting its
    occurrences down.  Between chunks this holds the bits and the count of
    each value that recurs, and the texts still to be reused: nothing per
    record.
    """
    spell = _SCALAR if label and not np.isfinite(col).all() else float.__repr__
    if col.size <= _FEW_RECORDS:
        yield [label + spell(v) for v in col.tolist()]
        return
    bits = col.view(np.uint64)
    values, counts = np.unique(bits, return_counts=True)
    # the values that recur, their occurrences still to be written, and their texts
    twice, left = values[counts > 1], counts[counts > 1]
    del values, counts
    table = np.empty(twice.size, dtype=object)
    for lo in range(0, bits.size, RECORD_BLOCK):
        used, at, seen = np.unique(bits[lo : lo + RECORD_BLOCK], return_inverse=True, return_counts=True)
        pos, again = _positions(twice, used)
        recur = pos[again]
        texts = np.empty(used.size, dtype=object)
        texts[again] = table[recur]
        # a text is never empty, so only the entries still None are false
        fresh = np.flatnonzero(~texts.astype(bool))
        texts[fresh] = [label + spell(v) for v in used[fresh].view(np.float64).tolist()]
        yield texts[at].tolist()
        left[recur] -= seen[again]
        table[recur] = np.where(left[recur] > 0, texts[again], None)


def _positions(table: np.ndarray, keys: np.ndarray):
    """Where each key sits in the sorted `table`, and whether it is there."""
    pos = np.searchsorted(table, keys)
    found = np.zeros(keys.size, dtype=bool)
    inside = np.flatnonzero(pos < table.size)
    found[inside] = table[pos[inside]] == keys[inside]
    return pos, found


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
    records are formatted from the columns, a chunk at a time, from each
    block's tables of distinct texts (`Records.json_chunks`).
    """
    head = {"header": doc.header_dict(), **doc._body([])}
    before, _, after = json.dumps(head, indent=1).rpartition('"results": []')
    fh.write(before + '"results": [')
    sep = "\n  "
    for block in doc.blocks:
        for text in block.json_chunks():
            fh.write(sep)
            fh.write(text)
            sep = _JSON_SEP
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
