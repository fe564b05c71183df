"""Report records and serialization.

A report holds its records in blocks of columns (`Records`): one check on
one group at one `n` and one `seed`, with float64 `lhs`, `rhs` and
`margin`, bool `passed` and `skipped`, and coded notes.  Sweeps build
blocks directly; a list of `CheckResult` rows becomes blocks when it is
added to a document, so there is one storage form.
`ReportDocument.results` reads the blocks back as immutable `CheckResult`
rows, and `ReportDocument.tally` counts them from the columns.

JSON and CSV share one writer path: `_record_texts` walks a document's
records RECORD_BLOCK at a time, across blocks, and joins each chunk from
tables of distinct texts.  The two formats differ only in those tables
(`_JSON`, `_CSV`).

Report bodies are deterministic: the same inputs and seeds produce the same
JSON and CSV bytes.  Timestamps and the tolerances in effect live in the
header only.
"""

from __future__ import annotations

import bisect
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

    `check`, `group`, `n` and `seed` are shared by the block.  With
    m = len(suffixes), record i has inputs `prefixes[i // m] + suffixes[i % m]`:
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
        """Rows as blocks, one per run of rows that share check, group, n and seed.

        Equal values of two types differ (60 and 60.0, 1 and True), so a
        block's `n` and `seed` are each of its rows' own values.
        """
        blocks = []
        runs = itertools.groupby(
            rows, key=lambda r: (r.check, r.group, r.n, r.seed, type(r.n), type(r.seed))
        )
        for (check, group, n, seed, *_), run in runs:
            run = list(run)
            codes: dict = {}
            note = [codes.setdefault(r.note, len(codes)) for r in run]
            blocks.append(
                cls(
                    check, group, n, [r.inputs for r in run], ("",),
                    *([getattr(r, c) for r in run] for c in ("lhs", "rhs", "margin")),
                    [bool(r.passed) for r in run], [bool(r.skipped) for r in run],
                    note, tuple(codes), seed,
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
        for lo in range(0, len(self), RECORD_BLOCK):
            hi = min(lo + RECORD_BLOCK, len(self))
            yield from map(
                CheckResult,
                *map(itertools.repeat, (self.check, self.group, self.n)),
                [self.prefixes[i // m] + self.suffixes[i % m] for i in range(lo, hi)],
                *(getattr(self, c)[lo:hi].tolist() for c in _COLUMNS),
                itertools.repeat(self.seed),
                map(self.notes.__getitem__, self.note[lo:hi].tolist()),
            )


def _json_block(b: Records) -> tuple:
    """A block's JSON lead, up to its inputs, and tails, indexed by passed + 2 skipped + 4 note.

    Every record opens with the comma that parts it from the record before.
    """
    head = f',\n  {{\n   "check": {_SCALAR(b.check)},\n   "group": {_SCALAR(b.group)},\n   "n": '
    seed = "" if b.seed is None else f',\n   "seed": {_SCALAR(b.seed)}'
    notes = [f',\n   "note": {_SCALAR(s)}' if s else "" for s in b.notes]
    skips = ("", ',\n   "skipped": true')
    return f'{head}{_SCALAR(b.n)},\n   "inputs": ', [
        f',\n   "pass": {p}{s}{seed}{t}\n  }}' for t in notes for s in skips for p in ("false", "true")
    ]


def _csv_block(b: Records) -> tuple:
    """A block's CSV lead and tails, as `_json_block` gives them."""
    cells = (_csv_field(str(v)) for v in (b.check, b.group, b.n))
    lead = "".join(f'"{t}",' if quoted else t + "," for t, quoted in cells)
    return lead, [",False\n", ",True\n", ",skip\n", ",skip\n"] * len(b.notes)


def _csv_field(s: str) -> tuple:
    """A string's text in a CSV field, and whether the field is quoted.

    As `csv.writer(lineterminator="\n")` has it: quoted when it holds a comma,
    a quote or a newline, with its quotes doubled; a bare \r stays.
    """
    return s.replace('"', '""'), "," in s or '"' in s or "\n" in s


# What JSON and CSV records differ in: a block's lead and tails; a string's
# text in the inputs field and whether it makes the field quoted; the labels
# before lhs, rhs and margin; and whether non-finite floats are spelled as
# `json` spells them (NaN, Infinity) rather than by `float.__repr__`.
_JSON = (
    _json_block,
    lambda s: (encode_basestring_ascii(s)[1:-1], True),
    tuple(f',\n   "{c}": ' for c in _COLUMNS[:3]),
    True,
)
_CSV = (_csv_block, _csv_field, (",",) * 3, False)


def _record_texts(blocks: list[Records], fmt: tuple):
    """The text of every record of `blocks`, RECORD_BLOCK records at a time, across blocks.

    A chunk is one `"".join` of six pieces per record, gathered from tables
    of distinct texts: the block's lead with the inputs' prefix, the inputs'
    suffix, the float texts of each document column and the tail.  A field
    whose prefix or suffix asks for quotes takes both quoted texts: the
    quote opens on the prefix and closes on the suffix.  Columns are copied
    only to join the blocks of a document of more than one.
    """
    blocks = [b for b in blocks if len(b)]
    if not blocks:
        return
    block_texts, field, labels, named = fmt
    starts = list(itertools.accumulate(map(len, blocks), initial=0))
    widths = [len(b.suffixes) for b in blocks]
    texts, suffix_quoted = zip(*map(field, [s for b in blocks for s in b.suffixes]))
    suffixes = np.array([*texts, *(t + '"' for t in texts)], dtype=object)
    suffix_quoted = np.array(suffix_quoted)
    leads, tails = zip(*map(block_texts, blocks))
    # where each block's records, suffixes and tails start
    record_at = np.array(starts)
    suffix_at, tail_at = (np.cumsum([0, *sizes[:-1]]) for sizes in (widths, list(map(len, tails))))
    tails = np.array([t for block_tails in tails for t in block_tails], dtype=object)
    columns = [
        getattr(blocks[0], c) if len(blocks) == 1 else np.concatenate([getattr(b, c) for b in blocks])
        for c in (*_COLUMNS, "note")
    ]
    floats = (_float_texts(col, label, named) for col, label in zip(columns, labels))
    for lo, *float_texts in zip(range(0, starts[-1], RECORD_BLOCK), *floats):
        hi = min(lo + RECORD_BLOCK, starts[-1])
        first, last = bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi)
        # the chunk's prefixes, each after its block's lead; block j's first is at offsets[j - first]
        prefixes, heads, offsets, counts = [], [], [], []
        for j in range(first, last):
            a, z, m = max(lo, starts[j]) - starts[j], min(hi, starts[j + 1]) - starts[j], widths[j]
            offsets.append(len(prefixes) - a // m)
            part = blocks[j].prefixes[a // m : -(-z // m)]
            prefixes += part
            heads += [leads[j]] * len(part)
            counts.append(z - a)
        # each record's block; one number when the chunk lies in one block
        block = first if last - first == 1 else np.repeat(np.arange(first, last), counts)
        pair, cls = np.divmod(np.arange(lo, hi) - record_at[block], np.take(widths, block))
        pair += np.take(offsets, block - first)
        cls += suffix_at[block]
        texts, quoted = zip(*map(field, prefixes))
        quoted = np.array(quoted)[pair] | suffix_quoted[cls]
        unquoted = [h + t for h, t in zip(heads, texts)]
        prefix_texts = np.array(unquoted + [h + '"' + t for h, t in zip(heads, texts)], dtype=object)
        passed, skipped, note = (col[lo:hi] for col in columns[3:])
        pieces = [
            prefix_texts[pair + len(prefixes) * quoted],
            suffixes[cls + len(suffix_quoted) * quoted],
            *float_texts,
            tails[tail_at[block] + 4 * note + 2 * skipped + passed],
        ]
        yield "".join(_interleave(pieces))


def _interleave(columns) -> list:
    """Record 0's piece from every column, then record 1's, and so on."""
    width = len(columns)
    pieces = [None] * (width * len(columns[0]))
    for j, col in enumerate(columns):
        pieces[j::width] = col.tolist() if isinstance(col, np.ndarray) else col
    return pieces


def _float_texts(col: np.ndarray, label: str, named: bool):
    """The text of every value of `col` after `label`, as one list per RECORD_BLOCK chunk.

    A value is written as `float.__repr__` writes it, or, when `named`, as
    `json` does (NaN, Infinity).  Values are told apart by their bits, so
    -0.0 and 0.0 stay apart and NaN stays NaN.  Each distinct value is
    formatted once, on the first chunk that holds it.  A value that occurs
    more than once keeps its text until the chunk that holds its last
    occurrence, found by counting its occurrences down.  Between chunks
    this holds the bits and the count of each value that recurs, and the
    texts still to be reused: nothing per record.
    """
    spell = _SCALAR if named and not np.isfinite(col).all() else float.__repr__
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
    when iterated; assigning to a field of one raises.  The view is live:
    it keeps where each block starts, extended when blocks are appended, so
    record i is found by bisection.
    """

    def __init__(self, blocks: list[Records]):
        self.blocks = blocks
        self.starts = [0]

    def __len__(self) -> int:
        # blocks are only appended, so the starts already found stay right
        for block in self.blocks[len(self.starts) - 1 :]:
            self.starts.append(self.starts[-1] + len(block))
        return self.starts[-1]

    def __getitem__(self, i: int) -> CheckResult:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("record index out of range")
        # the last block starting at or before i; an empty block starts where the next does
        j = bisect.bisect_right(self.starts, i) - 1
        return self.blocks[j].row(i - self.starts[j])

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
        self._rows = RecordRows(self.blocks)
        self.add(results)

    @property
    def results(self) -> RecordRows:
        # one view per block list, so its block starts are found once
        if self._rows.blocks is not self.blocks:
            self._rows = RecordRows(self.blocks)
        return self._rows

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
    records come from `_record_texts`.
    """
    head = {"header": doc.header_dict(), **doc._body([])}
    before, _, after = json.dumps(head, indent=1).rpartition('"results": []')
    fh.write(before + '"results": [')
    end = ""
    for text in _record_texts(doc.blocks, _JSON):
        # the first record has no record before it to part from
        fh.write(text if end else text[1:])
        end = "\n "
    fh.write(end + "]" + after + "\n")


def _write_csv(doc: ReportDocument, fh: TextIO) -> None:
    """The bytes of `csv.DictWriter` over CSV_COLUMNS and `CheckResult.row`."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    fh.writelines(_record_texts(doc.blocks, _CSV))


def write_report(doc: ReportDocument, path: str, fmt: str = "json") -> None:
    """Write the report, streamed: the same bytes as `to_json` or `to_csv`."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        (_write_json if fmt == "json" else _write_csv)(doc, fh)
