import csv
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from normgrowth import reports
from normgrowth.reports import (
    CSV_COLUMNS,
    RECORD_BLOCK,
    CheckResult,
    Records,
    ReportDocument,
    bound_margin,
    write_report,
)


def make_result(**kw):
    base = dict(
        check="demo",
        group="A5",
        n=60,
        inputs="A=class:1",
        lhs=2.0,
        rhs=1.0,
        margin=1.0,
        passed=True,
    )
    base.update(kw)
    return CheckResult(**base)


def test_row_and_dict():
    r = make_result(lhs=0.1, note="tight")
    row = r.row()
    assert row["pass"] == "True"
    assert row["lhs"] == repr(0.1)
    d = r.as_dict()
    assert d["pass"] is True and d["note"] == "tight"
    assert "skipped" not in d and "seed" not in d
    s = make_result(skipped=True, seed=3)
    assert s.row()["pass"] == "skip"
    assert s.as_dict()["skipped"] is True and s.as_dict()["seed"] == 3


def test_counts_and_verdict():
    doc = ReportDocument(
        title="demo",
        results=[
            make_result(),
            make_result(passed=False, margin=-1.0),
            make_result(skipped=True),
        ],
    )
    tally = doc.tally()
    assert tally == (1, 1, 1) and (tally.verdict, tally.exit_code) == ("FAIL", 1)
    tally = ReportDocument(title="demo", results=[make_result(), make_result(skipped=True)]).tally()
    assert tally == (1, 0, 1) and (tally.verdict, tally.exit_code) == ("PASS", 0)


def test_csv_columns_exact():
    doc = ReportDocument(title="demo", results=[make_result(), make_result(skipped=True)])
    text = doc.to_csv()
    lines = text.split("\n")
    assert lines[0] == "check,group,n,inputs,lhs,rhs,margin,pass"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [list(r) for r in rows] == [CSV_COLUMNS, CSV_COLUMNS]
    assert rows[0]["pass"] == "True" and rows[1]["pass"] == "skip"
    # float cells round-trip exactly through repr
    assert float(rows[0]["lhs"]) == 2.0


def test_json_timestamp_only_in_header():
    doc = ReportDocument(title="demo", results=[make_result()])
    doc.stamp()
    parsed = json.loads(doc.to_json())
    assert parsed["header"]["generated"] == doc.timestamp
    body = doc.body_dict()
    assert "header" not in body
    assert "generated" not in json.dumps(body)
    assert parsed["summary"]["verdict"] == "PASS"


def test_body_deterministic_despite_stamp():
    a = ReportDocument(title="demo", results=[make_result()])
    b = ReportDocument(title="demo", results=[make_result()])
    a.stamp()
    assert json.dumps(a.body_dict(), sort_keys=True) == json.dumps(
        b.body_dict(), sort_keys=True
    )


def test_summary_lines_show_failures():
    doc = ReportDocument(
        title="demo",
        results=[make_result(), make_result(passed=False, inputs="A=class:2")],
    )
    lines = doc.summary_lines()
    assert lines[0] == "demo: 1 pass, 1 fail, 0 skip -> FAIL"
    assert len(lines) == 2 and "A=class:2" in lines[1]


def test_write_report_creates_directories(tmp_path):
    doc = ReportDocument(title="demo", results=[make_result()])
    target = tmp_path / "a" / "b" / "out.json"
    write_report(doc, str(target))
    assert json.loads(target.read_text())["title"] == "demo"
    csv_target = tmp_path / "out.csv"
    write_report(doc, str(csv_target), fmt="csv")
    assert csv_target.read_text().startswith("check,group,")
    with pytest.raises(ValueError):
        write_report(doc, str(tmp_path / "x"), fmt="xml")


def _stdlib_json(doc):
    """The reference encoding the streamed writer must reproduce byte for byte."""
    return (json.dumps(doc.as_dict(), indent=1) + "\n").encode("utf-8")


def _stdlib_csv(doc):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in doc.results:
        writer.writerow(r.row())
    return buf.getvalue().encode("utf-8")


def _assert_writes_reference(doc, tmp_path):
    target = tmp_path / "out.json"
    write_report(doc, str(target))
    assert target.read_bytes() == doc.to_json().encode("utf-8") == _stdlib_json(doc)
    target = tmp_path / "out.csv"
    write_report(doc, str(target), fmt="csv")
    assert target.read_bytes() == doc.to_csv().encode("utf-8") == _stdlib_csv(doc)


def test_write_report_streams_the_to_json_bytes(tmp_path):
    doc = ReportDocument(
        title="demo",
        results=[
            make_result(),
            make_result(skipped=True, passed=True, margin=-0.5),
            make_result(seed=3, lhs=0.1 + 0.2, rhs=math.pi),
            make_result(passed=False, note="equality hit", inputs="A=classes:1,2;k=3"),
        ],
        meta={"classes": [1, 2], "ratio": 1 / 3, "nested": {"q": 7, "none": None}},
    )
    doc.stamp()
    _assert_writes_reference(doc, tmp_path)


# strings and floats that an encoder or a re-indenting pass could get wrong
_EDGE_TEXT = ["", 'q"uote', "back\\slash", "},\n   {", "line\nbreak\ttab", "π ünï", "\x00\x1f", "a,b", "cr\rlf"]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1 + 0.2]


def _edge_doc(n):
    results = []
    for i in range(n):
        text = _EDGE_TEXT[i % len(_EDGE_TEXT)]
        results.append(
            make_result(
                check=text,
                group=_EDGE_TEXT[(i + 1) % len(_EDGE_TEXT)],
                n=i,
                inputs=text,
                lhs=_EDGE_FLOATS[i % len(_EDGE_FLOATS)],
                rhs=_EDGE_FLOATS[(i + 3) % len(_EDGE_FLOATS)],
                margin=_EDGE_FLOATS[(i + 5) % len(_EDGE_FLOATS)],
                passed=i % 3 != 0,
                skipped=i % 5 == 0,
                seed=i if i % 2 else None,
                note=_EDGE_TEXT[(i + 2) % len(_EDGE_TEXT)],
            )
        )
    meta = {
        "results": [],
        "text": '"results": []',
        "nested": {"inf": math.inf, "list": [1, {"x": "},\n   {"}], "empty": {}},
        "ünï": -0.0,
    }
    doc = ReportDocument(title=_EDGE_TEXT[n % len(_EDGE_TEXT)], results=results, meta=meta)
    doc.stamp()
    return doc


@pytest.mark.parametrize(
    "n",
    [0, 1, RECORD_BLOCK - 1, RECORD_BLOCK, RECORD_BLOCK + 1, 2 * RECORD_BLOCK, 3 * RECORD_BLOCK + 7],
)
def test_writer_matches_the_stdlib_encoders(tmp_path, n):
    _assert_writes_reference(_edge_doc(n), tmp_path)


# lhs, rhs and margin of records i: all distinct, or recurring in every chunk
_MEMORY_VALUES = {
    "distinct": lambda i: (i / 7, i / 3, -i / 11),
    "repeating": lambda i: ((i % 1000) / 7, (i * 7919 % 3001) / 3, (i % 2000) / 11),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "rows"])
def test_writer_memory_does_not_grow_with_the_report(tmp_path, fmt):
    """Only a chunk of records is ever encoded, or read back as rows, at once.

    The document is one block, so its columns are not copied.  Beyond a
    chunk, the writer keeps a few integers per value that recurs and
    nothing for one that does not, so a block whose every value differs
    stays within the bound, as does one whose values recur.
    """
    target = str(tmp_path / f"out.{fmt}")

    def peak(blocks, values):
        i = np.arange(blocks * RECORD_BLOCK)
        block = Records(
            "demo", "A5", 60, ["A=class:1"] * i.size, ("",),
            *_MEMORY_VALUES[values](i), np.ones(i.size, dtype=bool),
        )
        doc = ReportDocument(title="demo", results=block)
        tracemalloc.start()
        try:
            if fmt == "rows":
                for _ in doc.results:
                    pass
            else:
                write_report(doc, target, fmt=fmt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for values in _MEMORY_VALUES:
        small, large = peak(2, values), peak(8, values)
        assert large <= 1.25 * small, (values, small, large)


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _recurring_block():
    """One sweep block of four chunks whose float values recur across chunk boundaries.

    Edge values sit among them: -0.0 next to 0.0, NaNs with other bits,
    infinities, the least subnormal, 1e16 and integer-valued floats.  The
    lhs 1234.5 occurs in the first chunk and next in the last.
    """
    m = 7
    pairs = (3 * RECORD_BLOCK + 700) // m
    i = np.arange(pairs * m)
    edges = [-0.0, 0.0, math.nan, _nan(0x7FF8000000000001), _nan(0xFFF8000000000000),
             math.inf, -math.inf, 5e-324, 1e16, 3.0, 2.0**53, -7.0]
    lhs = (i % 1009) / 7
    lhs[i % 61 == 0] = [edges[k % len(edges)] for k in range(np.count_nonzero(i % 61 == 0))]
    lhs[[3, i.size - 5]] = 1234.5
    # finite, so written by `float.__repr__` in both formats
    rhs = np.where(i % 5 == 0, (i % 50).astype(np.float64), (i * 7919 % 3001) / 3)
    rhs[[10, 11, 4200, 4201]] = [-0.0, 0.0, 0.0, -0.0]
    margin = np.where(i % 3 == 0, np.array([-0.0, 0.0, 5e-324, 1e16, 4.0])[i % 5], (i % 2000) / 11)
    margin[i % 997 == 1] = -math.inf
    notes = ("", "equality hit", 'n"ote')
    return Records(
        "demo", "A5", 60, [f"p={p};k=" for p in range(pairs)], [str(c) for c in range(m)],
        lhs, rhs, margin, i % 3 != 0, i % 5 == 0, i % 4 % 3, notes, seed=5,
    )


def test_writer_tables_reuse_texts_across_chunks(tmp_path, monkeypatch):
    """A block's texts come from tables of distinct values, and equal the stdlib's bytes.

    Values recur across chunks, one is next used three chunks after its
    first use, and values with the same text but other bits (-0.0 and 0.0,
    NaNs) stay apart.  The JSON writer formats each distinct value of a
    column once: lhs and margin, which hold non-finite values, go through
    `json`'s encoder, whose float arguments are recorded.
    """
    block = _recurring_block()
    first, last = np.flatnonzero(block.lhs == 1234.5)
    assert len(block) > 2 * RECORD_BLOCK and last // RECORD_BLOCK - first // RECORD_BLOCK == 3
    doc = ReportDocument(title="recurring", results=block)
    doc.stamp()
    _assert_writes_reference(doc, tmp_path)
    spelled = []
    encode = reports._SCALAR

    def recording(value):
        if type(value) is float:
            spelled.append(value)
        return encode(value)

    monkeypatch.setattr(reports, "_SCALAR", recording)
    doc.to_json()
    want = np.concatenate([np.unique(block.lhs.view(np.uint64)), np.unique(block.margin.view(np.uint64))])
    assert np.array_equal(np.sort(np.array(spelled).view(np.uint64)), np.sort(want))


def test_rows_that_differ_in_n_or_seed_start_a_block(tmp_path):
    """Each change of check, group, n or seed, in value or in type, starts a block.

    So every block shares one n and one seed, and each row keeps its own.
    """
    ns, seeds = [60, 60.0, 60, 61, True, 1], [3, 3.0, 3, None, False, 0]
    varying = [
        make_result(n=ns[i % 6], seed=seeds[i % 6], lhs=i / 3, note="x" if i % 4 else "")
        for i in range(200)
    ]
    shared = [make_result(check="other", seed=4, lhs=i / 5) for i in range(100)]
    rows = varying + shared + varying[:3]
    doc = ReportDocument(title="demo", results=rows)
    assert [len(b) for b in doc.blocks] == [1] * 200 + [100, 1, 1, 1]
    for block, r in zip(doc.blocks, varying + shared[:1] + varying[:3]):
        assert (block.check, block.group) == (r.check, r.group)
        assert (block.n, type(block.n), block.seed, type(block.seed)) == (r.n, type(r.n), r.seed, type(r.seed))
    # equal runs of rows stay one block
    again = ReportDocument(title="demo", results=shared + shared[:7] + [make_result(check="other", seed=4.0)])
    assert [len(b) for b in again.blocks] == [107, 1]
    assert _text_of(doc.results) == _text_of(rows)
    assert [(type(r.n), type(r.seed)) for r in doc.results] == [(type(r.n), type(r.seed)) for r in rows]
    doc.stamp()
    _assert_writes_reference(doc, tmp_path)


def _bound(lhs, rhs, op):
    return CheckResult.bound("demo", "A5", 60, "", lhs, rhs, 0.25, op)


@pytest.mark.parametrize(
    "op, edge, at, below, above",
    [
        ("<=", 1.25, True, True, False),
        ("<", 1.25, False, True, False),
        (">=", 0.75, True, False, True),
        (">", 0.75, False, False, True),
        ("==", 1.25, True, True, False),
        ("==", 0.75, True, False, True),
    ],
)
def test_bound_at_the_edge(op, edge, at, below, above):
    """lhs op 1.0 up to 0.25: at rhs +- tol, and one ulp either side."""
    cases = [
        (edge, at),
        (math.nextafter(edge, -math.inf), below),
        (math.nextafter(edge, math.inf), above),
    ]
    for lhs, expected in cases:
        r = _bound(lhs, 1.0, op)
        assert (r.lhs, r.rhs, r.passed) == (lhs, 1.0, expected), lhs
        if lhs == edge:
            assert r.margin == 0.0
        else:
            assert (r.margin > 0) == expected
        if op == "==":
            mirrored = _bound(1.0, lhs, op)
            assert (mirrored.margin, mirrored.passed) == (r.margin, r.passed)


def test_bound_fields():
    r = CheckResult.bound("demo", "A5", 60, "k=1", 3, 2, op=">", seed=4, note="x")
    assert type(r.lhs) is float and type(r.rhs) is float
    assert (r.margin, r.passed, r.seed, r.note) == (1.0, True, 4, "x")
    with pytest.raises(ValueError):
        CheckResult.bound("demo", "A5", 60, "", 1.0, 1.0, op="!=")


def test_bound_margin_on_arrays_has_the_scalar_bits():
    """One rule for rows and columns: every margin and verdict equal, -0.0 included."""
    edges = [0.0, -0.0, 0.75, 1.0, 1.25, 5e-324, 1e16, 0.1 + 0.2, -3.5]
    edges += [math.nextafter(x, math.inf) for x in edges]
    lhs, rhs = (g.ravel() for g in np.meshgrid(edges, edges))
    for op in ("<=", "<", ">=", ">", "=="):
        margin, passed = bound_margin(lhs, rhs, 0.25, op)
        for i, (x, y) in enumerate(zip(lhs.tolist(), rhs.tolist())):
            r = CheckResult.bound("demo", "A5", 60, "", x, y, 0.25, op)
            assert repr(margin[i].item()) == repr(r.margin) and bool(passed[i]) is r.passed


_TEXT = ["", 'q"uote', "back\\slash", "line\nbreak\ttab", "π ünï", "%s %d", "},\n   {", "\x00\x1f"]
_FLOATS = [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1.0, 0.0]


def _block(pairs, m, seed, check="demo"):
    """A built block and the rows it must read back as."""
    prefixes = [f"{_TEXT[p % len(_TEXT)]};p={p};k=" for p in range(pairs)]
    suffixes = [f"{s}{_TEXT[(s + 3) % len(_TEXT)]}" for s in range(m)]
    size = pairs * m
    cols = [np.array([_FLOATS[(i + shift) % len(_FLOATS)] for i in range(size)]) for shift in (0, 2, 5)]
    passed = np.arange(size) % 3 != 0
    skipped = np.arange(size) % 5 == 0
    notes = ("", "equality hit", 'n"ote\\ π')
    note = np.arange(size) % 4 % 3
    block = Records(check, "π", 60, prefixes, suffixes, *cols, passed, skipped, note, notes, seed)
    rows = [
        CheckResult(
            check, "π", 60, prefixes[i // m] + suffixes[i % m],
            *(float(c[i]) for c in cols), bool(passed[i]), bool(skipped[i]), seed, notes[note[i]],
        )
        for i in range(size)
    ]
    return block, rows


def _text_of(rows):
    return json.dumps([r.as_dict() for r in rows])


def test_writers_on_columns_match_the_stdlib_encoders(tmp_path):
    """Built blocks and rows from a list, in one document, write the stdlib bytes.

    Chunks of RECORD_BLOCK records start inside a pair's run of classes, an
    empty block and a block without classes write nothing, and a row's int
    or numpy lhs is written as a float.
    """
    straddling, straddling_rows = _block(RECORD_BLOCK // 7 + 30, 7, seed=None)
    seeded, seeded_rows = _block(40, 3, seed=4, check='c"heck')
    empty, _ = _block(0, 5, seed=None)
    classless, _ = _block(6, 0, seed=2)
    listed = [
        make_result(lhs=5, inputs='i"n\\put\n π'),
        make_result(lhs=math.nan, rhs=math.inf, margin=-math.inf, seed=7, note="x"),
        make_result(lhs=-0.0, rhs=5e-324, margin=1e16, skipped=True, passed=False),
        make_result(n=61, lhs=np.float64(0.5)),
    ]
    doc = ReportDocument(title="mixed", results=straddling, meta={"ünï": [1, -0.0]})
    doc.add(listed[:2])
    for block in (empty, seeded, classless):
        doc.add(block)
    doc.add(listed[2:])
    doc.stamp()
    assert _text_of(straddling.rows()) == _text_of(straddling_rows)
    assert _text_of(seeded.rows()) == _text_of(seeded_rows)
    assert len(doc.results) == len(straddling_rows) + len(seeded_rows) + len(listed)
    # every lhs reads back as a float
    read = [r._replace(lhs=float(r.lhs)) for r in listed]
    assert _text_of(doc.results) == _text_of(straddling_rows + read[:2] + seeded_rows + read[2:])
    _assert_writes_reference(doc, tmp_path)
    text = doc.to_json()
    assert '"lhs": 5.0,' in text and '"lhs": NaN,' in text and '"rhs": Infinity,' in text
    assert ",5.0,1.0,1.0,True\n" in doc.to_csv() and ",61,A=class:1,0.5,1.0,1.0,True\n" in doc.to_csv()


def test_rows_read_back_are_the_rows_added():
    """Indexing and iterating `results` give immutable `CheckResult`s, equal to the rows added."""
    block, rows = _block(3, 2, seed=None)
    listed = [make_result(lhs=0.5, seed=1, note="x"), make_result(passed=False, skipped=True)]
    doc = ReportDocument(title="demo", results=block)
    doc.add(listed)
    added = rows + listed
    assert all(type(r) is CheckResult for r in doc.results)
    # rows holding NaN are unequal to themselves, so compare their text
    assert _text_of(doc.results) == _text_of(added)
    indexed = [doc.results[i] for i in range(-len(added), len(added))]
    assert all(type(r) is CheckResult for r in indexed)
    assert _text_of(indexed) == _text_of(added * 2)
    assert list(doc.results)[-2:] == [doc.results[-2], doc.results[-1]] == listed
    row = doc.results[-4]
    assert (row.inputs, row.passed, row.skipped) == ("back\\slash;p=2;k=0line\nbreak\ttab", True, False)
    before = doc.tally()
    for name, value in (("passed", False), ("inputs", "x"), ("seed", 3)):
        with pytest.raises(AttributeError):
            setattr(row, name, value)
    assert doc.tally() == before and doc.results[-4] == row
    with pytest.raises(IndexError):
        doc.results[8]
    with pytest.raises(ValueError):
        Records("demo", "A5", 60, ["a", "b"], [""], [1.0], [1.0], [0.0], [True])


@pytest.mark.parametrize("sizes", [[1] * 300, [0, 3, 0, 0, 1, RECORD_BLOCK + 5, 2, 0], [7]])
def test_rows_index_as_they_iterate(sizes):
    """Every index, negative ones included, reads the record iteration reads, across blocks of any size.

    Empty blocks sit between and at the ends; one past either end raises.
    """
    doc = ReportDocument(title="demo")
    for i, size in enumerate(sizes):
        doc.add(_block(size, 1, seed=i)[0])
    rows = doc.results
    assert len(rows) == sum(sizes)
    want = list(rows)
    assert _text_of([rows[i] for i in range(-len(rows), len(rows))]) == _text_of(want * 2)
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]
    # the view is live: a block added later is read through the view held
    doc.add(_block(2, 1, seed=len(sizes))[0])
    assert len(rows) == sum(sizes) + 2 and rows is doc.results
    assert _text_of([rows[-2], rows[-1]]) == _text_of(list(doc.blocks[-1].rows()))
