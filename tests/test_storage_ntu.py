import json
import random
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skimflow.errors import ArityMismatch, BadMagic, FooterMismatch, UnknownColumn
from skimflow.storage import NtuWriter, read_ntu, write_ntu
from skimflow.storage.ntu import KIND_INFO

from randgen import f32_exact

COLS3 = [("x", "f64"), ("n", "i64"), ("flag", "bool")]

_PACK = {"f64": "d", "f32": "f", "i64": "q", "i32": "i", "bool": "?"}


def reference_ntu(rows, columns, group_target):
    """The bytes of an NTU file holding `rows`, written from the layout in
    the `ntu` module docstring alone: magic, the header's length and
    compact JSON, groups of `group_target` rows (the last one shorter),
    each its row count and then every column's values packed, and the
    footer's total row count and group count."""
    header = json.dumps({"columns": [[n, k] for n, k in columns]}, separators=(",", ":")).encode()
    out = [b"NTU1", struct.pack("<I", len(header)), header]
    groups = [rows[i:i + group_target] for i in range(0, len(rows), group_target)]
    for group in groups:
        out.append(struct.pack("<I", len(group)))
        for i, (_, kind) in enumerate(columns):
            out.append(struct.pack(f"<{len(group)}{_PACK[kind]}", *(row[i] for row in group)))
    out.append(struct.pack("<QI", len(rows), len(groups)))
    return b"".join(out)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.ntu"
    stats = write_ntu(path, [], COLS3)
    assert stats.n_rows == 0 and stats.n_groups == 0
    data = read_ntu(path)
    assert data.n_rows == 0 and data.n_groups == 0
    assert [list(v) for v in data.columns.values()] == [[], [], []]


def test_group_chunking_and_footer(tmp_path):
    path = tmp_path / "f.ntu"
    rows = [(1.0, 1, True), (2.0, 2, False), (3.0, 3, True)]
    stats = write_ntu(path, rows, COLS3, group_target=2)
    assert stats.n_groups == 2 and stats.n_rows == 3
    data = read_ntu(path)
    assert data.n_rows == 3 and data.n_groups == 2
    assert list(data.columns["x"]) == [1.0, 2.0, 3.0]
    assert list(data.columns["n"]) == [1, 2, 3]
    assert list(data.columns["flag"]) == [1, 0, 1]


def test_transpose_identity(tmp_path):
    rng = random.Random(3)
    rows = [(rng.uniform(-10, 10), rng.randint(-5, 5), rng.random() < 0.5) for _ in range(10000)]
    path = tmp_path / "f.ntu"
    write_ntu(path, rows, COLS3, group_target=1024)
    data = read_ntu(path)
    assert data.rows() == [(x, n, int(f)) for x, n, f in rows]


def test_column_subset_reads_proportional_bytes(tmp_path):
    cols = [(f"c{i}", "f64") for i in range(8)]
    rows = [tuple(float(i * 8 + j) for j in range(8)) for i in range(5000)]
    path = tmp_path / "wide.ntu"
    write_ntu(path, rows, cols, group_target=1000)
    full = read_ntu(path)
    one = read_ntu(path, ["c3"])
    assert list(one.columns["c3"]) == [r[3] for r in rows]

    column_payload = 5000 * 8 * 8  # all column data: 5000 rows x 8 f64 columns
    overhead = full.bytes_read - column_payload  # header, footer, group row counts
    assert one.bytes_read <= column_payload / 8 + overhead
    assert one.bytes_read < full.bytes_read / 4


def test_unknown_column(tmp_path):
    path = tmp_path / "f.ntu"
    write_ntu(path, [(1.0, 1, True)], COLS3)
    with pytest.raises(UnknownColumn):
        read_ntu(path, ["nope"])


def test_bad_magic(tmp_path):
    path = tmp_path / "f.ntu"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        read_ntu(path)


def test_footer_mismatch(tmp_path):
    path = tmp_path / "f.ntu"
    write_ntu(path, [(1.0, 1, True), (2.0, 2, False)], COLS3)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, len(raw) - 12, 99)  # corrupt total row count
    path.write_bytes(bytes(raw))
    with pytest.raises(FooterMismatch):
        read_ntu(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "f.ntu"
    write_ntu(path, [(float(i), i, False) for i in range(100)], COLS3)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FooterMismatch):
        read_ntu(path)


def test_arity_and_kind_mismatch(tmp_path):
    writer = NtuWriter(tmp_path / "f.ntu", COLS3)
    with pytest.raises(ArityMismatch):
        writer.append((1.0, 2))
    with pytest.raises(ArityMismatch):
        writer.append((1.0, 2.5, True))  # float into i64 column
    writer.append((1.0, 2, True))
    stats = writer.close()
    assert stats.n_rows == 1
    data = read_ntu(tmp_path / "f.ntu")
    assert data.rows() == [(1.0, 2, 1)]

    # a bad row in the middle of a batch leaves nothing of its batch behind
    good = [(float(i), i, i % 2 == 0) for i in range(7)]
    for bad in [(1.0, 2), (1.0, 2.5, True), (1.0, 2**63, True)]:  # short; float in i64; beyond i64
        path = tmp_path / "rows.ntu"
        writer = NtuWriter(path, COLS3, group_target=4)
        writer.append_rows(good[:2])
        with pytest.raises(ArityMismatch):
            writer.append_rows([good[2], bad, good[3]])
        writer.append_rows(good[4:])
        assert writer.close().n_rows == 5
        assert path.read_bytes() == reference_ntu(good[:2] + good[4:], COLS3, 4)


def test_abort_removes_partial_file(tmp_path):
    writer = NtuWriter(tmp_path / "f.ntu", COLS3)
    writer.append((1.0, 1, True))
    writer.abort()
    assert list(tmp_path.iterdir()) == []


def test_write_is_deterministic(tmp_path):
    rows = [(float(i), i, i % 2 == 0) for i in range(1000)]
    a, b = tmp_path / "a.ntu", tmp_path / "b.ntu"
    write_ntu(a, rows, COLS3, group_target=100)
    write_ntu(b, rows, COLS3, group_target=100)
    assert a.read_bytes() == b.read_bytes()


# -- property tests ------------------------------------------------------------------

_KIND_VALUES = {
    "f64": st.floats(allow_nan=False, width=64),
    "f32": st.floats(allow_nan=False, width=32).map(f32_exact),
    "i64": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "i32": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "bool": st.booleans(),
}


@st.composite
def columns_and_rows(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KIND_VALUES)), min_size=1, max_size=5))
    columns = [(f"c{i}", kind) for i, kind in enumerate(kinds)]
    row = st.tuples(*(_KIND_VALUES[kind] for kind in kinds))
    rows = draw(st.lists(row, max_size=8))
    return columns, rows


def _normalize(row):
    return tuple(int(v) if isinstance(v, bool) else v for v in row)


@given(case=columns_and_rows(), group_target=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_random_transpose_identity(tmp_path_factory, case, group_target):
    columns, rows = case
    path = tmp_path_factory.mktemp("ntu") / "f.ntu"
    write_ntu(path, rows, columns, group_target=group_target)
    data = read_ntu(path)
    assert data.rows() == [_normalize(r) for r in rows]
    assert data.n_rows == len(rows)


@st.composite
def columns_rows_and_chunks(draw):
    """Random columns and rows of every kind, and a split of the rows into
    consecutive chunks, empty ones included."""
    columns, rows = draw(columns_and_rows())
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    bounds = [0, *cuts, len(rows)]
    return columns, rows, list(zip(bounds, bounds[1:]))


def _column_arrays(rows, columns):
    return [array(KIND_INFO[kind][0], [row[i] for row in rows]) for i, (_, kind) in enumerate(columns)]


@given(case=columns_rows_and_chunks(), group_target=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_writer_matches_the_layout_reference(tmp_path_factory, case, group_target):
    columns, rows, chunks = case
    want = reference_ntu(rows, columns, group_target)
    root = tmp_path_factory.mktemp("ntu")
    writer = NtuWriter(root / "cols.ntu", columns, group_target=group_target)
    for lo, hi in chunks:
        writer.append_columns(_column_arrays(rows[lo:hi], columns), hi - lo)
    assert writer.close().n_rows == len(rows)
    assert (root / "cols.ntu").read_bytes() == want
    write_ntu(root / "rows.ntu", rows, columns, group_target=group_target)
    assert (root / "rows.ntu").read_bytes() == want


def test_append_columns_after_rows_continues_the_group(tmp_path):
    rows = [(float(i), i, i % 3 == 0) for i in range(11)]
    writer = NtuWriter(tmp_path / "mixed.ntu", COLS3, group_target=4)
    writer.append_rows(rows[:3])
    writer.append_columns(_column_arrays(rows[3:9], COLS3), 6)
    writer.append_rows(rows[9:])
    writer.close()
    assert (tmp_path / "mixed.ntu").read_bytes() == reference_ntu(rows, COLS3, 4)


@pytest.mark.parametrize("columns, n_rows", [
    ([array("d", [1.0]), array("q", [1])], 1),  # a column missing
    ([array("d", [1.0]), array("q", [1]), array("b", [1]), array("d", [2.0])], 1),  # one too many
    ([array("d", [1.0, 2.0]), array("q", [1]), array("b", [1])], 1),  # ragged
    ([array("d", [1.0]), array("q", [1, 2]), array("b", [1, 0])], 2),  # ragged
    ([array("d", [1.0]), array("i", [1]), array("b", [1])], 1),  # i32 typecode for i64
    ([array("f", [1.0]), array("q", [1]), array("b", [1])], 1),  # f32 typecode for f64
    ([[1.0], array("q", [1]), array("b", [1])], 1),  # a list, not an array
])
def test_append_columns_rejects_a_mismatch(tmp_path, columns, n_rows):
    writer = NtuWriter(tmp_path / "f.ntu", COLS3)
    with pytest.raises(ArityMismatch):
        writer.append_columns(columns, n_rows)
    writer.append_columns([array("d", [1.0]), array("q", [2]), array("b", [1])], 1)
    assert writer.close().n_rows == 1
    assert read_ntu(tmp_path / "f.ntu").rows() == [(1.0, 2, 1)]


def test_zero_columns_count_rows(tmp_path):
    want = reference_ntu([()] * 5, [], 2)
    write_ntu(tmp_path / "rows.ntu", [()] * 5, [], group_target=2)
    writer = NtuWriter(tmp_path / "cols.ntu", [], group_target=2)
    writer.append_columns([], 3)
    writer.append_columns([], 0)
    writer.append_columns([], 2)
    assert writer.close().n_rows == 5
    assert (tmp_path / "cols.ntu").read_bytes() == want
    assert (tmp_path / "rows.ntu").read_bytes() == want
    assert read_ntu(tmp_path / "cols.ntu").n_groups == 3
