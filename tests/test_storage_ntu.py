import json
import random
import struct
import time
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skimflow.errors import (
    ArityMismatch, BadMagic, ConfigError, CorruptHeader, DataError, FooterMismatch, UnknownColumn,
)
from skimflow.storage import NtuWriter, read_ntu, scan_evt
from skimflow.storage.ntu import DEFAULT_GROUP_ROWS, KIND_INFO, read_frame, write_frame

from mutation import MUTATIONS, mutate
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


def write_ntu(path, rows, columns, *, group_target=DEFAULT_GROUP_ROWS):
    """Write `rows` to a new NTU file, as a caller that owns the writer does."""
    with NtuWriter(path, columns, group_target=group_target) as writer:
        writer.append_rows(rows)
        return writer.close()


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


@pytest.mark.parametrize("magic, read, header", [
    pytest.param(b"EVT1", scan_evt, "schema header", id="EVT"),
    pytest.param(b"NTU1", read_ntu, "header", id="NTU"),
])
def test_evt_and_ntu_share_one_frame(tmp_path, magic, read, header):
    """Both containers open with magic, a u32 header length and the
    header: written by `write_frame`, read by `read_frame`, whose checks
    each container's reader raises with the same messages."""
    path = tmp_path / "f"
    with open(path, "wb") as f:
        write_frame(f, magic, b"head")
        f.write(b"rest")
    with open(path, "rb") as f:
        assert read_frame(f, path, 16, magic, header) == b"head"
        assert f.read() == b"rest"
    for after_magic, message in [
        (b"\x10\x00", "truncated header length$"),
        (struct.pack("<I", 16 * 1024 * 1024 + 1), "implausible header length 16777217$"),
        (struct.pack("<I", 100) + b"{}", f"truncated {header}$"),
    ]:
        path.write_bytes(magic + after_magic)
        with pytest.raises(CorruptHeader, match=message):
            read(path)
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(BadMagic, match=f"not an {magic[:3].decode()} file"):
        read(path)


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


@pytest.mark.parametrize("header, match", [
    pytest.param('{"columns": [["a", "f64"], ["a", "f64"]]}', "duplicate column names",
                 id="duplicate-name"),
    pytest.param('{"columns": [[1, "f64"]]}', "must be strings", id="number-name"),
    pytest.param('{"columns": [[null, "f64"]]}', "must be strings", id="null-name"),
    pytest.param('{"columns": [["a", ["f64"]]]}', "must be strings", id="list-kind"),
    pytest.param('{"columns": [{"a": 0, "f64": 1}]}', "list of", id="object-entry"),
    pytest.param('{"columns":[["a","f64"]],"columns":[["a","f64"]],"extra":1}',
                 "duplicate key 'columns'", id="repeated-key"),
    pytest.param('{"columns": [["a", "f64"]], "extra": 1}', "only key", id="extra-key"),
    pytest.param('[["a", "f64"]]', "only key", id="not-an-object"),
    pytest.param('{"columns": [["a", "f64"]], "x": NaN}', "NaN is not a JSON number", id="nan"),
])
def test_header_columns_are_unique_json_strings(tmp_path, header, match):
    header = header.encode()
    path = tmp_path / "f.ntu"
    path.write_bytes(b"NTU1" + struct.pack("<I", len(header)) + header + struct.pack("<QI", 0, 0))
    with pytest.raises(CorruptHeader, match=match):
        read_ntu(path)


@pytest.mark.parametrize("columns", [None, []], ids=["read", "skipped"])
def test_a_group_row_count_is_bounded_before_the_read(tmp_path, columns):
    raw = bytearray(reference_ntu([(1.0,), (2.0,)], [("x", "f64")], 2))
    struct.pack_into("<I", raw, len(raw) - 12 - 2 * 8 - 4, 2**22)  # the group's row count
    path = tmp_path / "f.ntu"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(FooterMismatch, match="past the footer"):
            read_ntu(path, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_header_length_is_bounded_by_the_file_before_the_read(tmp_path):
    raw = bytearray(reference_ntu([(1.0,), (2.0,)], [("x", "f64")], 2))
    struct.pack_into("<I", raw, 4, 16 * 1024 * 1024)
    path = tmp_path / "f.ntu"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptHeader, match="truncated header"):
            read_ntu(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_arity_and_kind_mismatch(tmp_path):
    writer = NtuWriter(tmp_path / "f.ntu", COLS3)
    with pytest.raises(ArityMismatch):
        writer.append_rows([(1.0, 2)])
    with pytest.raises(ArityMismatch):
        writer.append_rows([(1.0, 2.5, True)])  # float into i64 column
    writer.append_rows([(1.0, 2, True)])
    stats = writer.close()
    assert stats.n_rows == 1
    data = read_ntu(tmp_path / "f.ntu")
    assert data.rows() == [(1.0, 2, 1)]

    # a bad row in the middle of a batch leaves nothing of its batch behind
    good = [(float(i), i, i % 2 == 0) for i in range(7)]
    # short; float in i64; beyond i64; bools other than 0 and 1
    for bad in [(1.0, 2), (1.0, 2.5, True), (1.0, 2**63, True), (1.0, 2, 5), (1.0, 2, -1)]:
        path = tmp_path / "rows.ntu"
        writer = NtuWriter(path, COLS3, group_target=4)
        writer.append_rows(good[:2])
        with pytest.raises(ArityMismatch):
            writer.append_rows([good[2], bad, good[3]])
        writer.append_rows(good[4:])
        assert writer.close().n_rows == 5
        assert path.read_bytes() == reference_ntu(good[:2] + good[4:], COLS3, 4)


@pytest.mark.parametrize("group_target", [0, 0.5, True, "2", None])
def test_a_group_target_is_an_int_of_at_least_one(tmp_path, group_target):
    with pytest.raises(ConfigError, match="group_target must be an int >= 1"):
        NtuWriter(tmp_path / "f.ntu", COLS3, group_target=group_target)
    assert list(tmp_path.iterdir()) == []


def test_abort_removes_partial_file(tmp_path):
    writer = NtuWriter(tmp_path / "f.ntu", COLS3)
    writer.append_rows([(1.0, 1, True)])
    writer.abort()
    assert list(tmp_path.iterdir()) == []


def test_rewrite_column_reaches_written_groups_and_the_buffer(tmp_path):
    """Ten rows in groups of 4: two groups on disk and two rows buffered,
    each column rewritten in turn; the file is the layout of the
    rewritten rows."""
    rows = [(float(i), i, i % 3 == 0) for i in range(10)]
    with NtuWriter(tmp_path / "f.ntu", COLS3, group_target=4) as writer:
        writer.append_rows(rows)
        writer.rewrite_column(0, lambda col: array("d", [v * 0.5 for v in col]))
        writer.rewrite_column(1, lambda col: array("q", [-v for v in col]))
        writer.rewrite_column(2, lambda col: array("b", [1 - v for v in col]))
        assert writer.close().n_groups == 3
    want = [(x * 0.5, -n, not flag) for x, n, flag in rows]
    assert (tmp_path / "f.ntu").read_bytes() == reference_ntu(want, COLS3, 4)


@pytest.mark.parametrize("fn", [
    lambda col: array("f", col),  # another typecode
    lambda col: array("d", list(col) + [0.0]),  # one value too many
    lambda col: array("d", list(col)[1:]),  # one too few
    lambda col: list(col),  # a list, not an array
])
def test_rewrite_column_rejects_a_mismatch(tmp_path, fn):
    writer = NtuWriter(tmp_path / "f.ntu", COLS3, group_target=4)
    writer.append_rows([(float(i), i, True) for i in range(6)])
    with pytest.raises(ArityMismatch):
        writer.rewrite_column(0, fn)
    writer.abort()
    assert list(tmp_path.iterdir()) == []
    # the buffer is checked as a written group is: a bool other than 0 or 1
    writer = NtuWriter(tmp_path / "b.ntu", COLS3, group_target=4)
    writer.append_rows([(1.0, 1, True)])
    with pytest.raises(ArityMismatch):
        writer.rewrite_column(2, lambda col: array("b", [2] * len(col)))
    writer.abort()


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
    ([array("d", [1.0, 2.0]), array("q", [1, 2]), array("b", [0, 2])], 2),  # a bool of 2
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


# -- malformed files -----------------------------------------------------------------

FUZZ_COLUMNS = [("a", "f64"), ("b", "f32"), ("c", "i64"), ("d", "i32"), ("e", "bool")]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """An NTU file of every kind in three groups (3, 3 and 1 rows), written
    by `append_columns`, the byte range of each of its regions, and a
    directory for the mutated copies."""
    root = tmp_path_factory.mktemp("ntu_fuzz")
    writer = NtuWriter(root / "f.ntu", FUZZ_COLUMNS, group_target=3)
    writer.append_columns(
        [array(KIND_INFO[kind][0], [i % 2 if kind == "bool" else i - 3 for i in range(7)])
         for _, kind in FUZZ_COLUMNS],
        7,
    )
    writer.close()
    data = (root / "f.ntu").read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 4)
    regions = {"header": (0, 8 + hlen), "groups": (8 + hlen, len(data) - 12),
               "footer": (len(data) - 12, len(data))}
    return data, regions, root


@given(region=st.sampled_from(["header", "groups", "footer"]), mutations=MUTATIONS)
@settings(max_examples=500, deadline=None)
def test_a_mutated_file_reads_or_raises_data_error(fuzz_file, region, mutations):
    """Mutations placed in one region of the file. A read of all columns,
    of a subset and of none each returns columns of `n_rows` values or
    raises a DataError, in bounded memory and time."""
    data, regions, root = fuzz_file
    lo, hi = regions[region]
    path = root / "mutated.ntu"
    path.write_bytes(mutate(data, [(kind, lo + pos % (hi - lo), arg)
                                   for kind, pos, arg in mutations]))
    for columns in (None, ["b", "e"], []):
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            got = read_ntu(path, columns)
            assert all(len(values) == got.n_rows for values in got.columns.values())
        except DataError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 2**20
        assert time.perf_counter() - t0 < 2.0
