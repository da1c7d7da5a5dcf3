"""NTU: the columnar ntuple container.

Byte layout (all integers little-endian):

    magic   4 bytes  "NTU1"
    header  u32 length, then canonical JSON: {"columns": [["name","kind"], ...]}
    groups  repeated, each:
                u32 row count
                for every column, in header order: row-count values packed
                back-to-back as fixed-width little-endian primitives
    footer  u64 total row count, u32 group count

Column kinds are f64/f32/i64/i32/bool with widths 8/4/8/4/1 bytes, so the
offset of any column within a group is computable from the row count alone;
reading a column subset seeks over the others and the bytes read stay
proportional to the columns requested.
"""

from __future__ import annotations

import os
import sys
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from struct import Struct
from typing import Iterable, Sequence

from .. import canonical
from ..errors import ArityMismatch, BadMagic, CorruptHeader, FooterMismatch, UnknownColumn

MAGIC = b"NTU1"
DEFAULT_GROUP_ROWS = 65536

_U32 = Struct("<I")
_FOOTER = Struct("<QI")
_MAX_HEADER = 16 * 1024 * 1024

# kind -> (array typecode, byte width)
KIND_INFO = {"f64": ("d", 8), "f32": ("f", 4), "i64": ("q", 8), "i32": ("i", 4), "bool": ("b", 1)}

_BIG_ENDIAN = sys.byteorder == "big"


def _tobytes(arr: array) -> array:
    """The array's values as little-endian bytes: the array itself, without
    a copy, on a little-endian host."""
    if _BIG_ENDIAN:
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr


def _frombytes(typecode: str, data: bytes) -> array:
    arr = array(typecode)
    arr.frombytes(data)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr


@dataclass(frozen=True)
class NtuWriteStats:
    path: Path
    n_rows: int
    n_groups: int
    file_bytes: int


class NtuWriter:
    """Writes column-wise row groups of `group_target` rows (the last one
    may be shorter), from one typed array per column (`append_columns`),
    buffered until a group fills. Rows (`append`, `append_rows`) are
    transposed into such arrays and appended the same way.

    Writes to `<path>.tmp` and renames on close(); abort() removes the
    partial file. Deterministic: the same rows and group target produce
    byte-identical files, however they are split into calls and whether
    they come as rows or as columns.
    """

    def __init__(self, path, columns: Sequence[tuple[str, str]], *, group_target: int = DEFAULT_GROUP_ROWS):
        if group_target < 1:
            raise ValueError("group_target must be >= 1")
        for name, kind in columns:
            if kind not in KIND_INFO:
                raise ArityMismatch(f"column {name!r}: unknown kind {kind!r}")
        names = [name for name, _ in columns]
        if len(set(names)) != len(names):
            raise ArityMismatch("duplicate column names")
        self.path = Path(path)
        self.columns = tuple((name, kind) for name, kind in columns)
        self.group_target = group_target
        self._typecodes = [KIND_INFO[kind][0] for _, kind in self.columns]
        self._buffers = [array(tc) for tc in self._typecodes]
        self._ncols = len(self.columns)
        self._pending = 0
        self._n_rows = 0
        self._n_groups = 0
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._file = open(self._tmp, "wb")
        self._closed = False
        try:
            header = canonical.dump_bytes({"columns": [[n, k] for n, k in self.columns]})
            self._file.write(MAGIC)
            self._file.write(_U32.pack(len(header)))
            self._file.write(header)
        except BaseException:
            self.abort()
            raise

    def append(self, row: Sequence) -> None:
        self.append_rows((row,))

    def append_rows(self, rows: Iterable[Sequence]) -> None:
        """Append rows of values in header order, transposed into columns
        `group_target` rows at a time. A row of the wrong length, or with a
        value its column cannot hold, raises `ArityMismatch` before any row
        of its batch is buffered."""
        rows = iter(rows)
        while batch := list(islice(rows, self.group_target)):
            for row in batch:
                if len(row) != self._ncols:
                    raise ArityMismatch(f"row has {len(row)} values, expected {self._ncols}")
            try:
                columns = [array(tc, values) for tc, values in zip(self._typecodes, zip(*batch))]
            except (TypeError, OverflowError) as exc:
                raise ArityMismatch(f"row value does not match column kind: {exc}") from exc
            self.append_columns(columns, len(batch))

    def append_columns(self, columns: Sequence[array], n_rows: int) -> None:
        """Append `n_rows` rows given as one array per column, in header
        order, each of its column's typecode and `n_rows` long."""
        if len(columns) != self._ncols:
            raise ArityMismatch(f"{len(columns)} columns, expected {self._ncols}")
        for (name, _), typecode, col in zip(self.columns, self._typecodes, columns):
            if not isinstance(col, array) or col.typecode != typecode:
                raise ArityMismatch(f"column {name!r} is not an array of typecode {typecode!r}")
            if len(col) != n_rows:
                raise ArityMismatch(f"column {name!r} has {len(col)} values, expected {n_rows}")
        start = 0
        while start < n_rows:
            stop = min(n_rows, start + self.group_target - self._pending)
            for buf, col in zip(self._buffers, columns):
                buf.extend(col[start:stop])
            self._pending += stop - start
            if self._pending >= self.group_target:
                self._flush_group()
            start = stop
        self._n_rows += n_rows

    def _flush_group(self) -> None:
        if self._pending == 0:
            return
        self._file.write(_U32.pack(self._pending))
        for buf in self._buffers:
            self._file.write(_tobytes(buf))
        self._buffers = [array(tc) for tc in self._typecodes]
        self._n_groups += 1
        self._pending = 0

    def close(self) -> NtuWriteStats:
        if self._closed:
            raise ValueError("writer already closed")
        try:
            self._flush_group()
            self._file.write(_FOOTER.pack(self._n_rows, self._n_groups))
            size = self._file.tell()
            self._file.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        self._closed = True
        return NtuWriteStats(self.path, self._n_rows, self._n_groups, size)

    def abort(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "NtuWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            self.abort()


def write_ntu(
    path,
    rows: Iterable[Sequence],
    columns: Sequence[tuple[str, str]],
    *,
    group_target: int = DEFAULT_GROUP_ROWS,
) -> NtuWriteStats:
    writer = NtuWriter(path, columns, group_target=group_target)
    try:
        writer.append_rows(rows)
    except BaseException:
        writer.abort()
        raise
    return writer.close()


@dataclass
class NtuData:
    """Columns read back from an NTU file."""

    path: Path
    columns: dict[str, array]
    kinds: dict[str, str]
    all_columns: tuple[tuple[str, str], ...]
    n_rows: int
    n_groups: int
    bytes_read: int

    def rows(self) -> list[tuple]:
        """Transpose the loaded columns back to row tuples (loaded order)."""
        return list(zip(*(self.columns[name] for name in self.columns))) if self.columns else []


def read_ntu(
    path,
    columns: Sequence[str] | None = None,
) -> NtuData:
    """Read the requested columns (all when None), seeking over the rest."""
    path = Path(path)
    bytes_read = 0
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise BadMagic(f"{path}: not an NTU file (magic {magic!r})")
        raw = f.read(4)
        if len(raw) < 4:
            raise CorruptHeader(f"{path}: truncated header length")
        (hlen,) = _U32.unpack(raw)
        if hlen > _MAX_HEADER:
            raise CorruptHeader(f"{path}: implausible header length {hlen}")
        header_raw = f.read(hlen)
        if len(header_raw) < hlen:
            raise CorruptHeader(f"{path}: truncated header")
        bytes_read += 8 + hlen
        try:
            import json

            header = json.loads(header_raw.decode("utf-8"))
            all_columns = tuple((str(n), str(k)) for n, k in header["columns"])
        except Exception as exc:
            raise CorruptHeader(f"{path}: bad header: {exc}") from exc
        for name, kind in all_columns:
            if kind not in KIND_INFO:
                raise CorruptHeader(f"{path}: column {name!r} has unknown kind {kind!r}")

        known = {name for name, _ in all_columns}
        if columns is None:
            wanted = [name for name, _ in all_columns]
        else:
            for name in columns:
                if name not in known:
                    raise UnknownColumn(f"{path}: no column {name!r}")
            wanted = list(columns)
        wanted_set = set(wanted)
        kinds = dict(all_columns)

        if file_size < f.tell() + _FOOTER.size:
            raise FooterMismatch(f"{path}: file too short for footer")
        data_start = f.tell()
        f.seek(file_size - _FOOTER.size)
        total_rows, n_groups = _FOOTER.unpack(f.read(_FOOTER.size))
        bytes_read += _FOOTER.size
        f.seek(data_start)

        out = {name: array(KIND_INFO[kinds[name]][0]) for name in wanted}
        rows_seen = 0
        for g in range(n_groups):
            raw = f.read(4)
            if len(raw) < 4:
                raise FooterMismatch(f"{path}: group {g}: truncated group header")
            (nrows,) = _U32.unpack(raw)
            bytes_read += 4
            for name, kind in all_columns:
                nbytes = nrows * KIND_INFO[kind][1]
                if name in wanted_set:
                    data = f.read(nbytes)
                    if len(data) < nbytes:
                        raise FooterMismatch(f"{path}: group {g}: truncated column {name!r}")
                    bytes_read += nbytes
                    out[name].extend(_frombytes(KIND_INFO[kind][0], data))
                else:
                    f.seek(nbytes, os.SEEK_CUR)
            rows_seen += nrows
        if f.tell() != file_size - _FOOTER.size:
            raise FooterMismatch(f"{path}: data section does not end at the footer")
        if rows_seen != total_rows:
            raise FooterMismatch(
                f"{path}: footer declares {total_rows} rows, groups hold {rows_seen}"
            )
    return NtuData(path, out, {n: kinds[n] for n in wanted}, all_columns, total_rows, n_groups, bytes_read)


def inspect_ntu(path) -> dict:
    data = read_ntu(path, columns=[])
    return {
        "format": "NTU",
        "path": str(data.path),
        "columns": [[n, k] for n, k in data.all_columns],
        "rows": data.n_rows,
        "groups": data.n_groups,
        "file_bytes": os.stat(path).st_size,
    }
