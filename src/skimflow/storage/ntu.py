"""NTU: the columnar ntuple container.

Byte layout (all integers little-endian):

    magic   4 bytes  "NTU1"
    header  u32 length, then canonical JSON: {"columns": [["name","kind"], ...]},
            and no other key, with unique names; names and kinds are JSON
            strings (read by `canonical.loads`, so no key repeats)
    groups  repeated, each:
                u32 row count
                for every column, in header order: row-count values packed
                back-to-back as fixed-width little-endian primitives
    footer  u64 total row count, u32 group count

Column kinds are f64/f32/i64/i32/bool with widths 8/4/8/4/1 bytes (a bool
is 0 or 1; a reader returns any other byte as its signed value, so 0xff
reads back as -1), so the offset of any column within a group is
computable from the row count alone; reading a column subset seeks over
the others and the bytes read stay proportional to the columns requested.
A header length that runs past the end of the file, and a group whose row
count would carry its columns past the footer, are rejected before the
read.
"""

from __future__ import annotations

import os
import sys
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from struct import Struct
from typing import Callable, Iterable, Sequence

from .. import canonical
from ..errors import (
    ArityMismatch, BadMagic, ConfigError, CorruptHeader, FooterMismatch, UnknownColumn,
)

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


def write_frame(f, magic: bytes, header: bytes) -> None:
    """Write the frame that EVT and NTU files open with: magic, a u32
    header length, the header."""
    f.write(magic)
    f.write(_U32.pack(len(header)))
    f.write(header)


def read_frame(f, path, file_size: int, magic: bytes, header: str) -> bytes:
    """The header bytes of the frame at the start of `f`, a file of
    `file_size` bytes, after checking its magic and bounding its length by
    16 MiB and by the bytes left; `header` names the header in errors."""
    got = f.read(4)
    if got != magic:
        raise BadMagic(f"{path}: not an {magic[:3].decode()} file (magic {got!r})")
    raw = f.read(4)
    if len(raw) < 4:
        raise CorruptHeader(f"{path}: truncated header length")
    (hlen,) = _U32.unpack(raw)
    if hlen > _MAX_HEADER:
        raise CorruptHeader(f"{path}: implausible header length {hlen}")
    # a buffered read allocates its length first: check it against the file
    if hlen > file_size - f.tell():
        raise CorruptHeader(f"{path}: truncated {header}")
    return f.read(hlen)


def check_target(name: str, value) -> None:
    """A block or group target is an int, not a bool, of at least 1."""
    if type(value) is not int or value < 1:
        raise ConfigError(f"{name} must be an int >= 1, not {value!r}")


@dataclass(frozen=True)
class NtuWriteStats:
    path: Path
    n_rows: int
    n_groups: int
    file_bytes: int


class NtuWriter:
    """Writes column-wise row groups of `group_target` rows (the last one
    may be shorter), from one typed array per column (`append_columns`),
    buffered until a group fills, so it holds at most one group. Rows
    (`append_rows`) are transposed into such arrays and appended the same
    way. `rewrite_column` rewrites a column in the written groups and the
    buffer alike.

    Writes to `<path>.tmp` and renames on close(); abort(), or an error
    inside a `with` block, removes the partial file. Deterministic: the
    same rows and group target produce byte-identical files, however they
    are split into calls and whether they come as rows or as columns.
    """

    def __init__(self, path, columns: Sequence[tuple[str, str]], *, group_target: int = DEFAULT_GROUP_ROWS):
        check_target("group_target", group_target)
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
        self._groups: list[tuple[int, int]] = []  # (file offset, rows) per written group
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._file = open(self._tmp, "w+b")
        self._closed = False
        try:
            header = canonical.dump_bytes({"columns": [[n, k] for n, k in self.columns]})
            write_frame(self._file, MAGIC, header)
        except BaseException:
            self.abort()
            raise

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
        order, each of its column's typecode and `n_rows` long; a bool
        column holds only 0 and 1."""
        if len(columns) != self._ncols:
            raise ArityMismatch(f"{len(columns)} columns, expected {self._ncols}")
        for index, col in enumerate(columns):
            self._checked(index, col, n_rows)
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

    def _checked(self, index: int, col, n_rows: int) -> array:
        """`col` if it can be column `index` of `n_rows` rows, else `ArityMismatch`."""
        name, typecode = self.columns[index][0], self._typecodes[index]
        if not isinstance(col, array) or col.typecode != typecode:
            raise ArityMismatch(f"column {name!r} is not an array of typecode {typecode!r}")
        if len(col) != n_rows:
            raise ArityMismatch(f"column {name!r} has {len(col)} values, expected {n_rows}")
        if typecode == "b" and col.count(0) + col.count(1) != n_rows:
            raise ArityMismatch(f"bool column {name!r} holds a value other than 0 or 1")
        return col

    def _flush_group(self) -> None:
        if self._pending == 0:
            return
        self._groups.append((self._file.tell(), self._pending))
        self._file.write(_U32.pack(self._pending))
        for buf in self._buffers:
            self._file.write(_tobytes(buf))
        self._buffers = [array(tc) for tc in self._typecodes]
        self._pending = 0

    def rewrite_column(self, index: int, fn: Callable[[array], array]) -> None:
        """Replace column `index` with `fn(values)` in every written group,
        in place at the offset its row count fixes, then in the buffered
        rows. `fn` must keep the column's typecode and length, else
        `ArityMismatch`; a writer that raises here is to be aborted."""
        typecode, width = KIND_INFO[self.columns[index][1]]
        skip = sum(KIND_INFO[kind][1] for _, kind in self.columns[:index])
        end = self._file.tell()
        for offset, rows in self._groups:
            start = offset + _U32.size + rows * skip
            self._file.seek(start)
            values = fn(_frombytes(typecode, self._file.read(rows * width)))
            self._file.seek(start)
            self._file.write(_tobytes(self._checked(index, values, rows)))
        self._file.seek(end)
        self._buffers[index] = self._checked(index, fn(self._buffers[index]), self._pending)

    def close(self) -> NtuWriteStats:
        if self._closed:
            raise ValueError("writer already closed")
        try:
            self._flush_group()
            self._file.write(_FOOTER.pack(self._n_rows, len(self._groups)))
            size = self._file.tell()
            self._file.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        self._closed = True
        return NtuWriteStats(self.path, self._n_rows, len(self._groups), size)

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
        header_raw = read_frame(f, path, file_size, MAGIC, "header")
        bytes_read += f.tell()
        try:
            header = canonical.loads(header_raw.decode("utf-8"))
            if type(header) is not dict or header.keys() != {"columns"}:
                raise ValueError("header must be an object whose only key is 'columns'")
            entries = header["columns"]
            if type(entries) is not list or any(type(e) is not list for e in entries):
                raise ValueError("columns must be a list of [name, kind] lists")
            all_columns = tuple((n, k) for n, k in entries)
        except Exception as exc:
            raise CorruptHeader(f"{path}: bad header: {exc}") from exc
        for name, kind in all_columns:
            if type(name) is not str or type(kind) is not str:
                raise CorruptHeader(f"{path}: column {name!r}: name and kind must be strings")
            if kind not in KIND_INFO:
                raise CorruptHeader(f"{path}: column {name!r} has unknown kind {kind!r}")

        known = {name for name, _ in all_columns}
        if len(known) != len(all_columns):
            raise CorruptHeader(f"{path}: duplicate column names")
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
        data_end = file_size - _FOOTER.size
        f.seek(data_end)
        total_rows, n_groups = _FOOTER.unpack(f.read(_FOOTER.size))
        bytes_read += _FOOTER.size
        f.seek(data_start)

        out = {name: array(KIND_INFO[kinds[name]][0]) for name in wanted}
        row_width = sum(KIND_INFO[kind][1] for _, kind in all_columns)
        rows_seen = 0
        for g in range(n_groups):
            raw = f.read(4)
            if len(raw) < 4:
                raise FooterMismatch(f"{path}: group {g}: truncated group header")
            (nrows,) = _U32.unpack(raw)
            bytes_read += 4
            # bound every column's read and seek by the bytes before the footer
            if nrows * row_width > data_end - f.tell():
                raise FooterMismatch(f"{path}: group {g}: {nrows} rows run past the footer")
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
        if f.tell() != data_end:
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
