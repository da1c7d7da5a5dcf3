"""Compiled binary codec for schema'd events.

Encoding rules, little-endian throughout:

    f64 -> 8-byte IEEE-754    f32 -> 4-byte IEEE-754
    i64 -> 8-byte signed      i32 -> 4-byte signed      bool -> 1 byte (0/1)
    record -> fields back-to-back in schema order
    array  -> u32 element count, then elements back-to-back

One code generator serves both directions: it writes the Python source
of a function from the schema and compiles it once with `exec`. Field
names enter that source only as the `repr()` of names the schema has
checked.

Encoding covers the whole event and reads every field, so an event that
lacks one, or holds a value its struct format rejects, raises
SchemaViolation. It checks nothing more: a field the schema does not
name is ignored, True or False passes for a number, any value passes for
a bool (and is stored as its truth value), and any sequence, a tuple
say, passes for an array. The encoder of a codec is compiled on its
first encode.
Each run of fixed-width fields becomes one struct call, and each array
its u32 count followed by a loop over its elements.

Decoding reads only the leaves the codec was compiled for, into one
`ColumnSet` per block. A leaf is a path of field names from the root,
where the names after an array's name address fields of its elements:

    a path ending at a primitive or a record  -> that value, in full
    a path ending at an array                 -> its offsets only
    leaves=None                               -> every field (the full decode)

An element field's path implies its array's, whose offsets it decodes
too; `leaf_set` drops such array paths, so two leaf sets it writes
decode the same columns exactly when they are equal.

A column set holds one typed `array` per primitive leaf read, of the
leaf's NTU typecode (`ntu.KIND_INFO`), and one `array('q')` of n+1
offsets per array read, whose element k spans [offsets[k], offsets[k+1])
of its element columns. Columns are keyed by path, where the fields of an
array's record elements follow the array's name, as in a leaf path, and
an element that is not a record is named "", which no field can be:

    ("met", "pt")      f64 values, one per event
    ("jets",)          offsets, n_events + 1 of them
    ("jets", "pt")     f64 values, one per jet of the block
    ("xs", "")         the values of an array of primitives ("xs",)

The decoder of a leaf set is a loop over a block's events. Each run of
fixed-width fields is one struct call, in which the fields not read are
pad bytes, and whose values extend one flat list. An array of
fixed-width elements is one struct call of n repetitions of the element
format (cached for small n); at the end of the block each column is a
strided slice of its list. Arrays that are not read are skipped by
count x width, or walked without being built when their elements vary
in width. Every payload byte is still walked, and an array count that
would run past the payload is rejected before anything of that size is
built. Since a schema has no record without fields, every element takes
at least one byte, so that check bounds every count by the bytes left;
a block's event count is bounded likewise, by the fewest bytes an event
takes. A codec of no leaves builds no columns but still walks and checks
every event: `EventCodec.event_ends` takes event boundaries from such a
walk.

f32 values are rounded to single precision on write; round trips are exact
only for values already representable in f32.
"""

from __future__ import annotations

import struct
from array import array
from functools import cached_property
from itertools import accumulate
from struct import Struct
from typing import Callable, Iterable

from ..errors import SchemaError, SchemaViolation, TruncatedBlock
from ..schema import Array, Primitive, Record, Schema, SchemaNode
from .ntu import KIND_INFO, _U32

_FMT = {"f64": "d", "f32": "f", "i64": "q", "i32": "i", "bool": "?"}

# The selection a decoder is compiled from: True for a primitive that is
# read, a dict of the fields read for a record, the element's selection
# for an array, _SIZE for an array whose offsets alone are read, and None
# (or absence from the parent record's dict) for a node that is skipped.
_SIZE = object()


# -- leaf selection ---------------------------------------------------------------


def leaf_set(paths: Iterable[tuple[str, ...]]) -> frozenset[tuple[str, ...]]:
    """`paths` less each that a longer one of them continues."""
    paths = frozenset(paths)
    return frozenset(p for p in paths if not any(q[:len(p)] == p != q for q in paths))


def _select_all(node: SchemaNode):
    if isinstance(node, Primitive):
        return True
    if isinstance(node, Array):
        return _select_all(node.element)
    return {name: _select_all(child) for name, child in node.fields}


def _select(node: SchemaNode, paths: set[tuple[str, ...]]):
    """The selection of `node` from leaf paths relative to it."""
    if isinstance(node, Array):
        inner = {p for p in paths if p}
        return _select(node.element, inner) if inner else _SIZE
    if () in paths:
        return _select_all(node)
    if isinstance(node, Primitive):
        raise SchemaError(f"leaf path continues past a scalar: {sorted(paths)}")
    unknown = {p[0] for p in paths} - set(node.names())
    if unknown:
        raise SchemaError(f"leaf paths name unknown fields {sorted(unknown)}")
    sel = {}
    for name, child in node.fields:
        sub = {p[1:] for p in paths if p[0] == name}
        if sub:
            sel[name] = _select(child, sub)
    return sel


# -- code generation --------------------------------------------------------------


def _fixed_fmt(node: SchemaNode) -> str | None:
    """The struct format of a subtree without arrays, in schema order;
    None for a subtree that holds an array."""
    if isinstance(node, Primitive):
        return _FMT[node.kind]
    if isinstance(node, Array):
        return None
    fmts = [_fixed_fmt(child) for _, child in node.fields]
    return None if None in fmts else "".join(fmts)


def _width(node: SchemaNode) -> int:
    """Byte width of a subtree without arrays."""
    return struct.calcsize("<" + _fixed_fmt(node))


def _min_width(node: SchemaNode) -> int:
    """The fewest bytes a value of `node` takes: an array takes its count's."""
    if isinstance(node, Primitive):
        return struct.calcsize("<" + _FMT[node.kind])
    if isinstance(node, Array):
        return 4
    return sum(_min_width(child) for _, child in node.fields)


def _overrun(n: int, need: int, left: int) -> ValueError:
    return ValueError(f"array of {n} elements needs {need} bytes, {left} left")


def _short(count: int, need: int, left: int) -> ValueError:
    return ValueError(f"{count} events need at least {need} bytes, {left} left")


def _column_fields(node: SchemaNode, sel, path: tuple) -> tuple[str, list]:
    """For a subtree without arrays at `path`: (fmt, keys), where `fmt`
    unpacks its selected primitives, the rest being pad bytes, and `keys`
    holds the (column key, kind) of each in order."""
    if sel is None:
        return f"{_width(node)}x", []
    if isinstance(node, Primitive):
        return _FMT[node.kind], [(path, node.kind)]
    fmt, keys = "", []
    for name, child in node.fields:
        f, k = _column_fields(child, sel.get(name), path + (name,))
        fmt += f
        keys += k
    return fmt, keys


class ColumnSet(dict):
    """One block's events as columns: column key -> typed array (see the
    module docstring), for `count` events."""

    __slots__ = ("count",)

    def __init__(self, count: int, columns: dict):
        super().__init__(columns)
        self.count = count

    @property
    def nbytes(self) -> int:
        """The bytes the arrays hold: itemsize x length, summed."""
        return sum(a.itemsize * len(a) for a in self.values())


class _Repeat(dict):
    """n -> the Struct of n repetitions of one element format, made on
    first use and kept for small n only, so that a large count costs its
    format's memory only while it is decoded."""

    def __init__(self, fmt: str):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, n: int) -> Struct:
        s = Struct("<" + self.fmt * n)
        if n <= 64:
            self[n] = s
        return s


class _CodecSource:
    """Writes the Python source of one encoder or decoder and compiles it
    once. Every variable name is unique, so an expression stays valid
    while later lines run."""

    def __init__(self):
        self.lines: list[str] = []
        self.consts: dict[str, object] = {
            "U32": _U32.unpack_from, "pack_u32": _U32.pack, "overrun": _overrun,
            "short": _short,
        }
        self.k = 0
        self.setup: list[str] = []  # decoding: the accumulators
        self.outs: list[tuple[tuple, str]] = []  # decoding: (key, array source)

    @classmethod
    def column_decoder(cls, root: Record, sel) -> Callable:
        """`decode(mv, count, off) -> (ColumnSet, end)`, which decodes
        `count` events from offset `off` of `mv` to columns, and returns
        the offset after them."""
        gen = cls()
        gen.consts.update(array=array, accumulate=accumulate, ColumnSet=ColumnSet)
        gen.columns_record(root, sel, (), 2)
        columns = ", ".join(f"{key!r}: {src}" for key, src in gen.outs)
        least = _min_width(root)
        return gen.compile("decode", "mv, count, off", [
            "    size = len(mv)",
            # bounds the loop when nothing in an event is read or checked
            f"    if count * {least} > size - off: raise short(count, count * {least}, size - off)",
            *("    " + line for line in gen.setup),
            "    for _ in range(count):",
            *gen.lines,
            f"    return ColumnSet(count, {{{columns}}}), off",
        ])

    @classmethod
    def encoder(cls, root: Record) -> Callable:
        """`encode(buf, ev)`, which appends the bytes of event `ev` to `buf`."""
        gen = cls()
        gen.encode_record(root, "ev", 1)
        return gen.compile("encode", "buf, ev", gen.lines)

    def compile(self, name: str, args: str, body: list[str]) -> Callable:
        namespace = dict(self.consts)
        exec("\n".join([f"def {name}({args}):", *body, ""]), namespace)
        return namespace[name]

    def fresh(self, prefix: str) -> str:
        self.k += 1
        return f"{prefix}{self.k}"

    def struct(self, fmt: str) -> str:
        name = self.fresh("S")
        self.consts[name] = Struct("<" + fmt)
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    # Decoding: each method emits the lines that read one value
    # at `off`, extend the accumulators of the columns it selects and move
    # `off` past it; `path` is the value's column key.

    def flat(self, fmt: str, keys: list) -> str:
        """A flat list that values unpacked by `fmt` extend, and the
        output columns of its `keys`, each a strided slice of it."""
        var = self.fresh("F")
        self.setup.append(f"{var} = []")
        for i, (key, kind) in enumerate(keys):
            src = var if len(keys) == 1 else f"{var}[{i}::{len(keys)}]"
            self.outs.append((key, f"array({KIND_INFO[kind][0]!r}, {src})"))
        return var

    def columns_node(self, node: SchemaNode, sel, path: tuple, depth: int) -> None:
        if isinstance(node, Array):
            self.columns_array(node, sel, path, depth)
        else:
            self.columns_record(node, sel, path, depth)

    def columns_fixed(self, fields, depth: int) -> None:
        """Read (path, node, selection) fields without arrays in one struct call."""
        fmt, keys = "", []
        for path, node, sel in fields:
            f, k = _column_fields(node, sel, path)
            fmt += f
            keys += k
        if keys:
            self.emit(depth, f"{self.flat(fmt, keys)} += {self.struct(fmt)}.unpack_from(mv, off)")
        self.emit(depth, f"off += {struct.calcsize('<' + fmt)}")

    def columns_record(self, node: Record, sel, path: tuple, depth: int) -> None:
        run: list = []
        for name, child in node.fields:
            csel = None if sel is None else sel.get(name)
            if _fixed_fmt(child) is not None:
                run.append((path + (name,), child, csel))
                continue
            if run:
                self.columns_fixed(run, depth)
                run = []
            self.columns_node(child, csel, path + (name,), depth)
        if run:
            self.columns_fixed(run, depth)

    def columns_array(self, node: Array, sel, path: tuple, depth: int) -> None:
        n, end = self.fresh("n"), self.fresh("end")
        elem = node.element
        epath = path if isinstance(elem, Record) else path + ("",)
        build = sel is not None and sel is not _SIZE
        self.emit(depth, f"{n} = U32(mv, off)[0]")
        self.emit(depth, "off += 4")
        if sel is not None:
            counts = self.fresh("C")
            self.setup.append(f"{counts} = []")
            self.setup.append(f"{counts}_append = {counts}.append")
            self.emit(depth, f"{counts}_append({n})")
            # from a list, so the array holds no spare capacity past its length
            self.outs.append((path, f"array('q', list(accumulate({counts}, initial=0)))"))
        if _fixed_fmt(elem) is not None:
            width = _width(elem)
            self.emit(depth, f"{end} = off + {n} * {width}")
            self.emit(depth, f"if {end} > size: raise overrun({n}, {end} - off, size - off)")
            fmt, keys = _column_fields(elem, sel, epath) if build else ("", [])
            if keys:
                repeat = self.fresh("R")
                self.consts[repeat] = _Repeat(fmt)
                self.emit(depth, f"if {n}: {self.flat(fmt, keys)} += {repeat}[{n}].unpack_from(mv, off)")
            self.emit(depth, f"off = {end}")
        else:
            # each element holds an array, so takes at least its 4-byte count
            need = f"{n} * 4"
            self.emit(depth, f"if off + {need} > size: raise overrun({n}, {need}, size - off)")
            self.emit(depth, f"for _ in range({n}):")
            self.columns_node(elem, sel if build else None, epath, depth + 1)

    # Encoding: each method emits the lines that append to `buf` the bytes
    # of the value that the source expression `expr` reads. Every field is
    # read, so a missing one raises.

    def encode_node(self, node: SchemaNode, expr: str, depth: int) -> None:
        if _fixed_fmt(node) is not None:
            self.encode_fixed([(node, expr)], depth)
        elif isinstance(node, Array):
            self.encode_array(node, expr, depth)
        else:
            self.encode_record(node, expr, depth)

    def encode_fixed(self, fields, depth: int) -> None:
        """Write (node, expr) fields without arrays in one struct call."""
        fmt = ""
        values: list[str] = []

        def walk(node, expr):
            nonlocal fmt
            if isinstance(node, Primitive):
                fmt += _FMT[node.kind]
                values.append(expr)
            else:
                for name, child in node.fields:
                    walk(child, f"{expr}[{name!r}]")

        for node, expr in fields:
            walk(node, expr)
        if values:
            self.emit(depth, f"buf += {self.struct(fmt)}.pack({', '.join(values)})")

    def encode_record(self, node: Record, expr: str, depth: int) -> None:
        run: list = []
        for name, child in node.fields:
            cexpr = f"{expr}[{name!r}]"
            if _fixed_fmt(child) is not None:
                run.append((child, cexpr))
                continue
            self.encode_fixed(run, depth)
            run = []
            self.encode_node(child, cexpr, depth)
        self.encode_fixed(run, depth)

    def encode_array(self, node: Array, expr: str, depth: int) -> None:
        arr, item = expr, self.fresh("e")
        if not arr.isidentifier():
            arr = self.fresh("a")
            self.emit(depth, f"{arr} = {expr}")
        self.emit(depth, f"buf += pack_u32(len({arr}))")
        self.emit(depth, f"for {item} in {arr}:")
        self.encode_node(node.element, item, depth + 1)


class EventCodec:
    """Encoder/decoder for events of one schema. `leaves` names the leaf
    paths decoding reads (see the module docstring); None reads every
    field. A block decodes to one `ColumnSet`."""

    def __init__(self, schema: Schema, leaves: Iterable[tuple[str, ...]] | None = None):
        self.schema = schema
        self.leaves = None if leaves is None else frozenset(leaves)
        if self.leaves is None:
            sel = _select_all(schema.root)
        else:
            sel = _select(schema.root, set(self.leaves))
        self._decode = _CodecSource.column_decoder(schema.root, sel)

    @cached_property
    def _encode(self) -> Callable:
        # compiled on the first encode, so a codec that only reads has none
        return _CodecSource.encoder(self.schema.root)

    def encode(self, event: dict) -> bytes:
        buf = bytearray()
        self.encode_into(buf, event)
        return bytes(buf)

    def encode_into(self, buf: bytearray, event: dict) -> None:
        try:
            self._encode(buf, event)
        except (KeyError, TypeError, ValueError, OverflowError, struct.error) as exc:
            raise SchemaViolation(f"event does not conform to schema: {exc!r}") from exc

    def decode_block(self, payload, count: int) -> ColumnSet:
        """Decode `count` events packed back-to-back to one `ColumnSet`;
        the payload must be consumed exactly."""
        mv = memoryview(payload)
        columns, off = self._run(mv, count, 0)
        _check_consumed(off, len(mv))
        return columns

    def event_ends(self, payload, count: int, marks: Iterable[int]) -> list[int]:
        """The offset in `payload` after its first k events, for each k of
        `marks` (ascending, none above `count`). The walk decodes and checks
        all `count` events as `decode_block` does, so the payload must be
        consumed exactly; a codec of no leaves builds no columns."""
        mv = memoryview(payload)
        ends = []
        off = done = 0
        for k in marks:
            off = self._run(mv, k - done, off)[1]
            ends.append(off)
            done = k
        _check_consumed(self._run(mv, count - done, off)[1], len(mv))
        return ends

    def _run(self, mv: memoryview, count: int, off: int) -> tuple[ColumnSet, int]:
        try:
            return self._decode(mv, count, off)
        except Exception as exc:  # struct errors and overruns on malformed payloads
            raise TruncatedBlock(f"event data overruns block payload: {exc}") from exc


def _check_consumed(off: int, size: int) -> None:
    if off > size:
        raise TruncatedBlock(f"event data overruns block payload by {off - size} bytes")
    if off != size:
        raise TruncatedBlock(f"block payload has {size - off} undecoded trailing bytes")
