"""EVT: the row-wise event container.

Byte layout (all integers little-endian):

    magic   4 bytes  "EVT1"
    header  u32 length, then that many bytes of canonical JSON schema text
    flags   1 byte   bit 0: per-block raw-deflate compression
    blocks  repeated until end of file, each:
                u32 event count
                u32 payload byte length
                payload (events back-to-back; deflated first when bit 0 set)
                u32 CRC32 of the payload as stored

The CRC and length always describe the payload as it sits on disk, so
corruption is detected before any decompression is attempted. Writing is
deterministic: the same events, schema, compression flag, and block target
produce byte-identical files.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from struct import Struct
from typing import Iterable, Iterator

from ..errors import BadMagic, CorruptHeader, CrcMismatch, TruncatedBlock
from ..schema import Array, Primitive, Record, Schema, SchemaNode
from ..timing import PhaseTimers
from .codec import ColumnSet, EventCodec

MAGIC = b"EVT1"
FLAG_DEFLATE = 0x01
DEFAULT_BLOCK_EVENTS = 4096
_DEFLATE_LEVEL = 6

_U32 = Struct("<I")
_BLOCK_HDR = Struct("<II")
_MAX_HEADER = 16 * 1024 * 1024


def _deflate(data: bytes) -> bytes:
    comp = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    return comp.compress(data) + comp.flush()


def _inflate(data: bytes) -> bytes:
    dec = zlib.decompressobj(-15)
    out = dec.decompress(data)
    return out + dec.flush()


@dataclass(frozen=True)
class BlockInfo:
    offset: int  # file offset of the 8-byte block header
    n_events: int
    payload_len: int


@dataclass(frozen=True)
class WriteStats:
    path: Path
    n_events: int
    n_blocks: int
    file_bytes: int
    payload_bytes: int


@dataclass(frozen=True)
class EvtIndex:
    """Header info plus one entry per block; enough to plan partitioned
    reads without touching payload bytes."""

    path: Path
    schema: Schema
    schema_json: str
    compressed: bool
    blocks: tuple[BlockInfo, ...]
    file_bytes: int

    @property
    def n_events(self) -> int:
        return sum(b.n_events for b in self.blocks)

    @property
    def payload_bytes(self) -> int:
        return sum(b.payload_len for b in self.blocks)


def write_evt(
    path,
    events: Iterable[dict],
    schema: Schema,
    *,
    compress: bool = False,
    block_target: int = DEFAULT_BLOCK_EVENTS,
) -> WriteStats:
    """Stream events into a new EVT file (written via a temp file and
    renamed into place)."""
    if block_target < 1:
        raise ValueError("block_target must be >= 1")
    path = Path(path)
    codec = EventCodec(schema)
    header = schema.to_json().encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    n_events = 0
    n_blocks = 0
    payload_bytes = 0
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(_U32.pack(len(header)))
            f.write(header)
            f.write(bytes([FLAG_DEFLATE if compress else 0]))

            buf = bytearray()
            in_block = 0

            def flush():
                nonlocal in_block, n_blocks, payload_bytes
                payload = bytes(buf)
                if compress:
                    payload = _deflate(payload)
                f.write(_BLOCK_HDR.pack(in_block, len(payload)))
                f.write(payload)
                f.write(_U32.pack(zlib.crc32(payload)))
                payload_bytes += len(payload)
                n_blocks += 1
                buf.clear()
                in_block = 0

            for event in events:
                codec.encode_into(buf, event)
                in_block += 1
                n_events += 1
                if in_block >= block_target:
                    flush()
            if in_block:
                flush()
            file_bytes = f.tell()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return WriteStats(path, n_events, n_blocks, file_bytes, payload_bytes)


def _read_header(f, path) -> tuple[Schema, str, int]:
    magic = f.read(4)
    if magic != MAGIC:
        raise BadMagic(f"{path}: not an EVT file (magic {magic!r})")
    raw = f.read(4)
    if len(raw) < 4:
        raise CorruptHeader(f"{path}: truncated header length")
    (hlen,) = _U32.unpack(raw)
    if hlen > _MAX_HEADER:
        raise CorruptHeader(f"{path}: implausible header length {hlen}")
    header = f.read(hlen)
    if len(header) < hlen:
        raise CorruptHeader(f"{path}: truncated schema header")
    try:
        text = header.decode("utf-8")
        schema = Schema.from_json(text)
    except Exception as exc:
        raise CorruptHeader(f"{path}: bad schema header: {exc}") from exc
    flag_raw = f.read(1)
    if len(flag_raw) < 1:
        raise CorruptHeader(f"{path}: missing flags byte")
    flags = flag_raw[0]
    if flags & ~FLAG_DEFLATE:
        raise CorruptHeader(f"{path}: unsupported flags 0x{flags:02x}")
    return schema, text, flags


def scan_evt(path, timers: PhaseTimers | None = None) -> EvtIndex:
    """Read the header and hop over payloads to index every block."""
    timers = timers or PhaseTimers()
    path = Path(path)
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        t0 = time.perf_counter()
        schema, text, flags = _read_header(f, path)
        pos = f.tell()
        timers.read += time.perf_counter() - t0
        timers.bytes_read += pos
        blocks = []
        index = 0
        while pos < file_size:
            t0 = time.perf_counter()
            raw = f.read(8)
            timers.read += time.perf_counter() - t0
            timers.bytes_read += len(raw)
            if len(raw) < 8:
                raise TruncatedBlock(f"{path}: block {index}: truncated block header")
            n, plen = _BLOCK_HDR.unpack(raw)
            end = pos + 8 + plen + 4
            if end > file_size:
                raise TruncatedBlock(f"{path}: block {index}: payload runs past end of file")
            blocks.append(BlockInfo(pos, n, plen))
            f.seek(end)
            pos = end
            index += 1
    return EvtIndex(path, schema, text, bool(flags & FLAG_DEFLATE), tuple(blocks), file_size)


def _decode_stored_block(
    data: bytes,
    block: BlockInfo,
    index: int,
    codec: EventCodec,
    compressed: bool,
    path,
    timers: PhaseTimers,
) -> ColumnSet:
    """`data` holds payload + CRC for one block, as read from disk."""
    if len(data) < block.payload_len + 4:
        raise TruncatedBlock(f"{path}: block {index}: truncated payload")
    t0 = time.perf_counter()
    payload = data[: block.payload_len]
    (crc_stored,) = _U32.unpack_from(data, block.payload_len)
    if zlib.crc32(payload) != crc_stored:
        raise CrcMismatch(f"{path}: block {index}: CRC mismatch")
    if compressed:
        try:
            payload = _inflate(payload)
        except zlib.error as exc:
            raise TruncatedBlock(f"{path}: block {index}: bad deflate stream: {exc}") from exc
    try:
        columns = codec.decode_block(payload, block.n_events)
    except TruncatedBlock as exc:
        raise TruncatedBlock(f"{path}: block {index}: {exc}") from exc
    timers.decode += time.perf_counter() - t0
    timers.bytes_decoded += len(payload)
    return columns


def iter_block_range(
    index: EvtIndex,
    lo: int,
    hi: int,
    *,
    timers: PhaseTimers | None = None,
    codec: EventCodec | None = None,
) -> Iterator[ColumnSet]:
    """Decode blocks [lo, hi) lazily, one block in memory at a time, and
    yield one `ColumnSet` per block, of `codec`'s leaves (every leaf by
    default).

    `bytes_read` counts the payload and CRC bytes read here; the block
    headers were counted by `scan_evt`, so a scan plus a full-range read
    accounts for every byte of the file exactly once.
    """
    timers = timers or PhaseTimers()
    if codec is None:
        codec = EventCodec(index.schema)
    with open(index.path, "rb") as f:
        for i in range(lo, hi):
            block = index.blocks[i]
            f.seek(block.offset + 8)
            t0 = time.perf_counter()
            data = f.read(block.payload_len + 4)
            timers.read += time.perf_counter() - t0
            timers.bytes_read += len(data)
            yield _decode_stored_block(
                data, block, i, codec, index.compressed, index.path, timers
            )


def _values(node: SchemaNode, cs: ColumnSet, path: tuple) -> list:
    """The values of `node`, whose column key is `path`, from a full column
    set: one per event at the root, one per element inside an array."""
    if isinstance(node, Primitive):
        col = cs[path]
        return list(map(bool, col)) if node.kind == "bool" else col.tolist()
    if isinstance(node, Array):
        epath = path if isinstance(node.element, Record) else path + ("",)
        items = _values(node.element, cs, epath)
        return [items[a:b] for a, b in pairwise(cs[path])]
    names = node.names()
    fields = [_values(child, cs, path + (name,)) for name, child in node.fields]
    return [dict(zip(names, vals)) for vals in zip(*fields)]


def read_evt(path, *, timers: PhaseTimers | None = None) -> tuple[Schema, Iterator[dict]]:
    """Index an EVT file and return its schema plus a lazy event stream,
    built block by block from full column sets."""
    index = scan_evt(path, timers)
    blocks = iter_block_range(index, 0, len(index.blocks), timers=timers)
    root = index.schema.root
    return index.schema, (ev for cs in blocks for ev in _values(root, cs, ()))


def convert_evt(
    src,
    dst,
    *,
    compress: bool,
    block_target: int = DEFAULT_BLOCK_EVENTS,
) -> WriteStats:
    """Re-encode an EVT file with the requested compression flag. Decoded
    content is preserved; blocks and CRCs are rebuilt."""
    schema, events = read_evt(src)
    return write_evt(dst, events, schema, compress=compress, block_target=block_target)


def inspect_evt(path) -> dict:
    """Full-decode summary used by the CLI: decodes every block to columns,
    validating its CRC, and counts the events decoded."""
    index = scan_evt(path)
    timers = PhaseTimers()
    blocks = iter_block_range(index, 0, len(index.blocks), timers=timers)
    decoded = sum(cs.count for cs in blocks)
    counts = [b.n_events for b in index.blocks]
    return {
        "format": "EVT",
        "path": str(index.path),
        "schema_fields": [name for name, _ in index.schema.root.fields],
        "compression": "deflate" if index.compressed else "none",
        "events": decoded,
        "declared_events": index.n_events,
        "blocks": len(index.blocks),
        "block_events_min": min(counts) if counts else 0,
        "block_events_max": max(counts) if counts else 0,
        "file_bytes": index.file_bytes,
        "payload_bytes": index.payload_bytes,
        "decoded_bytes": timers.bytes_decoded,
    }
