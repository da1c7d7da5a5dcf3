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
produce byte-identical files. Conversion copies each event's stored bytes,
checks every source block as a read does, and rebuilds blocks and CRCs.
"""

from __future__ import annotations

import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from struct import Struct
from typing import Iterable, Iterator

from ..errors import CorruptHeader, CrcMismatch, TruncatedBlock
from ..schema import Schema
from ..timing import PhaseTimers
from .codec import ColumnSet, EventCodec
from .ntu import _U32, check_target, read_frame, write_frame

MAGIC = b"EVT1"
FLAG_DEFLATE = 0x01
DEFAULT_BLOCK_EVENTS = 4096
_DEFLATE_LEVEL = 6

_BLOCK_HDR = Struct("<II")


def _deflate(data: bytes) -> bytes:
    comp = zlib.compressobj(_DEFLATE_LEVEL, zlib.DEFLATED, -15)
    return comp.compress(data) + comp.flush()


def _inflate(data: bytes) -> bytes:
    """Inflate `data`, which must hold exactly one raw deflate stream: one
    cut short, or followed by other bytes, raises zlib.error."""
    dec = zlib.decompressobj(-15)
    out = dec.decompress(data) + dec.flush()
    if not dec.eof:
        raise zlib.error("stream ends before its final block")
    if dec.unused_data:
        raise zlib.error(f"{len(dec.unused_data)} bytes follow the end of the stream")
    return out


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


def _write_blocks(
    path, schema: Schema, compress: bool, blocks: Iterable[tuple[int, bytearray]]
) -> WriteStats:
    """Write a new EVT file of `schema` from (event count, raw payload)
    blocks, via a temp file renamed into place; the temp file is removed
    on any error, one raised by `blocks` included. Each payload is written
    before the next block is drawn, so `blocks` may yield one buffer that
    it clears and refills, and no finished block is held meanwhile."""
    path = Path(path)
    header = schema.to_json().encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    n_events = 0
    n_blocks = 0
    payload_bytes = 0
    try:
        with open(tmp, "wb") as f:
            write_frame(f, MAGIC, header)
            f.write(bytes([FLAG_DEFLATE if compress else 0]))
            for count, payload in blocks:
                if compress:
                    payload = _deflate(payload)
                f.write(_BLOCK_HDR.pack(count, len(payload)))
                f.write(payload)
                f.write(_U32.pack(zlib.crc32(payload)))
                n_events += count
                n_blocks += 1
                payload_bytes += len(payload)
            file_bytes = f.tell()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return WriteStats(path, n_events, n_blocks, file_bytes, payload_bytes)


def write_evt(
    path,
    events: Iterable[dict],
    schema: Schema,
    *,
    compress: bool = False,
    block_target: int = DEFAULT_BLOCK_EVENTS,
) -> WriteStats:
    """Stream events into a new EVT file (written via a temp file and
    renamed into place), `block_target` events to a block."""
    check_target("block_target", block_target)
    codec = EventCodec(schema)

    def blocks():
        buf = bytearray()
        held = 0
        for event in events:
            codec.encode_into(buf, event)
            held += 1
            if held == block_target:
                yield held, buf
                buf.clear()
                held = 0
        if held:
            yield held, buf

    return _write_blocks(path, schema, compress, blocks())


def _read_header(f, path, file_size: int) -> tuple[Schema, str, int]:
    header = read_frame(f, path, file_size, MAGIC, "schema header")
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
        schema, text, flags = _read_header(f, path, file_size)
        pos = f.tell()
        timers.read_s += time.perf_counter() - t0
        timers.bytes_read += pos
        blocks = []
        index = 0
        while pos < file_size:
            t0 = time.perf_counter()
            raw = f.read(8)
            timers.read_s += time.perf_counter() - t0
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


def _stored_blocks(
    index: EvtIndex, lo: int, hi: int, timers: PhaseTimers
) -> Iterator[tuple[int, bytes]]:
    """(block number, payload + CRC as read from disk) for blocks [lo, hi),
    one block in memory at a time."""
    with open(index.path, "rb") as f:
        for i in range(lo, hi):
            block = index.blocks[i]
            f.seek(block.offset + 8)
            t0 = time.perf_counter()
            data = f.read(block.payload_len + 4)
            timers.read_s += time.perf_counter() - t0
            timers.bytes_read += len(data)
            yield i, data


def _verified_payload(data: bytes, index: EvtIndex, i: int) -> bytes:
    """The payload of block `i` from `data` (payload + CRC as read from
    disk), inflated if the file is compressed, after its length and CRC
    are checked."""
    block = index.blocks[i]
    if len(data) < block.payload_len + 4:
        raise TruncatedBlock(f"{index.path}: block {i}: truncated payload")
    payload = data[: block.payload_len]
    (crc_stored,) = _U32.unpack_from(data, block.payload_len)
    if zlib.crc32(payload) != crc_stored:
        raise CrcMismatch(f"{index.path}: block {i}: CRC mismatch")
    if index.compressed:
        try:
            payload = _inflate(payload)
        except zlib.error as exc:
            raise TruncatedBlock(f"{index.path}: block {i}: bad deflate stream: {exc}") from exc
    return payload


def iter_block_range(
    index: EvtIndex,
    lo: int,
    hi: int,
    *,
    timers: PhaseTimers,
    codec: EventCodec,
) -> Iterator[ColumnSet]:
    """Decode blocks [lo, hi) lazily, one block in memory at a time, and
    yield one `ColumnSet` per block, of `codec`'s leaves.

    `bytes_read` counts the payload and CRC bytes read here; the block
    headers were counted by `scan_evt`, so a scan plus a full-range read
    accounts for every byte of the file exactly once.
    """
    for i, data in _stored_blocks(index, lo, hi, timers):
        yield _decode_stored_block(data, index, i, codec, timers)


def _decode_stored_block(
    data: bytes, index: EvtIndex, i: int, codec: EventCodec, timers: PhaseTimers
) -> ColumnSet:
    """`data` holds payload + CRC for block `i`, as read from disk. The
    payload is not held past the decode."""
    t0 = time.perf_counter()
    payload = _verified_payload(data, index, i)
    with _in_block(index, i):
        columns = codec.decode_block(payload, index.blocks[i].n_events)
    timers.decode_s += time.perf_counter() - t0
    timers.bytes_decoded += len(payload)
    return columns


@contextmanager
def _in_block(index: EvtIndex, i: int):
    """Name the file and block in a TruncatedBlock raised by the codec."""
    try:
        yield
    except TruncatedBlock as exc:
        raise TruncatedBlock(f"{index.path}: block {i}: {exc}") from exc


def convert_evt(
    src,
    dst,
    *,
    compress: bool,
    block_target: int = DEFAULT_BLOCK_EVENTS,
) -> WriteStats:
    """Rewrite an EVT file with the requested compression flag and
    `block_target` events to a block, copying each event's stored bytes.

    Every source block is checked as a read checks it: its length, CRC and
    deflate stream, then a walk of its events by a codec of no leaves,
    which builds no columns but rejects what a full decode rejects. Blocks
    and CRCs are rebuilt, and the header is the schema's canonical JSON, as
    `write_evt` writes it. So the output is byte-identical to `write_evt`
    of the source's events, except that stored bytes are copied as they
    are, where decoding and encoding again would rewrite a few: a bool
    stored as a byte other than 0 or 1 (read as True, encoded as 1), and
    an f32 signalling NaN (quieted by the conversion to a Python float).
    """
    check_target("block_target", block_target)
    index = scan_evt(src)
    walker = EventCodec(index.schema, ())

    def blocks():
        buf = bytearray()
        held = 0  # events in buf, fewer than block_target
        for i, data in _stored_blocks(index, 0, len(index.blocks), PhaseTimers()):
            payload = memoryview(_verified_payload(data, index, i))
            n = index.blocks[i].n_events
            # the events of this block after which an output block is full
            marks = range(block_target - held, n + 1, block_target)
            with _in_block(index, i):
                ends = walker.event_ends(payload, n, marks)
            start = 0
            for end in ends:
                buf += payload[start:end]
                yield block_target, buf
                buf.clear()
                start = end
            buf += payload[start:]
            held = (held + n) % block_target
        if held:
            yield held, buf

    return _write_blocks(dst, index.schema, compress, blocks())


def inspect_evt(path) -> dict:
    """Summary used by the CLI. Every block is checked as a read checks it,
    its events walked without building columns; `events` counts the events
    walked and `decoded_bytes` the payload bytes after inflation."""
    index = scan_evt(path)
    timers = PhaseTimers()
    blocks = iter_block_range(
        index, 0, len(index.blocks), timers=timers, codec=EventCodec(index.schema, ())
    )
    decoded = sum(cs.count for cs in blocks)
    return {
        "format": "EVT",
        "path": str(index.path),
        "schema_fields": [name for name, _ in index.schema.root.fields],
        "compression": "deflate" if index.compressed else "none",
        "events": decoded,
        "blocks": len(index.blocks),
        "file_bytes": index.file_bytes,
        "payload_bytes": index.payload_bytes,
        "decoded_bytes": timers.bytes_decoded,
    }
