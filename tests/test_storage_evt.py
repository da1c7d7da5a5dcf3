import random
import tracemalloc
import zlib
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skimflow.cli import main
from skimflow.errors import (
    BadMagic, ConfigError, CorruptHeader, CrcMismatch, DataError, SchemaViolation, TruncatedBlock,
)
from skimflow.events import make_event, make_particle
from skimflow.generator import GeneratorSpec, generate_corpus, generate_events
from skimflow.schema import Schema
from skimflow.storage import EventCodec, convert_evt, evt, iter_block_range, scan_evt, write_evt
from skimflow.timing import PhaseTimers

from oracle import read_events
from randgen import HAND_BUILT, random_events, random_schema
from test_codec import assert_blocks_hold, read_blocks


def read_all(path):
    """The events of an EVT file, read by the byte layout."""
    return read_events(path)[1]


def test_empty_file_round_trip(tmp_path, schema):
    path = tmp_path / "empty.evt"
    stats = write_evt(path, [], schema)
    assert stats.n_events == 0 and stats.n_blocks == 0
    assert read_all(path) == []
    index = scan_evt(path)
    assert index.blocks == () and index.n_events == 0


def test_single_event_round_trip(tmp_path, schema):
    ev = make_event(
        run=7, lumi=3, event=12345, weight=-1.0, met_pt=321.5, met_phi=-1.25,
        muons=[make_particle(pt=25.0, eta=1.1, phi=0.5, mass=0.105658, id=3)],
        jets=[make_particle(pt=90.0), make_particle(pt=45.0, eta=-2.0)],
    )
    path = tmp_path / "one.evt"
    write_evt(path, [ev], schema)
    (back,) = read_all(path)
    assert back == ev


@pytest.mark.parametrize("compress", [False, True])
def test_synthetic_round_trip_10k(tmp_path, schema, compress):
    events = list(generate_events(GeneratorSpec(seed=11, n_events=10000, weight_dist="signed")))
    path = tmp_path / "f.evt"
    write_evt(path, events, schema, compress=compress, block_target=1024)
    assert read_all(path) == events


def test_compressed_file_is_strictly_smaller(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=11, n_events=5000)))
    raw = tmp_path / "raw.evt"
    packed = tmp_path / "packed.evt"
    write_evt(raw, events, schema, compress=False)
    write_evt(packed, events, schema, compress=True)
    assert packed.stat().st_size < raw.stat().st_size
    assert read_all(packed) == read_all(raw)


def test_write_is_deterministic(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=5, n_events=500)))
    a = tmp_path / "a.evt"
    b = tmp_path / "b.evt"
    write_evt(a, events, schema, compress=True, block_target=100)
    write_evt(b, events, schema, compress=True, block_target=100)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("block_target", [0, 1.5, 2.5, True, "3", None])
def test_a_block_target_is_an_int_of_at_least_one(tmp_path, schema, block_target):
    """Every writer of EVT blocks rejects a target that is not an int of
    at least 1, a float or a bool included, before it writes anything."""
    events = list(generate_events(GeneratorSpec(seed=5, n_events=10)))
    src = tmp_path / "src.evt"
    write_evt(src, events, schema)
    writes = [
        partial(write_evt, tmp_path / "f.evt", events, schema),
        partial(convert_evt, src, tmp_path / "f.evt", compress=True),
        partial(generate_corpus, GeneratorSpec(seed=5, n_events=10), tmp_path / "corpus", 2),
    ]
    for write in writes:
        with pytest.raises(ConfigError, match="block_target must be an int >= 1"):
            write(block_target=block_target)
    assert list(tmp_path.iterdir()) == [src]


def test_block_chunking(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=5, n_events=10)))
    path = tmp_path / "f.evt"
    write_evt(path, events, schema, block_target=4)
    index = scan_evt(path)
    assert [b.n_events for b in index.blocks] == [4, 4, 2]


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.evt"
    path.write_bytes(b"EVTX" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        scan_evt(path)


def _header(text: bytes, flags: bytes = b"\x00") -> bytes:
    return b"EVT1" + len(text).to_bytes(4, "little") + text + flags


VALID_HEADER_TEXT = b'{"record":[["x","f64"]]}'
# an array of records without fields, then one block of one event whose
# 4-byte payload is that array's count, 200,000, under a valid CRC
_COUNT = (200_000).to_bytes(4, "little")
EMPTY_RECORDS_FILE = (
    _header(b'{"record":[["f1",{"array":{"record":[]}}]]}')
    + (1).to_bytes(4, "little") + (4).to_bytes(4, "little") + _COUNT
    + zlib.crc32(_COUNT).to_bytes(4, "little")
)


@pytest.mark.parametrize("data", [
    pytest.param(b"EVT1\x10\x00", id="truncated-length"),
    pytest.param(b"EVT1" + (16 * 1024 * 1024 + 1).to_bytes(4, "little"), id="length-over-16-MiB"),
    pytest.param(b"EVT1" + (100).to_bytes(4, "little") + b'{"record"', id="truncated-text"),
    pytest.param(_header(b'{"record":[["x",'), id="invalid-json"),
    pytest.param(_header(b'{"record":[["a","f64"]],"record":[["b","i64"]]}'), id="repeated-key"),
    pytest.param(EMPTY_RECORDS_FILE, id="record-without-fields"),
    pytest.param(_header(VALID_HEADER_TEXT, flags=b""), id="missing-flags-byte"),
    pytest.param(_header(VALID_HEADER_TEXT, flags=b"\x02"), id="unknown-flag-bits"),
])
def test_malformed_header_raises_corrupt_header(tmp_path, data):
    path = tmp_path / "bad.evt"
    path.write_bytes(data)
    with pytest.raises(CorruptHeader):
        scan_evt(path)


def test_a_header_length_is_bounded_by_the_file_before_the_read(tmp_path, schema):
    path = tmp_path / "f.evt"
    write_evt(path, generate_events(GeneratorSpec(seed=5, n_events=3)), schema)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (16 * 1024 * 1024).to_bytes(4, "little")
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptHeader, match="truncated schema header"):
            scan_evt(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_inspect_of_a_record_without_fields_exits_2(tmp_path, capsys):
    path = tmp_path / "empty-records.evt"
    path.write_bytes(EMPTY_RECORDS_FILE)
    assert main(["inspect", str(path)]) == 2
    assert "at least one field" in capsys.readouterr().err


def test_flipped_payload_bit_is_caught_with_block_index(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=5, n_events=300)))
    path = tmp_path / "f.evt"
    write_evt(path, events, schema, block_target=100)
    index = scan_evt(path)
    target = index.blocks[1]
    raw = bytearray(path.read_bytes())
    raw[target.offset + 8 + target.payload_len // 2] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(CrcMismatch, match="block 1"):
        read_blocks(path)
    # other blocks still readable through the range reader
    fresh = scan_evt(path)
    read = partial(iter_block_range, fresh, timers=PhaseTimers(), codec=EventCodec(schema))
    assert sum(cs.count for cs in read(0, 1)) == 100
    with pytest.raises(CrcMismatch, match="block 1"):
        list(read(1, 2))


def test_truncated_file(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=5, n_events=100)))
    path = tmp_path / "f.evt"
    write_evt(path, events, schema)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(TruncatedBlock):
        scan_evt(path)
    with pytest.raises(TruncatedBlock):
        read_blocks(path)


def test_schema_violation_on_write(tmp_path, schema):
    bad = make_event()
    del bad["met"]
    with pytest.raises(SchemaViolation):
        write_evt(tmp_path / "bad.evt", [bad], schema)
    assert not (tmp_path / "bad.evt").exists()
    assert not (tmp_path / "bad.evt.tmp").exists()


def _with(**changes):
    ev = make_event(jets=[make_particle()])
    for key, value in changes.items():
        ev[key] = value
    return ev


@pytest.mark.parametrize("malformed_schema, event", [
    pytest.param(None, {k: v for k, v in make_event().items() if k != "lumi"}, id="missing-field"),
    pytest.param(None, _with(met={"pt": "1.0", "phi": 0.0}), id="str-in-f64"),
    pytest.param(None, _with(jets=[make_particle(id=1.5)]), id="float-in-i32"),
    pytest.param(None, _with(jets=[make_particle(id=2**31)]), id="i32-out-of-range"),
    pytest.param(None, _with(run=2**70), id="i64-out-of-range"),
    pytest.param(None, _with(jets=None), id="none-for-array"),
    pytest.param(None, _with(jets=[{"pt": 1.0, "eta": 0.0, "phi": 0.0, "mass": 0.0}]),
                 id="missing-element-field"),
])
def test_malformed_event_is_rejected_and_leaves_no_file(tmp_path, schema, malformed_schema,
                                                        event):
    with pytest.raises(SchemaViolation):
        write_evt(tmp_path / "bad.evt", [event], malformed_schema or schema)
    assert list(tmp_path.iterdir()) == []


def test_convert_round_trips_and_recomputes_blocks(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=9, n_events=1500)))
    raw = tmp_path / "raw.evt"
    write_evt(raw, events, schema, block_target=200)
    packed = tmp_path / "packed.evt"
    convert_evt(raw, packed, compress=True, block_target=200)
    unpacked = tmp_path / "unpacked.evt"
    convert_evt(packed, unpacked, compress=False, block_target=200)

    assert scan_evt(packed).compressed is True
    assert scan_evt(unpacked).compressed is False
    assert read_all(packed) == events
    assert read_all(unpacked) == events
    assert unpacked.stat().st_size > packed.stat().st_size
    assert unpacked.read_bytes() == raw.read_bytes()


def test_byte_counters(tmp_path, schema):
    events = list(generate_events(GeneratorSpec(seed=9, n_events=400)))
    path = tmp_path / "f.evt"
    write_evt(path, events, schema, compress=True, block_target=100)
    timers = PhaseTimers()
    index = scan_evt(path, timers)
    blocks = iter_block_range(index, 0, len(index.blocks), timers=timers,
                              codec=EventCodec(schema))
    assert_blocks_hold(blocks, schema, events)
    assert timers.bytes_read == path.stat().st_size
    assert timers.bytes_decoded > timers.bytes_read  # deflate inflates back


# -- property tests over random schemas ---------------------------------------------


@st.composite
def schema_and_events(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    shape = draw(st.sampled_from(["randgen", *HAND_BUILT]))
    schema = random_schema(rng) if shape == "randgen" else HAND_BUILT[shape]
    events = random_events(rng, schema, rng.randint(0, 6))
    return schema, events


def assert_same_types(got, want):
    """`got` holds values of the types `want` holds, recursively; `==`
    alone takes True for 1 and 1 for 1.0."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        for key in want:
            assert_same_types(got[key], want[key])
    elif isinstance(want, list):
        for g, w in zip(got, want, strict=True):
            assert_same_types(g, w)


@given(case=schema_and_events(), compress=st.booleans(), block_target=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_random_schema_round_trip(tmp_path_factory, case, compress, block_target):
    schema, events = case
    path = tmp_path_factory.mktemp("rt") / "f.evt"
    write_evt(path, events, schema, compress=compress, block_target=block_target)
    got_schema, got = read_events(path)
    assert got_schema == schema
    assert got == events
    assert_same_types(got, events)


# -- convert --------------------------------------------------------------------------


def append_stored(path, blocks):
    """Append (event count, stored payload) blocks to an EVT file, each
    under a valid CRC."""
    with open(path, "ab") as f:
        for n, stored in blocks:
            f.write(evt._BLOCK_HDR.pack(n, len(stored)) + stored
                    + evt._U32.pack(zlib.crc32(stored)))


def append_blocks(path, blocks, compress):
    """Append (event count, raw payload) blocks to an EVT file, each stored
    as `write_evt` stores it, under a valid CRC."""
    append_stored(path, [(n, evt._deflate(p) if compress else p) for n, p in blocks])


def written(path, events, schema, compress, block_target):
    write_evt(path, events, schema, compress=compress, block_target=block_target)
    return path.read_bytes()


def assert_converts_like_write_of_read(tmp_path, src, compress, block_target):
    schema, events = read_events(src)
    want = written(tmp_path / "want.evt", events, schema, compress, block_target)
    dst = tmp_path / "dst.evt"
    stats = convert_evt(src, dst, compress=compress, block_target=block_target)
    assert dst.read_bytes() == want
    index = scan_evt(dst)
    assert (stats.n_events, stats.n_blocks, stats.file_bytes, stats.payload_bytes) == (
        index.n_events, len(index.blocks), len(want), index.payload_bytes)
    assert not (tmp_path / "dst.evt.tmp").exists()


@pytest.mark.parametrize("src_compress, compress", [
    (False, True), (True, False), (False, False), (True, True),
])
@pytest.mark.parametrize("block_target", [1, 7, 200, 4096, 10_000])
def test_convert_writes_what_write_evt_writes_of_read_evt(tmp_path, schema, src_compress,
                                                          compress, block_target):
    """Source blocks of 333 events, so output blocks cut across them."""
    events = list(generate_events(GeneratorSpec(seed=9, n_events=1500)))
    src = tmp_path / "src.evt"
    write_evt(src, events, schema, compress=src_compress, block_target=333)
    assert_converts_like_write_of_read(tmp_path, src, compress, block_target)


@pytest.mark.parametrize("compress", [False, True])
def test_convert_of_no_blocks_and_of_a_block_of_no_events(tmp_path, schema, compress):
    src = tmp_path / "src.evt"
    write_evt(src, [], schema, compress=compress)
    assert_converts_like_write_of_read(tmp_path, src, not compress, 3)
    codec = EventCodec(schema)
    events = list(generate_events(GeneratorSpec(seed=9, n_events=5)))
    payload = b"".join(codec.encode(ev) for ev in events)
    append_blocks(src, [(0, b""), (5, payload), (0, b"")], compress)
    assert_converts_like_write_of_read(tmp_path, src, not compress, 3)
    assert read_all(tmp_path / "dst.evt") == events


@given(case=schema_and_events(), src_target=st.integers(1, 4), block_target=st.integers(1, 5),
       src_compress=st.booleans(), compress=st.booleans())
@settings(max_examples=100, deadline=None)
def test_random_schema_convert(tmp_path_factory, case, src_target, block_target,
                               src_compress, compress):
    schema, events = case
    tmp = tmp_path_factory.mktemp("convert")
    src = tmp / "src.evt"
    write_evt(src, events, schema, compress=src_compress, block_target=src_target)
    assert_converts_like_write_of_read(tmp, src, compress, block_target)


def _corrupt_stored_byte(path, block):
    raw = bytearray(path.read_bytes())
    info = scan_evt(path).blocks[block]
    raw[info.offset + 8 + info.payload_len // 2] ^= 0x10
    path.write_bytes(bytes(raw))


def _malformed(kind, path, schema, compress):
    """An EVT file of three 100-event blocks whose block 1 is malformed
    as `kind` says; every CRC is valid except a mismatch's."""
    codec = EventCodec(schema)
    events = list(generate_events(GeneratorSpec(seed=5, n_events=300)))
    payloads = [b"".join(codec.encode(ev) for ev in events[i:i + 100]) for i in (0, 100, 200)]
    bad = payloads[1]
    if kind == "truncated-payload":
        bad = bad[:-3]
    elif kind == "count-overrun":
        # the muon count of the first event, after run, lumi, event, weight and met
        bad = bad[:48] + (2**32 - 1).to_bytes(4, "little") + bad[52:]
    elif kind == "trailing-bytes":
        bad = bad + b"\x00"
    stored = [evt._deflate(p) if compress else p for p in (payloads[0], bad, payloads[2])]
    if kind == "cut-deflate":
        stored[1] = stored[1][:-3]
    elif kind == "padded-deflate":
        stored[1] += b"junk"
    write_evt(path, [], schema, compress=compress)
    append_stored(path, [(100, s) for s in stored])
    if kind == "crc-mismatch":
        _corrupt_stored_byte(path, 1)
    elif kind == "bad-deflate":
        info = scan_evt(path).blocks[1]
        raw = path.read_bytes()
        junk = b"\xff" * info.payload_len
        start = info.offset + 8
        path.write_bytes(raw[:start] + junk + evt._U32.pack(zlib.crc32(junk))
                         + raw[start + info.payload_len + 4:])


@pytest.mark.parametrize("kind, compress", [
    ("truncated-payload", False), ("truncated-payload", True),
    ("crc-mismatch", False), ("crc-mismatch", True),
    ("bad-deflate", True),
    ("count-overrun", False), ("count-overrun", True),
    ("trailing-bytes", False), ("trailing-bytes", True),
])
def test_convert_rejects_what_read_evt_rejects_and_leaves_no_file(tmp_path, schema, kind,
                                                                  compress):
    src = tmp_path / "src.evt"
    _malformed(kind, src, schema, compress)
    with pytest.raises(DataError, match="block 1") as read_error:
        read_blocks(src)
    dst = tmp_path / "dst.evt"
    # a small block target, so block 0's events are written before block 1 fails
    with pytest.raises(type(read_error.value), match="block 1"):
        convert_evt(src, dst, compress=not compress, block_target=50)
    assert not dst.exists()
    assert not (tmp_path / "dst.evt.tmp").exists()


def test_inflate_takes_exactly_one_whole_stream():
    stream = evt._deflate(b"hello world" * 10)
    assert evt._inflate(stream) == b"hello world" * 10
    assert evt._inflate(evt._deflate(b"")) == b""
    with pytest.raises(zlib.error, match="ends before"):
        evt._inflate(stream[:-3])
    with pytest.raises(zlib.error, match="4 bytes follow"):
        evt._inflate(stream + b"junk")


@pytest.mark.parametrize("kind", ["cut-deflate", "padded-deflate"])
def test_a_cut_or_padded_deflate_stream_is_a_truncated_block(tmp_path, schema, kind):
    """Under a valid CRC, block 1's stream is rejected by the inflate
    itself, which names the file and the block, in a read and in a
    conversion alike."""
    src = tmp_path / "src.evt"
    _malformed(kind, src, schema, True)
    where = r"src\.evt: block 1: bad deflate stream"
    with pytest.raises(TruncatedBlock, match=where):
        read_blocks(src)
    with pytest.raises(TruncatedBlock, match=where):
        convert_evt(src, tmp_path / "dst.evt", compress=False)
    assert list(tmp_path.iterdir()) == [src]


def test_convert_of_a_truncated_file_leaves_no_file(tmp_path, schema):
    src = tmp_path / "src.evt"
    write_evt(src, list(generate_events(GeneratorSpec(seed=5, n_events=100))), schema)
    src.write_bytes(src.read_bytes()[:-7])
    with pytest.raises(TruncatedBlock, match="block 0"):
        convert_evt(src, tmp_path / "dst.evt", compress=True)
    assert list(tmp_path.iterdir()) == [src]


def test_convert_never_encodes(tmp_path, schema, monkeypatch):
    events = list(generate_events(GeneratorSpec(seed=9, n_events=500)))
    src = tmp_path / "src.evt"
    write_evt(src, events, schema, block_target=128)
    want = written(tmp_path / "want.evt", events, schema, True, 100)

    def refuse(self, buf, event):
        raise AssertionError("convert_evt encoded an event")

    monkeypatch.setattr(EventCodec, "encode_into", refuse)
    convert_evt(src, tmp_path / "dst.evt", compress=True, block_target=100)
    assert (tmp_path / "dst.evt").read_bytes() == want


def test_convert_copies_stored_bytes_as_they_are(tmp_path):
    """A bool stored as 2 reads as True; conversion keeps the 2, where
    encoding the event read back would store 1."""
    schema = Schema.from_json('{"record":[["flag","bool"],["x","f64"]]}')
    codec = EventCodec(schema)
    events = [{"flag": True, "x": 1.5}, {"flag": False, "x": -2.0}]
    payload = bytearray(b"".join(codec.encode(ev) for ev in events))
    assert payload[0] == 1
    payload[0] = 2
    src = tmp_path / "src.evt"
    write_evt(src, [], schema)
    append_blocks(src, [(2, bytes(payload))], False)
    packed = tmp_path / "packed.evt"
    convert_evt(src, packed, compress=True)
    assert read_all(packed) == read_all(src) == events
    back = tmp_path / "back.evt"
    convert_evt(packed, back, compress=False)
    assert back.read_bytes() == src.read_bytes()
