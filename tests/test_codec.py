"""The generated encoder and the generated column decoder against the EVT
layout written and read back by hand (`oracle.reference_decode`), for
every leaf and for pruned leaf sets; hostile counts and malformed
payloads, decoded to columns by each kind of codec, and conversion of
such payloads against the program's own block iteration."""

import random
import struct
import time
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutation import MUTATIONS, mutate
from oracle import FMT, reference_decode
from randgen import HAND_BUILT, hostile, random_events, random_schema
from skimflow.errors import DataError, SchemaError, TruncatedBlock
from skimflow.events import analysis_schema, make_event, make_particle
from skimflow.generator import GeneratorSpec, generate_events
from skimflow.schema import Array, Primitive, Record, Schema
from skimflow.storage import EventCodec, convert_evt, evt, iter_block_range, scan_evt, write_evt
from skimflow.storage.codec import leaf_set
from skimflow.storage.ntu import KIND_INFO
from skimflow.timing import PhaseTimers

DEFAULT_LEAVES = {
    ("genInfo", "weight"), ("met", "pt"), ("met", "phi"), ("jets", "pt"),
    ("muons",), ("electrons",),
}


# -- encoding ----------------------------------------------------------------------

EMPTY = Record(())


@pytest.mark.parametrize("root, text", [
    pytest.param(EMPTY, '{"record":[]}', id="empty-root"),
    pytest.param(Record((("x", Primitive("i32")), ("e", EMPTY))),
                 '{"record":[["x","i32"],["e",{"record":[]}]]}', id="empty-sub-record"),
    pytest.param(Record((("es", Array(EMPTY)),)),
                 '{"record":[["es",{"array":{"record":[]}}]]}', id="array-of-empty-records"),
    pytest.param(Record((("ae", Array(Array(EMPTY))),)),
                 '{"record":[["ae",{"array":{"array":{"record":[]}}}]]}',
                 id="array-of-arrays-of-empty-records"),
    pytest.param(Record((("x", Primitive("f64")), ("r", Record((("e", EMPTY),))))),
                 '{"record":[["x","f64"],["r",{"record":[["e",{"record":[]}]]}]]}',
                 id="record-of-an-empty-record"),
    pytest.param(Record((("ex", Array(Record((("e", EMPTY), ("x", Primitive("f32")))))),)),
                 '{"record":[["ex",{"array":{"record":[["e",{"record":[]}],["x","f32"]]}}]]}',
                 id="array-of-records-holding-an-empty-record"),
])
def test_record_without_fields_rejected(root, text):
    """Every value takes at least one byte, so that the payload bounds
    every array count: a record without fields is no schema."""
    with pytest.raises(SchemaError, match="at least one field"):
        Schema(root)
    with pytest.raises(SchemaError, match="at least one field"):
        Schema.from_json(text)


def reference_encode(node, value) -> bytes:
    """The EVT layout written out directly: one struct.pack per primitive,
    a u32 count per array, and record fields in schema order."""
    if isinstance(node, Primitive):
        return struct.pack(FMT[node.kind], value)
    if isinstance(node, Array):
        return struct.pack("<I", len(value)) + b"".join(
            reference_encode(node.element, item) for item in value
        )
    return b"".join(reference_encode(child, value[name]) for name, child in node.fields)


@st.composite
def schema_and_events(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["randgen", *HAND_BUILT]))
    schema = random_schema(rng) if shape == "randgen" else HAND_BUILT[shape]
    if draw(st.booleans()):
        schema = hostile(rng, schema)
    return schema, random_events(rng, schema, rng.randint(1, 6))


@given(case=schema_and_events())
@settings(max_examples=300, deadline=None)
def test_encode_equals_reference_layout(case):
    schema, events = case
    codec = EventCodec(schema)
    for ev in events:
        assert codec.encode(ev) == reference_encode(schema.root, ev)


# -- decoding ----------------------------------------------------------------------


def leaf_paths(node, prefix=()):
    """Every path a leaf set may name: through records by field name, and
    through arrays to the fields of their elements."""
    if isinstance(node, Array):
        return leaf_paths(node.element, prefix)
    if isinstance(node, Primitive):
        return []
    out = []
    for name, child in node.fields:
        path = prefix + (name,)
        out.append(path)
        out.extend(leaf_paths(child, path))
    return out


def reference_columns(node, values, paths, path, out):
    """Add to `out` the columns that the codec decodes from `values`
    (of `node`, whose column key is `path`) for the leaf `paths` relative
    to `node` (None: every leaf), each as [typecode, values]: offsets for
    an array, its elements' columns unless it is read for its offsets alone,
    and a record's fields that some path names."""
    if isinstance(node, Primitive):
        out.setdefault(path, [KIND_INFO[node.kind][0], []])[1].extend(values)
    elif isinstance(node, Array):
        offsets = out.setdefault(path, ["q", [0]])[1]
        for value in values:
            offsets.append(offsets[-1] + len(value))
        inner = None if paths is None else {p for p in paths if p}
        if inner != set():
            epath = path if isinstance(node.element, Record) else path + ("",)
            items = [item for value in values for item in value]
            reference_columns(node.element, items, inner, epath, out)
    else:
        if paths is not None and () in paths:
            paths = None
        for name, child in node.fields:
            sub = None if paths is None else {p[1:] for p in paths if p and p[0] == name}
            if sub != set():
                reference_columns(child, [v[name] for v in values], sub, path + (name,), out)
    return out


def assert_columns_of(cs, schema, events, paths=None) -> dict:
    """`cs` holds the columns that `reference_columns` builds from
    `events` for the leaf `paths`, of the same typecodes and values;
    returns those columns."""
    want = reference_columns(schema.root, events, paths, (), {})
    assert cs.count == len(events)
    assert set(cs) == set(want)
    for key, (typecode, values) in want.items():
        assert cs[key].typecode == typecode and cs[key].tolist() == values, key
    return want


def assert_blocks_hold(blocks, schema, events) -> None:
    """Full-leaf column sets `blocks`, in file order, hold `events`: each
    block the columns of its own run of them."""
    start = 0
    for cs in blocks:
        assert_columns_of(cs, schema, events[start:start + cs.count])
        start += cs.count
    assert start == len(events)


@st.composite
def hostile_schema_events_leaves(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["randgen", *HAND_BUILT]))
    schema = random_schema(rng) if shape == "randgen" else HAND_BUILT[shape]
    if draw(st.booleans()):
        schema = hostile(rng, schema)
    events = random_events(rng, schema, rng.randint(0, 6))
    paths = leaf_paths(schema.root)
    return schema, events, set(rng.sample(paths, rng.randint(0, len(paths))))


@given(case=hostile_schema_events_leaves())
@settings(max_examples=300, deadline=None)
def test_column_decode_equals_reference_layout(case):
    """Leaf by leaf, for every leaf and for a random leaf set, over random
    and hand-built schemas, half of them with hostile field names."""
    schema, events, leaves = case
    payload = b"".join(EventCodec(schema).encode(ev) for ev in events)
    decoded = reference_decode(schema, payload, len(events))
    assert decoded == events
    for paths in (None, leaves):
        codec = EventCodec(schema, paths)
        cs = codec.decode_block(payload, len(events))
        want = assert_columns_of(cs, schema, decoded, paths)
        assert cs.nbytes == sum(cs[key].itemsize * len(values) for key, (_, values) in want.items())
        # the payload is consumed exactly: one byte more or less is an error
        with pytest.raises(TruncatedBlock):
            codec.decode_block(payload + b"\x00", len(events))
        if payload:
            with pytest.raises(TruncatedBlock):
                codec.decode_block(payload[:-1], len(events))


@given(case=hostile_schema_events_leaves(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_event_ends_are_the_encoded_event_boundaries(case, data):
    """A codec of no leaves builds no columns, and its walk finds where
    each event ends and rejects a payload one byte longer or shorter."""
    schema, events, _ = case
    codec, walker = EventCodec(schema), EventCodec(schema, ())
    sizes = [len(codec.encode(ev)) for ev in events]
    payload = b"".join(codec.encode(ev) for ev in events)
    assert walker.decode_block(payload, len(events)) == {}
    marks = sorted(data.draw(st.sets(st.integers(0, len(events)))))
    assert walker.event_ends(payload, len(events), marks) == [sum(sizes[:k]) for k in marks]
    with pytest.raises(TruncatedBlock):
        walker.event_ends(payload + b"\x00", len(events), marks)
    if payload:
        with pytest.raises(TruncatedBlock):
            walker.event_ends(payload[:-1], len(events), marks)


def test_a_count_of_events_past_the_payload_raises_at_once():
    """Without leaves, an event of fixed-width fields is a pad skip; the
    block's count is still bounded by the fewest bytes an event takes."""
    schema = Schema.from_json('{"record":[["x","f64"],["ok","bool"]]}')
    t0 = time.perf_counter()
    for leaves in ((), None):
        with pytest.raises(TruncatedBlock, match="events need at least"):
            EventCodec(schema, leaves).decode_block(b"\x00" * 9, 2**32 - 1)
        with pytest.raises(TruncatedBlock, match="events need at least"):
            EventCodec(schema, leaves).event_ends(b"\x00" * 9, 2**32 - 1, [1])
    assert time.perf_counter() - t0 < 1.0


def test_default_skim_leaves_decode(schema):
    ev = make_event(
        weight=-1.0, met_pt=200.0, met_phi=0.5,
        muons=[make_particle()], taus=[make_particle(), make_particle()],
        jets=[make_particle(pt=40.0, eta=1.0), make_particle(pt=25.0)],
    )
    cs = EventCodec(schema, DEFAULT_LEAVES).decode_block(EventCodec(schema).encode(ev), 1)
    assert cs.count == 1
    assert {key: (col.typecode, col.tolist()) for key, col in cs.items()} == {
        ("genInfo", "weight"): ("d", [-1.0]),
        ("met", "pt"): ("d", [200.0]),
        ("met", "phi"): ("d", [0.5]),
        ("muons",): ("q", [0, 1]),
        ("electrons",): ("q", [0, 0]),
        ("jets",): ("q", [0, 2]),
        ("jets", "pt"): ("d", [40.0, 25.0]),
    }
    assert ("taus",) not in cs


def test_leaf_set_drops_an_array_path_read_below(schema):
    paths = DEFAULT_LEAVES | {("jets",), ("taus",)}
    assert leaf_set(paths) == DEFAULT_LEAVES | {("taus",)}
    payload = EventCodec(schema).encode(make_event(jets=[make_particle(pt=40.0)]))
    decoded = [EventCodec(schema, p).decode_block(payload, 1) for p in (paths, leaf_set(paths))]
    assert decoded[0] == decoded[1] and ("jets",) in decoded[1]


def test_unknown_leaf_rejected(schema):
    with pytest.raises(SchemaError):
        EventCodec(schema, {("met", "eta")})
    with pytest.raises(SchemaError):
        EventCodec(schema, {("met", "pt", "x")})


# -- hostile counts ------------------------------------------------------------------

TRACKS = Schema(Record((
    ("x", Primitive("f64")),
    ("tracks", Array(Record((("q", Primitive("i32")), ("hits", Array(Primitive("f64"))))))),
)))


@pytest.mark.parametrize("schema_name, leaves, collection", [
    ("analysis", DEFAULT_LEAVES, "taus"),  # skipped, fixed-width elements
    ("analysis", DEFAULT_LEAVES, "muons"),  # size only, fixed-width elements
    ("analysis", DEFAULT_LEAVES, "jets"),  # read, fixed-width elements
    ("tracks", {("x",)}, "tracks"),  # skipped, variable-width elements
    ("tracks", {("tracks",)}, "tracks"),  # size only, variable-width elements
    ("tracks", None, "tracks"),  # read, variable-width elements
    ("analysis", (), "jets"),  # no leaves, fixed-width elements
    ("tracks", (), "tracks"),  # no leaves, variable-width elements
])
def test_overrunning_count_raises_before_allocating(tmp_path, schema, schema_name, leaves,
                                                    collection):
    """A block whose CRC is valid but one of whose u32 counts claims far
    more elements than the payload holds."""
    if schema_name == "analysis":
        event = make_event()
        offset = 48 + 4 * ("muons", "electrons", "taus", "photons", "jets").index(collection)
    else:
        schema, event, offset = TRACKS, {"x": 1.0, "tracks": []}, 8
    path = tmp_path / "hostile.evt"
    write_evt(path, [event], schema)
    block = scan_evt(path).blocks[0]
    raw = bytearray(path.read_bytes())
    start = block.offset + 8
    raw[start + offset:start + offset + 4] = (0xFFFFFFF0).to_bytes(4, "little")
    payload = bytes(raw[start:start + block.payload_len])
    raw[start + block.payload_len:start + block.payload_len + 4] = (
        zlib.crc32(payload).to_bytes(4, "little")
    )
    path.write_bytes(bytes(raw))

    index = scan_evt(path)
    codec = EventCodec(schema, leaves)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedBlock, match="4294967280 elements"):
            list(iter_block_range(index, 0, 1, timers=PhaseTimers(), codec=codec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- malformed payloads ---------------------------------------------------------------

FUZZ_SCHEMA = analysis_schema()
FUZZ_PAYLOAD = b"".join(
    EventCodec(FUZZ_SCHEMA).encode(ev) for ev in generate_events(GeneratorSpec(seed=9, n_events=8))
)
FUZZ_PEAK_BYTES = 16 << 20
FUZZ_SECONDS = 2.0

@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def store_mutated(payload: bytes, mutations, compress: bool, mutate_stored: bool) -> bytes:
    """The block payload as stored, with the mutations applied to the
    event bytes or, for a deflate block, to its stored stream."""
    if compress and mutate_stored:
        return mutate(evt._deflate(payload), mutations)
    stored = mutate(payload, mutations)
    return evt._deflate(stored) if compress else stored


def read_blocks(path) -> list:
    """Every block of an EVT file as the program reads it: a scan, then
    the full-leaf block iteration, one `ColumnSet` per block."""
    index = scan_evt(path)
    return list(iter_block_range(index, 0, len(index.blocks), timers=PhaseTimers(),
                                 codec=EventCodec(index.schema)))


def column_count(index, codec) -> int:
    (cs,) = iter_block_range(index, 0, 1, timers=PhaseTimers(), codec=codec)
    return cs.count


def store_block(path, schema, stored, n_events, compress):
    """An EVT file of one block of `n_events` events stored as `stored`,
    with its CRC, as `write_evt` writes it."""
    write_evt(path, [], schema, compress=compress)
    with open(path, "ab") as f:
        f.write(evt._BLOCK_HDR.pack(n_events, len(stored)) + stored
                + evt._U32.pack(zlib.crc32(stored)))


def assert_decodes_or_raises(path, schema, stored, n_events, compress, codecs):
    """Store `stored` as one block of `n_events` events. Every outcome,
    with each codec, is one column set of `n_events` events or a
    DataError, in bounded memory and time."""
    store_block(path, schema, stored, n_events, compress)
    index = scan_evt(path)
    for codec in codecs:
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            assert column_count(index, codec) == n_events
        except DataError:
            pass
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < FUZZ_PEAK_BYTES
        assert time.perf_counter() - t0 < FUZZ_SECONDS


@given(
    compress=st.booleans(),
    mutate_stored=st.booleans(),
    mutations=MUTATIONS,
)
@settings(max_examples=300, deadline=None)
def test_malformed_payload_decodes_or_raises_data_error(fuzz_dir, compress, mutate_stored,
                                                        mutations):
    """Mutated analysis-schema blocks, with the full, a pruned and a
    leaf-free codec."""
    stored = store_mutated(FUZZ_PAYLOAD, mutations, compress, mutate_stored)
    codecs = [EventCodec(FUZZ_SCHEMA, leaves) for leaves in (None, DEFAULT_LEAVES, ())]
    assert_decodes_or_raises(fuzz_dir / "fuzz.evt", FUZZ_SCHEMA, stored, 8, compress, codecs)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    renamed=st.booleans(),
    compress=st.booleans(),
    mutate_stored=st.booleans(),
    mutations=MUTATIONS,
)
@settings(max_examples=500, deadline=None)
def test_malformed_payload_over_random_schemas(fuzz_dir, seed, renamed, compress,
                                               mutate_stored, mutations):
    """Mutated blocks of random schemas, half of them with hostile field
    names, with the full codec, one pruned to a random leaf set and one of
    no leaves."""
    rng = random.Random(seed)
    schema = random_schema(rng)
    if renamed:
        schema = hostile(rng, schema)
    events = random_events(rng, schema, rng.randint(1, 6))
    full = EventCodec(schema)
    payload = b"".join(full.encode(ev) for ev in events)
    paths = leaf_paths(schema.root)
    leaves = rng.sample(paths, rng.randint(0, len(paths)))
    codecs = [full, EventCodec(schema, leaves), EventCodec(schema, ())]
    stored = store_mutated(payload, mutations, compress, mutate_stored)
    assert_decodes_or_raises(fuzz_dir / "fuzz.evt", schema, stored, len(events), compress,
                             codecs)


def raw_payloads(path) -> bytes:
    """Every block's payload, inflated as a read inflates it, back to back."""
    index = scan_evt(path)
    data = path.read_bytes()
    stored = [data[b.offset + 8:b.offset + 8 + b.payload_len] for b in index.blocks]
    return b"".join(evt._inflate(s) if index.compressed else s for s in stored)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    compress=st.booleans(),
    mutate_stored=st.booleans(),
    mutations=MUTATIONS,
    block_target=st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_convert_of_a_malformed_payload_fails_as_read_evt_does(fuzz_dir, seed, compress,
                                                               mutate_stored, mutations,
                                                               block_target):
    """Over random schemas: where the program's full-leaf block iteration
    raises, conversion raises the same error and leaves no file; where it
    reads, conversion copies the event bytes into blocks that read back."""
    rng = random.Random(seed)
    schema = random_schema(rng)
    events = random_events(rng, schema, rng.randint(1, 6))
    payload = b"".join(EventCodec(schema).encode(ev) for ev in events)
    src, dst = fuzz_dir / "src.evt", fuzz_dir / "dst.evt"
    store_block(src, schema, store_mutated(payload, mutations, compress, mutate_stored),
                len(events), compress)
    try:
        read_blocks(src)
        read_error = None
    except DataError as exc:
        read_error = type(exc)
    dst.unlink(missing_ok=True)
    try:
        convert_evt(src, dst, compress=not compress, block_target=block_target)
    except DataError as exc:
        assert type(exc) is read_error
        assert not dst.exists() and not (fuzz_dir / "dst.evt.tmp").exists()
    else:
        assert read_error is None
        assert sum(cs.count for cs in read_blocks(dst)) == len(events)
        assert raw_payloads(dst) == raw_payloads(src)
