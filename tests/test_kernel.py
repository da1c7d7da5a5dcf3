"""The generated evaluator against a direct interpreter of the syntax tree.

Random expressions over the analysis schema and over random schemas
(`randgen`), some with field names that are not identifiers, on random
events with NaN, infinities, signed zeros, i64 values beyond 2**53 and
empty collections. `evaluate` of each compiled cut and projection (and
of a compiled value's one-column projection), the skim kernel over a
block of columns, and the kernel through `filter_map_write` and
`map_reduce` (over decoded and over cached columns), must give exactly
what `interp` gives: the same bools, ints that stay ints, and floats with
the same bits (any NaN matching any NaN).
"""

import math
import random
import struct
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interp import interpret
from oracle import kahan_sum, read_events
from randgen import f32_exact, hostile, random_schema
from skimflow.engine import (
    DatasetDescriptor,
    EngineConfig,
    filter_map_write,
    map_reduce,
    open_dataset,
)
from skimflow.errors import ArityMismatch, SchemaViolation, TypeMismatch
from skimflow.events import analysis_schema, make_event, make_particle
from skimflow.expr import (
    Arith,
    BoolOp,
    Compare,
    Const,
    Count,
    Field,
    Neg,
    Not,
    Reduce,
    Size,
    compile_kernel,
    typecheck_cut,
    typecheck_projection,
    typecheck_value,
)
from skimflow.schema import Array, Primitive, Record, Schema
from skimflow.storage import EventCodec, write_evt
from skimflow.storage.ntu import KIND_INFO

NUMERIC = ("f64", "f32", "i64", "i32")
COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")

F64_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, 2.0**53, 30.0)
F32_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e30, 30.0)
I64_SPECIALS = (0, 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63))
I32_SPECIALS = (0, 1, -1, 2**31 - 1, -(2**31))
INT_CONSTS = (0, 1, 2, 30, 2**53, 2**53 + 1, 2**63 - 1, -(2**53) - 1, 10**20)
FLOAT_CONSTS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 30.0, 2.0**53, 1e308)


# -- random schemas, events and expressions ------------------------------------------


def value(rng, node):
    """A conforming value; a third of the numbers are special."""
    if isinstance(node, Array):
        return [value(rng, node.element) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
    if isinstance(node, Record):
        return {name: value(rng, child) for name, child in node.fields}
    kind = node.kind
    if kind == "bool":
        return rng.random() < 0.5
    special = rng.random() < 0.33
    if kind == "i64":
        return rng.choice(I64_SPECIALS) if special else rng.randint(-100, 100)
    if kind == "i32":
        return rng.choice(I32_SPECIALS) if special else rng.randint(-100, 100)
    if kind == "f32":
        return f32_exact(rng.choice(F32_SPECIALS) if special else rng.uniform(-100.0, 100.0))
    return rng.choice(F64_SPECIALS) if special else rng.uniform(-100.0, 100.0)


def scalars(record, prefix):
    """(path, kind) of every numeric field reached through records alone."""
    out = []
    for name, child in record.fields:
        if isinstance(child, Primitive) and child.kind in NUMERIC:
            out.append((prefix + (name,), child.kind))
        elif isinstance(child, Record):
            out += scalars(child, prefix + (name,))
    return out


def collections(record, prefix=()):
    """(path, element record) of every array of records reached through records."""
    out = []
    for name, child in record.fields:
        path = prefix + (name,)
        if isinstance(child, Array) and isinstance(child.element, Record):
            out.append((path, child.element))
        elif isinstance(child, Record):
            out += collections(child, path)
    return out


class Exprs:
    """Random well-typed syntax trees over one schema."""

    def __init__(self, rng, schema):
        self.rng = rng
        self.scalars = scalars(schema.root, ())
        self.colls = collections(schema.root)

    def const(self):
        if self.rng.random() < 0.5:
            return Const(self.rng.choice(INT_CONSTS), "i64")
        return Const(self.rng.choice(FLOAT_CONSTS), "f64")

    def num(self, depth, elem=None):
        rng = self.rng
        fields = self.scalars if elem is None else scalars(elem, ("it",))
        choices = ["const"] + ["field"] * 3 * bool(fields)
        if depth > 0:
            choices += ["arith", "arith", "neg"]
        if elem is None and self.colls:
            choices += ["size", "count", "reduce", "reduce"]
        pick = rng.choice(choices)
        if pick == "const":
            return self.const()
        if pick == "field":
            return Field(rng.choice(fields)[0])
        if pick == "arith":
            return Arith(rng.choice("+-*/"), self.num(depth - 1, elem), self.num(depth - 1, elem))
        if pick == "neg":
            return Neg(self.num(depth - 1, elem))
        path, record = rng.choice(self.colls)
        numeric = [n for n, c in record.fields if isinstance(c, Primitive) and c.kind in NUMERIC]
        if pick == "count":
            return Count(path, self.bool(max(depth - 1, 0), record))
        if pick == "size" or not numeric:
            return Size(path)
        return Reduce(rng.choice(("max", "min", "sum")), path, rng.choice(numeric))

    def bool(self, depth, elem=None):
        rng = self.rng
        pick = rng.choice(["compare"] * 3 + ["const"] + ["and", "or", "not"] * (depth > 0))
        if pick == "compare":
            return Compare(rng.choice(COMPARE_OPS), self.num(depth, elem), self.num(depth, elem))
        if pick == "const":
            return Const(rng.random() < 0.7, "bool")
        if pick == "not":
            return Not(self.bool(depth - 1, elem))
        return BoolOp(pick, tuple(self.bool(depth - 1, elem) for _ in range(rng.randint(2, 3))))

    def cut(self):
        items = tuple(self.bool(2) for _ in range(self.rng.randint(1, 4)))
        return items[0] if len(items) == 1 else BoolOp("and", items)


@st.composite
def cases(draw):
    """(schema, events, cut, projection columns, weight), all as trees."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if rng.random() < 0.4:
        schema = analysis_schema()
    else:
        schema = random_schema(rng)
        if rng.random() < 0.5:
            schema = hostile(rng, schema)
    gen = Exprs(rng, schema)
    events = [value(rng, schema.root) for _ in range(rng.randint(0, 12))]
    columns = [(f"c{i}", gen.num(2)) for i in range(rng.randint(1, 4))]
    return schema, events, gen.cut(), columns, gen.num(1)


# -- exact comparison ------------------------------------------------------------------


def same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert same(g, w), f"{g!r} ({type(g).__name__}) != {w!r} ({type(w).__name__})"


def pairwise(values):
    """The engine's documented merge: adjacent pairs, in partition order."""
    if not values:
        return 0.0
    while len(values) > 1:
        values = [values[i] + values[i + 1] for i in range(0, len(values) - 1, 2)] + (
            [values[-1]] if len(values) % 2 else []
        )
    return values[0]


class RowSink:
    """Keeps what `filter_map_write` writes, transposed from its columns
    back to rows."""

    def __init__(self):
        self.rows = []

    def append_columns(self, columns, n_rows):
        rows = list(zip(*columns)) if columns else [()] * n_rows
        assert len(rows) == n_rows
        self.rows.extend(rows)


# -- equivalence -------------------------------------------------------------------------


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_interpreter(case):
    schema, events, cut, columns, weight = case
    typed_cut = typecheck_cut(cut, schema)
    projection = typecheck_projection(columns, schema)
    # a compiled value's per-event result: its one-column projection's
    typed_weight = typecheck_projection([("w", typecheck_value(weight, schema).node)], schema)
    for ev in events:
        assert typed_cut.evaluate(ev) is interpret(cut, ev)
        assert_same(projection.evaluate(ev), [interpret(node, ev) for _, node in columns])
        assert_same(typed_weight.evaluate(ev), [interpret(weight, ev)])


@given(
    case=cases(),
    parts=st.integers(min_value=1, max_value=3),
    workers=st.sampled_from((1, 2)),
    cached=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_skim_matches_interpreter(case, parts, workers, cached):
    schema, events, cut, columns, weight = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.evt"
        stats = write_evt(path, events, schema, block_target=4)
        stored = stats.payload_bytes + 12 * stats.n_blocks
        decoded = read_events(path)[1]
        ds = open_dataset(  # `parts` runs, or one per block when there are fewer blocks
            DatasetDescriptor(str(path), "mc", "mc", 1.0),
            EngineConfig(partition_target_bytes=max(1, -(-stored // parts)), workers=workers),
        )
        assert len(ds.partitions) == min(parts, stats.n_blocks)
        typed_weight = typecheck_value(weight, schema)
        if cached:
            ds.persist()
            map_reduce(ds, typed_weight)
            assert ds.cache_state == ("cached" if ds.partitions else "warming")

        partials, start = [], 0
        for part in ds.partitions:
            chunk = decoded[start:start + part.n_events]
            partials.append(kahan_sum(interpret(weight, ev) for ev in chunk))
            start += part.n_events
        want_sum = pairwise(partials)
        want_rows = [
            [interpret(node, ev) for _, node in columns] for ev in decoded if interpret(cut, ev)
        ]

        projection = typecheck_projection(columns, schema)
        sink = RowSink()

        def run():
            return filter_map_write(
                ds, typecheck_cut(cut, schema), projection,
                sink=sink, weight=typed_weight,
            )

        kinds = [kind for _, kind in projection.columns]
        if all(fits(kind, v) for row in want_rows for kind, v in zip(kinds, row)):
            n, sumw = run()
            assert n == len(want_rows) == len(sink.rows)
            for got, want in zip(sink.rows, want_rows):
                assert_same(got, want)
            assert_same([sumw], [want_sum])
        else:  # a selected value its column's typed array cannot hold
            with pytest.raises(ArityMismatch, match="does not match column kind"):
                run()
        assert_same([map_reduce(ds, typed_weight)], [want_sum])


# -- pinned cases --------------------------------------------------------------------------


def fits(kind, value):
    """Whether a projected value fits a column of `kind`: only an integer
    constant can fall outside its i64 column."""
    return kind != "i64" or -(2**63) <= value < 2**63


def kernel_rows(cut, projection, events, leaves=None):
    """The rows the skim kernel selects from `events` decoded to one
    column set (of `leaves`, or of every leaf), transposed from the typed
    columns it appends to."""
    codec = EventCodec(cut.schema, leaves)
    block = codec.decode_block(b"".join(codec.encode(ev) for ev in events), len(events))
    columns = [array(KIND_INFO[kind][0]) for _, kind in projection.columns]
    compile_kernel(cut, projection)([block], columns)
    return list(zip(*columns))


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_kernel_over_a_pruned_block_matches_interpreter(case):
    """Many events in one column set, decoded only in the leaves read."""
    schema, events, cut, columns, _ = case
    typed_cut = typecheck_cut(cut, schema)
    projection = typecheck_projection(columns, schema)
    want = [
        tuple(interpret(node, ev) for _, node in columns) for ev in events if interpret(cut, ev)
    ]
    kinds = [kind for _, kind in projection.columns]
    if not all(fits(kind, v) for row in want for kind, v in zip(kinds, row)):
        return
    got = kernel_rows(typed_cut, projection, events, typed_cut.leaves | projection.leaves)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)


def test_evaluate_rejects_a_non_conforming_event(schema):
    """`evaluate` encodes the whole event, so a field it does not read
    must conform as well."""
    ev = make_event()
    del ev["taus"]
    with pytest.raises(SchemaViolation):
        typecheck_cut("met.pt > 1.0", schema).evaluate(ev)
    with pytest.raises(SchemaViolation):
        typecheck_projection([("x", "met.pt")], schema).evaluate({**make_event(), "run": 1.5})


def test_i64_beyond_2_53_compares_after_widening(schema):
    ev = make_event(event=2**53 + 1)
    projection = typecheck_projection([("event", "event")], schema)
    for text, passes in (
        ("event == 9007199254740992", True),  # 2**53: the widened 2**53 + 1
        ("event > 9007199254740992", False),
        ("event != 9007199254740992", False),
        ("event - 9007199254740992 == 0", True),
    ):
        cut = typecheck_cut(text, schema)
        assert cut.evaluate(ev) is passes
        assert kernel_rows(cut, projection, [ev]) == ([(2**53 + 1,)] if passes else [])


def test_int_in_a_float_field_is_widened(schema):
    # a conforming event built by hand may hold an int in an f64 field
    ev = make_event(met_pt=2**53 + 1, met_phi=2)
    assert typecheck_cut("met.pt == 9007199254740992", schema).evaluate(ev) is True
    assert_same(typecheck_projection([("s", "met.pt + met.phi")], schema).evaluate(ev),
                [float(2**53 + 1) + 2.0])


def test_int_results_stay_int(schema):
    ev = make_event(run=7, jets=[make_particle(pt=40.0), make_particle(pt=10.0)])
    projection = typecheck_projection(
        [("run", "run"), ("n", "size(jets)"), ("k", "count(jets, it.pt > 30.0)"), ("two", "2"),
         ("id", "max(jets, it.id)"), ("half", "run / 2")],
        schema,
    )
    want = (7, 2, 1, 2, 0.0, 3.5)
    assert_same(projection.evaluate(ev), want)
    assert_same(kernel_rows(typecheck_cut("true", schema), projection, [ev])[0], want)


def test_field_names_enter_the_source_only_as_data():
    schema = Schema(Record((
        ('a"] + b #', Primitive("f64")),
        ("x'y", Array(Record((("ev", Primitive("i32")), ("total", Primitive("f64")))))),
    )))
    cut = Compare(">", Field(('a"] + b #',)), Const(1.0, "f64"))
    columns = [
        ("n", Count(("x'y",), Compare(">", Field(("it", "ev")), Const(0, "i64")))),
        ("s", Reduce("sum", ("x'y",), "total")),
        ("a", Field(('a"] + b #',))),
    ]
    events = [
        {'a"] + b #': 2.0, "x'y": [{"ev": 1, "total": 0.5}, {"ev": -1, "total": 0.25}]},
        {'a"] + b #': 0.5, "x'y": []},
    ]
    typed_cut = typecheck_cut(cut, schema)
    projection = typecheck_projection(columns, schema)
    assert typed_cut.leaves == {('a"] + b #',)}
    assert [typed_cut.evaluate(ev) for ev in events] == [True, False]
    assert projection.evaluate(events[0]) == (1, 0.75, 2.0)
    assert kernel_rows(typed_cut, projection, events) == [(1, 0.75, 2.0)]


@pytest.mark.parametrize("node", [
    Compare("< 0 or print('x') or 0 <", Const(1, "i64"), Const(2, "i64")),
    Arith("**", Const(1, "i64"), Const(2, "i64")),
    BoolOp("xor", (Const(True, "bool"), Const(False, "bool"))),
    Compare("<", Const("__import__('os')", "i64"), Const(2, "i64")),
    Compare("<", Const(True, "i64"), Const(2, "i64")),
    Compare("<", Const(1, "f64"), Const(2, "i64")),
    Compare("<", Reduce("sorted", ("jets",), "pt"), Const(2, "i64")),
    5,
    Not(5),
    BoolOp("and", (Const(True, "bool"), None)),
    Compare(">", Field(5), Const(1, "i64")),
    Compare(">", Field(()), Const(1, "i64")),
    Compare(">", Field(("met", 5)), Const(1, "i64")),
    Compare(">", Field(["met", "pt"]), Const(1, "i64")),
    Compare(">", Size(5), Const(1, "i64")),
    Compare(">", Count(("jets",), Const(True, "bool")), Count([], Const(True, "bool"))),
    Compare(">", Reduce("max", "jets", "pt"), Const(1, "i64")),
    Compare(">", Reduce("max", ("jets",), 5), Const(1, "i64")),
    Compare([">"], Const(2, "i64"), Const(1, "i64")),
    Compare(">", Const(2, ["i64"]), Const(1, "i64")),
    BoolOp("and", 5),
    BoolOp("and", ()),
    BoolOp("or", [Const(True, "bool")]),
    Not(BoolOp("and", ())),
])
def test_malformed_trees_are_rejected(schema, node):
    with pytest.raises(TypeMismatch):
        typecheck_cut(node, schema)


def test_constant_beyond_f64_raises_when_evaluated(schema):
    cut = typecheck_cut("met.pt > " + "9" * 400, schema)
    with pytest.raises(OverflowError):
        cut.evaluate(make_event())
