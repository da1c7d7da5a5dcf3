"""Deterministic random schemas and conforming events for round-trip tests.

Used directly (with random.Random) by the acceptance suite's fixed-count
loops, and wrapped into hypothesis strategies by the unit tests. f32 values
are rounded to single precision up front so encode/decode round trips are
exact; NaN is excluded because it breaks equality comparison. `hostile`
renames fields to names that are not identifiers, for the code generators.
"""

from __future__ import annotations

import random
import struct as _struct

from skimflow.schema import Array, Primitive, Record, Schema

KINDS = ("f64", "f32", "i64", "i32", "bool")
# not identifiers, or spelled like locals of the generated code
HOSTILE_NAMES = ('a"] + b #', "x'y", "ev", "v1", "total", "def", "a b", "\\", "é")


def f32_exact(x: float) -> float:
    return _struct.unpack("<f", _struct.pack("<f", x))[0]


def random_schema(rng: random.Random, max_depth: int = 4, max_fields: int = 5) -> Schema:
    counter = [0]

    def name() -> str:
        counter[0] += 1
        return f"f{counter[0]}"

    def node(depth: int):
        roll = rng.random()
        if depth >= max_depth or roll < 0.55:
            return Primitive(rng.choice(KINDS))
        if roll < 0.8:
            return Array(node(depth + 1))
        return Record(tuple((name(), node(depth + 1)) for _ in range(rng.randint(1, max_fields))))

    fields = tuple((name(), node(2)) for _ in range(rng.randint(1, max_fields)))
    return Schema(Record(fields))


# shapes that random_schema seldom draws
HAND_BUILT = {
    "arrays of primitives": Schema(Record(tuple((k, Array(Primitive(k))) for k in KINDS))),
    "arrays of arrays": Schema(Record((
        ("aa", Array(Array(Primitive("f64")))),
        ("aaa", Array(Array(Array(Primitive("i32"))))),
        ("ar", Array(Array(Record((("q", Primitive("i64")), ("h", Array(Primitive("f32")))))))),
    ))),
}


def random_value(rng: random.Random, node, max_items: int = 4):
    if isinstance(node, Primitive):
        if node.kind == "bool":
            return rng.random() < 0.5
        if node.kind == "i32":
            return rng.randint(-(2**31), 2**31 - 1)
        if node.kind == "i64":
            return rng.randint(-(2**63), 2**63 - 1)
        value = rng.uniform(-1e6, 1e6)
        return f32_exact(value) if node.kind == "f32" else value
    if isinstance(node, Array):
        return [random_value(rng, node.element, max_items) for _ in range(rng.randint(0, max_items))]
    return {name: random_value(rng, child, max_items) for name, child in node.fields}


def random_events(rng: random.Random, schema: Schema, n: int) -> list[dict]:
    return [random_value(rng, schema.root) for _ in range(n)]


def hostile(rng: random.Random, schema: Schema) -> Schema:
    """The schema with about half its field names replaced by hostile ones."""

    def node(n):
        if isinstance(n, Array):
            return Array(node(n.element))
        if isinstance(n, Primitive):
            return n
        names = list(HOSTILE_NAMES)
        rng.shuffle(names)
        return Record(tuple(
            (names.pop() if rng.random() < 0.5 else name, node(child)) for name, child in n.fields
        ))

    return Schema(node(schema.root))
