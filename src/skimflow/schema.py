"""Schema type system for event files.

A schema is a finite tree of nodes: primitives (f64, f32, i64, i32, bool),
arrays of a single element node, and records with one or more named,
ordered fields. The root is always a record. Since no record is empty,
every value takes at least one byte in the EVT codec. Schemas are
immutable and hashable, safe to share across worker threads, and
serialize to a canonical JSON text that is embedded in file headers:

    primitive  ->  "f64"
    array      ->  {"array": <node>}
    record     ->  {"record": [["name", <node>], ...]}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import canonical
from .errors import SchemaError

PRIMITIVE_KINDS = ("f64", "f32", "i64", "i32", "bool")
MAX_DEPTH = 16


@dataclass(frozen=True)
class Primitive:
    kind: str


@dataclass(frozen=True)
class Array:
    element: "SchemaNode"


@dataclass(frozen=True)
class Record:
    fields: tuple[tuple[str, "SchemaNode"], ...]

    def field(self, name: str) -> "SchemaNode":
        for fname, node in self.fields:
            if fname == name:
                return node
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)


SchemaNode = Union[Primitive, Array, Record]


@dataclass(frozen=True)
class Schema:
    """A validated schema tree whose root is a record."""

    root: Record

    def __post_init__(self) -> None:
        if not isinstance(self.root, Record):
            raise SchemaError("schema root must be a record")
        _validate(self.root, depth=1)

    def to_json(self) -> str:
        return canonical.dumps(_node_to_obj(self.root))

    @staticmethod
    def from_json(text: str) -> "Schema":
        try:
            obj = canonical.loads(text)
        except ValueError as exc:
            raise SchemaError(f"schema is not valid JSON: {exc}") from exc
        return Schema(_node_from_obj(obj))


def _validate(node: SchemaNode, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise SchemaError(f"schema nesting exceeds {MAX_DEPTH} levels")
    if isinstance(node, Primitive):
        if node.kind not in PRIMITIVE_KINDS:
            raise SchemaError(f"unknown primitive kind {node.kind!r}")
    elif isinstance(node, Array):
        _validate(node.element, depth + 1)
    elif isinstance(node, Record):
        if not node.fields:
            raise SchemaError("a record must have at least one field")
        seen = set()
        for name, child in node.fields:
            if not name or not isinstance(name, str):
                raise SchemaError("record field names must be non-empty strings")
            if name in seen:
                raise SchemaError(f"duplicate field name {name!r} in record")
            seen.add(name)
            _validate(child, depth + 1)
    else:
        raise SchemaError(f"invalid schema node {node!r}")


def _node_to_obj(node: SchemaNode):
    if isinstance(node, Primitive):
        return node.kind
    if isinstance(node, Array):
        return {"array": _node_to_obj(node.element)}
    return {"record": [[name, _node_to_obj(child)] for name, child in node.fields]}


def _node_from_obj(obj) -> SchemaNode:
    if isinstance(obj, str):
        if obj not in PRIMITIVE_KINDS:
            raise SchemaError(f"unknown primitive kind {obj!r}")
        return Primitive(obj)
    if isinstance(obj, dict) and set(obj) == {"array"}:
        return Array(_node_from_obj(obj["array"]))
    if isinstance(obj, dict) and set(obj) == {"record"}:
        fields = obj["record"]
        if not isinstance(fields, list):
            raise SchemaError("record fields must be a list")
        out = []
        for entry in fields:
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
                raise SchemaError(f"malformed record field {entry!r}")
            out.append((entry[0], _node_from_obj(entry[1])))
        return Record(tuple(out))
    raise SchemaError(f"malformed schema node {obj!r}")
