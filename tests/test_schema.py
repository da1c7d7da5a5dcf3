import pytest

from skimflow.errors import SchemaError
from skimflow.events import analysis_schema
from skimflow.schema import Array, Primitive, Record, Schema


def rec(*fields):
    return Record(tuple(fields))


def test_canonical_json_round_trip():
    schema = analysis_schema()
    text = schema.to_json()
    again = Schema.from_json(text)
    assert again == schema
    assert again.to_json() == text


def test_root_must_be_record():
    with pytest.raises(SchemaError):
        Schema(Primitive("f64"))


def test_duplicate_field_names_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        Schema(rec(("x", Primitive("f64")), ("x", Primitive("i32"))))


def test_unknown_primitive_kind_rejected():
    with pytest.raises(SchemaError):
        Schema(rec(("x", Primitive("u8"))))


def test_nesting_depth_limit():
    node = Primitive("f64")
    for _ in range(20):
        node = rec(("x", node))
    with pytest.raises(SchemaError, match="nesting"):
        Schema(node)


@pytest.mark.parametrize("root", [
    rec(("", Primitive("f64"))),  # an empty field name
    rec((7, Primitive("f64"))),  # a field name that is not a string
    rec(("x", Array("f64"))),  # an element that is not a schema node
])
def test_invalid_nodes_rejected(root):
    with pytest.raises(SchemaError):
        Schema(root)


def test_from_json_rejects_garbage():
    for text in [
        "not json",
        '{"record": [["x", "u16"]]}',
        '"f64"',
        '{"record": {"x": "f64"}}',  # fields not a list
        '{"record": [["x", "f64", "i32"]]}',  # a field of three entries
        '{"record": [[1, "f64"]]}',  # a field name that is not a string
        '{"record": [["x", 8]]}',  # a node that is neither text nor an object
        '{"record": [["x", {"array": "f64", "n": 2}]]}',  # an object with extra keys
        '{"record": [["a", "f64"]], "record": [["b", "i64"]]}',  # a repeated key
        '{"record": [["a", {"array": "f64", "array": "i64"}]]}',
        "[" * 100_000 + "]" * 100_000,  # nested past the parser's recursion limit
    ]:
        with pytest.raises(SchemaError):
            Schema.from_json(text)
