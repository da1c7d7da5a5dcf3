import pytest

from skimflow.errors import NameCollision
from skimflow.events import analysis_schema
from skimflow.schema import Array, Primitive, Record, Schema
from skimflow.storage import flatten_paths


def rec(*fields):
    return Record(tuple(fields))


def test_nested_record_paths_join_with_underscore():
    schema = Schema(rec(("met", rec(("pt", Primitive("f64")), ("phi", Primitive("f64"))))))
    assert flatten_paths(schema) == [("met_pt", "met.pt"), ("met_phi", "met.phi")]


def test_name_collision():
    schema = Schema(rec(("a_b", Primitive("f64")), ("a", rec(("b", Primitive("f64"))))))
    with pytest.raises(NameCollision, match="a_b"):
        flatten_paths(schema)


def test_arrays_are_skipped_full_analysis_schema():
    # hand-derived: only the scalar leaves, in declaration order
    assert [column for column, _ in flatten_paths(analysis_schema())] == [
        "run", "lumi", "event", "genInfo_weight", "met_pt", "met_phi",
    ]


def test_flatten_paths_gives_dotted_sources():
    assert flatten_paths(analysis_schema())[3:] == [
        ("genInfo_weight", "genInfo.weight"),
        ("met_pt", "met.pt"),
        ("met_phi", "met.phi"),
    ]


def test_array_inside_record_skipped():
    schema = Schema(rec(("box", rec(("vals", Array(Primitive("f64"))), ("n", Primitive("i32"))))))
    assert flatten_paths(schema) == [("box_n", "box.n")]
