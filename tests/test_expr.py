import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skimflow.errors import (
    ConfigError, NonScalarProjection, ParseError, TypeMismatch, UnknownField,
)
from skimflow.events import make_event, make_particle
from skimflow.expr import parse_expr, typecheck_cut, typecheck_projection, typecheck_value
from skimflow.generator import GeneratorSpec, generate_events


def ev(met_pt=0.0, muons=0, jets=(), **kw):
    return make_event(
        met_pt=met_pt,
        muons=[make_particle() for _ in range(muons)],
        jets=[make_particle(pt=pt) for pt in jets],
        **kw,
    )


# -- type checking ---------------------------------------------------------------


def test_simple_cut_typechecks(schema):
    typecheck_cut("met.pt > 250.0", schema)


def test_numeric_operand_to_boolop_rejected(schema):
    with pytest.raises(TypeMismatch):
        typecheck_cut("met.pt and true", schema)


def test_nested_element_predicate_typechecks(schema):
    cut = typecheck_cut("count(jets, it.pt > 30.0) >= 2", schema)
    assert cut.evaluate(ev(jets=(40.0, 35.0)))
    assert not cut.evaluate(ev(jets=(40.0,)))


def test_unknown_field(schema):
    with pytest.raises(UnknownField):
        typecheck_cut("met.missing > 1", schema)
    with pytest.raises(UnknownField):
        typecheck_cut("nope > 1", schema)


def test_cut_must_be_boolean(schema):
    with pytest.raises(TypeMismatch):
        typecheck_cut("met.pt", schema)


def test_comparing_bools_rejected(schema):
    with pytest.raises(TypeMismatch):
        typecheck_cut("true == false", schema)


def test_collection_needs_aggregate(schema):
    with pytest.raises(TypeMismatch):
        typecheck_cut("jets > 1", schema)
    with pytest.raises(TypeMismatch):
        typecheck_cut("met.pt.x > 1", schema)


def test_element_predicate_cannot_see_event_fields(schema):
    with pytest.raises(UnknownField):
        typecheck_cut("count(jets, met.pt > 10) > 0", schema)
    with pytest.raises(UnknownField):
        typecheck_cut("it.pt > 10", schema)


def test_size_of_scalar_rejected(schema):
    with pytest.raises(TypeMismatch):
        typecheck_cut("size(met) > 0", schema)


def test_projection_rejects_boolean_columns(schema):
    with pytest.raises(NonScalarProjection):
        typecheck_projection([("flag", "met.pt > 1.0")], schema)
    with pytest.raises(NonScalarProjection):
        typecheck_projection([("flag", "true")], schema)
    for text in ("met.pt + (met.phi > 1.0)", "-(met.pt > 1.0)"):  # a boolean operand
        with pytest.raises(ConfigError, match=r"got (f64/)?bool$"):
            typecheck_projection([("x", text)], schema)


def test_projection_rejects_duplicates(schema):
    with pytest.raises(NonScalarProjection):
        typecheck_projection([("a", "met.pt"), ("a", "met.phi")], schema)


def test_projection_column_kinds(schema):
    proj = typecheck_projection(
        [("met_pt", "met.pt"), ("n", "size(jets)"), ("ht", "sum(jets, it.pt)"),
         ("k", "2"), ("x", "met.pt / 2.0")],
        schema,
    )
    assert proj.columns == (
        ("met_pt", "f64"), ("n", "i64"), ("ht", "f64"), ("k", "i64"), ("x", "f64"),
    )


def test_value_must_be_numeric(schema):
    node = typecheck_value("genInfo.weight", schema).node
    assert typecheck_projection([("w", node)], schema).evaluate(ev(weight=-1.0)) == (-1.0,)
    with pytest.raises(TypeMismatch):
        typecheck_value("met.pt > 1.0", schema)


# -- leaves read -------------------------------------------------------------------


@pytest.mark.parametrize("text, leaves", [
    ("run", {("run",)}),
    ("met.pt", {("met", "pt")}),
    ("size(muons)", {("muons",)}),
    ("count(jets, it.pt > 30.0)", {("jets", "pt")}),
    ("count(jets, it.pt > 30.0 and it.eta < 2.5)", {("jets", "pt"), ("jets", "eta")}),
    ("count(jets, true)", {("jets",)}),
    ("max(jets, it.pt)", {("jets", "pt")}),
    ("min(taus, it.eta)", {("taus", "eta")}),
    ("sum(photons, it.mass)", {("photons", "mass")}),
    ("met.pt / (sum(jets, it.pt) + 1.0)", {("met", "pt"), ("jets", "pt")}),
    ("-met.phi", {("met", "phi")}),
    ("not met.pt > 1.0", {("met", "pt")}),
    ("met.pt > 1.0 and size(muons) == 0", {("met", "pt"), ("muons",)}),
    ("genInfo.weight < 0.0 or event > 5", {("genInfo", "weight"), ("event",)}),
    # a size is read with any element field of the same collection
    ("size(jets) > 0 and max(jets, it.pt) > 50.0", {("jets", "pt")}),
    ("1.0 + 2", set()),
    ("true", set()),
])
def test_leaves(schema, text, leaves):
    try:
        typed = typecheck_cut(text, schema)
    except TypeMismatch:
        typed = typecheck_value(text, schema)
    assert typed.leaves == leaves


def test_projection_leaves_are_the_union_of_its_columns(schema):
    proj = typecheck_projection(
        [("met_pt", "met.pt"), ("n", "size(electrons)"), ("ht", "sum(jets, it.pt)"), ("k", "2")],
        schema,
    )
    assert proj.leaves == {("met", "pt"), ("electrons",), ("jets", "pt")}


def test_parse_errors():
    for text in ("met.pt >", "count(jets it.pt)", "1 +", "a b", "(met.pt > 1", "met..pt", "1 < 2 < 3"):
        with pytest.raises(ParseError):
            parse_expr(text)


# -- evaluation -------------------------------------------------------------------


def test_identity_cut_passes_everything(schema):
    cut = typecheck_cut("true", schema)
    for met in (0.0, 1.0, 1e9):
        assert cut.evaluate(ev(met_pt=met))


def test_strict_comparison(schema):
    cut = typecheck_cut("met.pt > 250", schema)
    results = [cut.evaluate(ev(met_pt=pt)) for pt in (100.0, 250.0, 300.0)]
    assert results == [False, False, True]


def test_nan_compares_false_under_every_operator(schema):
    for op in ("<", "<=", ">", ">=", "==", "!="):
        cut = typecheck_cut(f"met.pt {op} 1.0", schema)
        assert cut.evaluate(ev(met_pt=math.nan)) is False


def test_division_is_total(schema):
    proj = typecheck_projection([("r", "met.pt / met.phi")], schema)
    (inf_val,) = proj.evaluate(ev(met_pt=1.0))
    assert inf_val == math.inf
    (nan_val,) = proj.evaluate(ev(met_pt=0.0))
    assert math.isnan(nan_val)


def test_reduce_over_empty_collection_yields_zero(schema):
    proj = typecheck_projection(
        [("mx", "max(jets, it.pt)"), ("mn", "min(jets, it.pt)"), ("s", "sum(jets, it.pt)")],
        schema,
    )
    assert proj.evaluate(ev()) == (0.0, 0.0, 0.0)


def test_projection_field_copy(schema):
    proj = typecheck_projection([("met_pt", "met.pt")], schema)
    assert proj.evaluate(ev(met_pt=300.0)) == (300.0,)


def test_projection_size_empty(schema):
    proj = typecheck_projection([("njets", "size(jets)")], schema)
    assert proj.evaluate(ev()) == (0,)


def test_arithmetic_precedence(schema):
    proj = typecheck_projection([("x", "1 + 2 * 3"), ("y", "(1 + 2) * 3"), ("z", "-2 + 1")], schema)
    assert proj.evaluate(ev()) == (7.0, 9.0, -1.0)


# -- oracle comparisons on synthetic events ------------------------------------------


def test_cut_pass_count_matches_brute_force(schema):
    events = list(generate_events(GeneratorSpec(seed=42, n_events=10000)))
    cut = typecheck_cut("met.pt > 200 and size(muons) == 0", schema)
    expected = sum(1 for e in events if e["met"]["pt"] > 200 and len(e["muons"]) == 0)
    assert sum(1 for e in events if cut.evaluate(e)) == expected
    assert 0 < expected < len(events)


def test_projection_sums_match_brute_force(schema):
    events = list(generate_events(GeneratorSpec(seed=42, n_events=10000)))
    proj = typecheck_projection([("ht", "sum(jets, it.pt)")], schema)
    got = [proj.evaluate(e)[0] for e in events]
    expected = []
    for e in events:
        ht = 0.0
        for jet in e["jets"]:
            ht += jet["pt"]
        expected.append(ht)
    assert got == expected


# -- properties ---------------------------------------------------------------------


_events = st.builds(
    ev,
    met_pt=st.floats(min_value=0.0, max_value=1e6),
    muons=st.integers(min_value=0, max_value=3),
    jets=st.lists(st.floats(min_value=0.0, max_value=1e4), max_size=5).map(tuple),
)

_atoms = st.sampled_from(
    ["met.pt > 100.0", "size(muons) == 0", "count(jets, it.pt > 50.0) >= 1",
     "max(jets, it.pt) > 200.0", "true", "false"]
)


@given(a=_atoms, b=_atoms, event=_events)
@settings(max_examples=200, deadline=None)
def test_de_morgan_duality(schema, a, b, event):
    lhs = typecheck_cut(f"not ({a} and {b})", schema)
    rhs = typecheck_cut(f"(not {a}) or (not {b})", schema)
    assert lhs.evaluate(event) == rhs.evaluate(event)


@given(event=_events, threshold=st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_count_equivalence(schema, event, threshold):
    cut = typecheck_projection([("n", f"count(jets, it.pt > {threshold!r})")], schema)
    (n,) = cut.evaluate(event)
    assert n == sum(1 for jet in event["jets"] if jet["pt"] > threshold)


@given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=200, deadline=None)
def test_strictness_at_equality(schema, x):
    cut = typecheck_cut(f"met.pt > {x!r}", schema)
    assert cut.evaluate(ev(met_pt=x)) is False


@given(event=_events)
@settings(max_examples=100, deadline=None)
def test_evaluation_is_pure(schema, event):
    cut = typecheck_cut("met.pt > 100.0 and count(jets, it.pt > 50.0) >= 1", schema)
    assert cut.evaluate(event) == cut.evaluate(event)
