import math
import random
import struct
from array import array

import pytest

from oracle import fill_hist_brute, rel_close
from skimflow.errors import ConfigError, LengthMismatch, SpecMismatch, UnknownColumn
from skimflow.histogram import Histogram, HistogramSpec, fill_histogram


def test_spec_validation():
    with pytest.raises(ConfigError):
        HistogramSpec("x", 0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        HistogramSpec("x", 10, 1.0, 1.0)
    with pytest.raises(ConfigError):
        HistogramSpec("x", 10, 0.0, math.inf)


@pytest.mark.parametrize("args, field", [
    (("x", 3, "a", 1.0), "lo"),
    (("x", 3, True, 2.0), "lo"),
    (("x", 3, 0.0, False), "hi"),
    (("x", 3, None, 1.0), "lo"),
    (("x", 3, 0, 10**400), "hi"),
    (("x", 3, math.nan, 1.0), "lo"),
    ((5, 3, 0.0, 1.0), "variable"),
    ((None, 3, 0.0, 1.0), "variable"),
    (("x", 3.0, 0.0, 1.0), "nbins"),
])
def test_spec_fields_of_the_wrong_type_rejected(args, field):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        HistogramSpec(*args)


def test_integer_edges_are_held_as_floats():
    spec = HistogramSpec("x", 4, 0, 2)
    assert type(spec.lo) is float and type(spec.hi) is float


def test_no_rows_all_zero():
    hist = fill_histogram({"x": [], "weight": []}, HistogramSpec("x", 4, 0.0, 1.0))
    assert hist.contents == [0.0] * 4
    assert hist.total_weight() == 0.0


def test_hand_arithmetic_example():
    hist = fill_histogram(
        {"x": [0.5, 1.5, 1.5], "weight": [1.0, 1.0, 2.0]},
        HistogramSpec("x", 2, 0.0, 2.0),
    )
    assert hist.contents == [1.0, 3.0]
    assert hist.sumw2 == [1.0, 5.0]
    assert hist.underflow == 0.0 and hist.overflow == 0.0


def one_row(value, weight=1.0):
    return {"x": [value], "weight": [weight]}


def test_edge_semantics():
    spec = HistogramSpec("x", 4, 0.0, 4.0)
    for value, bin_ in (
        (0.0, 0),  # lower edge inclusive
        (1.0, 1),  # interior lower edge
        (3.9999999, 3),  # just under the top edge -> last bin
    ):
        hist = fill_histogram(one_row(value), spec)
        assert hist.contents == [1.0 if i == bin_ else 0.0 for i in range(4)]
        assert hist.underflow == hist.overflow == 0.0
    upper = fill_histogram(one_row(4.0), spec)  # upper edge exclusive
    assert upper.contents == [0.0] * 4 and upper.overflow == 1.0 and upper.underflow == 0.0
    below = fill_histogram(one_row(-0.001), spec)
    assert below.contents == [0.0] * 4 and below.underflow == 1.0 and below.overflow == 0.0


def test_nan_goes_to_overflow_conserving_weight():
    hist = fill_histogram(one_row(math.nan, 3.0), HistogramSpec("x", 2, 0.0, 1.0))
    assert hist.overflow == 3.0
    assert hist.total_weight() == 3.0


def test_negative_weights_allowed():
    spec = HistogramSpec("x", 2, 0.0, 2.0)
    hist = fill_histogram({"x": [0.5, 0.5], "weight": [-1.0, -1.0]}, spec)
    assert hist.contents == [-2.0, 0.0]
    assert hist.sumw2 == [2.0, 0.0]


def test_brute_force_oracle_match():
    rng = random.Random(42)
    values = [rng.gauss(5.0, 3.0) for _ in range(10000)]
    weights = [rng.uniform(-0.5, 2.0) for _ in range(10000)]
    spec = HistogramSpec("x", 17, 0.0, 10.0)
    hist = fill_histogram({"x": values, "weight": weights}, spec)
    brute = fill_hist_brute(values, weights, 17, 0.0, 10.0)
    assert hist.contents == brute["contents"]
    assert hist.sumw2 == brute["sumw2"]
    assert hist.underflow == brute["underflow"]
    assert hist.overflow == brute["overflow"]


def test_conservation_and_unit_weight_sumw2():
    rng = random.Random(7)
    values = [rng.expovariate(0.1) for _ in range(5000)]
    weights = [1.0] * 5000
    spec = HistogramSpec("x", 25, 0.0, 30.0)
    hist = fill_histogram({"x": values, "weight": weights}, spec)
    assert rel_close(hist.total_weight(), sum(weights))
    assert hist.sumw2 == hist.contents  # exact for unit weights
    assert hist.underflow_sumw2 == hist.underflow
    assert hist.overflow_sumw2 == hist.overflow


def test_merge_and_spec_mismatch():
    spec = HistogramSpec("x", 2, 0.0, 2.0)
    a = fill_histogram(one_row(0.5, 2.0), spec)
    b = fill_histogram(one_row(1.5, 3.0), spec)
    a.merge(b)
    assert a.contents == [2.0, 3.0]
    with pytest.raises(SpecMismatch):
        a.merge(Histogram(HistogramSpec("x", 3, 0.0, 2.0)))


def test_fill_histogram_errors():
    spec = HistogramSpec("x", 2, 0.0, 2.0)
    with pytest.raises(UnknownColumn):
        fill_histogram({"y": [], "weight": []}, spec)
    with pytest.raises(UnknownColumn):
        fill_histogram({"x": []}, spec)
    with pytest.raises(LengthMismatch):
        fill_histogram({"x": [1.0], "weight": []}, spec)


def test_edges():
    spec = HistogramSpec("x", 4, 0.0, 2.0)
    assert spec.edges() == [0.0, 0.5, 1.0, 1.5, 2.0]


@pytest.mark.parametrize("lo, hi", [(-1.5, 2.5), (0, 1000), (-3.0, 0.1)])
def test_fill_histogram_is_bitwise_repeated_fill(lo, hi):
    spec = HistogramSpec("x", 7, lo, hi)
    below_hi = math.nextafter(float(hi), -math.inf)
    edges = [math.nan, math.inf, -math.inf, float(lo), float(hi), below_hi, -0.0, 0.1]
    rng = random.Random(11)
    floats = edges + [rng.uniform(lo - 1.0, hi + 1.0) for _ in range(400)]
    weights = [rng.choice((1.0, -0.7, 2.5, -1e-3, 0.0, 1e300)) for _ in floats]
    ints = [2**53 + 1, -(2**53) - 3, 2**63 - 1, -(2**63), 0, 1, -1, 3] + [
        rng.randint(-(2**62), 2**62) >> rng.randint(0, 62) for _ in range(200)
    ]
    cases = [
        (array("d", floats), array("d", weights)),
        (array("f", floats), array("f", [w if abs(w) < 1e30 else 1.0 for w in weights])),
        (floats, weights),  # plain lists
        (array("q", ints), array("d", weights[:len(ints)])),
        (array("i", [2**31 - 1, -(2**31), 0, 5]), array("q", [3, -2, 2**53 + 1, 7])),
        (array("b", [0, 1, 1, 0]), [1, -1, 2, 0]),
    ]
    for values, w in cases:
        got = fill_histogram({"x": values, "weight": w}, spec).to_dict()
        want = fill_hist_brute(values, w, spec.nbins, lo, hi)
        assert {k: _bits(got[k]) for k in want} == {k: _bits(v) for k, v in want.items()}
        assert got["entries"] == len(values)


def _bits(x):
    """A float, or each float of a list, as its IEEE-754 bit pattern."""
    if isinstance(x, list):
        return [_bits(v) for v in x]
    return struct.pack("<d", x)
