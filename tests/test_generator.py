import math

import pytest

from oracle import kahan_sum, read_events
from skimflow.errors import ConfigError
from skimflow.events import analysis_schema
from skimflow.generator import GeneratorSpec, generate_corpus, generate_events, generate_evt
from skimflow.storage import scan_evt, write_evt


def test_zero_events_is_valid_empty_file(tmp_path):
    stats = generate_evt(GeneratorSpec(seed=1, n_events=0), tmp_path / "f.evt")
    assert stats.n_events == 0
    schema, events = read_events(tmp_path / "f.evt")
    assert events == []
    assert schema == analysis_schema()


def test_same_seed_byte_identical(tmp_path):
    spec = GeneratorSpec(seed=42, n_events=1000)
    generate_evt(spec, tmp_path / "a.evt")
    generate_evt(spec, tmp_path / "b.evt")
    assert (tmp_path / "a.evt").read_bytes() == (tmp_path / "b.evt").read_bytes()


def test_different_seed_differs(tmp_path):
    generate_evt(GeneratorSpec(seed=1, n_events=100), tmp_path / "a.evt")
    generate_evt(GeneratorSpec(seed=2, n_events=100), tmp_path / "b.evt")
    assert (tmp_path / "a.evt").read_bytes() != (tmp_path / "b.evt").read_bytes()


def test_constant_weights_sum_exactly():
    events = list(generate_events(GeneratorSpec(seed=42, n_events=10000)))
    assert kahan_sum(ev["genInfo"]["weight"] for ev in events) == 10000.0


def test_events_conform_and_respect_invariants(tmp_path):
    # the encoder accepts a bool for a number, any value for a bool and extra
    # fields; a round trip that keeps every value's repr shows none of them
    events = list(generate_events(GeneratorSpec(seed=3, n_events=500, weight_dist="signed")))
    write_evt(tmp_path / "f.evt", events, analysis_schema())
    _, back = read_events(tmp_path / "f.evt")
    assert repr(back) == repr(events)
    for ev in events:
        assert ev["met"]["pt"] >= 0.0
        assert -math.pi <= ev["met"]["phi"] < math.pi
        for coll in ("muons", "electrons", "taus", "photons", "jets"):
            for p in ev[coll]:
                assert p["pt"] >= 0.0 and p["mass"] >= 0.0
                assert -math.pi <= p["phi"] < math.pi
    weights = {ev["genInfo"]["weight"] for ev in events}
    assert weights == {1.0, -1.0}


def test_data_kind_unit_weights():
    events = list(generate_events(GeneratorSpec(seed=3, n_events=200, kind="data", weight_dist="signed")))
    assert all(ev["genInfo"]["weight"] == 1.0 for ev in events)


def test_mean_jets_controls_multiplicity():
    low = list(generate_events(GeneratorSpec(seed=5, n_events=2000, mean_jets=1.0)))
    high = list(generate_events(GeneratorSpec(seed=5, n_events=2000, mean_jets=8.0)))
    mean = lambda evs: sum(len(e["jets"]) for e in evs) / len(evs)  # noqa: E731
    assert 0.8 < mean(low) < 1.2
    assert 7.5 < mean(high) < 8.5


def test_met_scale():
    events = list(generate_events(GeneratorSpec(seed=5, n_events=5000, met_scale=250.0)))
    mean = sum(e["met"]["pt"] for e in events) / len(events)
    assert 235.0 < mean < 265.0


def test_corpus_split_and_unique_event_numbers(tmp_path):
    spec = GeneratorSpec(seed=9, n_events=1003)
    paths = generate_corpus(spec, tmp_path, 4)
    assert [p.name for p in paths] == [f"part-{i:04d}.evt" for i in range(4)]
    counts = [scan_evt(p).n_events for p in paths]
    assert sum(counts) == 1003
    assert max(counts) - min(counts) <= 1
    numbers = []
    for p in paths:
        _, events = read_events(p)
        numbers.extend(ev["event"] for ev in events)
    assert numbers == list(range(1, 1004))


@pytest.mark.parametrize("field", ["met_scale", "mean_jets"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameters_rejected(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        GeneratorSpec(seed=1, n_events=1, **{field: value})


def test_spec_validation():
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=1, n_events=-1)
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=1, n_events=1, kind="real")
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=1, n_events=1, met_scale=0.0)
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=1, n_events=1, weight_dist="gauss")
    with pytest.raises(ConfigError):
        GeneratorSpec(seed=1, n_events=1, p_plus=1.5)
