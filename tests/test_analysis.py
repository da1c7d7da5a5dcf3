import csv
import json
import math
import random
import re
import time
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
from randgen import f32_exact
from skimflow.analysis import (
    DEFAULT_HISTOGRAMS,
    DEFAULT_PROJECTION,
    DEFAULT_SELECTION,
    AnalysisConfig,
    build_plot_bundle,
    bundle_to_csv,
    bundle_to_json,
    config_from_dict,
    histograms_for_ntuple,
    load_config,
    run_skim,
    sum_of_weights,
)
from skimflow.engine import DatasetDescriptor, EngineConfig, open_dataset
from skimflow.errors import ArityMismatch, ConfigError, KindMismatch, SpecMismatch, ZeroSumOfWeights
from skimflow.events import make_event
from skimflow.histogram import HistogramSpec, fill_histogram
from skimflow.schema import Primitive, Record, Schema
from skimflow import analysis
from skimflow.storage import NtuWriter, inspect_evt, read_ntu, write_evt


def mc_descriptor(glob, label="mc", xsec=10.0):
    return DatasetDescriptor(glob=glob, kind="mc", label=label, xsec_pb=xsec)


def base_config(datasets, **kw):
    return AnalysisConfig(datasets=tuple(datasets), luminosity_invpb=1000.0, **kw)


# -- sum_of_weights ---------------------------------------------------------------


def test_sum_of_weights_empty(tmp_path, schema):
    write_evt(tmp_path / "f.evt", [], schema)
    ds = open_dataset(mc_descriptor(str(tmp_path / "*.evt")))
    assert sum_of_weights(ds) == 0.0


def test_sum_of_weights_small(tmp_path, schema):
    events = [make_event(event=i + 1, weight=w) for i, w in enumerate((1.0, -1.0, 2.5))]
    write_evt(tmp_path / "f.evt", events, schema)
    ds = open_dataset(mc_descriptor(str(tmp_path / "*.evt")))
    assert sum_of_weights(ds) == 2.5


def test_sum_of_weights_matches_serial_oracle(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    got = sum_of_weights(ds)
    want = oracle.serial_sum_of_weights(small_corpus["paths"])
    assert oracle.rel_close(got, want)


def test_sum_of_weights_rejects_data(small_corpus):
    ds = open_dataset(DatasetDescriptor(glob=small_corpus["glob"], kind="data", label="d"))
    with pytest.raises(KindMismatch):
        sum_of_weights(ds)


# -- run_skim ----------------------------------------------------------------------


def test_skim_data_all_weights_exactly_one(tmp_path, small_corpus):
    config = base_config([DatasetDescriptor(glob=small_corpus["glob"], kind="data", label="d")],
                         selection="true")
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "d.ntu")
    assert result.n_output == result.n_input == 2000
    assert result.sum_weights is None
    weights = read_ntu(tmp_path / "d.ntu", ["weight"]).columns["weight"]
    assert set(weights) == {1.0}


def test_skim_false_cut_empty_output(tmp_path, small_corpus):
    config = base_config([mc_descriptor(small_corpus["glob"])], selection="false")
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "none.ntu")
    assert result.n_output == 0
    assert read_ntu(tmp_path / "none.ntu").n_rows == 0


def test_skim_zero_sum_of_weights_raises(tmp_path, schema):
    events = [make_event(event=1, weight=1.0), make_event(event=2, weight=-1.0)]
    write_evt(tmp_path / "f.evt", events, schema)
    config = base_config([mc_descriptor(str(tmp_path / "*.evt"))], selection="true")
    out = tmp_path / "out.ntu"
    out.write_bytes(b"an earlier skim")
    ds = open_dataset(config.datasets[0], config.engine)
    with pytest.raises(ZeroSumOfWeights):
        run_skim(config, ds, out)
    assert out.read_bytes() == b"an earlier skim"
    assert not (tmp_path / "out.ntu.tmp").exists()


@pytest.mark.parametrize("workers", [1, 2, 7])
def test_skim_sum_weights_equals_sum_of_weights(tmp_path, small_corpus, workers):
    engine = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3],
                          workers=workers)
    config = base_config([mc_descriptor(small_corpus["glob"])], engine=engine)
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "mc.ntu")
    fresh = open_dataset(config.datasets[0], config.engine)
    assert result.sum_weights == sum_of_weights(fresh)


def test_skim_over_cache_budget_decodes_each_block_once(tmp_path, small_corpus):
    full_decode = sum(inspect_evt(p)["decoded_bytes"] for p in small_corpus["paths"])
    # a budget below any one partition: the first one admitted overflows it
    engine = EngineConfig(cache_budget_bytes=1)
    config = base_config([mc_descriptor(small_corpus["glob"])], engine=engine, persist=True)
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "mc.ntu")
    assert ds.phases.bytes_decoded == full_decode
    assert ds.warnings and "cache budget exceeded" in ds.warnings[0]


def cache_bytes(config, out):
    """The column bytes a persisting `run_skim` of `config` caches, unbounded."""
    ds = open_dataset(config.datasets[0], replace(config.engine, cache_budget_bytes=None))
    run_skim(replace(config, persist=True), ds, out)
    assert ds.cache_state == "cached"
    return ds._cache_bytes


def test_later_skims_of_an_overflowed_dataset_stay_cold(tmp_path, small_corpus):
    """Each skim asks to persist, but after a budget overflow the dataset
    stays cold, so a later skim neither overflows again nor warns again."""
    engine = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3])
    config = base_config([mc_descriptor(small_corpus["glob"])], engine=engine, persist=True)
    budget = cache_bytes(config, tmp_path / "sizing.ntu") // 2
    config = replace(config, engine=replace(engine, cache_budget_bytes=budget, workers=2))
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "first.ntu")
    run_skim(config, ds, tmp_path / "second.ntu")
    assert len(ds.warnings) == 1
    assert ds.cache_state == "cold"
    assert (tmp_path / "first.ntu").read_bytes() == (tmp_path / "second.ntu").read_bytes()


# -- the dataset's phase accounting -------------------------------------------------


def test_an_uncached_data_skim_reads_every_corpus_byte_once(tmp_path, small_corpus):
    config = base_config([DatasetDescriptor(glob=small_corpus["glob"], kind="data", label="d")],
                         persist=False)
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "d.ntu")
    assert ds.phases.bytes_read == sum(p.stat().st_size for p in small_corpus["paths"])
    assert ds.phases.cache_hits == 0 and ds.phases.bytes_cached == 0


def test_a_cached_reskim_reads_nothing(tmp_path, small_corpus):
    config = base_config([mc_descriptor(small_corpus["glob"])], persist=True)
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "fill.ntu")
    assert ds.cache_state == "cached" and ds.phases.bytes_cached > 0
    filled = replace(ds.phases)
    run_skim(config, ds, tmp_path / "cached.ntu")
    assert ds.phases.bytes_read == filled.bytes_read
    assert ds.phases.bytes_decoded == filled.bytes_decoded
    assert ds.phases.bytes_cached == filled.bytes_cached
    assert ds.phases.cache_hits == len(ds.partitions) > 0


def test_a_persisted_data_dataset_reskims_from_memory(tmp_path, small_corpus):
    data = DatasetDescriptor(glob=small_corpus["glob"], kind="data", label="d")
    config = base_config([data], persist=True)
    ds = open_dataset(data, config.engine)
    run_skim(config, ds, tmp_path / "fill.ntu")
    filled = replace(ds.phases)
    run_skim(config, ds, tmp_path / "cached.ntu")
    assert ds.cache_state == "cached"
    assert ds.phases.bytes_read == filled.bytes_read
    assert ds.phases.cache_hits == len(ds.partitions) > 0
    assert (tmp_path / "cached.ntu").read_bytes() == (tmp_path / "fill.ntu").read_bytes()


def test_traversals_of_one_dataset_add_up(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    scan = ds.phases.bytes_read
    assert 0 < scan < ds.n_bytes and ds.phases.bytes_decoded == 0
    first = sum_of_weights(ds)
    once = replace(ds.phases)
    assert once.bytes_read == ds.n_bytes and once.bytes_decoded > 0
    assert sum_of_weights(ds) == first
    twice = ds.phases
    assert twice.bytes_read == scan + 2 * (ds.n_bytes - scan)
    assert twice.bytes_decoded == 2 * once.bytes_decoded
    assert twice.decode_s > once.decode_s and twice.compute_s > once.compute_s


def test_a_skim_counts_type_checks_as_compute_and_the_writer_open_as_write(
    tmp_path, small_corpus, monkeypatch
):
    pause = 0.05
    typecheck = analysis.typecheck_cut

    def slow_typecheck(*args):
        time.sleep(pause)
        return typecheck(*args)

    class SlowWriter(NtuWriter):
        def __init__(self, *args, **kwargs):
            time.sleep(pause)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "typecheck_cut", slow_typecheck)
    monkeypatch.setattr(analysis, "NtuWriter", SlowWriter)
    config = base_config([mc_descriptor(small_corpus["glob"])], selection="false")
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "mc.ntu")
    assert ds.phases.compute_s >= pause and ds.phases.write_s >= pause


LOOSE_SELECTION = "met.pt > 7.5 and size(taus) <= 1 and count(jets, it.pt > 24.0) >= 1"
WIDE_PROJECTION = DEFAULT_PROJECTION + (
    ("n_muons", "size(muons)"),
    ("photon_pt_sum", "sum(photons, it.pt)"),
    ("tau_pt_max", "max(taus, it.pt)"),
    ("jet_eta_min", "min(jets, it.eta)"),
)
SKIMS = {
    "default": (DEFAULT_SELECTION, DEFAULT_PROJECTION),
    "wide": (LOOSE_SELECTION, WIDE_PROJECTION),
    "loose": (LOOSE_SELECTION, DEFAULT_PROJECTION),
    "true": ("true", ()),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("skim", sorted(SKIMS))
def test_pruned_and_cached_skims_are_identical(tmp_path, small_corpus, skim, workers):
    """Cold, filling and overflowing skims write the same ntuple; an
    overflow mixes admitted and streamed partitions within one skim."""
    selection, projection = SKIMS[skim]
    engine = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3])
    sizing = base_config([mc_descriptor(small_corpus["glob"])], selection=selection,
                         projection=projection, engine=engine)
    half = cache_bytes(sizing, tmp_path / "sizing.ntu") // 2
    outputs = set()
    sums = set()
    for name, persist, budget in (
        ("cold", False, None), ("cached", True, None), ("overflow", True, half),
    ):
        config = base_config(
            [mc_descriptor(small_corpus["glob"])], selection=selection, projection=projection,
            engine=replace(engine, cache_budget_bytes=budget, workers=workers), persist=persist,
        )
        ds = open_dataset(config.datasets[0], config.engine)
        out = tmp_path / f"{name}.ntu"
        result = run_skim(config, ds, out)
        assert ds.cache_state == {"cold": "cold", "cached": "cached", "overflow": "cold"}[name]
        outputs.add(out.read_bytes())
        sums.add(result.sum_weights)
    assert len(outputs) == 1
    assert len(sums) == 1


B_PROJECTION = (
    ("n_muons", "size(muons)"),
    ("photon_pt_sum", "sum(photons, it.pt)"),
    ("tau_pt_max", "max(taus, it.pt)"),
)


def test_cached_skim_serves_other_leaves(tmp_path, small_corpus):
    """A skim of leaves A fills the cache at A; a skim of leaves B, not
    within A, widens it to A | B and reads storage; a skim of A | B then
    reads none. Each ntuple equals a cold skim's."""
    mc = [mc_descriptor(small_corpus["glob"])]
    skims = {
        "a": base_config(mc),
        "b": base_config(mc, selection="size(taus) <= 1", projection=B_PROJECTION),
        "ab": base_config(mc, projection=DEFAULT_PROJECTION + B_PROJECTION),
    }
    ds = open_dataset(mc[0])
    read = {}
    for name, config in skims.items():
        before = ds.phases.bytes_read
        run_skim(config, ds, tmp_path / f"{name}.ntu")
        assert ds.cache_state == "cached"
        read[name] = ds.phases.bytes_read - before
        one_off = replace(config, persist=False)
        run_skim(one_off, open_dataset(mc[0]), tmp_path / f"{name}-cold.ntu")
        cold = (tmp_path / f"{name}-cold.ntu").read_bytes()
        assert (tmp_path / f"{name}.ntu").read_bytes() == cold
    assert read["a"] > 0 and read["b"] > 0 and read["ab"] == 0


def test_a_one_off_persisting_skim_decodes_what_a_cold_one_does(tmp_path, small_corpus):
    config = base_config([mc_descriptor(small_corpus["glob"])], projection=WIDE_PROJECTION)
    keys = {}
    for persist in (False, True):
        ds = open_dataset(config.datasets[0], config.engine)
        take, seen = ds._partition_columns, set()

        def spy(part, timers, codec):
            blocks = list(take(part, timers, codec))
            seen.update(key for cs in blocks for key in cs)
            return blocks

        ds._partition_columns = spy
        run_skim(replace(config, persist=persist), ds, tmp_path / f"{persist}.ntu")
        assert ds.cache_state == ("cached" if persist else "cold")
        keys[persist] = seen
    assert keys[True] == keys[False]
    assert ("jets", "pt") in keys[True] and ("jets", "phi") not in keys[True]


def test_skim_empty_mc_dataset_writes_empty_file(tmp_path, schema):
    write_evt(tmp_path / "f.evt", [], schema)
    config = base_config([mc_descriptor(str(tmp_path / "*.evt"))])
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "out.ntu")
    assert result.n_output == 0 and result.sum_weights == 0.0


def test_skim_reserved_weight_column_rejected(tmp_path, small_corpus):
    with pytest.raises(ConfigError, match="reserved"):
        base_config([mc_descriptor(small_corpus["glob"])],
                    projection=(("weight", "met.pt"),))


def test_skim_matches_serial_two_pass_oracle(tmp_path, small_corpus):
    config = base_config([mc_descriptor(small_corpus["glob"], xsec=50.0)],
                         engine=EngineConfig(workers=4))
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "mc.ntu")

    sumw, rows = oracle.serial_skim(small_corpus["paths"], "mc", 50.0, 1000.0)
    assert oracle.rel_close(result.sum_weights, sumw)
    got = read_ntu(tmp_path / "mc.ntu")
    assert got.all_columns == (
        ("met_pt", "f64"), ("met_phi", "f64"), ("ht", "f64"),
        ("njets", "i64"), ("jet_pt_max", "f64"), ("weight", "f64"),
    )
    oracle.assert_rows_match(got.rows(), rows)
    assert 0 < result.n_output < result.n_input


def test_default_projection_from_schema_flatten(tmp_path, small_corpus):
    config = base_config([mc_descriptor(small_corpus["glob"])], projection=(), selection="true")
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "flat.ntu")
    assert [name for name, _ in result.columns] == [
        "run", "lumi", "event", "genInfo_weight", "met_pt", "met_phi", "weight",
    ]


def test_normalization_consistency_constant_weights(tmp_path, small_corpus):
    """All generator weights equal w -> every normalized weight equals
    xsec * lumi / N (w cancels)."""
    from skimflow.generator import GeneratorSpec, generate_evt

    generate_evt(GeneratorSpec(seed=4, n_events=1000), tmp_path / "c.evt")
    config = base_config([mc_descriptor(str(tmp_path / "c.evt"), xsec=60.0)], selection="true")
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "c.ntu")
    weights = read_ntu(tmp_path / "c.ntu", ["weight"]).columns["weight"]
    expected = 60.0 * 1000.0 / 1000
    assert all(oracle.rel_close(w, expected) for w in weights)


def test_weight_scaling_covariance(tmp_path, small_corpus):
    """Scaling the cross-section by k scales every weight and bin by k."""
    out = {}
    for k, xsec in (("base", 25.0), ("doubled", 50.0)):
        config = base_config([mc_descriptor(small_corpus["glob"], xsec=xsec)])
        ds = open_dataset(config.datasets[0], config.engine)
        run_skim(config, ds, tmp_path / f"{k}.ntu")
        out[k] = read_ntu(tmp_path / f"{k}.ntu")
    base_rows = out["base"].rows()
    doubled_rows = out["doubled"].rows()
    assert len(base_rows) == len(doubled_rows)
    for rb, rd in zip(base_rows, doubled_rows):
        assert rb[:-1] == rd[:-1]  # identical row set and payload
        assert oracle.rel_close(rd[-1], 2.0 * rb[-1])

    spec = HistogramSpec("met_pt", 20, 0.0, 1000.0)
    hb = histograms_for_ntuple(out["base"].path, [spec])["met_pt"]
    hd = histograms_for_ntuple(out["doubled"].path, [spec])["met_pt"]
    for cb, cd in zip(hb.contents, hd.contents):
        assert oracle.rel_close(cd, 2.0 * cb)


# -- histograms from ntuples ---------------------------------------------------------


def test_histograms_for_ntuple_match_brute_force(tmp_path, small_corpus):
    config = base_config([mc_descriptor(small_corpus["glob"], xsec=50.0)])
    ds = open_dataset(config.datasets[0], config.engine)
    run_skim(config, ds, tmp_path / "mc.ntu")
    hists = histograms_for_ntuple(tmp_path / "mc.ntu", DEFAULT_HISTOGRAMS)

    _, rows = oracle.serial_skim(small_corpus["paths"], "mc", 50.0, 1000.0)
    names = [name for name, _ in DEFAULT_PROJECTION]
    for spec in DEFAULT_HISTOGRAMS:
        col = names.index(spec.variable)
        values = [r[col] for r in rows]
        weights = [r[-1] for r in rows]
        brute = oracle.fill_hist_brute(values, weights, spec.nbins, spec.lo, spec.hi)
        hist = hists[spec.variable]
        for got, want in zip(hist.contents, brute["contents"]):
            assert oracle.rel_close(got, want)
        assert oracle.rel_close(hist.total_weight(), sum(weights))


# -- plot bundle ----------------------------------------------------------------------


def hist_with(spec, contents):
    span = spec.hi - spec.lo
    centres = [spec.lo + (i + 0.5) * span / spec.nbins for i in range(len(contents))]
    return fill_histogram({spec.variable: centres, "weight": list(contents)}, spec)


def test_single_component_stack_equals_component():
    spec = HistogramSpec("met_pt", 2, 0.0, 2.0)
    config = base_config([mc_descriptor("x", label="sig")], histograms=(spec,))
    bundle = build_plot_bundle(config, {"sig": {"met_pt": hist_with(spec, [1.0, 2.0])}})
    (entry,) = bundle["histograms"]
    assert entry["stack"]["contents"] == entry["mc"][0]["contents"] == [1.0, 2.0]
    assert entry["data"] is None


def test_two_components_stack_sums():
    spec = HistogramSpec("met_pt", 2, 0.0, 2.0)
    config = base_config(
        [mc_descriptor("x", label="a"), mc_descriptor("y", label="b")], histograms=(spec,)
    )
    bundle = build_plot_bundle(
        config,
        {"a": {"met_pt": hist_with(spec, [1.0, 2.0])}, "b": {"met_pt": hist_with(spec, [3.0, 4.0])}},
    )
    (entry,) = bundle["histograms"]
    assert entry["stack"]["contents"] == [4.0, 6.0]
    assert [c["label"] for c in entry["mc"]] == ["a", "b"]


def test_bundle_spec_mismatch_rejected():
    spec = HistogramSpec("met_pt", 2, 0.0, 2.0)
    other = HistogramSpec("met_pt", 3, 0.0, 2.0)
    config = base_config([mc_descriptor("x", label="a")], histograms=(spec,))
    with pytest.raises(SpecMismatch):
        build_plot_bundle(config, {"a": {"met_pt": hist_with(other, [1.0, 1.0, 1.0])}})
    # with several mismatches, the first in configuration order is reported
    config = base_config(
        [DatasetDescriptor(glob="z", kind="data", label="d"), mc_descriptor("x", label="a")],
        histograms=(spec,),
    )
    bad = {label: {"met_pt": hist_with(other, [1.0, 1.0, 1.0])} for label in ("a", "d")}
    with pytest.raises(SpecMismatch, match="^d/met_pt"):
        build_plot_bundle(config, bad)


def test_bundle_json_deterministic_and_csv_shape():
    spec = HistogramSpec("met_pt", 2, 0.0, 2.0)
    config = base_config(
        [mc_descriptor("x", label="a"),
         DatasetDescriptor(glob="z", kind="data", label="data")],
        histograms=(spec,),
    )
    hists = {
        "a": {"met_pt": hist_with(spec, [1.0, 2.0])},
        "data": {"met_pt": hist_with(spec, [2.0, 2.0])},
    }
    bundle = build_plot_bundle(config, hists)
    assert bundle_to_json(bundle) == bundle_to_json(build_plot_bundle(config, hists))
    parsed = json.loads(bundle_to_json(bundle))
    assert parsed["histograms"][0]["data"]["contents"] == [2.0, 2.0]
    csv = bundle_to_csv(bundle)
    lines = csv.strip().splitlines()
    # header + (1 mc + stack + data) x 2 bins
    assert len(lines) == 1 + 3 * 2
    assert lines[0].startswith("variable,component,kind,bin")


def test_csv_quotes_a_label_that_holds_a_comma_a_quote_or_a_newline(tmp_path):
    label = 'sig, "v2"\nrun'
    spec = HistogramSpec("met_pt", 2, 0.0, 2.0)
    config = base_config([mc_descriptor("x", label=label)], histograms=(spec,))
    bundle = build_plot_bundle(config, {label: {"met_pt": hist_with(spec, [1.0, 2.0])}})
    path = tmp_path / "plot_bundle.csv"
    path.write_text(bundle_to_csv(bundle), encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["variable", "component", "kind", "bin", "lo_edge", "hi_edge",
                       "content", "error"]
    assert rows[1:] == [
        ["met_pt", label, "mc", "0", "0.0", "1.0", "1.0", "1.0"],
        ["met_pt", label, "mc", "1", "1.0", "2.0", "2.0", "2.0"],
        ["met_pt", "stack", "stack", "0", "0.0", "1.0", "1.0", "1.0"],
        ["met_pt", "stack", "stack", "1", "1.0", "2.0", "2.0", "2.0"],
    ]


def test_csv_edges_are_the_spec_edges():
    """The CSV takes its bin edges from `HistogramSpec.edges()`, so the last
    one reads `hi` even where `lo + nbins * span / nbins` rounds away."""
    spec = HistogramSpec("met_pt", 6, 2.0, 8.4)
    config = base_config([mc_descriptor("x", label="a")], histograms=(spec,))
    bundle = build_plot_bundle(config, {"a": {"met_pt": hist_with(spec, [3.0])}})
    rows = [line.split(",") for line in bundle_to_csv(bundle).strip().splitlines()[1:]]
    edges = spec.edges()
    assert [(row[4], row[5]) for row in rows] == [
        (repr(edges[i % 6]), repr(edges[i % 6 + 1])) for i in range(len(rows))
    ]
    assert rows[-1][5] == "8.4"


# -- config loading --------------------------------------------------------------------


def make_raw_config(**overrides):
    raw = {
        "datasets": [
            {"glob": "mc/*.evt", "kind": "mc", "xsec_pb": 50.0, "label": "sig"},
            {"glob": "data/*.evt", "kind": "data", "label": "data"},
        ],
        "luminosity_invpb": 1000.0,
        "selection": "met.pt > 100.0",
        "projection": [{"name": "met_pt", "expr": "met.pt"}],
        "histograms": [{"variable": "met_pt", "nbins": 10, "lo": 0, "hi": 500}],
    }
    raw.update(overrides)
    return raw


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_raw_config()))
    config = load_config(path)
    assert config.datasets[0].label == "sig"
    assert config.selection == "met.pt > 100.0"
    assert config.histograms[0].nbins == 10
    assert config.engine == EngineConfig()


def test_load_config_bad_json_reports_position(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match=r"cfg\.json:2:"):
        load_config(path)


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(make_raw_config(histogrms=[]))


def test_config_bad_selection_reported_before_io():
    with pytest.raises(ConfigError, match="selection"):
        config_from_dict(make_raw_config(selection="met.pt >"))


def test_config_bad_projection_reported():
    with pytest.raises(ConfigError, match="projection"):
        config_from_dict(make_raw_config(projection=[{"name": "x", "expr": "1 +"}]))


def test_config_duplicate_labels_rejected():
    raw = make_raw_config()
    raw["datasets"][1] = dict(raw["datasets"][0])
    with pytest.raises(ConfigError, match="unique"):
        config_from_dict(raw)


def test_config_data_with_xsec_rejected():
    raw = make_raw_config()
    raw["datasets"][1]["xsec_pb"] = 5.0
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_config_defaults():
    raw = make_raw_config()
    del raw["selection"], raw["projection"], raw["histograms"]
    config = config_from_dict(raw)
    assert config.selection == DEFAULT_SELECTION
    assert config.projection == DEFAULT_PROJECTION
    assert config.histograms == DEFAULT_HISTOGRAMS
    assert config.persist is True


@pytest.mark.parametrize("overrides", [
    {"workers": "2"}, {"workers": True}, {"workers": 2.5},
    {"cache_budget_bytes": "x"}, {"cache_budget_bytes": 1e6},
    {"partition": {"target_bytes": "big"}},
    {"partition": {"target_bytes": True}},
    {"histograms": [{"variable": "met_pt", "nbins": "10", "lo": 0, "hi": 500}]},
    {"cache_budget_bytes": True}, {"partition": {"target_bytes": 1.5}},
    {"histograms": [{"variable": "met_pt", "nbins": 2.5, "lo": 0, "hi": 500}]},
    {"histograms": [{"variable": "met_pt", "nbins": True, "lo": 0, "hi": 500}]},
    {"luminosity_invpb": True}, {"luminosity_invpb": "1000"},
    {"histograms": [{"variable": "met_pt", "nbins": 2, "lo": "0", "hi": 500}]},
    {"histograms": [{"variable": "met_pt", "nbins": 2, "lo": 0, "hi": True}]},
    {"histograms": [{"variable": "met_pt", "nbins": 2, "lo": None, "hi": 500}]},
])
def test_config_values_of_the_wrong_json_type_rejected(overrides):
    with pytest.raises(ConfigError, match="integer|true or false|> 0"):
        config_from_dict(make_raw_config(**overrides))


def key_name(key):
    """The config path of a key: ("datasets", 0, "glob") -> datasets[0].glob."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in key).lstrip(".")


@pytest.mark.parametrize("key, value", [
    (("datasets", 0, "glob"), ["x"]),
    (("datasets", 0, "kind"), 1),
    (("datasets", 1, "label"), 3),
    (("projection", 0, "name"), 7),
    (("projection", 0, "expr"), 1.5),
    (("histograms", 0, "variable"), ["met_pt"]),
    (("selection",), True),
], ids=lambda v: key_name(v) if isinstance(v, tuple) else repr(v))
def test_config_text_values_must_be_json_strings(key, value):
    raw = with_value(make_raw_config(), key, value)
    with pytest.raises(ConfigError, match=re.escape(f"config: {key_name(key)} must be a string")):
        config_from_dict(raw)


def with_value(raw, key, value):
    *parents, last = key
    node = raw
    for part in parents:
        node = node[part]
    node[last] = value
    return raw


@pytest.mark.parametrize("key", [
    ("luminosity_invpb",), ("datasets", 0, "xsec_pb"), ("histograms", 0, "lo"),
    ("histograms", 0, "hi"),
], ids=key_name)
def test_config_numbers_too_large_for_a_float_rejected(key):
    raw = with_value(make_raw_config(), key, 10**400)
    with pytest.raises(ConfigError, match="finite"):
        config_from_dict(raw)


@pytest.mark.parametrize("key, value", [
    ("histograms", 5), ("histograms", {}), ("histograms", "met_pt"),
    ("projection", 5), ("projection", {}), ("projection", False),
])
def test_config_lists_of_the_wrong_json_type_rejected(key, value):
    with pytest.raises(ConfigError, match=rf"^config: {key} must be a list"):
        config_from_dict(make_raw_config(**{key: value}))


@pytest.mark.parametrize("field, value", [
    ("glob", 5), ("glob", None), ("kind", 1), ("label", 3), ("label", b"m"),
])
def test_descriptor_text_fields_must_be_strings(field, value):
    fields = {"glob": "*.evt", "kind": "mc", "label": "m", "xsec_pb": 1.0, field: value}
    with pytest.raises(ConfigError, match=f"^{field} must be a string"):
        DatasetDescriptor(**fields)


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_load_config_rejects_non_finite_numbers(tmp_path, literal):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_raw_config()).replace("50.0", literal))
    with pytest.raises(ConfigError, match=rf"cfg\.json: {literal} is not a JSON number"):
        load_config(path)


@pytest.mark.parametrize("old, new, key", [
    ('"luminosity_invpb": 1000.0', '"luminosity_invpb": 1000.0, "luminosity_invpb": 1.0',
     "luminosity_invpb"),
    ('"label": "sig"', '"label": "sig", "label": "other"', "label"),
    ('"nbins": 10', '"nbins": 10, "nbins": 20', "nbins"),
], ids=["top-level", "in-a-dataset", "in-a-histogram"])
def test_load_config_rejects_a_repeated_key_at_any_depth(tmp_path, old, new, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_raw_config()).replace(old, new))
    with pytest.raises(ConfigError, match=rf"cfg\.json: duplicate key '{key}'"):
        load_config(path)


def test_luminosity_must_be_finite():
    with pytest.raises(ConfigError, match="luminosity_invpb must be finite"):
        AnalysisConfig(datasets=(mc_descriptor("*.evt"),), luminosity_invpb=math.inf)


@pytest.mark.parametrize("xsec", ["50", True, None, math.inf])
def test_config_mc_cross_section_must_be_a_number(xsec):
    raw = make_raw_config()
    raw["datasets"][0]["xsec_pb"] = xsec
    with pytest.raises(ConfigError, match="xsec_pb > 0"):
        config_from_dict(raw)


def test_config_engine_keys():
    raw = make_raw_config(
        workers=7,
        cache_budget_bytes=123456,
        partition={"target_bytes": 100_000},
    )
    config = config_from_dict(raw)
    assert config.engine == EngineConfig(
        workers=7,
        cache_budget_bytes=123456,
        partition_target_bytes=100_000,
    )


def test_partition_target_bytes_applies_only_without_custom():
    raw = make_raw_config(partition={"target_bytes": 1024, "custom": {"per_file": 3}})
    with pytest.raises(ConfigError, match=r"partition: unknown keys \['custom'\]"):
        config_from_dict(raw)


def test_readme_configuration_reference_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    keys = {row.removesuffix("[]") for row in rows}
    assert {key.split(".")[0] for key in keys} == analysis._TOP_KEYS
    partition = {key.split(".", 1)[1] for key in keys if key.startswith("partition.")}
    assert partition == analysis._PARTITION_KEYS


@pytest.mark.parametrize("kind", ["f32", "f64"])
def test_weight_column_is_bitwise_the_row_formula(tmp_path, kind):
    # the weight column takes the generator weight's kind; with f32, each
    # value is the row formula rounded to f32 on write
    schema = Schema(Record((
        ("x", Primitive("f64")),
        ("genInfo", Record((("weight", Primitive(kind)),))),
    )))
    rng = random.Random(5)
    events = [
        {"x": rng.uniform(-1.0, 1.0),
         "genInfo": {"weight": f32_exact(rng.choice((1.0, -1.0)) * rng.uniform(0.1, 3.0))}}
        for _ in range(3000)
    ]
    size = write_evt(tmp_path / "f.evt", events, schema, block_target=100).file_bytes
    config = base_config(
        [mc_descriptor(str(tmp_path / "*.evt"), xsec=7.3)],
        selection="x > 0.0", projection=(("x", "x"),),
        engine=EngineConfig(partition_target_bytes=-(-size // 4), workers=2),
    )
    ds = open_dataset(config.datasets[0], config.engine)
    assert len(ds.partitions) == 4
    result = run_skim(config, ds, tmp_path / "out.ntu")

    got = read_ntu(tmp_path / "out.ntu")
    assert got.kinds["weight"] == kind
    typecode = "f" if kind == "f32" else "d"
    gen = [ev["genInfo"]["weight"] for ev in events if ev["x"] > 0.0]
    want = array(typecode, [oracle.normalize(w, 7.3, 1000.0, result.sum_weights) for w in gen])
    assert got.columns["weight"].tobytes() == want.tobytes()
    assert got.columns["weight"] != array(typecode, gen)


@pytest.mark.parametrize("kind", ["i32", "i64"])
def test_integer_generator_weight_raises_arity_mismatch(tmp_path, kind):
    # the weight column takes the generator weight's integer kind, which
    # cannot hold the normalized weight
    schema = Schema(Record((
        ("x", Primitive("f64")),
        ("genInfo", Record((("weight", Primitive(kind)),))),
    )))
    events = [{"x": float(i), "genInfo": {"weight": 1 + i % 3}} for i in range(50)]
    write_evt(tmp_path / "f.evt", events, schema)
    config = base_config(
        [mc_descriptor(str(tmp_path / "*.evt"), xsec=7.3)],
        selection="x > 10.0", projection=(("x", "x"),),
    )
    out = tmp_path / "out.ntu"
    out.write_bytes(b"an earlier skim")
    ds = open_dataset(config.datasets[0], config.engine)
    with pytest.raises(ArityMismatch):
        run_skim(config, ds, out)
    assert out.read_bytes() == b"an earlier skim"
    assert not (tmp_path / "out.ntu.tmp").exists()


@pytest.mark.parametrize("kind", ["f32", "f64", "i32"])
def test_weight_rewritten_in_groups_already_on_disk(tmp_path, kind):
    """70,000 selected rows: the writer has written one 65,536-row group
    before the traversal ends, so the weight is rewritten on disk as well
    as in the buffer. A float weight is bitwise the row formula; an
    integer one raises and leaves the earlier output."""
    schema = Schema(Record((
        ("x", Primitive("f32")),
        ("genInfo", Record((("weight", Primitive(kind)),))),
    )))
    rng = random.Random(11)
    if kind == "i32":
        gen = [rng.choice((1, -1, 2)) for _ in range(70000)]
    else:
        gen = [f32_exact(rng.choice((1.0, -1.0)) * rng.uniform(0.1, 3.0)) for _ in range(70000)]
    events = [{"x": float(i % 7), "genInfo": {"weight": w}} for i, w in enumerate(gen)]
    size = write_evt(tmp_path / "f.evt", events, schema, block_target=5000).file_bytes
    config = base_config(
        [mc_descriptor(str(tmp_path / "*.evt"), xsec=7.3)],
        selection="true", projection=(("x", "x"),),
        engine=EngineConfig(partition_target_bytes=-(-size // 3), workers=2),
    )
    out = tmp_path / "out.ntu"
    out.write_bytes(b"an earlier skim")
    ds = open_dataset(config.datasets[0], config.engine)
    assert len(ds.partitions) == 3
    if kind == "i32":
        with pytest.raises(ArityMismatch):
            run_skim(config, ds, out)
        assert out.read_bytes() == b"an earlier skim"
        assert not (tmp_path / "out.ntu.tmp").exists()
        return
    result = run_skim(config, ds, out)
    got = read_ntu(out)
    assert got.n_rows == 70000 and got.n_groups == 2
    typecode = "f" if kind == "f32" else "d"
    want = array(typecode, [oracle.normalize(w, 7.3, 1000.0, result.sum_weights) for w in gen])
    assert got.columns["weight"].tobytes() == want.tobytes()
    assert list(got.columns["x"]) == [float(i % 7) for i in range(70000)]
