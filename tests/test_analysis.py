import json
import random
from array import array
from dataclasses import replace

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
    normalize_weight,
    run_skim,
    sum_of_weights,
)
from skimflow.engine import DatasetDescriptor, EngineConfig, open_dataset
from skimflow.errors import ArityMismatch, ConfigError, KindMismatch, SpecMismatch, ZeroSumOfWeights
from skimflow.events import make_event
from skimflow.histogram import Histogram, HistogramSpec
from skimflow.schema import Primitive, Record, Schema
from skimflow.storage import inspect_evt, read_ntu, write_evt
from skimflow.timing import PhaseTimers


def mc_descriptor(glob, label="mc", xsec=10.0):
    return DatasetDescriptor(glob=glob, kind="mc", label=label, xsec_pb=xsec)


def base_config(datasets, **kw):
    return AnalysisConfig(datasets=tuple(datasets), luminosity_invpb=1000.0, **kw)


# -- normalize_weight ------------------------------------------------------------


def test_normalize_identity():
    assert normalize_weight(1.0, 1.0, 1.0, 1.0) == 1.0


def test_normalize_arithmetic():
    assert normalize_weight(2.0, 50.0, 1000.0, 10000.0) == 10.0


def test_normalize_zero_sum_raises():
    with pytest.raises(ZeroSumOfWeights):
        normalize_weight(1.0, 1.0, 1.0, 0.0)


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
    engine = EngineConfig(partition_mode="custom", partition_custom={"per_file": 3})
    config = base_config([mc_descriptor(small_corpus["glob"])], engine=engine)
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "mc.ntu", workers=workers)
    fresh = open_dataset(config.datasets[0], config.engine)
    assert result.sum_weights == sum_of_weights(fresh)


def test_skim_over_cache_budget_decodes_each_block_once(tmp_path, small_corpus):
    full_decode = sum(inspect_evt(p)["decoded_bytes"] for p in small_corpus["paths"])
    # a budget below any one partition: the first one admitted overflows it
    engine = EngineConfig(cache_budget_bytes=1)
    config = base_config([mc_descriptor(small_corpus["glob"])], engine=engine, persist=True)
    timers = PhaseTimers()
    ds = open_dataset(config.datasets[0], config.engine, timers=timers)
    run_skim(config, ds, tmp_path / "mc.ntu", timers=timers)
    assert timers.bytes_decoded == full_decode
    assert ds.warnings and "cache budget exceeded" in ds.warnings[0]


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
    """Cold partitions decode only the leaves read, cached ones decode in
    full; a budget overflow mixes the two within one skim."""
    selection, projection = SKIMS[skim]
    engine = EngineConfig(partition_mode="custom", partition_custom={"per_file": 3})
    payload = sum(f.payload_bytes for f in open_dataset(mc_descriptor(small_corpus["glob"])).files)
    outputs = set()
    sums = set()
    for name, persist, budget in (
        ("cold", False, None), ("cached", True, None), ("overflow", True, payload // 2),
    ):
        config = base_config(
            [mc_descriptor(small_corpus["glob"])], selection=selection, projection=projection,
            engine=replace(engine, cache_budget_bytes=budget), persist=persist,
        )
        ds = open_dataset(config.datasets[0], config.engine)
        out = tmp_path / f"{name}.ntu"
        result = run_skim(config, ds, out, workers=workers)
        assert ds.cache_state == {"cold": "cold", "cached": "cached", "overflow": "cold"}[name]
        outputs.add(out.read_bytes())
        sums.add(result.sum_weights)
    assert len(outputs) == 1
    assert len(sums) == 1


def test_cached_skim_serves_other_leaves(tmp_path, small_corpus):
    """A dataset cached by one skim holds complete events, so a skim that
    reads other leaves reads no storage and matches a cold skim."""
    wide = base_config([mc_descriptor(small_corpus["glob"])], projection=WIDE_PROJECTION)
    ds = open_dataset(wide.datasets[0], wide.engine)
    run_skim(base_config([mc_descriptor(small_corpus["glob"])]), ds, tmp_path / "first.ntu")
    assert ds.cache_state == "cached"
    timers = PhaseTimers()
    run_skim(wide, ds, tmp_path / "cached.ntu", timers=timers)
    assert timers.bytes_read == 0
    cold = open_dataset(wide.datasets[0], wide.engine)
    run_skim(wide, cold, tmp_path / "cold.ntu", persist=False)
    assert (tmp_path / "cached.ntu").read_bytes() == (tmp_path / "cold.ntu").read_bytes()


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
    config = base_config([mc_descriptor(small_corpus["glob"], xsec=50.0)])
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "mc.ntu", workers=4)

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
    hist = Histogram(spec)
    span = spec.hi - spec.lo
    for i, c in enumerate(contents):
        hist.fill(spec.lo + (i + 0.5) * span / spec.nbins, c)
    return hist


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
    assert config.engine.partition_mode == "auto"


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


def test_config_engine_keys():
    raw = make_raw_config(
        workers=7,
        cache_budget_bytes=123456,
        partition={"mode": "custom", "custom": {"per_file": 3}},
    )
    config = config_from_dict(raw)
    assert config.engine == EngineConfig(
        workers=7,
        cache_budget_bytes=123456,
        partition_mode="custom",
        partition_custom={"per_file": 3},
    )


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
    write_evt(tmp_path / "f.evt", events, schema, block_target=100)
    config = base_config(
        [mc_descriptor(str(tmp_path / "*.evt"), xsec=7.3)],
        selection="x > 0.0", projection=(("x", "x"),),
        engine=EngineConfig(partition_mode="custom", partition_custom={"per_file": 4}),
    )
    ds = open_dataset(config.datasets[0], config.engine)
    result = run_skim(config, ds, tmp_path / "out.ntu", workers=2)

    got = read_ntu(tmp_path / "out.ntu")
    assert got.kinds["weight"] == kind
    typecode = "f" if kind == "f32" else "d"
    gen = [ev["genInfo"]["weight"] for ev in events if ev["x"] > 0.0]
    want = array(typecode, [normalize_weight(w, 7.3, 1000.0, result.sum_weights) for w in gen])
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
