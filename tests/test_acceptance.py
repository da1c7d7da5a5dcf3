"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
`pytest -s tests/test_acceptance.py` to see them live). Criteria 1-2 and
7-9 share a 100k-event corpus and an 8-configuration engine matrix;
criteria 3-5 share a >=100 MB corpus and three benchmark cells.
"""

import hashlib
import random
import time
from dataclasses import replace

import pytest

import oracle
from randgen import f32_exact, random_events, random_schema
from skimflow.analysis import (
    DEFAULT_HISTOGRAMS,
    DEFAULT_PROJECTION,
    AnalysisConfig,
    build_plot_bundle,
    bundle_to_json,
    histograms_for_ntuple,
    run_skim,
)
from skimflow.bench import BenchCell, run_benchmark
from skimflow.engine import DatasetDescriptor, EngineConfig, open_dataset
from skimflow.errors import CrcMismatch
from skimflow.generator import GeneratorSpec, generate_corpus
from skimflow.storage import NtuWriter, read_ntu, scan_evt, write_evt
from skimflow.storage.ntu import KIND_INFO
from test_codec import assert_blocks_hold, read_blocks

LUMI = 1000.0
SIG_XSEC = 50.0
BKG_XSEC = 120.0

WORKER_COUNTS = (1, 2, 7, 16)
PARTITION_PLANS = {  # 16 and 24 partitions of the signal corpus
    "2MiB": EngineConfig(partition_target_bytes=2 * 1024 * 1024),
    "1.5MiB": EngineConfig(partition_target_bytes=1536 * 1024),
}


def report(criterion, ok, detail=""):
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- shared corpora -------------------------------------------------------------------


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """The criterion-1 corpus: seed 42, 100,000 events, 8 files (mc with
    signed weights), plus a small background mc and a data sample for the
    full-analysis criteria."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    sig = generate_corpus(
        GeneratorSpec(seed=42, n_events=100_000, kind="mc", weight_dist="signed"),
        root / "sig", 8,
    )
    generate_corpus(GeneratorSpec(seed=7, n_events=20_000, kind="mc"), root / "bkg", 2)
    generate_corpus(GeneratorSpec(seed=99, n_events=30_000, kind="data"), root / "data", 2)
    return {
        "root": root,
        "sig_paths": sig,
        "sig_glob": str(root / "sig" / "*.evt"),
        "bkg_glob": str(root / "bkg" / "*.evt"),
        "data_glob": str(root / "data" / "*.evt"),
    }


def make_config(corpus, engine, sig_xsec=SIG_XSEC):
    return AnalysisConfig(
        datasets=(
            DatasetDescriptor(glob=corpus["sig_glob"], kind="mc", label="signal", xsec_pb=sig_xsec),
            DatasetDescriptor(glob=corpus["bkg_glob"], kind="mc", label="background", xsec_pb=BKG_XSEC),
            DatasetDescriptor(glob=corpus["data_glob"], kind="data", label="data"),
        ),
        luminosity_invpb=LUMI,
        engine=engine,
    )


@pytest.fixture(scope="session")
def sig_oracle(corpus):
    """Serial single-threaded two-pass reference for the signal dataset."""
    sumw, rows = oracle.serial_skim(corpus["sig_paths"], "mc", SIG_XSEC, LUMI)
    names = [name for name, _ in DEFAULT_PROJECTION]
    hists = {}
    for spec in DEFAULT_HISTOGRAMS:
        col = names.index(spec.variable)
        hists[spec.variable] = oracle.fill_hist_brute(
            [r[col] for r in rows], [r[-1] for r in rows], spec.nbins, spec.lo, spec.hi
        )
    return {"sumw": sumw, "rows": rows, "hists": hists}


@pytest.fixture(scope="session")
def matrix_runs(corpus, tmp_path_factory):
    """The criterion-1 engine matrix: every worker count x partition plan,
    skimming the signal dataset. Records outputs and the total wall time."""
    out_dir = tmp_path_factory.mktemp("matrix")
    runs = {}
    t0 = time.perf_counter()
    for plan, engine in PARTITION_PLANS.items():
        config = make_config(corpus, engine)
        for workers in WORKER_COUNTS:
            ntu_path = out_dir / f"signal-{plan}-w{workers}.ntu"
            ds = open_dataset(config.datasets[0], replace(engine, workers=workers))
            result = run_skim(config, ds, ntu_path)
            hists = histograms_for_ntuple(ntu_path, DEFAULT_HISTOGRAMS)
            runs[(plan, workers)] = {
                "partitions": len(ds.partitions),
                "ntu": ntu_path,
                "sumw": result.sum_weights,
                "n_input": result.n_input,
                "n_output": result.n_output,
                "hists": hists,
                "sha": sha(ntu_path),
            }
    wall = time.perf_counter() - t0
    return {"runs": runs, "wall": wall, "out_dir": out_dir}


@pytest.fixture(scope="session")
def big_corpus(tmp_path_factory):
    """>=100 MB uncompressed EVT input for the cache/compression criteria."""
    root = tmp_path_factory.mktemp("big_corpus")
    paths = generate_corpus(
        GeneratorSpec(seed=4242, n_events=165_000, kind="mc", mean_jets=16.0),
        root / "mc", 8,
    )
    total = sum(p.stat().st_size for p in paths)
    return {"root": root, "glob": str(root / "mc" / "*.evt"), "bytes": total}


@pytest.fixture(scope="session")
def bench_reports(big_corpus, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench_work")
    config = AnalysisConfig(
        datasets=(
            DatasetDescriptor(glob=big_corpus["glob"], kind="mc", label="big", xsec_pb=10.0),
        ),
        luminosity_invpb=LUMI,
        selection="met.pt > 80.0",
        engine=EngineConfig(partition_target_bytes=8 * 1024 * 1024),
    )
    cells = {
        "uncached_raw": BenchCell(cached=False, compressed=False),
        "cached_raw": BenchCell(cached=True, compressed=False),
        "uncached_deflate": BenchCell(cached=False, compressed=True),
    }
    return {
        name: run_benchmark(config, cell, repetitions=5, workdir=workdir)
        for name, cell in cells.items()
    }, workdir


# -- criterion 1: oracle equivalence ---------------------------------------------------


def test_c1_oracle_equivalence(corpus, sig_oracle, matrix_runs):
    runs = matrix_runs["runs"]
    assert len(runs) == len(WORKER_COUNTS) * len(PARTITION_PLANS)
    for (plan, workers), run in runs.items():
        where = f"{plan}/w{workers}"
        assert run["n_input"] == 100_000, where
        assert oracle.rel_close(run["sumw"], sig_oracle["sumw"]), (
            f"{where}: sum of weights {run['sumw']} != {sig_oracle['sumw']}"
        )
        rows = read_ntu(run["ntu"]).rows()
        oracle.assert_rows_match(rows, sig_oracle["rows"])
        for spec in DEFAULT_HISTOGRAMS:
            got = run["hists"][spec.variable]
            want = sig_oracle["hists"][spec.variable]
            for a, b in zip(got.contents, want["contents"]):
                assert oracle.rel_close(a, b), f"{where}: {spec.variable} bin {a} != {b}"
            assert oracle.rel_close(got.underflow, want["underflow"])
            assert oracle.rel_close(got.overflow, want["overflow"])
    wall = matrix_runs["wall"]
    report(
        "C1 oracle equivalence",
        wall < 60.0,
        f"8 configs x (sum-weights, skim, histograms) vs serial oracle; wall {wall:.1f}s < 60s",
    )


# -- criterion 2: determinism -----------------------------------------------------------


def test_c2_determinism(corpus, matrix_runs):
    runs = matrix_runs["runs"]
    counts = {runs[(plan, w)]["partitions"] for plan in PARTITION_PLANS for w in WORKER_COUNTS}
    assert len(counts) == len(PARTITION_PLANS), f"plans must differ in partition count: {counts}"
    for plan in PARTITION_PLANS:
        digests = {runs[(plan, w)]["sha"] for w in WORKER_COUNTS}
        assert len(digests) == 1, f"{plan}: ntuple bytes differ across worker counts"

    # repeated run is bit-identical too
    plan, workers = "2MiB", 2
    engine = PARTITION_PLANS[plan]
    config = make_config(corpus, engine)
    rerun_path = matrix_runs["out_dir"] / "signal-rerun.ntu"
    ds = open_dataset(config.datasets[0], replace(engine, workers=workers))
    run_skim(config, ds, rerun_path)
    assert sha(rerun_path) == runs[(plan, workers)]["sha"]

    # plot-data json: identical across worker counts within a fixed partitioning
    bundles = set()
    for w in WORKER_COUNTS:
        bundle = build_plot_bundle(
            config, {"signal": matrix_runs["runs"][("2MiB", w)]["hists"]}
        )
        bundles.add(hashlib.sha256(bundle_to_json(bundle).encode()).hexdigest())
    assert len(bundles) == 1
    report("C2 determinism", True, "NTU and plot JSON bit-identical across workers and reruns")


# -- criteria 3-5: cache, write invariance, compression -----------------------------------


def test_c3_cache_contract(big_corpus, bench_reports):
    reports, _ = bench_reports
    assert big_corpus["bytes"] >= 100 * 1024 * 1024, (
        f"corpus only {big_corpus['bytes']} bytes"
    )
    cached = reports["cached_raw"]
    uncached = reports["uncached_raw"]
    for sample in cached.reps:
        assert sample.bytes_read == 0, "cached repetition read storage bytes"
    ratio = cached.median.read_compute_s / uncached.median.read_compute_s
    report(
        "C3 cache contract",
        ratio <= 0.5,
        f"corpus {big_corpus['bytes'] / 1e6:.0f} MB; cached reads 0 bytes; "
        f"read+compute ratio {ratio:.3f} <= 0.5",
    )


def test_c4_write_invariance(bench_reports):
    reports, _ = bench_reports
    w_cached = reports["cached_raw"].median.write_s
    w_uncached = reports["uncached_raw"].median.write_s
    delta = abs(w_cached - w_uncached) / w_uncached
    report(
        "C4 write invariance",
        delta <= 0.20,
        f"write {w_uncached:.3f}s uncached vs {w_cached:.3f}s cached; |delta| {delta:.1%} <= 20%",
    )


def test_c5_compression_confound(big_corpus, bench_reports):
    reports, workdir = bench_reports
    raw = reports["uncached_raw"]
    packed = reports["uncached_deflate"]
    assert packed.corpus_bytes < raw.corpus_bytes, "deflate input not strictly smaller"
    rd_raw = raw.median.read_s + raw.median.decode_s
    rd_packed = packed.median.read_s + packed.median.decode_s
    assert rd_packed > rd_raw, f"read+decode {rd_packed:.3f}s not > {rd_raw:.3f}s"
    assert packed.output_sha256 == raw.output_sha256, "outputs differ between variants"

    # decoded contents identical: compare the full-leaf column sets of the first
    # file of each variant, block by block and key by key
    raw_path = sorted((big_corpus["root"] / "mc").glob("*.evt"))[0]
    packed_path = sorted((workdir / "big-deflate").glob("*.evt"))[0]
    for a, b in zip(read_blocks(raw_path), read_blocks(packed_path), strict=True):
        assert a.count == b.count and a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], key
    report(
        "C5 compression confound",
        True,
        f"deflate {packed.corpus_bytes / 1e6:.0f} MB < raw {raw.corpus_bytes / 1e6:.0f} MB; "
        f"read+decode {rd_packed:.2f}s > {rd_raw:.2f}s; decoded contents identical",
    )


# -- criterion 6: format round trips ------------------------------------------------------


def test_c6_format_round_trips(tmp_path):
    rng = random.Random(2024)
    evt_path = tmp_path / "case.evt"
    for case in range(1000):
        schema = random_schema(rng)
        events = random_events(rng, schema, rng.randint(0, 5))
        write_evt(evt_path, events, schema,
                  compress=rng.random() < 0.5, block_target=rng.randint(1, 4))
        assert scan_evt(evt_path).schema == schema, f"EVT case {case}: schema mismatch"
        assert oracle.read_events(evt_path)[1] == events, f"EVT case {case}: events mismatch"
        assert_blocks_hold(read_blocks(evt_path), schema, events)

    kinds = sorted(KIND_INFO)
    ntu_path = tmp_path / "case.ntu"
    for case in range(1000):
        columns = [(f"c{i}", rng.choice(kinds)) for i in range(rng.randint(1, 5))]
        rows = []
        for _ in range(rng.randint(0, 7)):
            row = []
            for _, kind in columns:
                if kind == "bool":
                    row.append(rng.random() < 0.5)
                elif kind == "i32":
                    row.append(rng.randint(-(2**31), 2**31 - 1))
                elif kind == "i64":
                    row.append(rng.randint(-(2**63), 2**63 - 1))
                elif kind == "f32":
                    row.append(f32_exact(rng.uniform(-1e6, 1e6)))
                else:
                    row.append(rng.uniform(-1e9, 1e9))
            rows.append(tuple(row))
        with NtuWriter(ntu_path, columns, group_target=rng.randint(1, 5)) as writer:
            writer.append_rows(rows)
        back = read_ntu(ntu_path).rows()
        want = [tuple(int(v) if isinstance(v, bool) else v for v in r) for r in rows]
        assert back == want, f"NTU case {case}: transpose mismatch"

    # single-bit corruption always caught by CRC
    from skimflow.events import analysis_schema
    from skimflow.generator import generate_events

    detected = 0
    trials = 100
    schema = analysis_schema()
    events = list(generate_events(GeneratorSpec(seed=6, n_events=200)))
    for trial in range(trials):
        path = tmp_path / "corrupt.evt"
        write_evt(path, events, schema, block_target=50)
        index = scan_evt(path)
        block = index.blocks[rng.randrange(len(index.blocks))]
        raw = bytearray(path.read_bytes())
        bit = rng.randrange(block.payload_len * 8)
        raw[block.offset + 8 + bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            read_blocks(path)
        except CrcMismatch:
            detected += 1
    report(
        "C6 format round trips",
        detected == trials,
        f"1000 EVT + 1000 NTU random round trips clean; {detected}/{trials} bit flips caught",
    )


# -- criterion 7: histogram conservation ---------------------------------------------------


@pytest.fixture(scope="session")
def full_analysis(corpus, matrix_runs, tmp_path_factory):
    """Skim the remaining datasets once and assemble the plot bundle."""
    out_dir = tmp_path_factory.mktemp("full_analysis")
    engine = PARTITION_PLANS["2MiB"]
    config = make_config(corpus, engine)
    ntu_paths = {"signal": matrix_runs["runs"][("2MiB", 2)]["ntu"]}
    for label in ("background", "data"):
        path = out_dir / f"{label}.ntu"
        ds = open_dataset(config.dataset(label), replace(engine, workers=2))
        run_skim(config, ds, path)
        ntu_paths[label] = path
    hists = {
        label: histograms_for_ntuple(path, DEFAULT_HISTOGRAMS)
        for label, path in ntu_paths.items()
    }
    bundle = build_plot_bundle(config, hists)
    return {"config": config, "ntu_paths": ntu_paths, "hists": hists, "bundle": bundle}


def test_c7_histogram_conservation(full_analysis):
    checked = 0
    for label, path in full_analysis["ntu_paths"].items():
        weights = read_ntu(path, ["weight"]).columns["weight"]
        total_weight = sum(weights)
        for spec in DEFAULT_HISTOGRAMS:
            hist = full_analysis["hists"][label][spec.variable]
            assert oracle.rel_close(hist.total_weight(), total_weight), (
                f"{label}/{spec.variable}: {hist.total_weight()} != {total_weight}"
            )
            checked += 1
        if label == "data":  # unit weights: sumw2 == contents exactly
            for spec in DEFAULT_HISTOGRAMS:
                hist = full_analysis["hists"][label][spec.variable]
                assert hist.sumw2 == hist.contents
                assert hist.underflow_sumw2 == hist.underflow
                assert hist.overflow_sumw2 == hist.overflow
    report("C7 histogram conservation", True, f"{checked} histograms conserve total weight")


# -- criterion 8: weight covariance ----------------------------------------------------------


def test_c8_weight_covariance(corpus, full_analysis, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("covariance")
    engine = PARTITION_PLANS["2MiB"]
    doubled_config = make_config(corpus, engine, sig_xsec=2 * SIG_XSEC)
    path = out_dir / "signal-doubled.ntu"
    ds = open_dataset(doubled_config.datasets[0], replace(engine, workers=2))
    result = run_skim(doubled_config, ds, path)

    base = read_ntu(full_analysis["ntu_paths"]["signal"])
    doubled = read_ntu(path)
    assert doubled.n_rows == base.n_rows, "row set changed"
    base_rows = base.rows()
    doubled_rows = doubled.rows()
    for rb, rd in zip(base_rows, doubled_rows):
        assert rb[:-1] == rd[:-1]

    hists = dict(full_analysis["hists"])
    hists["signal"] = histograms_for_ntuple(path, DEFAULT_HISTOGRAMS)
    bundle = build_plot_bundle(doubled_config, hists)
    base_bundle = full_analysis["bundle"]
    for h_new, h_old in zip(bundle["histograms"], base_bundle["histograms"]):
        comp_new = {c["label"]: c for c in h_new["mc"]}
        comp_old = {c["label"]: c for c in h_old["mc"]}
        for a, b in zip(comp_new["signal"]["contents"], comp_old["signal"]["contents"]):
            assert oracle.rel_close(a, 2.0 * b), f"signal bin {a} != 2x{b}"
        assert comp_new["background"]["contents"] == comp_old["background"]["contents"]
    report("C8 weight covariance", True,
           f"doubling xsec doubled every signal mc bin; {result.n_output} rows unchanged")


# -- criterion 9: reduction-factor shape -------------------------------------------------------


def test_c9_reduction_factor_shape(corpus, matrix_runs):
    run = matrix_runs["runs"][("2MiB", 1)]
    ratio = run["n_output"] / run["n_input"]
    assert 0.0 < ratio < 1.0, f"reduction factor {ratio} not strictly inside (0, 1)"

    evt_bytes = 0
    payload_bytes = 0
    n_events = 0
    for path in corpus["sig_paths"]:
        index = scan_evt(path)
        evt_bytes += index.file_bytes
        payload_bytes += index.payload_bytes
        n_events += index.n_events
    avg_event_bytes = payload_bytes / n_events
    data = read_ntu(run["ntu"], [])
    out_row_bytes = sum(KIND_INFO[kind][1] for _, kind in data.all_columns)
    column_factor = out_row_bytes / avg_event_bytes
    ntu_bytes = run["ntu"].stat().st_size
    assert ntu_bytes < evt_bytes, "output not smaller than input"
    assert ntu_bytes <= evt_bytes * column_factor, (
        f"{ntu_bytes} > {evt_bytes} * {column_factor:.4f}"
    )
    report(
        "C9 reduction-factor shape",
        True,
        f"row ratio {ratio:.4f} in (0,1); ntu {ntu_bytes / 1e6:.2f} MB <= "
        f"evt {evt_bytes / 1e6:.1f} MB x column factor {column_factor:.3f}",
    )
