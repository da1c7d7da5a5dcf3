import gc
import hashlib
import sys
import threading
import tracemalloc
import weakref
import zlib
from array import array
from dataclasses import asdict, replace

import pytest

from oracle import kahan_sum, read_events
from skimflow import engine
from skimflow.engine import (
    DatasetDescriptor,
    EngineConfig,
    filter_map_write,
    map_reduce,
    open_dataset,
    plan_partitions,
)
from skimflow.errors import (
    ConfigError,
    DataError,
    NoFilesMatched,
    SchemaMismatch,
    UnreadableFile,
)
from skimflow.events import analysis_schema
from skimflow.expr import typecheck_cut, typecheck_projection, typecheck_value
from skimflow.generator import GeneratorSpec, generate_corpus, generate_evt
from skimflow.schema import Primitive, Record, Schema
from skimflow.storage import (
    BlockInfo,
    EventCodec,
    convert_evt,
    iter_block_range,
    read_ntu,
    scan_evt,
    write_evt,
)
from skimflow.storage.evt import EvtIndex
from skimflow.storage.ntu import NtuWriter
from skimflow.timing import PhaseTimers


def fake_index(path, block_sizes, events=None):
    """EvtIndex stub for planner tests: payload_len chosen so that the
    on-disk block extent (12 + payload) equals the requested size, and
    `events[i]` events in block i (10 each by default)."""
    blocks = []
    offset = 64
    for size, count in zip(block_sizes, events or [10] * len(block_sizes)):
        blocks.append(BlockInfo(offset, count, size - 12))
        offset += size
    return EvtIndex(path, analysis_schema(), "{}", False, tuple(blocks), offset)


def mc_descriptor(glob, label="mc"):
    return DatasetDescriptor(glob=glob, kind="mc", label=label, xsec_pb=10.0)


def total(ds, text):
    """map_reduce of the numeric expression `text` over the dataset."""
    return map_reduce(ds, typecheck_value(text, ds.schema))


def fresh_phases(ds):
    """Give the dataset fresh phase accounting, so that it counts only what
    comes next, and return it."""
    ds.phases = PhaseTimers()
    return ds.phases


# -- descriptor validation ------------------------------------------------------


def test_engine_config_validation():
    for bad in (dict(workers=0), dict(partition_target_bytes=0),
                dict(cache_budget_bytes=-1), dict(workers="2"), dict(workers=True),
                dict(workers=2.5), dict(cache_budget_bytes="x"), dict(cache_budget_bytes=False),
                dict(partition_target_bytes="big"), dict(partition_target_bytes=4.0)):
        with pytest.raises(ConfigError):
            EngineConfig(**bad)


def test_descriptor_validation():
    with pytest.raises(ConfigError):
        DatasetDescriptor(glob="*", kind="mc", label="x")  # missing xsec
    with pytest.raises(ConfigError):
        DatasetDescriptor(glob="*", kind="data", label="x", xsec_pb=1.0)
    with pytest.raises(ConfigError):
        DatasetDescriptor(glob="*", kind="simulation", label="x")


# -- partition planning ----------------------------------------------------------


def test_planner_rounds_the_run_count_up():
    # 180 stored bytes at a 100-byte target make two runs; the cut nearest
    # half the events is a tie between boundaries 1 and 2, and takes the lower
    files = [fake_index("/a.evt", [60, 60, 60])]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=100))
    assert [(p.block_lo, p.block_hi) for p in parts] == [(0, 1), (1, 3)]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=60))
    assert [(p.block_lo, p.block_hi) for p in parts] == [(0, 1), (1, 2), (2, 3)]


def test_auto_planner_single_partition_when_target_large():
    files = [fake_index("/a.evt", [60, 60, 60])]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=1000))
    assert [(p.block_lo, p.block_hi) for p in parts] == [(0, 3)]


def test_auto_planner_accumulates_under_target():
    files = [fake_index("/a.evt", [60, 60, 60, 60])]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=120))
    assert [(p.block_lo, p.block_hi) for p in parts] == [(0, 2), (2, 4)]


def test_planner_cuts_near_equal_shares_of_events():
    """Cuts follow the events, not the stored bytes: a large first block
    (as deflate leaves when the rest compresses well) does not take a run
    of its own. Each cut is the boundary nearest its share."""
    files = [fake_index("/a.evt", [100, 10, 10, 10, 10, 10])]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=80))
    assert [(p.block_lo, p.block_hi, p.n_events) for p in parts] == [(0, 3, 30), (3, 6, 30)]
    files = [fake_index("/a.evt", [10] * 5, events=[5, 5, 5, 30, 5])]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=17))  # 3 runs
    # shares 16.7 and 33.3 of 50 events: the boundaries after 15 and 45 are nearest
    assert [(p.block_lo, p.block_hi) for p in parts] == [(0, 3), (3, 4), (4, 5)]
    files = [fake_index("/a.evt", [10] * 3, events=[40, 5, 5])]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=10))  # 3 runs
    # the nearest boundaries (after 0 and 40 events) move on, so every run keeps a block
    assert [(p.block_lo, p.block_hi) for p in parts] == [(0, 1), (1, 2), (2, 3)]


def test_planner_numbers_runs_across_files():
    """Indexes run 0..n-1 across files; a file of fewer blocks than runs
    gets one run per block, and a file without blocks gets none."""
    files = [fake_index("/a.evt", [10] * 10), fake_index("/b.evt", [50, 50]),
             fake_index("/c.evt", []), fake_index("/d.evt", [10] * 3)]
    parts = plan_partitions(files, EngineConfig(partition_target_bytes=34))
    assert [(p.index, p.file_index, p.block_lo, p.block_hi) for p in parts] == [
        (0, 0, 0, 3), (1, 0, 3, 7), (2, 0, 7, 10),  # 100 bytes: 3 runs
        (3, 1, 0, 1), (4, 1, 1, 2),  # 100 bytes, but 2 blocks
        (5, 3, 0, 3),  # 30 bytes: 1 run
    ]
    assert sum(p.n_events for p in parts) == 150


def test_a_deflate_copy_plans_as_its_raw_source(tmp_path):
    """At the default target, each file of 25,000 events plans into the
    same block ranges whether its blocks are raw or deflated."""
    raw, deflate = tmp_path / "raw.evt", tmp_path / "deflate.evt"
    generate_evt(GeneratorSpec(seed=7, n_events=25_000, kind="mc"), raw)
    convert_evt(raw, deflate, compress=True)
    plans = []
    for path in (raw, deflate):
        index = scan_evt(path)
        plans.append([(p.block_lo, p.block_hi, p.n_events)
                      for p in plan_partitions([index], EngineConfig())])
    assert plans[0] == plans[1] == [(0, 3, 12288), (3, 7, 12712)]
    assert scan_evt(deflate).payload_bytes < scan_evt(raw).payload_bytes


# -- opening ------------------------------------------------------------------------


def test_open_dataset_counts_and_order(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]), EngineConfig(partition_target_bytes=1 << 16))
    assert ds.n_events == 2000
    assert [str(f.path) for f in ds.files] == sorted(str(p) for p in small_corpus["paths"])
    assert len(ds.partitions) > 2
    assert [p.index for p in ds.partitions] == list(range(len(ds.partitions)))
    covered = sum(p.n_events for p in ds.partitions)
    assert covered == 2000
    assert ds.n_bytes == sum(p.stat().st_size for p in small_corpus["paths"])


def test_open_dataset_no_match(tmp_path):
    with pytest.raises(NoFilesMatched):
        open_dataset(mc_descriptor(str(tmp_path / "*.evt")))


def test_open_dataset_unreadable_match(tmp_path):
    (tmp_path / "dir.evt").mkdir()
    with pytest.raises(UnreadableFile, match="dir.evt"):
        open_dataset(mc_descriptor(str(tmp_path / "*.evt")))


def test_open_dataset_schema_mismatch(tmp_path, schema):
    write_evt(tmp_path / "a.evt", [], schema)
    write_evt(tmp_path / "b.evt", [], Schema(Record((("x", Primitive("f64")),))))
    with pytest.raises(SchemaMismatch, match="b.evt carries a different schema"):
        open_dataset(mc_descriptor(str(tmp_path / "*.evt")))


def test_single_small_file_single_partition(tmp_path):
    generate_evt(GeneratorSpec(seed=1, n_events=50), tmp_path / "f.evt")
    ds = open_dataset(mc_descriptor(str(tmp_path / "*.evt")))
    assert len(ds.partitions) == 1


# -- map_reduce ------------------------------------------------------------------------


def test_map_reduce_empty_dataset(tmp_path, schema):
    write_evt(tmp_path / "empty.evt", [], schema)
    ds = open_dataset(mc_descriptor(str(tmp_path / "*.evt")))
    assert total(ds, "genInfo.weight") == 0.0


def test_map_reduce_small_values(tmp_path, schema):
    from skimflow.events import make_event

    events = [make_event(event=i + 1, weight=w) for i, w in enumerate((1.0, -1.0, 2.5))]
    write_evt(tmp_path / "f.evt", events, schema)
    ds = open_dataset(mc_descriptor(str(tmp_path / "*.evt")))
    assert total(ds, "genInfo.weight") == 2.5


def test_map_reduce_deterministic_across_workers(single_file):
    """Fixed partitioning: bit-identical across worker counts; across
    partitionings: within 1e-12 relative of the serial Kahan oracle."""
    path = str(single_file["path"])
    _, events = read_events(path)
    oracle = kahan_sum(ev["met"]["pt"] for ev in events)

    # the file stores 2,580,920 bytes in 40 blocks
    for target, n_parts in ((1 << 22, 1), (700_000, 4), (200_000, 13)):
        config = EngineConfig(partition_target_bytes=target)
        values = []
        for workers in (1, 2, 7, 16):
            ds = open_dataset(mc_descriptor(path), replace(config, workers=workers))
            assert len(ds.partitions) == n_parts
            values.append(total(ds, "met.pt"))
        assert len(set(values)) == 1  # bit-identical for fixed partitioning
        assert abs(values[0] - oracle) <= 1e-12 * abs(oracle)


def test_coverage_every_event_once(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    assert total(ds, "1.0") == 2000.0


# -- persist / cache -------------------------------------------------------------------


def test_persist_second_traversal_reads_zero_bytes(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    ds.persist()
    t1 = fresh_phases(ds)
    first = total(ds, "genInfo.weight")
    assert t1.bytes_read > 0
    assert ds.cache_state == "cached"
    t2 = fresh_phases(ds)
    second = total(ds, "genInfo.weight")
    assert t2.bytes_read == 0
    assert t2.cache_hits == len(ds.partitions)
    assert first == second
    ds.drop_cache()
    assert ds.cache_state == "cold" and ds._cache == {} and ds._cache_bytes == 0
    t3 = fresh_phases(ds)
    assert total(ds, "genInfo.weight") == first
    assert t3.bytes_read > 0 and t3.cache_hits == 0


def test_persisting_pass_reports_compute(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    ds.persist()
    t = fresh_phases(ds)
    total(ds, "genInfo.weight")
    assert t.decode_s > 0
    assert t.compute_s > 0


def test_cache_budget_overflow_falls_back_to_cold(small_corpus):
    config = EngineConfig(cache_budget_bytes=1)
    ds = open_dataset(mc_descriptor(small_corpus["glob"]), config)
    ds.persist()
    first = total(ds, "genInfo.weight")
    assert ds.warnings and "budget" in ds.warnings[0]
    assert ds.cache_state == "cold"
    t = fresh_phases(ds)
    second = total(ds, "genInfo.weight")
    assert t.bytes_read > 0  # really cold again
    assert first == second


MET_PT = {("met", "pt")}
MET_PT_NJETS = {("met", "pt"), ("jets",)}  # what `run_filter` reads with a cut on met.pt


def cached_sizes(ds, leaves):
    """Each partition's column bytes at the leaves a traversal reads, the
    amount the cache budget counts when that traversal fills the cache."""
    codec = EventCodec(ds.schema, leaves)
    return [
        sum(cs.nbytes for cs in iter_block_range(
            ds.files[part.file_index], part.block_lo, part.block_hi, timers=PhaseTimers(),
            codec=codec))
        for part in ds.partitions
    ]


def test_cache_budget_checked_as_partitions_are_admitted(small_corpus):
    config = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][2])
    ds = open_dataset(mc_descriptor(small_corpus["glob"]), config)
    assert len(ds.partitions) >= 3
    sizes = cached_sizes(ds, {("genInfo", "weight")})
    budget = max(sizes) + 1  # just above one partition's columns

    ds = open_dataset(mc_descriptor(small_corpus["glob"]),
                      replace(config, cache_budget_bytes=budget, workers=1))
    ds.persist()
    seen = spy_partitions(ds)
    total(ds, "genInfo.weight")
    states = [state for state, _, _ in seen]
    assert states[0] == "warming"
    assert "cold" in states  # the dataset went cold during the traversal
    assert max(held for _, held, _ in seen) <= budget
    assert ds._cache_bytes == sizes[0] and list(ds._cache) == [0]
    assert ds.warnings and "budget" in ds.warnings[0]


def test_admission_follows_partition_order(tmp_path):
    """Partition 0 finishes last, yet the cache admits partitions in
    partition order, so the overflow and its warning are the serial run's."""
    path = tmp_path / "f.evt"
    generate_evt(GeneratorSpec(seed=9, n_events=700), path, block_target=100)
    config = EngineConfig(partition_target_bytes=75_000)  # 182,612 bytes: blocks 2, 3, 2
    sizes = cached_sizes(open_dataset(mc_descriptor(str(path)), config), MET_PT)
    config = replace(config, cache_budget_bytes=sizes[1] + sizes[0] // 2)

    serial = open_dataset(mc_descriptor(str(path)), replace(config, workers=1)).persist()
    total(serial, "met.pt")
    budget = config.cache_budget_bytes
    assert serial.warnings == [
        f"cache budget exceeded ({sizes[0] + sizes[1]} > {budget} bytes); "
        "falling back to cold reads"
    ]

    ds = open_dataset(mc_descriptor(str(path)), replace(config, workers=3)).persist()
    take = ds._partition_columns
    last_started = threading.Event()

    def spy(part, timers, codec):
        if part.index == 0:
            assert last_started.wait(10)
        elif part.index == 2:
            last_started.set()
        return take(part, timers, codec)

    ds._partition_columns = spy
    assert total(ds, "met.pt") == total(serial, "met.pt")
    assert ds.warnings == serial.warnings
    assert ds.cache_state == "cold" and list(ds._cache) == list(serial._cache) == [0]


def test_one_worker_admits_each_partition_before_taking_the_next(small_corpus):
    """At one worker nothing runs ahead: every partition up to the one that
    overflows sees all before it cached, and every later one sees the
    partitions that fit still cached."""
    config = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3])
    ds = open_dataset(mc_descriptor(small_corpus["glob"]), config)
    sizes = cached_sizes(ds, MET_PT)
    assert len(sizes) == 6
    ds = open_dataset(mc_descriptor(small_corpus["glob"]),
                      replace(config, cache_budget_bytes=sizes[0] + sizes[1], workers=1)).persist()
    cached = []
    take = ds._partition_columns

    def spy(part, timers, codec):
        cached.append(len(ds._cache))
        return take(part, timers, codec)

    ds._partition_columns = spy
    total(ds, "met.pt")
    assert cached == [0, 1, 2, 2, 2, 2]
    assert len(ds.warnings) == 1 and ds.cache_state == "cold"


def test_an_overflowing_partition_is_released_before_the_next_is_taken(small_corpus):
    ds = open_dataset(
        mc_descriptor(small_corpus["glob"]),
        EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][2],
                     cache_budget_bytes=1, workers=1),
    ).persist()

    class Blocks(list):
        """A list that takes weak references."""

    take = ds._partition_columns
    taken = []
    held = []

    def spy(part, timers, codec):
        held.append([ref() is not None for ref in taken])
        blocks = Blocks(take(part, timers, codec))
        taken.append(weakref.ref(blocks))
        return blocks

    ds._partition_columns = spy
    total(ds, "met.pt")
    assert ds.warnings and ds.cache_state == "cold"
    assert held == [[], [False], [False] * 2, [False] * 3]


def test_an_overflow_stays_until_the_cache_is_dropped(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]), EngineConfig(cache_budget_bytes=1))
    ds.persist()
    total(ds, "met.pt")
    assert len(ds.warnings) == 1 and ds.cache_state == "cold"
    assert ds.persist().cache_state == "cold"
    total(ds, "met.pt")
    assert ds.cache_state == "cold" and len(ds.warnings) == 1

    ds.drop_cache()
    assert ds.persist().cache_state == "warming"
    total(ds, "met.pt")
    assert len(ds.warnings) == 2 and ds.cache_state == "cold"


def test_overflow_keeps_the_partitions_that_fit(small_corpus, tmp_path):
    """Over budget, the cached set is the prefix of partitions that fits,
    the same at every worker count; a second skim reads none of their
    bytes and writes the same ntuple."""
    config = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3])
    plan = open_dataset(mc_descriptor(small_corpus["glob"]), config)
    sizes = cached_sizes(plan, MET_PT_NJETS)
    config = replace(config, cache_budget_bytes=sum(sizes[:3]) + sizes[3] // 2)
    cold_bytes = [  # the payload and CRC bytes a cold read of each partition takes
        sum(b.payload_len + 4 for b in plan.files[p.file_index].blocks[p.block_lo:p.block_hi])
        for p in plan.partitions
    ]
    outputs = set()
    for workers in (1, 2, 7, 16):
        ds = open_dataset(mc_descriptor(small_corpus["glob"]),
                          replace(config, workers=workers)).persist()
        run_filter(ds, "met.pt > 100.0", tmp_path / "first.ntu")
        assert sorted(ds._cache) == [0, 1, 2] and ds._cache_bytes == sum(sizes[:3])
        assert len(ds.warnings) == 1 and ds.cache_state == "cold"
        t = fresh_phases(ds)
        run_filter(ds, "met.pt > 100.0", tmp_path / "second.ntu")
        assert t.cache_hits == 3 and t.bytes_cached == 0
        assert t.bytes_read == sum(cold_bytes[3:])
        first = (tmp_path / "first.ntu").read_bytes()
        assert (tmp_path / "second.ntu").read_bytes() == first
        outputs.add(first)
    assert len(outputs) == 1


def test_bytes_cached_counts_what_a_traversal_admits(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    cold = fresh_phases(ds)
    total(ds, "met.pt")
    assert cold.bytes_cached == 0
    ds.persist()
    filling = fresh_phases(ds)
    total(ds, "met.pt")
    assert ds.cache_state == "cached"
    assert filling.bytes_cached == ds._cache_bytes == sum(cached_sizes(ds, MET_PT)) > 0
    assert asdict(filling)["bytes_cached"] == filling.bytes_cached
    cached = fresh_phases(ds)
    total(ds, "met.pt")
    assert cached.bytes_cached == 0


def test_one_worker_runs_every_task_on_the_calling_thread(small_corpus, tmp_path, monkeypatch):
    config = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3])
    threads = []
    run = engine._run_partitions

    def spy(ds, task, workers):
        def traced(part):
            threads.append(threading.get_ident())
            return task(part)
        return run(ds, traced, workers)

    monkeypatch.setattr(engine, "_run_partitions", spy)
    for workers in (1, 2):
        threads.clear()
        ds = open_dataset(mc_descriptor(small_corpus["glob"]), replace(config, workers=workers))
        run_filter(ds, "met.pt > 100.0", tmp_path / f"w{workers}.ntu")
        assert len(threads) == len(ds.partitions) == 6
        on_caller = {threading.get_ident()} == set(threads)
        assert on_caller == (workers == 1)
    assert (tmp_path / "w1.ntu").read_bytes() == (tmp_path / "w2.ntu").read_bytes()


def test_decode_goes_through_decode_block(small_corpus, tmp_path, monkeypatch):
    """Column decode is `EventCodec.decode_block(payload, count)`, reached
    through `engine.iter_block_range`, as benchmark tracing patches them:
    once per block when cold or filling, and never when cached."""
    calls, ranges = [], []
    decode_block = EventCodec.decode_block
    iterate = engine.iter_block_range

    def counted(codec, payload, count):
        calls.append(count)
        return decode_block(codec, payload, count)

    def iter_blocks(index, lo, hi, **kwargs):
        ranges.append(hi - lo)
        return iterate(index, lo, hi, **kwargs)

    monkeypatch.setattr(EventCodec, "decode_block", counted)
    monkeypatch.setattr(engine, "iter_block_range", iter_blocks)
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    n_blocks = sum(len(f.blocks) for f in ds.files)
    for persist, want in ((False, n_blocks), (True, n_blocks), (True, 0)):
        if persist:
            ds.persist()
        calls.clear()
        ranges.clear()
        run_filter(ds, "met.pt > 100.0", tmp_path / "out.ntu")
        assert len(calls) == sum(ranges) == want
        assert sum(calls) == (2000 if want else 0)
    assert ds.cache_state == "cached"


def test_cached_equals_cold(small_corpus):
    cold = open_dataset(mc_descriptor(small_corpus["glob"]))
    cold_value = total(cold, "genInfo.weight")
    warm = open_dataset(mc_descriptor(small_corpus["glob"]))
    warm.persist()
    total(warm, "genInfo.weight")
    warm_value = total(warm, "genInfo.weight")
    assert warm_value == cold_value


def test_persist_is_idempotent(small_corpus):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    assert ds.persist() is ds
    assert ds.persist() is ds


# -- filter_map_write --------------------------------------------------------------------


def run_filter(ds, cut_text, out):
    schema = ds.schema
    cut = typecheck_cut(cut_text, schema)
    proj = typecheck_projection([("met_pt", "met.pt"), ("njets", "size(jets)")], schema)
    with NtuWriter(out, proj.columns, group_target=512) as sink:
        count, sumw = filter_map_write(ds, cut, proj, sink=sink)
    assert sumw is None
    return count


def test_filter_true_keeps_everything(small_corpus, tmp_path):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    count = run_filter(ds, "true", tmp_path / "all.ntu")
    assert count == 2000
    assert read_ntu(tmp_path / "all.ntu").n_rows == 2000


def test_filter_false_writes_empty_file(small_corpus, tmp_path):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    count = run_filter(ds, "false", tmp_path / "none.ntu")
    assert count == 0
    data = read_ntu(tmp_path / "none.ntu")
    assert data.n_rows == 0 and data.n_groups == 0


def test_rows_in_serial_order(small_corpus, tmp_path):
    ds = open_dataset(
        mc_descriptor(small_corpus["glob"]),
        EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][4], workers=8),
    )
    run_filter(ds, "met.pt > 100.0", tmp_path / "sel.ntu")
    got = read_ntu(tmp_path / "sel.ntu")

    from oracle import iter_all_events

    expected = [
        (ev["met"]["pt"], len(ev["jets"]))
        for ev in iter_all_events(small_corpus["paths"])
        if ev["met"]["pt"] > 100.0
    ]
    assert got.rows() == expected


def test_output_identical_across_worker_counts(small_corpus, tmp_path):
    """Cold, and persisted with a cache budget that overflows mid-way: the
    same ntuple and the same warnings at every worker count."""
    plan = open_dataset(mc_descriptor(small_corpus["glob"]))
    overflow = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3],
                            cache_budget_bytes=sum(cached_sizes(plan, MET_PT_NJETS)) // 2)
    for config, persist in ((EngineConfig(), False), (overflow, True)):
        digests = set()
        warnings = set()
        for workers in (1, 2, 7, 16):
            ds = open_dataset(mc_descriptor(small_corpus["glob"]), replace(config, workers=workers))
            if persist:
                ds.persist()
            out = tmp_path / f"w{workers}.ntu"
            run_filter(ds, "met.pt > 100.0", out)
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
            warnings.add(tuple(ds.warnings))
        assert len(digests) == 1
        assert len(warnings) == 1 and len(warnings.pop()) == persist


def test_a_column_rewritten_after_the_traversal(small_corpus, tmp_path):
    """The skim's groups are written as partitions finish (2,000 rows in
    groups of 512), and `rewrite_column` then reaches them and the buffer."""
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    cut = typecheck_cut("true", ds.schema)
    proj = typecheck_projection([("met_pt", "met.pt"), ("njets", "size(jets)")], ds.schema)
    with NtuWriter(tmp_path / "fin.ntu", proj.columns, group_target=512) as sink:
        count, _ = filter_map_write(ds, cut, proj, sink=sink)
        sink.rewrite_column(0, lambda col: array("d", [v * 2.0 for v in col]))
    assert count == 2000
    doubled = read_ntu(tmp_path / "fin.ntu")
    assert doubled.n_groups == 4
    run_filter(open_dataset(mc_descriptor(small_corpus["glob"])), "true", tmp_path / "plain.ntu")
    plain = read_ntu(tmp_path / "plain.ntu").columns
    assert list(doubled.columns["met_pt"]) == [v * 2.0 for v in plain["met_pt"]]
    assert doubled.columns["njets"] == plain["njets"]


@pytest.fixture(scope="module")
def data_corpora(tmp_path_factory):
    """Data corpora of 4,000 and 16,000 events in blocks of 128, by glob."""
    globs = {}
    for n in (4000, 16000):
        root = tmp_path_factory.mktemp(f"data{n}")
        generate_corpus(GeneratorSpec(seed=9, n_events=n, kind="data"), root, 1, block_target=128)
        globs[n] = str(root / "*.evt")
    return globs


def test_output_memory_follows_the_group_not_the_dataset(data_corpora, tmp_path):
    """A skim that selects every event appends each one-block partition as
    it finishes, so the writer holds at most a 256-row group: four times
    the events stay within 1.2 times the traced peak."""
    def skim(n):
        ds = open_dataset(DatasetDescriptor(data_corpora[n], "data", "data"),
                          EngineConfig(workers=1, partition_target_bytes=1))
        cut = typecheck_cut("true", ds.schema)
        proj = typecheck_projection(
            [("met_pt", "met.pt"), ("ht", "sum(jets, it.pt)"), ("njets", "size(jets)")], ds.schema
        )
        tracemalloc.start()
        try:
            with NtuWriter(tmp_path / f"{n}.ntu", proj.columns, group_target=256) as sink:
                count, _ = filter_map_write(ds, cut, proj, sink=sink)
            return count, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    skim(4000)  # the first skim compiles what both measured ones share
    (small, small_peak), (large, large_peak) = skim(4000), skim(16000)
    assert (small, large) == (4000, 16000)
    assert large_peak < 1.2 * small_peak


def spy_partitions(ds):
    """Record (cache state, cached bytes, column sets) each time a
    traversal takes a partition's column sets."""
    seen = []
    take = ds._partition_columns

    def spy(part, timers, codec):
        blocks = list(take(part, timers, codec))
        seen.append((ds.cache_state, ds._cache_bytes, blocks))
        return blocks

    ds._partition_columns = spy
    return seen


def test_a_persisting_traversal_caches_only_what_a_cold_one_decodes(small_corpus, tmp_path):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    cut = typecheck_cut("met.pt > 1e9", ds.schema)
    proj = typecheck_projection([("njets", "size(jets)")], ds.schema)
    seen = spy_partitions(ds)
    with NtuWriter(tmp_path / "a.ntu", proj.columns) as sink:
        filter_map_write(ds, cut, proj, sink=sink)
    cold = [cs for _, _, blocks in seen for cs in blocks]
    assert sum(cs.count for cs in cold) == 2000
    # the size-only collection keeps its offsets alone
    assert all(cs.keys() == {("met", "pt"), ("jets",)} for cs in cold)
    assert all(len(cs[("jets",)]) == cs.count + 1 for cs in cold)

    ds.persist()
    seen.clear()
    with NtuWriter(tmp_path / "b.ntu", proj.columns) as sink:
        filter_map_write(ds, cut, proj, sink=sink)
    assert ds.cache_state == "cached" and ds._leaves == MET_PT_NJETS
    filled = [cs for _, _, blocks in seen for cs in blocks]
    assert sum(cs.count for cs in filled) == 2000
    cached = [cs for blocks in ds._cache.values() for cs in blocks]
    assert all(cs.keys() == {("met", "pt"), ("jets",)} for cs in filled + cached)
    assert (tmp_path / "a.ntu").read_bytes() == (tmp_path / "b.ntu").read_bytes()


def test_an_overflowing_widening_keeps_what_fits_at_the_wider_leaves(small_corpus, tmp_path):
    """The cache holds met.pt; a skim that also reads jets widens it, so it
    is emptied and refilled at the union, in partition order, until the
    budget stops it. The partitions that fit serve later skims within the
    union, and every ntuple equals a cold one."""
    config = EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3])
    plan = open_dataset(mc_descriptor(small_corpus["glob"]), replace(config, workers=1))
    wide = {("met", "pt"), ("jets", "pt")}  # the jets offsets come with their pt
    sizes = cached_sizes(plan, wide)
    assert sum(cached_sizes(plan, MET_PT)) < sum(sizes[:2]) < sum(sizes)
    config = replace(config, cache_budget_bytes=sum(sizes[:2]) + sizes[2] // 2)

    def skim(ds, name, projection):
        cut = typecheck_cut("met.pt > 100.0", ds.schema)
        proj = typecheck_projection(projection, ds.schema)
        t = fresh_phases(ds)
        with NtuWriter(tmp_path / name, proj.columns, group_target=512) as sink:
            filter_map_write(ds, cut, proj, sink=sink)
        return t

    narrow, wider = [("met_pt", "met.pt")], [("ht", "sum(jets, it.pt)"), ("njets", "size(jets)")]
    skim(plan, "cold-narrow.ntu", narrow)
    skim(plan, "cold-wide.ntu", wider)
    for workers in (1, 2, 7, 16):
        ds = open_dataset(mc_descriptor(small_corpus["glob"]),
                          replace(config, workers=workers)).persist()
        skim(ds, "narrow.ntu", narrow)
        assert ds.cache_state == "cached" and ds._leaves == MET_PT and not ds.warnings
        t = skim(ds, "wide.ntu", wider)
        assert ds._leaves == wide and sorted(ds._cache) == [0, 1]
        assert ds._cache_bytes == t.bytes_cached == sum(sizes[:2])
        assert len(ds.warnings) == 1 and ds.cache_state == "cold"
        keys = wide | {("jets",)}
        assert all(cs.keys() == keys for blocks in ds._cache.values() for cs in blocks)
        for name, projection in (("narrow.ntu", narrow), ("wide.ntu", wider)):
            t = skim(ds, name, projection)
            assert t.cache_hits == 2 and t.bytes_cached == 0
            assert (tmp_path / name).read_bytes() == (tmp_path / f"cold-{name}").read_bytes()


def test_map_reduce_compiled_value_equals_callable(small_corpus):
    ds = open_dataset(
        mc_descriptor(small_corpus["glob"]),
        EngineConfig(),
    )
    assert len(ds.partitions) == 2
    partials = [
        kahan_sum(ev["met"]["pt"] * ev["genInfo"]["weight"] for ev in read_events(path)[1])
        for path in sorted(small_corpus["paths"])
    ]
    assert total(ds, "met.pt * genInfo.weight") == partials[0] + partials[1]


def test_decode_errors_identify_partition(tmp_path, schema):
    from skimflow.errors import CrcMismatch
    from skimflow.generator import GeneratorSpec, generate_evt
    from skimflow.storage import scan_evt

    generate_evt(GeneratorSpec(seed=2, n_events=400), tmp_path / "f.evt", block_target=100)
    index = scan_evt(tmp_path / "f.evt")
    block = index.blocks[2]
    raw = bytearray((tmp_path / "f.evt").read_bytes())
    raw[block.offset + 8] ^= 0xFF
    (tmp_path / "f.evt").write_bytes(bytes(raw))

    ds = open_dataset(
        mc_descriptor(str(tmp_path / "*.evt")),
        EngineConfig(partition_target_bytes=30_000, workers=2),  # one run per block
    )
    with pytest.raises(CrcMismatch, match=r"partition 2 .*block"):
        total(ds, "1.0")


def test_sink_aborted_on_failure(small_corpus, tmp_path):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]))
    schema = ds.schema
    cut = typecheck_cut("true", schema)
    proj = typecheck_projection([("met_pt", "met.pt")], schema)

    def explode(col):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        with NtuWriter(tmp_path / "boom.ntu", proj.columns, group_target=512) as sink:
            filter_map_write(ds, cut, proj, sink=sink)
            sink.rewrite_column(0, explode)
    assert list(tmp_path.iterdir()) == []


# -- the cyclic collector ---------------------------------------------------------------


@pytest.fixture(scope="module")
def gc_corpus(tmp_path_factory):
    """20,000 mc events in 2 files, a persisting skim of which must fill
    the cache without a generation-2 collection."""
    root = tmp_path_factory.mktemp("gc_corpus")
    generate_corpus(GeneratorSpec(seed=5, n_events=20000, kind="mc", weight_dist="signed"), root, 2)
    return str(root / "*.evt")


@pytest.fixture
def collector():
    """Restores the collector's state and callbacks after the test."""
    enabled = gc.isenabled()
    callbacks = list(gc.callbacks)
    try:
        yield
    finally:
        gc.callbacks[:] = callbacks
        if enabled:
            gc.enable()
        else:
            gc.disable()


def collections():
    """Append the generation of every collection that starts from now on
    to the returned list."""
    seen = []
    gc.callbacks.append(lambda phase, info: phase == "start" and seen.append(info["generation"]))
    return seen


def weighted_skim(ds, out):
    """A skim that sums the generator weight, as `run_skim` does for mc."""
    cut = typecheck_cut("met.pt > 100.0", ds.schema)
    proj = typecheck_projection([("met_pt", "met.pt"), ("ht", "sum(jets, it.pt)")], ds.schema)
    weight = typecheck_value("genInfo.weight", ds.schema)
    with NtuWriter(out, proj.columns) as sink:
        return filter_map_write(ds, cut, proj, sink=sink, weight=weight)


@pytest.mark.parametrize("workers", [1, 2])
def test_cache_fill_runs_no_full_collection(gc_corpus, tmp_path, collector, workers):
    """The column cache is a few arrays per block, so filling it with the
    collector on allocates too few tracked objects to reach generation 2."""
    ds = open_dataset(mc_descriptor(gc_corpus), EngineConfig(workers=workers)).persist()
    gc.enable()
    gc.collect()
    seen = collections()
    weighted_skim(ds, tmp_path / "a.ntu")
    assert ds.cache_state == "cached"
    assert 2 not in seen
    assert gc.isenabled()

    seen.clear()
    weighted_skim(ds, tmp_path / "b.ntu")
    assert 2 not in seen
    assert (tmp_path / "a.ntu").read_bytes() == (tmp_path / "b.ntu").read_bytes()


def test_disabled_collector_stays_disabled(gc_corpus, tmp_path, collector):
    ds = open_dataset(mc_descriptor(gc_corpus), EngineConfig(workers=2)).persist()
    gc.disable()
    seen = collections()
    weighted_skim(ds, tmp_path / "a.ntu")
    assert ds.cache_state == "cached"
    assert not gc.isenabled()
    assert seen == []


def test_concurrent_filling_skims_restore_the_collector(gc_corpus, small_corpus, tmp_path,
                                                        collector):
    globs = {"big": gc_corpus, "small": small_corpus["glob"]}
    expected = {}
    for name, glob in globs.items():
        out = tmp_path / f"{name}-sequential.ntu"
        weighted_skim(open_dataset(mc_descriptor(glob), EngineConfig(workers=2)).persist(), out)
        expected[name] = out.read_bytes()

    gc.enable()
    errors = []

    def skim(name):
        try:
            ds = open_dataset(mc_descriptor(globs[name]), EngineConfig(workers=3)).persist()
            weighted_skim(ds, tmp_path / f"{name}-threaded.ntu")
        except BaseException as exc:
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=skim, args=(name,)) for name in globs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()
    for name in globs:
        assert (tmp_path / f"{name}-threaded.ntu").read_bytes() == expected[name]


def test_fully_cached_skim_builds_no_decoder(small_corpus, tmp_path, monkeypatch):
    built = []

    class Spy(EventCodec):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "EventCodec", Spy)
    cold = open_dataset(mc_descriptor(small_corpus["glob"]))
    weighted_skim(cold, tmp_path / "cold.ntu")
    ds = open_dataset(mc_descriptor(small_corpus["glob"])).persist()
    weighted_skim(ds, tmp_path / "fill.ntu")
    assert ds.cache_state == "cached"
    built.clear()
    weighted_skim(ds, tmp_path / "cached.ntu")
    assert built == []
    cold_bytes = (tmp_path / "cold.ntu").read_bytes()
    assert (tmp_path / "fill.ntu").read_bytes() == cold_bytes
    assert (tmp_path / "cached.ntu").read_bytes() == cold_bytes


def test_corrupt_block_in_a_filling_skim_restores_the_collector(tmp_path, collector):
    """A block whose CRC is valid but whose jets count overruns the
    payload fails the filling traversal with a DataError that names the
    partition, and the collector resumes."""
    path = tmp_path / "f.evt"
    generate_evt(GeneratorSpec(seed=3, n_events=400), path, block_target=100)
    block = scan_evt(path).blocks[1]
    raw = bytearray(path.read_bytes())
    start = block.offset + 8
    jets = start + 48 + 4 * 4  # the first event's jets count
    raw[jets:jets + 4] = (0xFFFF).to_bytes(4, "little")
    payload = bytes(raw[start:start + block.payload_len])
    raw[start + block.payload_len:start + block.payload_len + 4] = (
        zlib.crc32(payload).to_bytes(4, "little")
    )
    path.write_bytes(bytes(raw))

    ds = open_dataset(
        mc_descriptor(str(tmp_path / "*.evt")),
        EngineConfig(partition_target_bytes=30_000, workers=2),  # one run per block
    ).persist()
    gc.enable()
    with pytest.raises(DataError, match=r"partition 1 .*block 1"):
        weighted_skim(ds, tmp_path / "out.ntu")
    assert gc.isenabled()
    assert not (tmp_path / "out.ntu").exists()


def test_zero_column_projection_writes_its_selected_row_count(small_corpus, tmp_path):
    from oracle import iter_all_events

    ds = open_dataset(
        mc_descriptor(small_corpus["glob"]),
        EngineConfig(partition_target_bytes=small_corpus["target_for_runs"][3], workers=2),
    )
    cut = typecheck_cut("met.pt > 100.0", ds.schema)
    proj = typecheck_projection([], ds.schema)
    with NtuWriter(tmp_path / "none.ntu", proj.columns, group_target=64) as sink:
        count, _ = filter_map_write(ds, cut, proj, sink=sink)
    want = sum(ev["met"]["pt"] > 100.0 for ev in iter_all_events(small_corpus["paths"]))
    assert 0 < count == want < 2000
    data = read_ntu(tmp_path / "none.ntu")
    assert data.n_rows == count and data.all_columns == ()
    assert data.n_groups == -(-count // 64)  # groups span partitions, as rows do


def test_a_value_its_column_cannot_hold_aborts_the_sink(small_corpus, tmp_path):
    ds = open_dataset(mc_descriptor(small_corpus["glob"]), EngineConfig(workers=2))
    cut = typecheck_cut("met.pt > 100.0", ds.schema)
    proj = typecheck_projection([("met_pt", "met.pt"), ("big", str(2**64))], ds.schema)
    assert proj.columns[1] == ("big", "i64")
    with pytest.raises(DataError, match="partition 0 .*does not match column kind"):
        with NtuWriter(tmp_path / "big.ntu", proj.columns) as sink:
            filter_map_write(ds, cut, proj, sink=sink)
    assert list(tmp_path.iterdir()) == []
    # an error while computing a value stays its own, before any append
    proj = typecheck_projection([("big", str(2**64)), ("s", "met.pt + " + "9" * 400)], ds.schema)
    with pytest.raises(OverflowError):
        with NtuWriter(tmp_path / "s.ntu", proj.columns) as sink:
            filter_map_write(ds, cut, proj, sink=sink)
    assert list(tmp_path.iterdir()) == []
