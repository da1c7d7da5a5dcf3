"""Partitioned datasets and deterministic parallel traversal.

A dataset is a sorted glob of EVT files sliced into partitions, each a
contiguous block range of one file. Partitions are the unit of parallelism:
a thread pool processes them independently and the coordinator combines the
per-partition results in ascending partition order, so every result is a
pure function of the partition plan, whatever the worker count or
scheduling order.

`filter_map_write` is the only traversal a skim makes. Each partition
runs one loop generated from the skim's compiled cut, projection and
weight (`expr.compile_kernel`), over cached and decoded events alike,
which appends the selected events' projected values to one typed
`array` per column; no row is built. Given a weight, as for an mc
dataset, that loop sums the weights as it selects, so every event is
read and decoded once. Each partition's columns are then held until the
traversal ends, because an mc event's normalised weight needs the sum
over the whole dataset, and the writer takes them as they are.
`map_reduce` is the same loop with no cut and no projection.

An explicit in-memory cache ("persist") retains each partition's decoded
events after the first full traversal; later traversals then read zero
storage bytes. The cache map is populated once per partition and read-only
afterwards, which is the only state workers share. The cache budget is
checked as each partition is admitted: the partition that would take the
cache past it instead drops the whole cache, records a warning, and the
dataset falls back to cold reads, so the cache never holds more than the
budget. The budget counts decoded EVT payload bytes, not resident memory;
the Python objects built from a payload take about ten times its size.
A traversal that can admit partitions to the cache pauses automatic
garbage collection, which would otherwise rescan the growing cache many
times over, and runs one full collection at its end, charged to compute.
Traversals that fill nothing leave the collector alone.

Each traversal derives from the compiled expressions it is given the
schema leaves they read (`expr` records them, `storage.codec` compiles a
decoder for them) and decodes only those leaves in every partition that
does not go into the cache: every partition of a dataset that is not
persisted, and every partition after a budget overflow. A partition being
admitted to the cache is decoded in full, so cached events serve any later
traversal whatever leaves it reads. The choice follows the dataset's cache
state alone. `bytes_decoded` counts every payload byte walked either way.
"""

from __future__ import annotations

import gc
import glob as globmod
import os
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    ConfigError,
    InvalidCustomPlan,
    NoFilesMatched,
    SchemaMismatch,
    SkimflowError,
    UnreadableFile,
)
from .expr import TypedCut, TypedProjection, TypedValue, compile_kernel
from .schema import Schema
from .storage import EventCodec, EvtIndex, iter_block_range, scan_evt
from .storage.ntu import KIND_INFO, NtuWriter
from .timing import PhaseTimers

DEFAULT_PARTITION_TARGET_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class DatasetDescriptor:
    """Identifies one dataset: a file glob, its kind, and for mc the
    production cross-section in picobarns."""

    glob: str
    kind: str  # "data" | "mc"
    label: str
    xsec_pb: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("data", "mc"):
            raise ConfigError(f"dataset {self.label!r}: kind must be 'data' or 'mc'")
        if self.kind == "mc":
            if self.xsec_pb is None or not self.xsec_pb > 0:
                raise ConfigError(f"dataset {self.label!r}: mc requires xsec_pb > 0")
        elif self.xsec_pb is not None:
            raise ConfigError(f"dataset {self.label!r}: data datasets carry no xsec_pb")


@dataclass(frozen=True)
class EngineConfig:
    workers: int | None = None  # None -> hardware parallelism
    cache_budget_bytes: int | None = None  # None -> unlimited
    partition_mode: str = "auto"
    partition_target_bytes: int = DEFAULT_PARTITION_TARGET_BYTES
    partition_custom: object = None  # {"per_file": N} or {path: [[lo, hi], ...]}

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.partition_mode not in ("auto", "custom"):
            raise ConfigError("partition.mode must be 'auto' or 'custom'")
        if self.partition_target_bytes < 1:
            raise ConfigError("partition.target_bytes must be >= 1")
        if self.cache_budget_bytes is not None and self.cache_budget_bytes < 0:
            raise ConfigError("cache_budget_bytes must be >= 0")


@dataclass(frozen=True)
class Partition:
    index: int
    path: str
    file_index: int
    block_lo: int
    block_hi: int
    n_events: int


def plan_partitions(files: Sequence[EvtIndex], config: EngineConfig) -> list[Partition]:
    """Slice file block lists into partitions.

    auto mode accumulates whole blocks per file until the byte target is
    reached (a partition always takes at least one block and a block is
    never split). custom mode validates the supplied ranges for disjoint,
    gap-free coverage of every file.
    """
    if config.partition_mode == "auto":
        ranges = [_auto_ranges(f, config.partition_target_bytes) for f in files]
    else:
        ranges = _custom_ranges(files, config.partition_custom)
    partitions: list[Partition] = []
    for file_index, (evt_index, file_ranges) in enumerate(zip(files, ranges)):
        for lo, hi in file_ranges:
            blocks = evt_index.blocks[lo:hi]
            partitions.append(
                Partition(
                    index=len(partitions),
                    path=str(evt_index.path),
                    file_index=file_index,
                    block_lo=lo,
                    block_hi=hi,
                    n_events=sum(b.n_events for b in blocks),
                )
            )
    return partitions


def _auto_ranges(evt_index: EvtIndex, target_bytes: int) -> list[tuple[int, int]]:
    sizes = [12 + b.payload_len for b in evt_index.blocks]
    if not sizes:
        return []
    ranges = []
    lo = 0
    acc = 0
    for i, size in enumerate(sizes):
        if acc and acc + size > target_bytes:
            ranges.append((lo, i))
            lo = i
            acc = 0
        acc += size
    ranges.append((lo, len(sizes)))
    return ranges


def _custom_ranges(files: Sequence[EvtIndex], custom) -> list[list[tuple[int, int]]]:
    if isinstance(custom, dict) and set(custom) == {"per_file"}:
        per_file = custom["per_file"]
        if not isinstance(per_file, int) or per_file < 1:
            raise InvalidCustomPlan("per_file must be a positive integer")
        out = []
        for f in files:
            n = len(f.blocks)
            k = min(per_file, n) if n else 0
            ranges = []
            start = 0
            for i in range(k):
                count = n // k + (1 if i < n % k else 0)
                ranges.append((start, start + count))
                start += count
            out.append(ranges)
        return out
    if isinstance(custom, dict):
        out = []
        for f in files:
            key = str(f.path)
            if key not in custom:
                raise InvalidCustomPlan(f"custom plan is missing file {key!r}")
            ranges = [(int(lo), int(hi)) for lo, hi in custom[key]]
            _check_coverage(ranges, len(f.blocks), key)
            out.append(ranges)
        return out
    raise InvalidCustomPlan(
        "partition.custom must be {'per_file': N} or a mapping of file path to block ranges"
    )


def _check_coverage(ranges: list[tuple[int, int]], n_blocks: int, path: str) -> None:
    expect = 0
    for lo, hi in sorted(ranges):
        if lo != expect:
            kind = "overlaps" if lo < expect else "leaves a gap"
            raise InvalidCustomPlan(f"{path}: custom plan {kind} at block {min(lo, expect)}")
        if hi <= lo:
            raise InvalidCustomPlan(f"{path}: empty range [{lo}, {hi})")
        expect = hi
    if expect != n_blocks:
        raise InvalidCustomPlan(f"{path}: custom plan covers {expect} of {n_blocks} blocks")


class PartitionedDataset:
    """An opened dataset: file indexes, the partition plan, and cache state."""

    def __init__(self, descriptor: DatasetDescriptor, files: list[EvtIndex], config: EngineConfig):
        self.descriptor = descriptor
        self.files = files
        self.config = config
        self.schema: Schema = files[0].schema
        self.codec = EventCodec(self.schema)
        self.partitions = plan_partitions(files, config)
        self.warnings: list[str] = []
        self._want_cache = False
        self._cache: dict[int, list[dict]] = {}
        self._cache_bytes = 0
        self._lock = threading.Lock()

    # -- inventory ---------------------------------------------------------

    @property
    def n_events(self) -> int:
        return sum(f.n_events for f in self.files)

    @property
    def n_bytes(self) -> int:
        return sum(f.file_bytes for f in self.files)

    @property
    def cache_state(self) -> str:
        if len(self._cache) == len(self.partitions) and self.partitions and self._want_cache:
            return "cached"
        return "warming" if self._want_cache else "cold"

    def persist(self) -> "PartitionedDataset":
        """Retain decoded events in memory from the next full traversal on;
        no-op if already persisted."""
        self._want_cache = True
        return self

    def drop_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._cache_bytes = 0
            self._want_cache = False

    # -- per-partition event access -----------------------------------------

    def _partition_events(
        self, part: Partition, timers: PhaseTimers, codec: EventCodec | None
    ) -> Iterable[dict]:
        """The partition's events: from the cache, else decoded with the
        full codec when the partition is to be admitted to the cache, and
        with `codec` (which may read only some leaves; None for the full
        codec) when it is not."""
        cached = self._cache.get(part.index)
        if cached is not None:
            timers.cache_hits += 1
            return cached
        index = self.files[part.file_index]
        if not self._want_cache:
            return iter_block_range(
                index, part.block_lo, part.block_hi, timers=timers, codec=codec or self.codec
            )
        before = timers.bytes_decoded
        events = list(iter_block_range(
            index, part.block_lo, part.block_hi, timers=timers, codec=self.codec
        ))
        decoded = timers.bytes_decoded - before
        budget = self.config.cache_budget_bytes
        with self._lock:
            if not self._want_cache:  # another partition overflowed the budget
                return events
            total = self._cache_bytes + decoded
            if budget is not None and total > budget:
                self._cache.clear()
                self._cache_bytes = 0
                self._want_cache = False
                self.warnings.append(
                    f"cache budget exceeded ({total} > {budget} bytes); falling back to cold reads"
                )
            else:
                self._cache[part.index] = events
                self._cache_bytes = total
        return events


def open_dataset(
    descriptor: DatasetDescriptor,
    config: EngineConfig | None = None,
    *,
    timers: PhaseTimers | None = None,
) -> PartitionedDataset:
    """Enumerate the glob's files (sorted), index their blocks, and build
    the partition plan."""
    config = config or EngineConfig()
    paths = sorted(globmod.glob(descriptor.glob))
    if not paths:
        raise NoFilesMatched(f"dataset {descriptor.label!r}: no files match {descriptor.glob!r}")
    files = []
    for path in paths:
        try:
            files.append(scan_evt(path, timers=timers))
        except OSError as exc:
            raise UnreadableFile(f"{path}: {exc}") from exc
    first = files[0].schema_json
    for f in files[1:]:
        if f.schema_json != first:
            raise SchemaMismatch(
                f"dataset {descriptor.label!r}: {f.path} carries a different schema "
                f"than {files[0].path}"
            )
    return PartitionedDataset(descriptor, files, config)


# -- deterministic traversal ------------------------------------------------------


def _resolve_workers(ds: PartitionedDataset, workers: int | None) -> int:
    if workers is None:
        workers = ds.config.workers
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, workers)


def _run_partitions(ds: PartitionedDataset, task: Callable, workers: int | None):
    """Run `task(partition)` across the pool, yielding results in ascending
    partition order regardless of completion order."""
    n = _resolve_workers(ds, workers)

    def wrapped(part: Partition):
        try:
            return task(part)
        except SkimflowError as exc:
            raise type(exc)(
                f"partition {part.index} ({part.path} blocks "
                f"[{part.block_lo},{part.block_hi})): {exc}"
            ) from exc

    with ThreadPoolExecutor(max_workers=n) as pool:
        yield from pool.map(wrapped, ds.partitions)


# Traversals that fill a cache pause the cyclic collector; concurrent and
# nested ones share it, and the last one out restores the state the first
# one found.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_restore = False


@contextmanager
def _collector_paused():
    """Pause automatic garbage collection for the block, and yield whether
    the collector was enabled when the block was entered."""
    global _gc_depth, _gc_restore
    with _gc_lock:
        enabled = gc.isenabled()
        if _gc_depth == 0:
            _gc_restore = enabled
            gc.disable()
        _gc_depth += 1
    try:
        yield enabled
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_restore:
                gc.enable()


def _traverse(
    ds: PartitionedDataset,
    cut: TypedCut | None,
    projection: TypedProjection | None,
    weight: TypedValue | None,
    workers: int | None,
    timers: PhaseTimers,
) -> list[tuple[list[array], int, float]]:
    """Run the skim kernel of (cut, projection, weight) on every partition
    and return each partition's (one fresh array per projection column,
    the number of selected events, Kahan partial of the weight) in
    partition order, merging its phase timers into `timers`.
    A partition outside the cache is decoded only in the union of the
    leaves the three read; when every partition is cached, no decoder is
    built. Compute is the time to compile the kernel and that decoder,
    plus each partition's wall time, event access included, less the read
    and decode time spent inside it, plus the one full collection that
    ends a traversal which filled the cache.

    A traversal that can admit partitions to the cache runs with
    automatic garbage collection paused. It allocates only acyclic
    objects (decoded events and column arrays), so a collection during it
    could free nothing it made, yet each one would rescan the growing
    cache. If it leaves partitions in the cache and found the collector
    enabled, it runs one `gc.collect()` at its end instead."""
    t0 = time.perf_counter()
    kernel = compile_kernel(cut, projection, weight)
    typecodes = [] if projection is None else [KIND_INFO[k][0] for _, k in projection.columns]
    missing = any(part.index not in ds._cache for part in ds.partitions)
    codec = None
    if missing:
        parts = [e for e in (cut, projection, weight) if e is not None]
        codec = EventCodec(ds.schema, frozenset().union(*(e.leaves for e in parts)))
    timers.compute += time.perf_counter() - t0

    def task(part: Partition):
        t = PhaseTimers()
        t0 = time.perf_counter()
        columns = [array(typecode) for typecode in typecodes]
        partial, n = kernel(ds._partition_events(part, t, codec), columns)
        t.compute += max(time.perf_counter() - t0 - t.read - t.decode, 0.0)
        return (columns, n, partial), t

    fills = missing and ds._want_cache
    results = []
    with _collector_paused() if fills else nullcontext(False) as enabled:
        for result, t in _run_partitions(ds, task, workers):
            timers.merge(t)
            results.append(result)
        if enabled and ds._cache:
            # before the collector resumes, whose first automatic pass
            # would otherwise scan every object the traversal made
            t0 = time.perf_counter()
            gc.collect()
            timers.compute += time.perf_counter() - t0
    return results


def _pairwise_sum(values: list[float]) -> float:
    """Fixed pairwise tree over partials in ascending partition order; the
    addition order depends only on the partition count."""
    if not values:
        return 0.0
    while len(values) > 1:
        nxt = []
        for i in range(0, len(values) - 1, 2):
            nxt.append(values[i] + values[i + 1])
        if len(values) % 2:
            nxt.append(values[-1])
        values = nxt
    return values[0]


def map_reduce(
    ds: PartitionedDataset,
    value: TypedValue,
    *,
    workers: int | None = None,
    timers: PhaseTimers | None = None,
) -> float:
    """Sum a compiled numeric expression (`expr.typecheck_value`) over
    every event: the skim kernel with no cut and no projection, so only
    the value's `leaves` are decoded.

    Each partition is accumulated with compensated (Kahan) summation;
    partials then merge pairwise in partition order, so the result is
    bit-identical for any worker count over a fixed partition plan.
    """
    results = _traverse(ds, None, None, value, workers, timers or PhaseTimers())
    return _pairwise_sum([partial for _, _, partial in results])


def filter_map_write(
    ds: PartitionedDataset,
    cut: TypedCut,
    projection: TypedProjection,
    *,
    sink: NtuWriter,
    weight: TypedValue | None = None,
    finalize: Callable[[float | None], Callable[[list[array]], None]] | None = None,
    workers: int | None = None,
    timers: PhaseTimers | None = None,
) -> tuple[int, float | None]:
    """Select events, project them to columns, and write the sink in
    partition order (input order within each partition), in one
    traversal. Consumes the sink: it is closed on success and aborted
    (partial file removed) on failure.

    Each partition runs one generated loop (`expr.compile_kernel`) over
    its events, cached or decoded, that appends each selected event's
    projected values to one typed array per column. With `weight`, that
    loop also sums the weight of every event, selected or not, as
    `map_reduce` does, so the sum is bit-identical to
    `map_reduce(ds, weight)`. `finalize`, if given, is called once after
    the traversal and before anything is written, with that sum (None
    without `weight`), and returns a function that rewrites one
    partition's column list in place, called on every partition's list;
    an exception either raises aborts the sink. The sink then takes each
    partition's columns (`NtuWriter.append_columns`) in partition order.

    Partitions that do not go into the cache are decoded only in the
    union of the leaves that the cut, the projection and the weight read.

    Returns (rows written, sum of weights or None).
    """
    timers = timers or PhaseTimers()
    count = 0
    try:
        # drain all partitions before writing: a final value may need the
        # sum over every partition, and an exclusive write keeps the write
        # phase free of GIL contention with worker decode/compute
        results = _traverse(ds, cut, projection, weight, workers, timers)
        sumw = None if weight is None else _pairwise_sum([partial for _, _, partial in results])
        if finalize is not None:
            t0 = time.perf_counter()
            finish = finalize(sumw)
            for columns, _, _ in results:
                finish(columns)
            timers.compute += time.perf_counter() - t0
        t0 = time.perf_counter()
        for columns, n, _ in results:
            sink.append_columns(columns, n)
            count += n
            columns.clear()  # free each partition's arrays once written
        sink.close()
        timers.write += time.perf_counter() - t0
    except BaseException:
        sink.abort()
        raise
    return count, sumw
