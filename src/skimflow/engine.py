"""Partitioned datasets and deterministic parallel traversal.

A dataset is a sorted glob of EVT files sliced into partitions, each a
contiguous block range of one file: each file splits into
ceil(stored bytes / `partition_target_bytes`) runs of whole blocks, cut
near equal shares of its events (`plan_partitions`). Partitions are the
unit of parallelism: a thread pool processes them independently and the
coordinator combines the per-partition results in ascending partition
order, so every result is a pure function of the partition plan,
whatever the worker count or scheduling order.

`filter_map_write` is the only traversal a skim makes. Each partition
runs one loop generated from the skim's compiled cut, projection and
weight (`expr.compile_kernel`) over the partition's column sets, cached
and decoded alike, which appends the selected events' projected values
to one typed `array` per column; no row is built. Given a weight, as for
an mc dataset, that loop sums the weights as it selects, so every event
is read and decoded once. Each partition's columns go to the caller's
writer as soon as the partition and every one before it are done; a
value that needs the whole dataset's sum, such as an mc event's
normalised weight, is rewritten in the writer afterwards
(`NtuWriter.rewrite_column`). `map_reduce` is the same loop with no cut
and no projection.

Partitions are decoded by a column codec (`storage.codec`) to one
`ColumnSet` per block: typed leaf arrays plus collection offsets. A
traversal reads the leaves L that its compiled expressions record, and
builds at most one decoder. An explicit in-memory cache ("persist")
holds column sets of one leaf set, `_leaves` (empty at first and after
`drop_cache()`). With W = `_leaves` | L (as `storage.codec.leaf_set`
writes it), a cached partition serves a traversal only if W == `_leaves`,
so a traversal whose every partition is cached reads zero storage bytes.
A traversal that reads outside `_leaves` while the dataset admits
partitions widens the cache: it empties it, sets `_leaves` to W and
decodes and admits every partition at W, as a first fill does. Other
partitions that miss decode at W while the dataset admits and at L when
it does not. Workers only read the cache; the thread that runs the
traversal admits each partition as its result arrives, in partition
order, so the cached set is the same for any worker count. The budget
counts the arrays' bytes (itemsize x length). A partition that would
take the cache past it is not admitted: the partitions cached before it
stay, a warning is recorded, and the dataset admits nothing more until
`drop_cache()`. `bytes_decoded` counts every payload byte walked, and
`bytes_cached` the column bytes admitted.

A dataset owns its settings and its accounting: its `EngineConfig` fixes
the worker count of every traversal, and its `phases` (`timing`) add up
the scan and every traversal.
"""

from __future__ import annotations

import glob as globmod
import os
import sys
import time
from array import array
from bisect import bisect_left
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ConfigError,
    NoFilesMatched,
    SchemaMismatch,
    SkimflowError,
    UnreadableFile,
)
from .expr import TypedCut, TypedProjection, TypedValue, compile_kernel
from .schema import Schema
from .storage import ColumnSet, EventCodec, EvtIndex, iter_block_range, scan_evt
from .storage.codec import leaf_set
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
        # each message starts with the field it names, so that a config
        # loader can prefix where the field came from
        for name in ("glob", "kind", "label"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, not {value!r}")
        if self.kind not in ("data", "mc"):
            raise ConfigError(f"kind must be 'data' or 'mc', not {self.kind!r}")
        xsec = self.xsec_pb
        if self.kind == "mc":
            # compared exactly, so an int too large for a float is rejected here
            if not (type(xsec) in (int, float) and 0 < xsec <= sys.float_info.max):
                raise ConfigError(f"xsec_pb must be finite and xsec_pb > 0 for mc, not {xsec!r}")
        elif xsec is not None:
            raise ConfigError(f"xsec_pb must be omitted for data, not {xsec!r}")


@dataclass(frozen=True)
class EngineConfig:
    workers: int | None = None  # None -> hardware parallelism
    cache_budget_bytes: int | None = None  # None -> unlimited
    partition_target_bytes: int = DEFAULT_PARTITION_TARGET_BYTES

    def __post_init__(self) -> None:
        # a JSON integer parses as exactly int; a bool is not one
        if self.workers is not None and not (type(self.workers) is int and self.workers >= 1):
            raise ConfigError("workers must be an integer >= 1")
        target = self.partition_target_bytes
        if not (type(target) is int and target >= 1):
            raise ConfigError("partition.target_bytes must be an integer >= 1")
        budget = self.cache_budget_bytes
        if budget is not None and not (type(budget) is int and budget >= 0):
            raise ConfigError("cache_budget_bytes must be an integer >= 0")


@dataclass(frozen=True)
class Partition:
    index: int
    path: str
    file_index: int
    block_lo: int
    block_hi: int
    n_events: int


def plan_partitions(files: Sequence[EvtIndex], config: EngineConfig) -> list[Partition]:
    """Slice each file into runs of whole blocks, one partition per run,
    numbered across files in order.

    A file of S stored bytes (12 + payload length per block) splits into
    k = ceil(S / `partition_target_bytes`) runs, at most one per block; a
    file with no blocks gives none. The j-th of the k - 1 cuts goes at the
    block boundary nearest j/k of the file's events (the lower one on a
    tie), moved only as far as it takes to leave every run a block. So runs
    hold near-equal event counts whatever the blocks' compression, every
    block of every file is in exactly one partition, and planning cannot
    fail.
    """
    partitions: list[Partition] = []
    for file_index, evt_index in enumerate(files):
        for lo, hi in _ranges(evt_index, config.partition_target_bytes):
            partitions.append(
                Partition(
                    index=len(partitions),
                    path=str(evt_index.path),
                    file_index=file_index,
                    block_lo=lo,
                    block_hi=hi,
                    n_events=sum(b.n_events for b in evt_index.blocks[lo:hi]),
                )
            )
    return partitions


def _ranges(evt_index: EvtIndex, target_bytes: int) -> list[tuple[int, int]]:
    n = len(evt_index.blocks)
    k = min(-(-sum(12 + b.payload_len for b in evt_index.blocks) // target_bytes), n)
    if not k:
        return []
    before = [0, *accumulate(b.n_events for b in evt_index.blocks)]  # events before boundary b
    cuts = [0]
    for j in range(1, k):
        share = j * before[-1]  # j/k of the events, times k
        b = bisect_left(before, share, 1, key=lambda e: e * k)
        nearest = b - 1 if share - before[b - 1] * k <= before[b] * k - share else b
        cuts.append(min(max(nearest, cuts[-1] + 1), n - k + j))
    return list(pairwise([*cuts, n]))


class PartitionedDataset:
    """An opened dataset: file indexes, the partition plan, and cache state."""

    def __init__(self, descriptor: DatasetDescriptor, files: list[EvtIndex],
                 config: EngineConfig, phases: PhaseTimers):
        self.descriptor = descriptor
        self.files = files
        self.config = config
        self.schema: Schema = files[0].schema
        self.partitions = plan_partitions(files, config)
        self.phases = phases  # the scan's and every traversal's accounting, added up
        self.warnings: list[str] = []
        self._want_cache = False
        self._overflowed = False
        self._cache: dict[int, list[ColumnSet]] = {}
        self._cache_bytes = 0
        self._leaves: frozenset[tuple[str, ...]] = frozenset()  # of the cached column sets

    # -- inventory ---------------------------------------------------------

    @property
    def n_events(self) -> int:
        return sum(f.n_events for f in self.files)

    @property
    def n_bytes(self) -> int:
        return sum(f.file_bytes for f in self.files)

    @property
    def cache_state(self) -> str:
        """"cached" when the cache holds every partition at `_leaves`;
        "warming" while the dataset admits partitions; "cold" when it admits
        none (after an overflow, what fit still serves reads within `_leaves`)."""
        if len(self._cache) == len(self.partitions) and self.partitions and self._want_cache:
            return "cached"
        return "warming" if self._want_cache else "cold"

    def persist(self) -> "PartitionedDataset":
        """Retain decoded columns in memory from the next full traversal on;
        no-op if already persisted, or if the cache has overflowed its
        budget since the last `drop_cache()`."""
        if not self._overflowed:
            self._want_cache = True
        return self

    def drop_cache(self) -> None:
        """Empty the cache and its leaf set, and stop persisting; a budget
        overflow is forgotten, so `persist()` takes effect again."""
        self._cache, self._cache_bytes, self._leaves = {}, 0, frozenset()
        self._want_cache = False
        self._overflowed = False

    # -- per-partition column access ---------------------------------------

    def _partition_columns(
        self, part: Partition, timers: PhaseTimers, codec: EventCodec | None
    ) -> Iterable[ColumnSet]:
        """The partition's column sets: the cached ones when `codec` is
        None, else decoded by `codec`, as a list when the dataset admits
        partitions. Changes nothing."""
        if codec is None:
            timers.cache_hits += 1
            return self._cache[part.index]
        blocks = iter_block_range(self.files[part.file_index], part.block_lo, part.block_hi,
                                  timers=timers, codec=codec)
        return list(blocks) if self._want_cache else blocks

    def _admit(self, part: Partition, blocks: Iterable[ColumnSet]) -> int:
        """Cache a partition's column sets, decoded at `_leaves`, if the
        dataset admits partitions and they fit the budget, and return the
        bytes cached. Past the budget, keep what is cached, warn, and admit
        nothing more. A cached partition is not admitted again."""
        if not self._want_cache or part.index in self._cache:
            return 0
        size = sum(cs.nbytes for cs in blocks)
        total = self._cache_bytes + size
        budget = self.config.cache_budget_bytes
        if budget is not None and total > budget:
            self._want_cache = False
            self._overflowed = True
            self.warnings.append(
                f"cache budget exceeded ({total} > {budget} bytes); falling back to cold reads"
            )
            return 0
        self._cache[part.index] = blocks
        self._cache_bytes = total
        return size


def dataset_paths(descriptor: DatasetDescriptor) -> list[str]:
    """The files the dataset's glob matches, sorted; `NoFilesMatched` when
    there are none."""
    paths = sorted(globmod.glob(descriptor.glob))
    if not paths:
        raise NoFilesMatched(f"dataset {descriptor.label!r}: no files match {descriptor.glob!r}")
    return paths


def open_dataset(
    descriptor: DatasetDescriptor, config: EngineConfig | None = None
) -> PartitionedDataset:
    """Enumerate the glob's files (sorted), index their blocks, and build
    the partition plan; the dataset's `phases` start with the scan."""
    config = config or EngineConfig()
    phases = PhaseTimers()
    files = []
    for path in dataset_paths(descriptor):
        try:
            files.append(scan_evt(path, phases))
        except OSError as exc:
            raise UnreadableFile(f"{path}: {exc}") from exc
    first = files[0].schema_json
    for f in files[1:]:
        if f.schema_json != first:
            raise SchemaMismatch(
                f"dataset {descriptor.label!r}: {f.path} carries a different schema "
                f"than {files[0].path}"
            )
    return PartitionedDataset(descriptor, files, config, phases)


# -- deterministic traversal ------------------------------------------------------


def _run_partitions(ds: PartitionedDataset, task: Callable, workers: int | None):
    """Run `task(partition)` for every partition, yielding results in
    ascending partition order regardless of completion order. At one
    worker each task runs on the calling thread when its result is asked
    for. Otherwise at most `workers` partitions are in flight on a pool:
    the next is submitted only once the oldest one's result has been
    consumed. Either way `_traverse` admits partition k before partition
    k + workers starts. None means one per hardware thread."""
    n = workers or os.cpu_count() or 1

    def wrapped(part: Partition):
        try:
            return task(part)
        except SkimflowError as exc:
            raise type(exc)(
                f"partition {part.index} ({part.path} blocks "
                f"[{part.block_lo},{part.block_hi})): {exc}"
            ) from exc

    if n == 1:
        for part in ds.partitions:
            yield wrapped(part)
        return
    with ThreadPoolExecutor(max_workers=n) as pool:
        pending = deque()
        for part in ds.partitions:
            if len(pending) == n:
                yield pending.popleft().result()
            pending.append(pool.submit(wrapped, part))
        while pending:
            yield pending.popleft().result()


def _traverse(
    ds: PartitionedDataset,
    cut: TypedCut | None,
    projection: TypedProjection | None,
    weight: TypedValue | None,
) -> Iterator[tuple[list[array], int, float]]:
    """Run the skim kernel of (cut, projection, weight) on every partition,
    on `ds.config.workers` workers, and yield each partition's (one fresh
    array per projection column, the number of selected events, Kahan
    partial of the weight) in partition order, once its column sets are
    admitted to the cache (`ds._admit`) and its phase timers merged into
    `ds.phases`.
    The three read the leaves L; the cache is widened to W first, and the
    partitions it does not serve are decoded by one decoder, at W or L
    (module docstring). When the cache serves every partition, no decoder
    is built. Compute is the time to compile the kernel and that decoder,
    plus each partition's wall time, column access included, less the
    read and decode time spent inside it."""
    t0 = time.perf_counter()
    kernel = compile_kernel(cut, projection, weight)
    typecodes = [] if projection is None else [KIND_INFO[k][0] for _, k in projection.columns]
    leaves = leaf_set(p for e in (cut, projection, weight) if e is not None for p in e.leaves)
    wide = leaf_set(ds._leaves | leaves)
    if ds._want_cache and wide != ds._leaves:  # widen: re-decode everything, merge nothing
        ds._cache, ds._cache_bytes, ds._leaves = {}, 0, wide
    codec = None
    cached = ds._cache if wide == ds._leaves else {}
    if any(part.index not in cached for part in ds.partitions):
        codec = EventCodec(ds.schema, wide if ds._want_cache else leaves)
    ds.phases.compute_s += time.perf_counter() - t0

    def task(part: Partition):
        t = PhaseTimers()
        t0 = time.perf_counter()
        columns = [array(typecode) for typecode in typecodes]
        blocks = ds._partition_columns(part, t, None if part.index in cached else codec)
        partial, n = kernel(blocks, columns)
        t.compute_s += max(time.perf_counter() - t0 - t.read_s - t.decode_s, 0.0)
        return part, (columns, n, partial), blocks, t

    for part, result, blocks, t in _run_partitions(ds, task, ds.config.workers):
        ds.phases.merge(t)
        ds.phases.bytes_cached += ds._admit(part, blocks)
        del blocks  # not held while the next partition decodes
        yield result


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


def map_reduce(ds: PartitionedDataset, value: TypedValue) -> float:
    """Sum a compiled numeric expression (`expr.typecheck_value`) over
    every event: the skim kernel with no cut and no projection, so only
    the value's `leaves` are decoded.

    Each partition is accumulated with compensated (Kahan) summation;
    partials then merge pairwise in partition order, so the result is
    bit-identical for any worker count over a fixed partition plan.
    """
    return _pairwise_sum([partial for _, _, partial in _traverse(ds, None, None, value)])


def filter_map_write(
    ds: PartitionedDataset,
    cut: TypedCut,
    projection: TypedProjection,
    *,
    sink: NtuWriter,
    weight: TypedValue | None = None,
) -> tuple[int, float | None]:
    """Select events, project them to columns, and append them to the
    caller's sink in partition order (input order within each partition),
    in one traversal. Each partition is appended
    (`NtuWriter.append_columns`) as soon as it and every partition before
    it are done, and the append counts as write time. The sink stays the
    caller's: it is neither closed nor aborted here.

    Each partition runs one generated loop (`expr.compile_kernel`) over
    its column sets, cached or decoded, that appends each selected event's
    projected values to one typed array per column. With `weight`, that
    loop also sums the weight of every event, selected or not, as
    `map_reduce` does, so the sum is bit-identical to
    `map_reduce(ds, weight)`.

    Partitions are decoded only in the leaves that the cut, the
    projection and the weight read, or the cache's when it admits them.

    Returns (rows appended, sum of weights or None).
    """
    count = 0
    partials = []
    for columns, n, partial in _traverse(ds, cut, projection, weight):
        t0 = time.perf_counter()
        sink.append_columns(columns, n)
        ds.phases.write_s += time.perf_counter() - t0
        count += n
        partials.append(partial)
    return count, None if weight is None else _pairwise_sum(partials)
