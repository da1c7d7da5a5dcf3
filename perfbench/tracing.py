"""Per-layer tracing for the benchmark's traced runs.

The program is not changed: wrappers are installed from outside, on the
name where each caller looks the function up. `engine` binds
`iter_block_range`, `scan_evt` and `_run_partitions` in its own namespace,
and `analysis` binds `map_reduce`, `filter_map_write`, `sum_of_weights`,
`read_ntu` and `fill_histogram` in its own, so those are patched there.
Per-event calls (`TypedCut.evaluate`, `TypedProjection.evaluate`) add to
per-thread counters; everything called per operation, per partition or
per block records a span `(name, thread id, start, end, seconds, amount)`.
`seconds` equals `end - start` except for block iteration, whose time is
the sum of its `next()` calls. A span's self time is its seconds minus
those of the child spans that ran inside it on the same thread.

An entry point that is missing (renamed or removed by a later change) is
skipped, and the metrics that depend on it are reported as absent.
End-to-end runs never install any of this.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import threading
import time
from types import SimpleNamespace

perf = time.perf_counter

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "generator.events_per_s": ("events/s", "higher"),
    "evt.scan_s": ("s", "lower"),
    "evt.bytes_read": ("bytes", "lower"),
    "evt.read_self_s": ("s", "lower"),
    "evt.convert_s": ("s", "lower"),
    "codec.decode_s": ("s", "lower"),
    "codec.events_decoded": ("count", "lower"),
    "codec.decode_us_per_event": ("us", "lower"),
    "codec.decode_mb_per_s": ("MB/s", "higher"),
    "expr.cut_calls": ("count", "lower"),
    "expr.cut_ns_per_event": ("ns", "lower"),
    "expr.projection_calls": ("count", "lower"),
    "expr.projection_ns_per_row": ("ns", "lower"),
    "expr.selected_fraction": ("ratio", "higher"),
    "engine.partitions": ("count", "lower"),
    "engine.sum_weights_s": ("s", "lower"),
    "engine.filter_map_write_s": ("s", "lower"),
    "engine.partition_skew": ("ratio", "lower"),
    "engine.parallel_efficiency": ("ratio", "higher"),
    "engine.decode_passes": ("ratio", "lower"),
    "engine.cache_hit_ratio": ("ratio", "higher"),
    "engine.rss_after_pass_one_mb": ("MiB", "lower"),
    "ntu.write_s": ("s", "lower"),
    "ntu.rows_written": ("count", "lower"),
    "ntu.bytes_written": ("bytes", "lower"),
    "ntu.read_s": ("s", "lower"),
    "ntu.bytes_read": ("bytes", "lower"),
    "histogram.fill_s": ("s", "lower"),
    "histogram.rows_filled": ("count", "lower"),
    "histogram.fill_ns_per_row": ("ns", "lower"),
    "analysis.open_dataset_s": ("s", "lower"),
    "analysis.sum_of_weights_s": ("s", "lower"),
    "analysis.run_skim_s": ("s", "lower"),
    "analysis.histograms_s": ("s", "lower"),
    "analysis.plot_bundle_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# the metrics that cannot be measured without each patched entry point,
# named `module:Owner.attribute`
_NEEDS = {
    "skimflow.engine:iter_block_range": (
        "evt.bytes_read", "evt.read_self_s", "engine.partition_skew", "engine.cache_hit_ratio",
    ),
    "skimflow.engine:scan_evt": ("evt.scan_s",),
    "skimflow.engine:_run_partitions": ("engine.parallel_efficiency",),
    "skimflow.storage.codec:EventCodec.decode_block": (
        "codec.decode_s", "codec.events_decoded", "codec.decode_us_per_event",
        "codec.decode_mb_per_s", "engine.decode_passes", "evt.read_self_s",
        "engine.partition_skew",
    ),
    "skimflow.expr:TypedCut.evaluate": (
        "expr.cut_calls", "expr.cut_ns_per_event", "expr.selected_fraction",
    ),
    "skimflow.expr:TypedProjection.evaluate": ("expr.projection_calls", "expr.projection_ns_per_row"),
    "skimflow.analysis:map_reduce": (
        "engine.sum_weights_s", "engine.partitions", "engine.cache_hit_ratio",
        "engine.parallel_efficiency", "engine.rss_after_pass_one_mb",
    ),
    "skimflow.analysis:filter_map_write": (
        "engine.filter_map_write_s", "engine.partitions", "engine.cache_hit_ratio",
        "engine.parallel_efficiency",
    ),
    "skimflow.analysis:sum_of_weights": ("analysis.sum_of_weights_s", "analysis.run_skim_s"),
    "skimflow.storage.ntu:NtuWriter.append_rows": ("ntu.write_s", "ntu.rows_written"),
    "skimflow.storage.ntu:NtuWriter.close": ("ntu.write_s", "ntu.bytes_written"),
    "skimflow.analysis:read_ntu": ("ntu.read_s", "ntu.bytes_read"),
    "skimflow.analysis:fill_histogram": (
        "histogram.fill_s", "histogram.rows_filled", "histogram.fill_ns_per_row",
    ),
}

# spans of the analysis layer: the blocking steps of one operation
_ANALYSIS_SPANS = {
    "open_dataset": "analysis.open_dataset_s",
    "run_skim": "analysis.run_skim_s",
    "sum_of_weights": "analysis.sum_of_weights_s",
    "histograms_for_ntuple": "analysis.histograms_s",
    "build_plot_bundle": "analysis.plot_bundle_s",
}


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc (0 when unreadable)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / (1024 * 1024)


def _self_seconds(span, spans) -> float:
    """A span's seconds minus those of the spans nested in it on its thread."""
    _, tid, start, end, seconds, _ = span
    inner = sum(
        s[4] for s in spans
        if s is not span and s[1] == tid and start <= s[2] and s[3] <= end
    )
    return seconds - inner


class Tracer:
    """Collects spans and per-event counters while installed, one
    operation at a time."""

    def __init__(self, workers: int):
        self.workers = workers
        self.absent: set[str] = set()
        self.ops: list[dict] = []  # one summary per traced operation
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._begin()

    # -- recording ------------------------------------------------------------

    def _begin(self) -> None:
        self.spans: list[tuple] = []
        self._counters: list[list] = []
        self._gen = object()
        self._rss_after_pass_one = 0.0
        self._partitions: dict[int, int] = {}

    def _span(self, name, start, end, seconds=None, amount=0) -> None:
        self.spans.append((
            name, threading.get_ident(), start, end,
            end - start if seconds is None else seconds, amount,
        ))

    def _count(self) -> list:
        """This thread's [cut calls, cut ns, cut passes, projection calls,
        projection ns] for the current operation."""
        local = self._local
        if getattr(local, "gen", None) is not self._gen:
            local.gen = self._gen
            local.counts = [0, 0, 0, 0, 0]
            with self._lock:
                self._counters.append(local.counts)
        return local.counts

    def timed(self, name, fn):
        """`fn` wrapped to record one span per call."""
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._span(name, t0, perf())
        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, target: str, make) -> None:
        """Replace `module:Owner.attr` by `make(original)`, or mark the
        metrics that need it absent when it does not exist."""
        module_name, path = target.split(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.update(_NEEDS[target])
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, api: SimpleNamespace) -> None:
        """Patch the program's entry points and wrap the benchmark's own
        calls in `api`."""
        tracer = self
        for name in _ANALYSIS_SPANS:
            if name != "sum_of_weights":
                self._saved.append((api, name, getattr(api, name)))
                setattr(api, name, self.timed(name, getattr(api, name)))
        self._patch("skimflow.analysis:sum_of_weights", lambda f: self.timed("sum_of_weights", f))
        self._patch("skimflow.engine:scan_evt", lambda f: self.timed("scan_evt", f))

        def iter_blocks(orig):
            def wrapper(index, lo, hi, **kwargs):
                nbytes = sum(12 + b.payload_len for b in index.blocks[lo:hi])
                return tracer._iterate(orig(index, lo, hi, **kwargs), nbytes)
            return wrapper

        self._patch("skimflow.engine:iter_block_range", iter_blocks)

        def decode_block(orig):
            def wrapper(codec, payload, count):
                t0 = perf()
                events = orig(codec, payload, count)
                t1 = perf()
                tracer._span("decode_block", t0, t1, amount=(count, len(payload)))
                return events
            return wrapper

        self._patch("skimflow.storage.codec:EventCodec.decode_block", decode_block)

        def run_partitions(orig):
            def wrapper(ds, task, workers):
                return orig(ds, self.timed("partition_task", task), workers)
            return wrapper

        self._patch("skimflow.engine:_run_partitions", run_partitions)

        def traversal(name):
            def make(orig):
                def wrapper(ds, *args, **kwargs):
                    tracer._partitions[id(ds)] = len(ds.partitions)
                    t0 = perf()
                    try:
                        return orig(ds, *args, **kwargs)
                    finally:
                        tracer._span(name, t0, perf(), amount=len(ds.partitions))
                        if name == "map_reduce":
                            tracer._rss_after_pass_one = max(
                                tracer._rss_after_pass_one, current_rss_mb()
                            )
                return wrapper
            return make

        self._patch("skimflow.analysis:map_reduce", traversal("map_reduce"))
        self._patch("skimflow.analysis:filter_map_write", traversal("filter_map_write"))

        def cut_evaluate(orig):
            def wrapper(cut, event):
                t0 = time.perf_counter_ns()
                passed = orig(cut, event)
                dt = time.perf_counter_ns() - t0
                c = tracer._count()
                c[0] += 1
                c[1] += dt
                if passed:
                    c[2] += 1
                return passed
            return wrapper

        def projection_evaluate(orig):
            def wrapper(projection, event):
                t0 = time.perf_counter_ns()
                row = orig(projection, event)
                dt = time.perf_counter_ns() - t0
                c = tracer._count()
                c[3] += 1
                c[4] += dt
                return row
            return wrapper

        self._patch("skimflow.expr:TypedCut.evaluate", cut_evaluate)
        self._patch("skimflow.expr:TypedProjection.evaluate", projection_evaluate)

        def append_rows(orig):
            def wrapper(writer, rows):
                t0 = perf()
                try:
                    return orig(writer, rows)
                finally:
                    tracer._span("ntu_write", t0, perf(), amount=(len(rows), 0))
            return wrapper

        def close(orig):
            def wrapper(writer):
                t0 = perf()
                stats = orig(writer)
                tracer._span("ntu_write", t0, perf(), amount=(0, stats.file_bytes))
                return stats
            return wrapper

        self._patch("skimflow.storage.ntu:NtuWriter.append_rows", append_rows)
        self._patch("skimflow.storage.ntu:NtuWriter.close", close)

        def read_ntu(orig):
            def wrapper(*args, **kwargs):
                t0 = perf()
                data = orig(*args, **kwargs)
                tracer._span("read_ntu", t0, perf(), amount=data.bytes_read)
                return data
            return wrapper

        def fill_histogram(orig):
            def wrapper(columns, spec, *args, **kwargs):
                t0 = perf()
                hist = orig(columns, spec, *args, **kwargs)
                tracer._span("fill_histogram", t0, perf(), amount=len(columns[spec.variable]))
                return hist
            return wrapper

        self._patch("skimflow.analysis:read_ntu", read_ntu)
        self._patch("skimflow.analysis:fill_histogram", fill_histogram)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _iterate(self, events, nbytes):
        """Time every `next()` of a block iteration (it returns a generator,
        so its call costs nothing); runs on the consuming worker thread."""
        start = perf()
        spent = 0.0
        while True:
            t0 = perf()
            try:
                ev = next(events)
            except StopIteration:
                spent += perf() - t0
                break
            spent += perf() - t0
            yield ev
        self._span("iter_block_range", start, perf(), seconds=spent, amount=nbytes)

    # -- one operation ------------------------------------------------------------

    def end_op(self, wall_s: float, input_events: int) -> dict:
        """Reduce the spans and counters of the operation just finished to
        its summary, and start afresh."""
        spans = self.spans
        by = {}
        for s in spans:
            by.setdefault(s[0], []).append(s)

        def total(name):
            return sum(s[4] for s in by.get(name, ()))

        iters = by.get("iter_block_range", [])
        decodes = by.get("decode_block", [])
        partition_decode = [
            sum(d[4] for d in decodes if d[1] == it[1] and it[2] <= d[2] and d[3] <= it[3])
            for it in iters
        ]
        counts = [sum(c[i] for c in self._counters) for i in range(5)]
        traversals = by.get("map_reduce", []) + by.get("filter_map_write", [])
        op = {
            "wall_s": wall_s,
            "input_events": input_events,
            "scan_s": total("scan_evt"),
            "bytes_read": sum(s[5] for s in iters),
            "read_self_s": sum(_self_seconds(s, decodes) for s in iters),
            "iter_calls": len(iters),
            "decode_s": total("decode_block"),
            "events_decoded": sum(s[5][0] for s in decodes),
            "bytes_decoded": sum(s[5][1] for s in decodes),
            "partition_skew": (
                max(partition_decode) / statistics.median(partition_decode)
                if partition_decode and statistics.median(partition_decode) > 0 else 0.0
            ),
            "cut_calls": counts[0],
            "cut_ns": counts[1],
            "cut_passed": counts[2],
            "projection_calls": counts[3],
            "projection_ns": counts[4],
            "partitions": sum(self._partitions.values()),
            "partition_accesses": sum(s[5] for s in traversals),
            "sum_weights_s": total("map_reduce"),
            "filter_map_write_s": total("filter_map_write"),
            "traversal_s": sum(s[4] for s in traversals),
            "busy_s": total("partition_task"),
            "rss_after_pass_one_mb": self._rss_after_pass_one,
            "ntu_write_s": total("ntu_write"),
            "rows_written": sum(s[5][0] for s in by.get("ntu_write", ())),
            "bytes_written": sum(s[5][1] for s in by.get("ntu_write", ())),
            "ntu_read_s": total("read_ntu"),
            "ntu_bytes_read": sum(s[5] for s in by.get("read_ntu", ())),
            "fill_s": total("fill_histogram"),
            "rows_filled": sum(s[5] for s in by.get("fill_histogram", ())),
        }
        analysis = [s for s in spans if s[0] in _ANALYSIS_SPANS]
        for name, metric in _ANALYSIS_SPANS.items():
            op[metric] = sum(_self_seconds(s, analysis) for s in by.get(name, ()))
        self.ops.append(op)
        self._begin()
        return op


def layer_metrics(tracer: Tracer, setup: dict, untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the traced operations: times and counts per
    operation, ratios over all of them, and the tracing overhead as the
    median traced minus the median untraced operation time."""
    ops = tracer.ops
    n = len(ops)

    def tot(key):
        return sum(op[key] for op in ops)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "generator.events_per_s": setup["generator_events_per_s"],
        "evt.scan_s": tot("scan_s") / n,
        "evt.bytes_read": tot("bytes_read") / n,
        "evt.read_self_s": tot("read_self_s") / n,
        "evt.convert_s": setup["convert_s"],
        "codec.decode_s": tot("decode_s") / n,
        "codec.events_decoded": tot("events_decoded") / n,
        "codec.decode_us_per_event": ratio(tot("decode_s") * 1e6, tot("events_decoded")),
        "codec.decode_mb_per_s": ratio(tot("bytes_decoded") / 1e6, tot("decode_s")),
        "expr.cut_calls": tot("cut_calls") / n,
        "expr.cut_ns_per_event": ratio(tot("cut_ns"), tot("cut_calls")),
        "expr.projection_calls": tot("projection_calls") / n,
        "expr.projection_ns_per_row": ratio(tot("projection_ns"), tot("projection_calls")),
        "expr.selected_fraction": ratio(tot("cut_passed"), tot("cut_calls")),
        "engine.partitions": tot("partitions") / n,
        "engine.sum_weights_s": tot("sum_weights_s") / n,
        "engine.filter_map_write_s": tot("filter_map_write_s") / n,
        "engine.partition_skew": statistics.median(op["partition_skew"] for op in ops),
        "engine.parallel_efficiency": ratio(tot("busy_s"), tot("traversal_s") * tracer.workers),
        "engine.decode_passes": ratio(tot("events_decoded"), tot("input_events")),
        "engine.cache_hit_ratio": 1.0 - ratio(tot("iter_calls"), tot("partition_accesses")),
        "engine.rss_after_pass_one_mb": statistics.median(
            op["rss_after_pass_one_mb"] for op in ops
        ),
        "ntu.write_s": tot("ntu_write_s") / n,
        "ntu.rows_written": tot("rows_written") / n,
        "ntu.bytes_written": tot("bytes_written") / n,
        "ntu.read_s": tot("ntu_read_s") / n,
        "ntu.bytes_read": tot("ntu_bytes_read") / n,
        "histogram.fill_s": tot("fill_s") / n,
        "histogram.rows_filled": tot("rows_filled") / n,
        "histogram.fill_ns_per_row": ratio(tot("fill_s") * 1e9, tot("rows_filled")),
        "trace.overhead_s": (
            statistics.median(op["wall_s"] for op in ops) - statistics.median(untraced_walls)
        ),
    }
    for metric in _ANALYSIS_SPANS.values():
        values[metric] = tot(metric) / n
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in tracer.absent:
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": values[name], "unit": unit}
    return out
