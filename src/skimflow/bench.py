"""Phase-separated benchmark harness.

Each benchmark cell fixes three axes — cached or cold input, deflated or
raw input, and the worker count — and times the full skim of one dataset
(one traversal, for mc as for data), attributing wall time to the four
non-overlapping phases of `PhaseTimers`:

    read_s     raw storage reads
    decode_s   CRC checks, decompression, deserialization to columns
    compute_s  type-checking the expressions, compiling and running the
               skim loop (cut, projection and weight sum) and weight
               normalization
    write_s    opening the ntuple, writing each partition's column arrays
               into its row groups, and freeing them once written

The harness reads the phases from the dataset, which owns them
(`PartitionedDataset.phases`): an uncached repetition opens a dataset,
scan included, and a cached cell resets its one dataset's before each.

`read_compute_s` (read + decode + compute) is also reported so runs can
be compared against harnesses that cannot separate decoding from reading.
Every cell runs one discarded warm-up repetition followed by the measured
repetitions (at least three) and reports per-repetition samples plus the
median per phase; medians resist interference from other load. A cell
skims with `AnalysisConfig.persist` set to whether it is cached: a cached
cell skims one opened dataset, fills its cache in the warm-up pass, and
then measures pure in-memory traversals, which must read zero storage
bytes; an uncached cell opens a fresh dataset and caches nothing. The
cell's worker count replaces the config's. The dataset's warnings, such
as a cache budget overflow, are carried into the report. Timing never
changes results: every cell of the same dataset and analysis produces a
byte-identical ntuple, and its hash is recorded.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import canonical
from .analysis import AnalysisConfig, run_skim
from .engine import dataset_paths, open_dataset
from .errors import IncomparableConfigs, UsageError
from .storage import convert_evt, scan_evt
from .timing import PhaseTimers

_PHASES = ("read", "decode", "compute", "write", "read_compute", "total")


@dataclass(frozen=True)
class BenchCell:
    cached: bool
    compressed: bool
    workers: int = 1

    @property
    def name(self) -> str:
        return (
            f"{'cached' if self.cached else 'uncached'}+"
            f"{'deflate' if self.compressed else 'raw'}+w{self.workers}"
        )


@dataclass
class PhaseSample(PhaseTimers):
    """One repetition: the dataset's phases, the wall time and the rows
    written."""

    total_s: float = 0.0
    rows_out: int = 0

    @property
    def read_compute_s(self) -> float:
        return self.read_s + self.decode_s + self.compute_s


def _median_sample(samples: list[PhaseSample]) -> PhaseSample:
    def med(f):
        value = statistics.median(getattr(s, f.name) for s in samples)
        return value if f.type == "float" else int(value)

    return PhaseSample(**{f.name: med(f) for f in fields(PhaseSample)})


def _sample_dict(sample: PhaseSample) -> dict:
    return {**asdict(sample), "read_compute_s": sample.read_compute_s}


@dataclass(frozen=True)
class TimingReport:
    dataset_label: str
    cell: BenchCell
    repetitions: int
    corpus_files: int
    corpus_events: int
    corpus_bytes: int
    warmup: PhaseSample
    reps: tuple[PhaseSample, ...]
    median: PhaseSample
    output_sha256: str
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset_label,
            "cell": asdict(self.cell),
            "repetitions": self.repetitions,
            "corpus": {
                "files": self.corpus_files,
                "events": self.corpus_events,
                "storage_bytes": self.corpus_bytes,
            },
            "warmup": _sample_dict(self.warmup),
            "reps": [_sample_dict(s) for s in self.reps],
            "median": _sample_dict(self.median),
            "output_sha256": self.output_sha256,
            "warnings": list(self.warnings),
        }


def prepare_input(descriptor, compressed: bool, workdir) -> str:
    """Return a glob for the dataset in the requested compression variant,
    converting files into the workdir only when the source flag differs.
    The copy of the i-th source (in sorted order) is named by i, so the
    glob matches one copy per current source, in their order, whatever
    the sources are named; copies of sources that have left the glob are
    deleted. Each copy carries its source's modification time, and is
    reused only while the two times are equal, so a regenerated source is
    converted again. A glob that matches no file raises `NoFilesMatched`
    before anything is created."""
    paths = dataset_paths(descriptor)
    variant_dir = Path(workdir) / f"{descriptor.label}-{'deflate' if compressed else 'raw'}"
    needs_convert = False
    for path in paths:
        if scan_evt(path).compressed != compressed:
            needs_convert = True
            break
    if not needs_convert:
        return descriptor.glob
    variant_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(len(paths) - 1))
    targets = [variant_dir / f"{i:0{width}d}.evt" for i in range(len(paths))]
    for stale in set(variant_dir.glob("*.evt")) - set(targets):
        stale.unlink()
    for path, target in zip(paths, targets):
        stamp = os.stat(path).st_mtime_ns
        if not (target.exists() and target.stat().st_mtime_ns == stamp):
            convert_evt(path, target, compress=compressed)
            os.utime(target, ns=(stamp, stamp))
    return str(variant_dir / "*.evt")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_benchmark(
    config: AnalysisConfig,
    cell: BenchCell,
    *,
    dataset_label: str | None = None,
    repetitions: int = 3,
    workdir,
) -> TimingReport:
    """Benchmark one cell: warm-up plus `repetitions` measured skims of a
    single dataset (the first configured one by default)."""
    if repetitions < 3:
        raise UsageError("benchmark repetitions must be >= 3")
    descriptor = (
        config.dataset(dataset_label) if dataset_label else config.datasets[0]
    )
    workdir = Path(workdir)
    variant_glob = prepare_input(descriptor, cell.compressed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    descriptor = replace(descriptor, glob=variant_glob)
    out_path = workdir / f"{descriptor.label}-bench.ntu"

    engine = replace(config.engine, workers=cell.workers)
    config = replace(config, persist=cell.cached)
    shared_ds = open_dataset(descriptor, engine) if cell.cached else None

    samples: list[PhaseSample] = []
    warnings: list[str] = []
    output_sha = None
    corpus = None
    for rep in range(repetitions + 1):  # rep 0 is the discarded warm-up
        if shared_ds is not None:
            ds = shared_ds
            ds.phases = PhaseTimers()
            t0 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            ds = open_dataset(descriptor, engine)
        result = run_skim(config, ds, out_path)
        total = time.perf_counter() - t0
        warnings += [w for w in ds.warnings if w not in warnings]
        if corpus is None:
            corpus = (len(ds.files), ds.n_events, ds.n_bytes)
        sample = PhaseSample(**asdict(ds.phases), total_s=total, rows_out=result.n_output)
        sha = _sha256_file(out_path)
        if output_sha is None:
            output_sha = sha
        elif sha != output_sha:
            raise AssertionError("benchmark repetitions produced different outputs")
        samples.append(sample)

    return TimingReport(
        dataset_label=descriptor.label,
        cell=cell,
        repetitions=repetitions,
        corpus_files=corpus[0],
        corpus_events=corpus[1],
        corpus_bytes=corpus[2],
        warmup=samples[0],
        reps=tuple(samples[1:]),
        median=_median_sample(samples[1:]),
        output_sha256=output_sha,
        warnings=tuple(warnings),
    )


def compare_reports(a: TimingReport, b: TimingReport) -> dict:
    """Per-phase ratios a/b of the medians, plus the total-wall ratio.

    A ratio below 1 means `a` was faster. Phases where both medians are
    zero compare as 1.0; a zero denominator with a nonzero numerator gives
    None.
    """
    if (
        a.dataset_label != b.dataset_label
        or a.corpus_events != b.corpus_events
        or a.output_sha256 != b.output_sha256
    ):
        raise IncomparableConfigs(
            "reports describe different datasets or analyses and cannot be compared"
        )

    def ratio(x: float, y: float):
        if y == 0:
            return 1.0 if x == 0 else None
        return x / y

    out = {}
    for phase in _PHASES:
        key = f"{phase}_s"
        out[phase] = ratio(getattr(a.median, key), getattr(b.median, key))
    return {
        "a": a.cell.name,
        "b": b.cell.name,
        "ratios": out,
    }


def reports_to_json(reports: list[TimingReport]) -> str:
    return canonical.dumps([r.to_dict() for r in reports]) + "\n"


def reports_to_csv(reports: list[TimingReport]) -> str:
    """Flat CSV: one row per cell per phase (medians)."""
    rows = [("dataset", "cached", "compressed", "workers", "phase", "seconds")]
    for r in reports:
        for phase in _PHASES:
            rows.append((r.dataset_label, str(r.cell.cached).lower(),
                         str(r.cell.compressed).lower(), r.cell.workers, phase,
                         getattr(r.median, f"{phase}_s")))
    return canonical.csv_text(rows)
