"""Command-line entry point.

Subcommands: gen, convert, inspect, sum-weights, skim, hist, plot-data,
bench. Exit codes: 0 success, 1 usage/config error, 2 data error, 3 I/O
error. Every failure prints one diagnostic line to stderr. A subcommand
creates --out-dir right before its first write into it, so one that fails
before then leaves no directory; hist and plot-data read the skim outputs
from it and create nothing. Rerunning a subcommand with identical inputs
rewrites byte-identical artifacts (bench reports excepted: measured seconds
are not reproducible, though benchmark analysis outputs are).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, canonical
from .analysis import (
    AnalysisConfig,
    build_plot_bundle,
    bundle_to_csv,
    bundle_to_json,
    histograms_for_ntuple,
    load_config,
    run_skim,
    sum_of_weights,
)
from .bench import BenchCell, compare_reports, reports_to_csv, reports_to_json, run_benchmark
from .engine import EngineConfig, open_dataset
from .errors import BadMagic, ConfigError, KindMismatch, SkimflowError, UsageError
from .generator import GeneratorSpec, generate_corpus, generate_evt
from .storage import convert_evt, inspect_evt, inspect_ntu
from .storage.evt import DEFAULT_BLOCK_EVENTS


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as one line and exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _ntu_paths(config: AnalysisConfig, out_dir: Path) -> dict[str, Path]:
    """Each dataset label's skim output: `<label>.ntu`, with every character
    other than a letter, a digit, `_`, `-` or `.` replaced by `_`. Two
    labels that map to one file are a config error, since the second skim
    would overwrite the first."""
    labels: dict[Path, str] = {}
    for d in config.datasets:
        path = out_dir / (re.sub(r"[^-\w.]", "_", d.label) + ".ntu")
        if path in labels:
            raise ConfigError(f"datasets {labels[path]!r} and {d.label!r} both map to {path}")
        labels[path] = d.label
    return {label: path for path, label in labels.items()}


def _engine(config: AnalysisConfig, args) -> EngineConfig:
    """The config's engine settings, with `--workers` when it is given."""
    workers = config.engine.workers if args.workers is None else args.workers
    return replace(config.engine, workers=workers)


def _select_datasets(config: AnalysisConfig, label: str | None):
    if label is None:
        return config.datasets
    return (config.dataset(label),)


# -- subcommands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        seed=args.seed,
        n_events=args.events,
        kind=args.kind,
        met_scale=args.met_scale,
        mean_jets=args.mean_jets,
        weight_dist=args.weight_dist,
        p_plus=args.p_plus,
    )
    if args.files == 1:
        stats = generate_evt(spec, args.out, compress=args.compress, block_target=args.block_events)
        print(
            f"wrote {stats.n_events} events to {stats.path} "
            f"({stats.n_blocks} blocks, {stats.file_bytes} bytes)"
        )
    else:
        paths = generate_corpus(
            spec, args.out, args.files, compress=args.compress, block_target=args.block_events
        )
        print(f"wrote {spec.n_events} events to {args.out} ({len(paths)} files)")
    return 0


def cmd_convert(args) -> int:
    if args.compress is None:
        raise UsageError("convert requires --compress or --no-compress")
    stats = convert_evt(args.input, args.output, compress=args.compress, block_target=args.block_events)
    mode = "deflate" if args.compress else "raw"
    print(f"wrote {stats.n_events} events to {stats.path} ({mode}, {stats.file_bytes} bytes)")
    return 0


def cmd_inspect(args) -> int:
    with open(args.file, "rb") as f:
        magic = f.read(4)
    if magic == b"EVT1":
        info = inspect_evt(args.file)
        for key in ("format", "path", "compression", "file_bytes", "payload_bytes"):
            print(f"{key}: {info[key]}")
        print(f"schema fields: {', '.join(info['schema_fields'])}")
        print(f"{info['events']} events, {info['blocks']} blocks")
    elif magic == b"NTU1":
        info = inspect_ntu(args.file)
        print(f"format: {info['format']}")
        print(f"path: {info['path']}")
        print(f"columns: {', '.join(f'{n}:{k}' for n, k in info['columns'])}")
        print(f"file_bytes: {info['file_bytes']}")
        print(f"{info['rows']} rows, {info['groups']} groups")
    else:
        raise BadMagic(f"{args.file}: not an EVT or NTU file (magic {magic!r})")
    return 0


def cmd_sum_weights(args) -> int:
    config = load_config(args.config)
    engine = _engine(config, args)
    targets = _select_datasets(config, args.dataset)
    if args.dataset is None:
        targets = tuple(d for d in targets if d.kind == "mc")
        if not targets:
            raise KindMismatch("config has no mc datasets; sum of weights is defined for mc only")
    results = {}
    for descriptor in targets:
        value = sum_of_weights(open_dataset(descriptor, engine))
        results[descriptor.label] = value
        print(f"{descriptor.label}: sum_of_weights = {value!r}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sum_of_weights.json"
    path.write_text(canonical.dumps(results) + "\n", encoding="utf-8")
    return 0


def cmd_skim(args) -> int:
    config = load_config(args.config)
    engine = _engine(config, args)
    out_dir = Path(args.out_dir)
    paths = _ntu_paths(config, out_dir)
    # each opened dataset is skimmed once, so caching its events gains nothing
    one_off = replace(config, persist=False)
    for descriptor in _select_datasets(config, args.dataset):
        ds = open_dataset(descriptor, engine)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = run_skim(one_off, ds, paths[descriptor.label])
        print(
            f"{descriptor.label}: {result.n_input} -> {result.n_output} rows "
            f"(reduction factor {result.reduction_factor:.6g}) -> {result.path}"
        )
    return 0


def _fill_all(config: AnalysisConfig, out_dir: Path, label: str | None):
    hists = {}
    paths = _ntu_paths(config, out_dir)
    for descriptor in _select_datasets(config, label):
        path = paths[descriptor.label]
        if not path.exists():
            raise SkimflowError(
                f"{path}: missing skim output for dataset {descriptor.label!r}; run `skim` first"
            )
        hists[descriptor.label] = histograms_for_ntuple(path, config.histograms)
    return hists


def cmd_hist(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir)
    hists = _fill_all(config, out_dir, args.dataset)
    doc = {
        label: {var: h.to_dict() for var, h in by_var.items()}
        for label, by_var in hists.items()
    }
    path = out_dir / "histograms.json"
    path.write_text(canonical.dumps(doc) + "\n", encoding="utf-8")
    total = sum(len(v) for v in hists.values())
    print(f"filled {total} histograms from {len(hists)} datasets -> {path}")
    return 0


def cmd_plot_data(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir)
    hists = _fill_all(config, out_dir, None)
    bundle = build_plot_bundle(config, hists)
    json_path = out_dir / "plot_bundle.json"
    csv_path = out_dir / "plot_bundle.csv"
    json_path.write_text(bundle_to_json(bundle), encoding="utf-8")
    csv_path.write_text(bundle_to_csv(bundle), encoding="utf-8")
    print(f"wrote {json_path} and {csv_path} ({len(bundle['histograms'])} histograms)")
    return 0


_CELL_RE = re.compile(r"^(cached|uncached)\+(deflate|raw)$")


def _parse_cells(text: str, workers: int) -> list[BenchCell]:
    cells = []
    for part in text.split(","):
        m = _CELL_RE.match(part.strip())
        if not m:
            raise UsageError(
                f"bad cell {part!r}; expected e.g. 'uncached+raw' or 'cached+deflate'"
            )
        cells.append(BenchCell(m.group(1) == "cached", m.group(2) == "deflate", workers))
    return cells


def cmd_bench(args) -> int:
    config = load_config(args.config)
    out_dir = Path(args.out_dir)
    workdir = Path(args.workdir) if args.workdir else out_dir / "bench_work"
    workers = _engine(config, args).workers or 1  # bench defaults to one worker
    cells = _parse_cells(args.cells, workers)
    reports = [
        run_benchmark(config, cell, dataset_label=args.dataset, repetitions=args.reps,
                      workdir=workdir)
        for cell in cells
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "bench_report.json"
    csv_path = out_dir / "bench_report.csv"
    json_path.write_text(reports_to_json(reports), encoding="utf-8")
    csv_path.write_text(reports_to_csv(reports), encoding="utf-8")
    for r in reports:
        for warning in r.warnings:
            print(f"warning: {r.dataset_label}: {r.cell.name}: {warning}", file=sys.stderr)
        m = r.median
        # with several workers each phase is a sum over threads and can exceed the wall time
        sep = "=" if r.cell.workers == 1 else f"wall; phases summed over {r.cell.workers} threads:"
        print(
            f"{r.cell.name}: total {m.total_s:.3f}s {sep} read {m.read_s:.3f}s "
            f"+ decode {m.decode_s:.3f}s + compute {m.compute_s:.3f}s "
            f"+ write {m.write_s:.3f}s (bytes_read {m.bytes_read}, rows {m.rows_out}, "
            f"warm-up bytes_cached {r.warmup.bytes_cached})"
        )
    by_cell = {(r.cell.cached, r.cell.compressed): r for r in reports}
    for compressed in (False, True):
        a = by_cell.get((True, compressed))
        b = by_cell.get((False, compressed))
        if a and b:
            cmp = compare_reports(a, b)
            fmt = lambda v: "n/a" if v is None else f"{v:.3f}"  # noqa: E731
            print(
                f"cached vs uncached ({'deflate' if compressed else 'raw'}): "
                f"read+compute ratio {fmt(cmp['ratios']['read_compute'])}, "
                f"total ratio {fmt(cmp['ratios']['total'])}"
            )
    print(f"wrote {json_path} and {csv_path}")
    return 0


# -- wiring ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skimflow", description="Columnar event skim/slim toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic EVT file or corpus")
    p.add_argument("--out", required=True, help="output file (or directory with --files > 1)")
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=["mc", "data"], default="mc")
    p.add_argument("--files", type=int, default=1)
    p.add_argument("--compress", action="store_true")
    p.add_argument("--block-events", type=int, default=DEFAULT_BLOCK_EVENTS)
    p.add_argument("--met-scale", type=float, default=100.0)
    p.add_argument("--mean-jets", type=float, default=4.0)
    p.add_argument("--weight-dist", choices=["constant", "signed"], default="constant")
    p.add_argument("--p-plus", type=float, default=0.9)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("convert", help="rewrite an EVT file, toggling compression")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--compress", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--block-events", type=int, default=DEFAULT_BLOCK_EVENTS)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("inspect", help="summarize an EVT or NTU file (validates all CRCs)")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)

    # --workers where the subcommand reads events; --dataset where it takes one
    for name, func, reads_events, one_dataset in (
        ("sum-weights", cmd_sum_weights, True, True),
        ("skim", cmd_skim, True, True),
        ("hist", cmd_hist, False, True),
        ("plot-data", cmd_plot_data, False, False),
    ):
        p = sub.add_parser(name, help=f"run the {name} step from a config file")
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default="out")
        if reads_events:
            p.add_argument("--workers", type=int, default=None)
        if one_dataset:
            p.add_argument("--dataset", default=None, help="restrict to one dataset label")
        p.set_defaults(func=func)

    p = sub.add_parser("bench", help="run the phase-separated benchmark matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--workdir", default=None)
    p.add_argument(
        "--cells",
        default="uncached+raw,cached+raw,uncached+deflate,cached+deflate",
        help="comma-separated cells: (cached|uncached)+(deflate|raw)",
    )
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            return int(exc.code or 0)
        return args.func(args)
    except SkimflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
