"""The physics-facing skim/slim workflow.

For mc datasets one traversal selects events, projects them to flat
columns and, in the same loop, sums the generator weights of every event
(the normalization denominator), while the ntuple writer takes each
partition as it finishes. Once it ends, the writer rewrites the `weight`
column in place to hold

    weight = genWeight * xsec_pb * luminosity_invpb / sum_of_weights

Data events skip normalization and carry weight 1.0 exactly. A dataset
of either kind can be persisted so that later skims of it read from memory.
The cut, the projection and the generator weight all reach the engine as
compiled expressions, which it writes into one loop per skim; it
decodes only the leaves they read, plus those the cache holds while it
fills a persisted dataset's cache (`engine`).
Histograms are filled from the resulting ntuple columns, and the
plot bundle stacks mc components in configuration order against data.

The analysis configuration is one JSON document:

    {
      "datasets": [{"glob": "...", "kind": "mc", "xsec_pb": 50.0, "label": "sig"},
                   {"glob": "...", "kind": "data", "label": "data"}],
      "luminosity_invpb": 1000.0,
      "selection": "met.pt > 150.0 and size(muons) == 0",
      "projection": [{"name": "met_pt", "expr": "met.pt"}, ...],
      "histograms": [{"variable": "met_pt", "nbins": 40, "lo": 0, "hi": 1000}],
      "workers": 4,                       # optional engine settings
      "cache_budget_bytes": null,
      "partition": {"target_bytes": 4194304}
    }

An empty/omitted projection defaults to every scalar leaf of the schema,
flattened (met.pt -> met_pt). The column name `weight` is reserved.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import canonical
from .engine import (
    DatasetDescriptor,
    EngineConfig,
    PartitionedDataset,
    filter_map_write,
    map_reduce,
)
from .errors import ArityMismatch, ConfigError, KindMismatch, SpecMismatch, ZeroSumOfWeights
from .expr import typecheck_cut, typecheck_projection, typecheck_value
from .histogram import Histogram, HistogramSpec, fill_histogram
from .schema import Schema
from .storage import NtuWriter, read_ntu
from .storage.flatten import flatten_paths

DEFAULT_SELECTION = (
    "met.pt > 150.0 and size(muons) == 0 and size(electrons) == 0 "
    "and count(jets, it.pt > 30.0) >= 1"
)

DEFAULT_PROJECTION = (
    ("met_pt", "met.pt"),
    ("met_phi", "met.phi"),
    ("ht", "sum(jets, it.pt)"),
    ("njets", "count(jets, it.pt > 30.0)"),
    ("jet_pt_max", "max(jets, it.pt)"),
)

DEFAULT_HISTOGRAMS = (
    HistogramSpec("met_pt", 40, 0.0, 1000.0),
    HistogramSpec("ht", 30, 0.0, 1500.0),
    HistogramSpec("njets", 12, 0.0, 12.0),
)

WEIGHT_COLUMN = "weight"
GEN_WEIGHT = "genInfo.weight"  # the generator weight of an mc event


@dataclass(frozen=True)
class AnalysisConfig:
    datasets: tuple[DatasetDescriptor, ...]
    luminosity_invpb: float
    selection: str = DEFAULT_SELECTION
    projection: tuple[tuple[str, str], ...] = DEFAULT_PROJECTION
    histograms: tuple[HistogramSpec, ...] = DEFAULT_HISTOGRAMS
    engine: EngineConfig = EngineConfig()
    persist: bool = True

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ConfigError("datasets: at least one dataset is required")
        labels = [d.label for d in self.datasets]
        if len(set(labels)) != len(labels):
            raise ConfigError("datasets: labels must be unique")
        lumi = self.luminosity_invpb
        if not (type(lumi) in (int, float) and 0 < lumi <= sys.float_info.max):
            raise ConfigError("luminosity_invpb must be finite and > 0")
        names = [name for name, _ in self.projection]
        if WEIGHT_COLUMN in names:
            raise ConfigError(f"projection: column name {WEIGHT_COLUMN!r} is reserved")
        if len(set(names)) != len(names):
            raise ConfigError("projection: column names must be unique")
        if not isinstance(self.persist, bool):
            raise ConfigError("persist must be true or false")

    def dataset(self, label: str) -> DatasetDescriptor:
        for d in self.datasets:
            if d.label == label:
                return d
        raise ConfigError(f"no dataset labelled {label!r}")


def load_config(path) -> AnalysisConfig:
    """Parse and validate an analysis configuration file. All structural
    and expression-syntax problems are reported here, before any event I/O."""
    path = Path(path)
    try:
        raw = canonical.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(raw, where=str(path))


_TOP_KEYS = {
    "datasets", "luminosity_invpb", "selection", "projection", "histograms",
    "workers", "cache_budget_bytes", "partition",
}
_PARTITION_KEYS = {"target_bytes"}


def config_from_dict(raw: Mapping, where: str = "config") -> AnalysisConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")

    def need(key):
        if key not in raw:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return raw[key]

    def text(value, key):
        if not isinstance(value, str):
            raise ConfigError(f"{where}: {key} must be a string, not {value!r}")
        return value

    datasets = []
    entries = need("datasets")
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: datasets must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: datasets[{i}] must be an object")
        extra = set(entry) - {"glob", "kind", "xsec_pb", "label"}
        if extra:
            raise ConfigError(f"{where}: datasets[{i}]: unknown keys {sorted(extra)}")
        try:
            datasets.append(
                DatasetDescriptor(
                    glob=entry["glob"],
                    kind=entry.get("kind", ""),
                    label=entry.get("label", f"dataset{i}"),
                    xsec_pb=entry.get("xsec_pb"),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{where}: datasets[{i}]: missing key {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{where}: datasets[{i}].{exc}") from exc

    def listed(key):
        value = raw.get(key, [])
        if not isinstance(value, list):
            raise ConfigError(f"{where}: {key} must be a list, not {value!r}")
        return value

    # Omitted -> the shipped representative columns; explicitly empty ([]) ->
    # defer to the schema-flatten default at run time.
    projection: tuple[tuple[str, str], ...] = DEFAULT_PROJECTION
    if "projection" in raw:
        cols = []
        for i, col in enumerate(listed("projection")):
            if not isinstance(col, dict) or set(col) != {"name", "expr"}:
                raise ConfigError(f"{where}: projection[{i}] must be {{'name', 'expr'}}")
            cols.append((text(col["name"], f"projection[{i}].name"),
                         text(col["expr"], f"projection[{i}].expr")))
        projection = tuple(cols)

    histograms = []
    for i, h in enumerate(listed("histograms")):
        if not isinstance(h, dict) or set(h) != {"variable", "nbins", "lo", "hi"}:
            raise ConfigError(
                f"{where}: histograms[{i}] must be {{'variable', 'nbins', 'lo', 'hi'}}"
            )
        try:
            histograms.append(HistogramSpec(h["variable"], h["nbins"], h["lo"], h["hi"]))
        except ConfigError as exc:
            raise ConfigError(f"{where}: histograms[{i}].{exc}") from exc

    part = raw.get("partition", {})
    if not isinstance(part, dict):
        raise ConfigError(f"{where}: partition must be an object")
    extra = set(part) - _PARTITION_KEYS
    if extra:
        raise ConfigError(f"{where}: partition: unknown keys {sorted(extra)}")
    engine = EngineConfig(
        workers=raw.get("workers"),
        cache_budget_bytes=raw.get("cache_budget_bytes"),
        partition_target_bytes=part.get("target_bytes", EngineConfig().partition_target_bytes),
    )

    config = AnalysisConfig(
        datasets=tuple(datasets),
        luminosity_invpb=need("luminosity_invpb"),
        selection=text(raw.get("selection", DEFAULT_SELECTION), "selection"),
        projection=projection,
        histograms=tuple(histograms) if histograms else DEFAULT_HISTOGRAMS,
        engine=engine,
    )
    _validate_expression_syntax(config, where)
    return config


def _validate_expression_syntax(config: AnalysisConfig, where: str) -> None:
    from .expr import parse_expr

    try:
        parse_expr(config.selection)
    except Exception as exc:
        raise ConfigError(f"{where}: selection: {exc}") from exc
    for name, text in config.projection:
        try:
            parse_expr(text)
        except Exception as exc:
            raise ConfigError(f"{where}: projection {name!r}: {exc}") from exc


# -- weights -----------------------------------------------------------------------


def sum_of_weights(ds: PartitionedDataset) -> float:
    """Sum of generator weights over a full mc dataset, in a traversal of
    its own that decodes only `genInfo.weight`, and the cache's leaves
    while it fills a persisted dataset's cache; `run_skim` gets the same
    sum from its one traversal."""
    if ds.descriptor.kind != "mc":
        raise KindMismatch(
            f"dataset {ds.descriptor.label!r} is kind {ds.descriptor.kind!r}; "
            "sum of weights is defined for mc only"
        )
    return map_reduce(ds, typecheck_value(GEN_WEIGHT, ds.schema))


# -- skim ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkimResult:
    label: str
    path: Path
    n_input: int
    n_output: int
    sum_weights: float | None  # None for data
    columns: tuple[tuple[str, str], ...]

    @property
    def reduction_factor(self) -> float:
        return self.n_output / self.n_input if self.n_input else 0.0


def resolve_projection(config: AnalysisConfig, schema: Schema) -> tuple[tuple[str, str], ...]:
    if config.projection:
        return config.projection
    return tuple(flatten_paths(schema))


def run_skim(config: AnalysisConfig, ds: PartitionedDataset, out_path) -> SkimResult:
    """Run the full skim/slim for one dataset and write its ntuple.

    Both kinds make one traversal, which appends each partition to the
    writer as it finishes. mc sums the generator weights of every event in
    the same loop as the selection, and then the writer rewrites the raw
    weight column, on disk and in its buffer, to the normalised one; data
    rows carry unit weights. The weight is the compiled `genInfo.weight`,
    so the engine learns every leaf the skim reads from the cut, the
    projection and the weight. An error aborts the writer, leaving any
    earlier output as it was. `config.persist` chooses whether the
    dataset, of either kind, keeps its decoded columns in memory for later
    traversals. Type-checking and normalising add to the dataset's compute
    phase, and opening and closing the writer to its write phase.
    """
    t0 = time.perf_counter()
    descriptor = ds.descriptor
    schema = ds.schema
    cut = typecheck_cut(config.selection, schema)
    user_columns = resolve_projection(config, schema)
    if any(name == WEIGHT_COLUMN for name, _ in user_columns):
        raise ConfigError(f"projection: column name {WEIGHT_COLUMN!r} is reserved")

    if config.persist:
        ds.persist()
    if descriptor.kind == "mc":
        projection = typecheck_projection(
            list(user_columns) + [(WEIGHT_COLUMN, GEN_WEIGHT)], schema
        )
        weight = typecheck_value(GEN_WEIGHT, schema)
    else:
        projection = typecheck_projection(
            list(user_columns) + [(WEIGHT_COLUMN, "1.0")], schema
        )
        weight = None

    t1 = time.perf_counter()
    with NtuWriter(out_path, projection.columns) as sink:
        ds.phases.compute_s += t1 - t0
        ds.phases.write_s += time.perf_counter() - t1
        n_out, sumw = filter_map_write(ds, cut, projection, sink=sink, weight=weight)
        t0 = time.perf_counter()
        if weight is not None:
            if ds.n_events and sumw == 0.0:
                raise ZeroSumOfWeights(
                    f"dataset {descriptor.label!r}: generator weights sum to zero"
                )
            xsec, lumi = descriptor.xsec_pb, config.luminosity_invpb

            def normalize(gen: array) -> array:
                # strictly left to right, ((w * xsec) * lumi) / sumw, per value
                try:
                    return array(gen.typecode, [w * xsec * lumi / sumw for w in gen])
                except (TypeError, OverflowError) as exc:
                    raise ArityMismatch(f"weight value does not match column kind: {exc}") from exc

            sink.rewrite_column(len(projection.columns) - 1, normalize)
        t1 = time.perf_counter()
        sink.close()
        ds.phases.compute_s += t1 - t0
        ds.phases.write_s += time.perf_counter() - t1
    return SkimResult(
        label=descriptor.label,
        path=Path(out_path),
        n_input=ds.n_events,
        n_output=n_out,
        sum_weights=sumw,
        columns=projection.columns,
    )


# -- aggregation -------------------------------------------------------------------


def histograms_for_ntuple(ntu_path, specs) -> dict[str, Histogram]:
    """Fill every spec from one skimmed ntuple."""
    needed = sorted({spec.variable for spec in specs} | {WEIGHT_COLUMN})
    data = read_ntu(ntu_path, needed)
    return {spec.variable: fill_histogram(data.columns, spec) for spec in specs}


def build_plot_bundle(
    config: AnalysisConfig,
    hists_by_label: Mapping[str, Mapping[str, Histogram]],
) -> dict:
    """Assemble stacked mc components plus data points per histogram.

    mc components keep configuration order; multiple data datasets merge
    into a single series. The result is a plain dict that serializes to
    canonical JSON deterministically.
    """
    out_hists = []
    for spec in config.histograms:
        pairs = {"mc": [], "data": []}  # kind -> [(label, histogram)], config order
        for d in config.datasets:
            hist = hists_by_label.get(d.label, {}).get(spec.variable)
            if hist is None:
                continue
            if hist.spec != spec:
                raise SpecMismatch(
                    f"{d.label}/{spec.variable}: histogram spec differs from config"
                )
            pairs[d.kind].append((d.label, hist))
        components = [
            {
                "label": label,
                "contents": list(hist.contents),
                "sumw2": list(hist.sumw2),
                "errors": [math.sqrt(s) for s in hist.sumw2],
                "underflow": hist.underflow,
                "overflow": hist.overflow,
            }
            for label, hist in pairs["mc"]
        ]
        stack = _merged(spec, pairs["mc"])
        data_hist = _merged(spec, pairs["data"])
        entry = {
            "variable": spec.variable,
            "nbins": spec.nbins,
            "lo": spec.lo,
            "hi": spec.hi,
            "mc": components,
            "stack": None,
            "data": None,
        }
        if stack is not None:
            entry["stack"] = {
                "contents": list(stack.contents),
                "errors": [math.sqrt(s) for s in stack.sumw2],
            }
        if data_hist is not None:
            entry["data"] = {
                "contents": list(data_hist.contents),
                "errors": [math.sqrt(s) for s in data_hist.sumw2],
                "underflow": data_hist.underflow,
                "overflow": data_hist.overflow,
            }
        out_hists.append(entry)
    return {
        "luminosity_invpb": config.luminosity_invpb,
        "histograms": out_hists,
    }


def _merged(spec: HistogramSpec, pairs) -> Histogram | None:
    """The sum of the pairs' histograms, bin by bin from 0.0 in the pairs'
    order, or None without any."""
    if not pairs:
        return None
    total = Histogram(spec)
    for _, hist in pairs:
        total.merge(hist)
    return total


def bundle_to_json(bundle: dict) -> str:
    return canonical.dumps(bundle) + "\n"


def bundle_to_csv(bundle: dict) -> str:
    """One row per visible bin per component (mc components, the stack, and
    data)."""
    rows = [("variable", "component", "kind", "bin", "lo_edge", "hi_edge", "content", "error")]
    for hist in bundle["histograms"]:
        nbins = hist["nbins"]
        edges = HistogramSpec(hist["variable"], nbins, hist["lo"], hist["hi"]).edges()
        series = [(c["label"], "mc", c["contents"], c["errors"]) for c in hist["mc"]]
        if hist["stack"] is not None:
            series.append(("stack", "stack", hist["stack"]["contents"], hist["stack"]["errors"]))
        if hist["data"] is not None:
            series.append(("data", "data", hist["data"]["contents"], hist["data"]["errors"]))
        for label, kind, contents, errors in series:
            rows += [(hist["variable"], label, kind, i, edges[i], edges[i + 1],
                      contents[i], errors[i]) for i in range(nbins)]
    return canonical.csv_text(rows)
