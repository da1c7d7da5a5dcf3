"""The physics-facing skim/slim workflow.

For mc datasets one traversal selects events, projects them to flat
columns and, in the same loop, sums the generator weights of every event
(the normalization denominator). Once it ends, the `weight` column is
rewritten to hold

    weight = genWeight * xsec_pb * luminosity_invpb / sum_of_weights

Data events skip normalization and carry weight 1.0 exactly. An mc
dataset can be persisted so that later skims of it read from memory.
The cut, the projection and the generator weight all reach the engine as
compiled expressions, which it writes into one loop per skim, and every
partition that does not go into the cache (all of a data dataset's, all
of an mc dataset's without persist, and those after a cache-budget
overflow) decodes only the leaves they read.
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
      "partition": {"mode": "auto", "target_bytes": 4194304},
      "persist": true,
      "ntu_group_rows": 65536
    }

An empty/omitted projection defaults to every scalar leaf of the schema,
flattened (met.pt -> met_pt). The column name `weight` is reserved.
"""

from __future__ import annotations

import json
import math
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
from .storage.ntu import DEFAULT_GROUP_ROWS
from .timing import PhaseTimers

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
    ntu_group_rows: int = DEFAULT_GROUP_ROWS

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ConfigError("datasets: at least one dataset is required")
        labels = [d.label for d in self.datasets]
        if len(set(labels)) != len(labels):
            raise ConfigError("datasets: labels must be unique")
        if not (isinstance(self.luminosity_invpb, (int, float)) and self.luminosity_invpb > 0):
            raise ConfigError("luminosity_invpb must be > 0")
        names = [name for name, _ in self.projection]
        if WEIGHT_COLUMN in names:
            raise ConfigError(f"projection: column name {WEIGHT_COLUMN!r} is reserved")
        if len(set(names)) != len(names):
            raise ConfigError("projection: column names must be unique")
        if self.ntu_group_rows < 1:
            raise ConfigError("ntu_group_rows must be >= 1")

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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(raw, where=str(path))


_TOP_KEYS = {
    "datasets", "luminosity_invpb", "selection", "projection", "histograms",
    "workers", "cache_budget_bytes", "partition", "persist", "ntu_group_rows",
}


def config_from_dict(raw: Mapping, where: str = "config") -> AnalysisConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")

    def need(key):
        if key not in raw:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return raw[key]

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
                    glob=str(entry["glob"]),
                    kind=str(entry.get("kind", "")),
                    label=str(entry.get("label", f"dataset{i}")),
                    xsec_pb=entry.get("xsec_pb"),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"{where}: datasets[{i}]: missing key {exc}") from exc

    # Omitted -> the shipped representative columns; explicitly empty ([]) ->
    # defer to the schema-flatten default at run time.
    projection: tuple[tuple[str, str], ...]
    if "projection" not in raw:
        projection = DEFAULT_PROJECTION
    elif raw["projection"]:
        cols = []
        for i, col in enumerate(raw["projection"]):
            if not isinstance(col, dict) or set(col) != {"name", "expr"}:
                raise ConfigError(f"{where}: projection[{i}] must be {{'name', 'expr'}}")
            cols.append((str(col["name"]), str(col["expr"])))
        projection = tuple(cols)
    else:
        projection = ()

    histograms = []
    for i, h in enumerate(raw.get("histograms", ())):
        if not isinstance(h, dict) or set(h) != {"variable", "nbins", "lo", "hi"}:
            raise ConfigError(
                f"{where}: histograms[{i}] must be {{'variable', 'nbins', 'lo', 'hi'}}"
            )
        try:
            histograms.append(
                HistogramSpec(str(h["variable"]), int(h["nbins"]), float(h["lo"]), float(h["hi"]))
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: histograms[{i}]: {exc}") from exc

    part = raw.get("partition", {})
    if not isinstance(part, dict):
        raise ConfigError(f"{where}: partition must be an object")
    extra = set(part) - {"mode", "target_bytes", "custom"}
    if extra:
        raise ConfigError(f"{where}: partition: unknown keys {sorted(extra)}")
    engine = EngineConfig(
        workers=raw.get("workers"),
        cache_budget_bytes=raw.get("cache_budget_bytes"),
        partition_mode=part.get("mode", "auto"),
        partition_target_bytes=part.get("target_bytes", EngineConfig().partition_target_bytes),
        partition_custom=part.get("custom"),
    )

    config = AnalysisConfig(
        datasets=tuple(datasets),
        luminosity_invpb=need("luminosity_invpb"),
        selection=str(raw.get("selection", DEFAULT_SELECTION)),
        projection=projection,
        histograms=tuple(histograms) if histograms else DEFAULT_HISTOGRAMS,
        engine=engine,
        persist=bool(raw.get("persist", True)),
        ntu_group_rows=int(raw.get("ntu_group_rows", DEFAULT_GROUP_ROWS)),
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


def sum_of_weights(
    ds: PartitionedDataset,
    *,
    workers: int | None = None,
    timers: PhaseTimers | None = None,
) -> float:
    """Sum of generator weights over a full mc dataset, in a traversal of
    its own that decodes only `genInfo.weight` (unless the traversal fills
    the dataset's cache); `run_skim` gets the same sum from its one
    traversal."""
    if ds.descriptor.kind != "mc":
        raise KindMismatch(
            f"dataset {ds.descriptor.label!r} is kind {ds.descriptor.kind!r}; "
            "sum of weights is defined for mc only"
        )
    return map_reduce(ds, typecheck_value(GEN_WEIGHT, ds.schema), workers=workers, timers=timers)


def normalize_weight(
    gen_weight: float,
    xsec_pb: float,
    luminosity_invpb: float,
    sum_of_weights: float,
) -> float:
    """Scale a generator weight to the expected contribution at the given
    luminosity. Evaluated strictly left to right: ((w * xsec) * lumi) / sumw."""
    if sum_of_weights == 0.0:
        raise ZeroSumOfWeights("sum of weights is zero; cannot normalize")
    return gen_weight * xsec_pb * luminosity_invpb / sum_of_weights


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


def run_skim(
    config: AnalysisConfig,
    ds: PartitionedDataset,
    out_path,
    *,
    workers: int | None = None,
    timers: PhaseTimers | None = None,
    persist: bool | None = None,
) -> SkimResult:
    """Run the full skim/slim for one dataset and write its ntuple.

    Both kinds make one traversal. mc sums the generator weights of every
    event in the same loop as the selection and, once it ends, normalizes
    each partition's weight column in one pass; data rows carry unit
    weights. The weight is the compiled `genInfo.weight`, so the engine
    learns every leaf the skim reads from the cut, the projection and the
    weight. `persist` overrides the config's choice of keeping an mc
    dataset's decoded events in memory for later traversals.
    """
    descriptor = ds.descriptor
    schema = ds.schema
    cut = typecheck_cut(config.selection, schema)
    user_columns = resolve_projection(config, schema)
    if any(name == WEIGHT_COLUMN for name, _ in user_columns):
        raise ConfigError(f"projection: column name {WEIGHT_COLUMN!r} is reserved")

    do_persist = config.persist if persist is None else persist
    if descriptor.kind == "mc":
        if do_persist:
            ds.persist()
        projection = typecheck_projection(
            list(user_columns) + [(WEIGHT_COLUMN, GEN_WEIGHT)], schema
        )
        weight = typecheck_value(GEN_WEIGHT, schema)
        xsec = descriptor.xsec_pb
        lumi = config.luminosity_invpb

        def finalize(sumw):
            if ds.n_events and sumw == 0.0:
                raise ZeroSumOfWeights(
                    f"dataset {descriptor.label!r}: generator weights sum to zero"
                )

            def normalize(columns):
                # normalize_weight's order, ((w * xsec) * lumi) / sumw, per value
                gen = columns[-1]
                try:
                    columns[-1] = array(gen.typecode, [w * xsec * lumi / sumw for w in gen])
                except (TypeError, OverflowError) as exc:
                    raise ArityMismatch(f"weight value does not match column kind: {exc}") from exc
            return normalize
    else:
        projection = typecheck_projection(
            list(user_columns) + [(WEIGHT_COLUMN, "1.0")], schema
        )
        weight = finalize = None

    sink = NtuWriter(out_path, projection.columns, group_target=config.ntu_group_rows)
    n_out, sumw = filter_map_write(
        ds, cut, projection, sink=sink, weight=weight, finalize=finalize,
        workers=workers, timers=timers,
    )
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
    lines = ["variable,component,kind,bin,lo_edge,hi_edge,content,error"]
    for hist in bundle["histograms"]:
        nbins = hist["nbins"]
        lo, hi = hist["lo"], hist["hi"]
        span = hi - lo

        def edge(i):
            return lo + i * span / nbins

        series = [(c["label"], "mc", c["contents"], c["errors"]) for c in hist["mc"]]
        if hist["stack"] is not None:
            series.append(("stack", "stack", hist["stack"]["contents"], hist["stack"]["errors"]))
        if hist["data"] is not None:
            series.append(("data", "data", hist["data"]["contents"], hist["data"]["errors"]))
        for label, kind, contents, errors in series:
            for i in range(nbins):
                lines.append(
                    f"{hist['variable']},{label},{kind},{i},{edge(i)!r},{edge(i + 1)!r},"
                    f"{contents[i]!r},{errors[i]!r}"
                )
    return "\n".join(lines) + "\n"
