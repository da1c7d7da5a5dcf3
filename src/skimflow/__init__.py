"""skimflow: single-machine skim/slim analysis over columnar event data.

The pieces, bottom up: a schema'd row-wise event container (EVT) with
optional per-block deflate and CRC-checked blocks; a columnar ntuple
format (NTU); a typed cut/projection expression language; a partitioned
dataset engine with an explicit in-memory persist and deterministic
parallel map/filter/reduce; the weighted skim/slim workflow with
histograms and stacked plot data; a seeded synthetic event generator; and
a phase-separated benchmark harness.
"""

from .engine import (
    DatasetDescriptor,
    EngineConfig,
    PartitionedDataset,
    filter_map_write,
    map_reduce,
    open_dataset,
    plan_partitions,
)
from .errors import SkimflowError
from .events import analysis_schema, make_event, make_particle
from .expr import parse_expr, typecheck_cut, typecheck_projection, typecheck_value
from .generator import GeneratorSpec, generate_corpus, generate_events, generate_evt
from .histogram import Histogram, HistogramSpec, fill_histogram
from .schema import Array, Primitive, Record, Schema
from .storage import (
    convert_evt,
    read_ntu,
    scan_evt,
    write_evt,
)
from .timing import PhaseTimers

__version__ = "0.1.0"

__all__ = [
    "Array",
    "DatasetDescriptor",
    "EngineConfig",
    "GeneratorSpec",
    "Histogram",
    "HistogramSpec",
    "PartitionedDataset",
    "PhaseTimers",
    "Primitive",
    "Record",
    "Schema",
    "SkimflowError",
    "analysis_schema",
    "convert_evt",
    "fill_histogram",
    "filter_map_write",
    "generate_corpus",
    "generate_events",
    "generate_evt",
    "make_event",
    "make_particle",
    "map_reduce",
    "open_dataset",
    "parse_expr",
    "plan_partitions",
    "read_ntu",
    "scan_evt",
    "typecheck_cut",
    "typecheck_projection",
    "typecheck_value",
    "write_evt",
]
