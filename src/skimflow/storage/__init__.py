"""On-disk formats: the EVT row-wise event container and the NTU columnar
ntuple, plus schema flattening."""

from .codec import ColumnSet, EventCodec
from .evt import (
    DEFAULT_BLOCK_EVENTS,
    BlockInfo,
    EvtIndex,
    WriteStats,
    convert_evt,
    inspect_evt,
    iter_block_range,
    scan_evt,
    write_evt,
)
from .flatten import flatten_paths
from .ntu import (
    DEFAULT_GROUP_ROWS,
    NtuData,
    NtuWriteStats,
    NtuWriter,
    inspect_ntu,
    read_ntu,
)

__all__ = [
    "DEFAULT_BLOCK_EVENTS",
    "DEFAULT_GROUP_ROWS",
    "BlockInfo",
    "ColumnSet",
    "EventCodec",
    "EvtIndex",
    "NtuData",
    "NtuWriteStats",
    "NtuWriter",
    "WriteStats",
    "convert_evt",
    "flatten_paths",
    "inspect_evt",
    "inspect_ntu",
    "iter_block_range",
    "read_ntu",
    "scan_evt",
    "write_evt",
]
