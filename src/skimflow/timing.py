"""Per-phase wall-time and byte accounting.

Each opened dataset owns one, `PartitionedDataset.phases`: `open_dataset`
starts it with the scan, and every traversal and skim of the dataset adds
to it; a caller puts a fresh one there to count one skim alone.
Phases are attributed where the work happens: `read_s` around raw storage
reads, `decode_s` around decompression/CRC/deserialization, `compute_s`
around type checking, expression evaluation and accumulation, `write_s`
around output serialization. The field names are the names reports use
(`dataclasses.asdict`). Each partition's task owns a private instance; the
coordinator merges them into the dataset's in partition order, so for a
single worker the four phases decompose the traversal wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PhaseTimers:
    read_s: float = 0.0
    decode_s: float = 0.0
    compute_s: float = 0.0
    write_s: float = 0.0
    bytes_read: int = 0
    bytes_decoded: int = 0
    bytes_cached: int = 0  # column bytes admitted to a persist cache
    cache_hits: int = 0

    def merge(self, other: "PhaseTimers") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
