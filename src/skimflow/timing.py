"""Per-phase wall-time and byte accounting.

A PhaseTimers instance is threaded through readers, the engine, and writers.
Phases are attributed where the work happens: `read` around raw storage
reads, `decode` around decompression/CRC/deserialization, `compute` around
expression evaluation and accumulation, `write` around output serialization.
Each worker owns a private instance; the coordinator merges them, so for a
single worker the four phases decompose the traversal wall time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PhaseTimers:
    read: float = 0.0
    decode: float = 0.0
    compute: float = 0.0
    write: float = 0.0
    bytes_read: int = 0
    bytes_decoded: int = 0
    bytes_cached: int = 0  # column bytes admitted to a persist cache
    cache_hits: int = 0

    def merge(self, other: "PhaseTimers") -> None:
        self.read += other.read
        self.decode += other.decode
        self.compute += other.compute
        self.write += other.write
        self.bytes_read += other.bytes_read
        self.bytes_decoded += other.bytes_decoded
        self.bytes_cached += other.bytes_cached
        self.cache_hits += other.cache_hits

    def as_dict(self) -> dict:
        return {
            "read_s": self.read,
            "decode_s": self.decode,
            "compute_s": self.compute,
            "write_s": self.write,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "bytes_cached": self.bytes_cached,
            "cache_hits": self.cache_hits,
        }
