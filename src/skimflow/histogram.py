"""Weighted histograms with underflow/overflow and per-bin sum of squared
weights.

Binning: `nbins` uniform bins over [lo, hi). A value v lands in bin
floor((v - lo) / (hi - lo) * nbins); v < lo goes to underflow, v >= hi to
overflow (lower edges inclusive, upper edges exclusive). NaN values are
counted in overflow so that total weight is always conserved. Negative
weights are allowed throughout, so bin contents may be negative; sumw2 is
never negative.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, LengthMismatch, SpecMismatch, UnknownColumn


@dataclass(frozen=True)
class HistogramSpec:
    variable: str
    nbins: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not isinstance(self.nbins, int) or self.nbins < 1:
            raise ConfigError(f"histogram {self.variable!r}: nbins must be a positive integer")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ConfigError(f"histogram {self.variable!r}: requires finite lo < hi")

    def edges(self) -> list[float]:
        span = self.hi - self.lo
        return [self.lo + i * span / self.nbins for i in range(self.nbins)] + [self.hi]


class Histogram:
    __slots__ = (
        "spec", "contents", "sumw2",
        "underflow", "underflow_sumw2", "overflow", "overflow_sumw2", "n_fills",
    )

    def __init__(self, spec: HistogramSpec):
        self.spec = spec
        self.contents = [0.0] * spec.nbins
        self.sumw2 = [0.0] * spec.nbins
        self.underflow = 0.0
        self.underflow_sumw2 = 0.0
        self.overflow = 0.0
        self.overflow_sumw2 = 0.0
        self.n_fills = 0

    def fill(self, value, weight: float = 1.0) -> None:
        v = float(value)
        w = float(weight)
        self.n_fills += 1
        spec = self.spec
        if v != v:  # NaN
            self.overflow += w
            self.overflow_sumw2 += w * w
        elif v < spec.lo:
            self.underflow += w
            self.underflow_sumw2 += w * w
        elif v >= spec.hi:
            self.overflow += w
            self.overflow_sumw2 += w * w
        else:
            i = int((v - spec.lo) / (spec.hi - spec.lo) * spec.nbins)
            if i >= spec.nbins:  # guard against round-up at the top edge
                i = spec.nbins - 1
            self.contents[i] += w
            self.sumw2[i] += w * w

    def merge(self, other: "Histogram") -> None:
        if other.spec != self.spec:
            raise SpecMismatch(f"cannot merge {other.spec} into {self.spec}")
        for i in range(self.spec.nbins):
            self.contents[i] += other.contents[i]
            self.sumw2[i] += other.sumw2[i]
        self.underflow += other.underflow
        self.underflow_sumw2 += other.underflow_sumw2
        self.overflow += other.overflow
        self.overflow_sumw2 += other.overflow_sumw2
        self.n_fills += other.n_fills

    def total_weight(self) -> float:
        return self.underflow + self.overflow + sum(self.contents)

    def to_dict(self) -> dict:
        return {
            "variable": self.spec.variable,
            "nbins": self.spec.nbins,
            "lo": self.spec.lo,
            "hi": self.spec.hi,
            "contents": list(self.contents),
            "sumw2": list(self.sumw2),
            "underflow": self.underflow,
            "underflow_sumw2": self.underflow_sumw2,
            "overflow": self.overflow,
            "overflow_sumw2": self.overflow_sumw2,
            "entries": self.n_fills,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.spec.variable!r}, nbins={self.spec.nbins}, "
            f"total={self.total_weight():g}, entries={self.n_fills})"
        )


def fill_histogram(columns: Mapping[str, Sequence], spec: HistogramSpec) -> Histogram:
    """Fill one histogram from ntuple columns using the per-row weights of
    the `weight` column."""
    if spec.variable not in columns:
        raise UnknownColumn(f"no column {spec.variable!r} for histogram")
    if "weight" not in columns:
        raise UnknownColumn("no weight column 'weight'")
    values = columns[spec.variable]
    weights = columns["weight"]
    if len(values) != len(weights):
        raise LengthMismatch(
            f"column {spec.variable!r} has {len(values)} rows, weights {len(weights)}"
        )
    hist = Histogram(spec)
    # `Histogram.fill` per value, in one loop over locals: the same float()
    # of each value and weight (skipped for float arrays, whose items are
    # floats already), bins and sums in the same order
    lo, hi, nbins = spec.lo, spec.hi, spec.nbins
    span = hi - lo
    contents, sumw2 = hist.contents, hist.sumw2
    under = under2 = over = over2 = 0.0
    for v, w in zip(_floats(values), _floats(weights)):
        if lo <= v < hi:
            i = int((v - lo) / span * nbins)
            if i >= nbins:  # guard against round-up at the top edge
                i = nbins - 1
            contents[i] += w
            sumw2[i] += w * w
        elif v < lo:
            under += w
            under2 += w * w
        else:  # v >= hi or NaN
            over += w
            over2 += w * w
    hist.underflow, hist.underflow_sumw2 = under, under2
    hist.overflow, hist.overflow_sumw2 = over, over2
    hist.n_fills = len(values)
    return hist


def _floats(values: Sequence) -> Iterable[float]:
    if isinstance(values, array) and values.typecode in "fd":
        return values
    return map(float, values)
