"""Hand-written reference for the benchmark's analyses, and the checks that
compare the program's outputs with it.

The reference works on the generator's event dicts. It does not use the
program's EVT reader, engine, expression language or histograms: every
cut, projection column, Kahan sum, normalisation and binning below is
spelled out in plain Python. NTU outputs are parsed by the small reader at
the end of this file, not by `skimflow.storage.read_ntu`.

A check returns a list of problems; an empty list means the output agrees.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from array import array
from dataclasses import dataclass, field, replace

from skimflow.generator import GeneratorSpec, generate_events

ROW_TOL = 1e-12
SUM_TOL = 1e-9


# -- inputs -----------------------------------------------------------------------


def corpus_events(spec: GeneratorSpec, n_files: int):
    """The events `generate_corpus(spec, dir, n_files)` writes, in file order.

    Mirrors the corpus split documented there: the event budget divided
    over the files, seed `spec.seed + 1_000_003 * (i + 1)` for file i, and
    event numbers continuing across files.
    """
    base, rem = divmod(spec.n_events, n_files)
    start = 0
    for i in range(n_files):
        n = base + (1 if i < rem else 0)
        sub = replace(spec, seed=spec.seed + 1_000_003 * (i + 1), n_events=n)
        yield from generate_events(sub, start_index=start)
        start += n


# -- cuts and projections, by hand ------------------------------------------------


def default_cut(ev) -> bool:
    """met.pt > 150, no muons, no electrons, at least one jet above 30 GeV."""
    if not ev["met"]["pt"] > 150.0:
        return False
    if ev["muons"] or ev["electrons"]:
        return False
    for jet in ev["jets"]:
        if jet["pt"] > 30.0:
            return True
    return False


def loose_cut(met_min: float, jet_pt_min: float, max_taus: int):
    """met.pt > met_min, at least one jet above jet_pt_min, at most
    max_taus taus."""

    def cut(ev) -> bool:
        if not ev["met"]["pt"] > met_min:
            return False
        if len(ev["taus"]) > max_taus:
            return False
        for jet in ev["jets"]:
            if jet["pt"] > jet_pt_min:
                return True
        return False

    return cut


def _pt_sum(items) -> float:
    total = 0.0
    for item in items:
        total += item["pt"]
    return total


def _extreme(items, key, larger: bool) -> float:
    best = None
    for item in items:
        v = item[key]
        if best is None or (v > best if larger else v < best):
            best = v
    return float(best) if best is not None else 0.0


def _njets30(jets) -> int:
    return sum(1 for jet in jets if jet["pt"] > 30.0)


def default_row(ev) -> tuple:
    jets = ev["jets"]
    return (
        ev["met"]["pt"],
        ev["met"]["phi"],
        _pt_sum(jets),
        _njets30(jets),
        _extreme(jets, "pt", True),
    )


def wide_row(ev) -> tuple:
    jets = ev["jets"]
    ht = _pt_sum(jets)
    return (
        ev["met"]["pt"],
        ev["met"]["phi"],
        ht,
        _njets30(jets),
        len(jets),
        _extreme(jets, "pt", True),
        _extreme(jets, "eta", False),
        len(ev["muons"]),
        len(ev["electrons"]),
        len(ev["photons"]),
        _pt_sum(ev["photons"]),
        _extreme(ev["taus"], "pt", True),
        ev["met"]["pt"] / (ht + 1.0),
    )


# -- sums, normalisation and binning ----------------------------------------------


def kahan_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def normalise(gen_weight: float, xsec_pb: float, lumi_invpb: float, sumw: float) -> float:
    return gen_weight * xsec_pb * lumi_invpb / sumw


def bin_values(values, weights, nbins: int, lo: float, hi: float) -> dict:
    """Uniform bins over [lo, hi); below lo is underflow, at or above hi
    (and NaN) is overflow."""
    contents = [0.0] * nbins
    under = over = 0.0
    for v, w in zip(values, weights):
        v = float(v)
        if v != v or v >= hi:
            over += w
        elif v < lo:
            under += w
        else:
            i = min(int((v - lo) / (hi - lo) * nbins), nbins - 1)
            contents[i] += w
    return {"contents": contents, "underflow": under, "overflow": over}


# -- the reference for one dataset under one selection ----------------------------


@dataclass
class Expected:
    """What one skim of one dataset must produce."""

    columns: tuple[str, ...]  # projection names, then "weight"
    kind: str
    values: list[array]  # one column per projection name, then the weights
    sumw: float | None = None
    all_weights: array | None = None  # every input event's generator weight (mc)
    hists: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.values[-1])


def expected_skims(events, selections, columns, kind, xsec_pb=None, lumi_invpb=None,
                   histograms=()):
    """One pass over `events` for every (cut, row) pair in `selections`.

    Returns one `Expected` per selection, in order. `histograms` holds
    (variable, nbins, lo, hi) tuples binned from the expected columns.
    """
    n_cols = len(columns)
    out = [[array("d") for _ in range(n_cols + 1)] for _ in selections]
    all_weights = array("d")
    for ev in events:
        w = ev["genInfo"]["weight"]
        all_weights.append(w)
        for (cut, row_fn), cols in zip(selections, out):
            if cut(ev):
                for col, v in zip(cols, row_fn(ev)):
                    col.append(v)
                cols[-1].append(w if kind == "mc" else 1.0)
    results = []
    sumw = kahan_sum(all_weights) if kind == "mc" else None
    for cols in out:
        if kind == "mc":
            cols[-1] = array("d", (normalise(w, xsec_pb, lumi_invpb, sumw) for w in cols[-1]))
        exp = Expected(tuple(columns) + ("weight",), kind, cols, sumw,
                       all_weights if kind == "mc" else None)
        for var, nbins, lo, hi in histograms:
            exp.hists[var] = bin_values(cols[columns.index(var)], cols[-1], nbins, lo, hi)
        results.append(exp)
    return results


# -- an NTU reader of the benchmark's own ------------------------------------------

_NTU_KINDS = {"f64": ("d", 8), "f32": ("f", 4), "i64": ("q", 8), "i32": ("i", 4), "bool": ("b", 1)}


def parse_ntu(data: bytes) -> tuple[list[tuple[str, str]], dict[str, array]]:
    """Columns of an NTU file: magic "NTU1", u32 header length, JSON header,
    row groups (u32 rows, then each column packed little-endian), footer
    (u64 rows, u32 groups). Raises ValueError on any inconsistency."""
    if data[:4] != b"NTU1":
        raise ValueError("bad NTU magic")
    (hlen,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8:8 + hlen].decode("utf-8"))
    columns = [(str(n), str(k)) for n, k in header["columns"]]
    out = {name: array(_NTU_KINDS[kind][0]) for name, kind in columns}
    pos = 8 + hlen
    end = len(data) - 12
    total_rows, n_groups = struct.unpack_from("<QI", data, end)
    rows = groups = 0
    while pos < end:
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        for name, kind in columns:
            nbytes = n * _NTU_KINDS[kind][1]
            chunk = data[pos:pos + nbytes]
            if len(chunk) != nbytes:
                raise ValueError(f"column {name!r} runs past the data section")
            arr = array(_NTU_KINDS[kind][0])
            arr.frombytes(chunk)
            if sys.byteorder == "big":
                arr.byteswap()
            out[name].extend(arr)
            pos += nbytes
        rows += n
        groups += 1
    if pos != end or rows != total_rows or groups != n_groups:
        raise ValueError("NTU footer disagrees with the row groups")
    return columns, out


# -- checks -----------------------------------------------------------------------


def rel_close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def _column_problems(name: str, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"column {name!r}: {len(got)} rows, expected {len(want)}"]
    if array("d", got) == want:
        return []
    for i, (g, w) in enumerate(zip(got, want)):
        if not rel_close(float(g), w, ROW_TOL):
            return [f"column {name!r} row {i}: {g!r} != expected {w!r}"]
    return []


def check_skim(exp: Expected, ntu_bytes: bytes, n_output: int, sum_weights,
               xsec_pb=None, lumi_invpb=None) -> list[str]:
    """Rows, weights and sums of one skimmed dataset."""
    try:
        columns, data = parse_ntu(ntu_bytes)
    except (ValueError, KeyError, struct.error, json.JSONDecodeError) as exc:
        return [f"unreadable NTU output: {exc}"]
    names = tuple(name for name, _ in columns)
    if names != exp.columns:
        return [f"columns {names} != expected {exp.columns}"]
    problems = []
    if n_output != exp.n_rows:
        problems.append(f"reported {n_output} output rows, expected {exp.n_rows}")
    for name, want in zip(exp.columns, exp.values):
        problems += _column_problems(name, data[name], want)
    weights = data["weight"]
    if exp.kind == "data":
        if any(w != 1.0 for w in weights):
            problems.append("a data weight is not exactly 1.0")
        if sum_weights is not None:
            problems.append("a data dataset reported a sum of weights")
        return problems
    if sum_weights is None or not rel_close(sum_weights, exp.sumw, ROW_TOL):
        problems.append(f"sum of weights {sum_weights!r} != expected {exp.sumw!r}")
        return problems
    target = xsec_pb * lumi_invpb
    total = kahan_sum(normalise(w, xsec_pb, lumi_invpb, sum_weights) for w in exp.all_weights)
    if not rel_close(total, target, SUM_TOL):
        problems.append(f"normalised weights sum to {total!r}, expected xsec*lumi = {target!r}")
    return problems


def check_histograms(exp: Expected, hists: dict, ntu_bytes: bytes) -> list[str]:
    """Each histogram (as `Histogram.to_dict()`) against the reference
    binning, and its total against the sum of the NTU weight column."""
    problems = []
    try:
        _, data = parse_ntu(ntu_bytes)
    except (ValueError, KeyError, struct.error, json.JSONDecodeError) as exc:
        return [f"unreadable NTU output: {exc}"]
    weight_sum = math.fsum(data["weight"])
    scale = max(math.fsum(abs(w) for w in data["weight"]), 1.0)
    for var, want in exp.hists.items():
        got = hists.get(var)
        if got is None:
            problems.append(f"histogram {var!r} missing")
            continue
        total = math.fsum(got["contents"]) + got["underflow"] + got["overflow"]
        if abs(total - weight_sum) > SUM_TOL * scale:
            problems.append(f"histogram {var!r} holds {total!r}, NTU weights sum to {weight_sum!r}")
        for key in ("underflow", "overflow"):
            if abs(got[key] - want[key]) > SUM_TOL * scale:
                problems.append(f"histogram {var!r} {key} {got[key]!r} != {want[key]!r}")
        if len(got["contents"]) != len(want["contents"]):
            problems.append(f"histogram {var!r} has {len(got['contents'])} bins")
            continue
        for i, (g, w) in enumerate(zip(got["contents"], want["contents"])):
            if abs(g - w) > SUM_TOL * scale:
                problems.append(f"histogram {var!r} bin {i}: {g!r} != {w!r}")
                break
    return problems


def check_bundle(bundle: dict, hists_by_label: dict, mc_labels, data_label, variables,
                 lumi_invpb) -> list[str]:
    """The plot bundle stacks the mc histograms and carries the data one."""
    problems = []
    if bundle.get("luminosity_invpb") != lumi_invpb:
        problems.append("plot bundle luminosity differs from the configuration")
    entries = {h["variable"]: h for h in bundle.get("histograms", ())}
    for var in variables:
        entry = entries.get(var)
        if entry is None:
            problems.append(f"plot bundle lacks {var!r}")
            continue
        comps = {c["label"]: c["contents"] for c in entry["mc"]}
        if list(comps) != list(mc_labels):
            problems.append(f"plot bundle {var!r}: mc components {list(comps)}")
            continue
        stack = [0.0] * entry["nbins"]
        for label in mc_labels:
            if comps[label] != hists_by_label[label][var]["contents"]:
                problems.append(f"plot bundle {var!r}: component {label!r} differs")
            stack = [s + c for s, c in zip(stack, comps[label])]
        if entry["stack"] is None or any(
            not rel_close(s, t, ROW_TOL) for s, t in zip(entry["stack"]["contents"], stack)
        ):
            problems.append(f"plot bundle {var!r}: stack is not the sum of its components")
        if data_label is None:
            if entry["data"] is not None:
                problems.append(f"plot bundle {var!r}: data series without a data dataset")
        elif entry["data"] is None or (
            entry["data"]["contents"] != hists_by_label[data_label][var]["contents"]
        ):
            problems.append(f"plot bundle {var!r}: data series differs from the data histogram")
    return problems


def check_same_rows(a_bytes: bytes, b_bytes: bytes) -> list[str]:
    """Two NTU outputs hold the same rows to ROW_TOL."""
    try:
        cols_a, data_a = parse_ntu(a_bytes)
        cols_b, data_b = parse_ntu(b_bytes)
    except (ValueError, KeyError, struct.error, json.JSONDecodeError) as exc:
        return [f"unreadable NTU output: {exc}"]
    if cols_a != cols_b:
        return [f"columns differ: {cols_a} != {cols_b}"]
    problems = []
    for name, _ in cols_a:
        problems += _column_problems(name, data_a[name], array("d", data_b[name]))
    return problems
