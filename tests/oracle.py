"""Serial, hand-coded reference pipeline used to check the parallel engine.

Everything here is deliberately written directly in Python against event
dicts: the default selection and projection are spelled out by hand (not
compiled from expression text), the sums are a plain serial Kahan loop,
and the histogram filler is a naive per-row loop. No reader is shared
with the code under test: `read_events` walks the EVT byte layout by
hand, with `struct` and `zlib`, and takes only the schema parser from
the program. So a fault in the engine's column decoder cannot hide by
showing on both sides of a comparison.
"""

from __future__ import annotations

import struct
import zlib

from skimflow.schema import Array, Primitive, Schema

FMT = {"f64": "<d", "f32": "<f", "i64": "<q", "i32": "<i", "bool": "<?"}


def reference_decode(schema, payload, count):
    """The EVT layout read back directly: one struct.unpack_from per
    primitive, a u32 count per array, and record fields in schema order,
    for `count` events that must consume the payload exactly."""
    off = 0

    def read(node):
        nonlocal off
        if isinstance(node, Primitive):
            (value,) = struct.unpack_from(FMT[node.kind], payload, off)
            off += struct.calcsize(FMT[node.kind])
            return value
        if isinstance(node, Array):
            (n,) = struct.unpack_from("<I", payload, off)
            off += 4
            return [read(node.element) for _ in range(n)]
        return {name: read(child) for name, child in node.fields}

    events = [read(schema.root) for _ in range(count)]
    assert off == len(payload)
    return events


def read_events(path) -> tuple[Schema, list[dict]]:
    """An EVT file's schema and events, read by the byte layout: magic
    "EVT1", a u32 header length and the schema JSON, a flags byte (bit 0:
    raw deflate), then blocks of u32 event count, u32 payload length,
    payload and u32 CRC32 of the payload as stored."""
    with open(path, "rb") as f:
        data = f.read()
    assert data[:4] == b"EVT1", f"{path}: magic {data[:4]!r}"
    (hlen,) = struct.unpack_from("<I", data, 4)
    off = 8 + hlen
    schema = Schema.from_json(data[8:off].decode("utf-8"))
    flags = data[off]
    assert flags in (0, 1), f"{path}: flags {flags:#x}"
    off += 1
    events = []
    while off < len(data):
        count, length = struct.unpack_from("<II", data, off)
        stored = data[off + 8:off + 8 + length]
        (crc,) = struct.unpack_from("<I", data, off + 8 + length)
        assert zlib.crc32(stored) == crc, f"{path}: CRC mismatch at offset {off}"
        payload = zlib.decompress(stored, -15) if flags else stored
        events += reference_decode(schema, payload, count)
        off += 8 + length + 4
    return schema, events


def kahan_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def iter_all_events(paths):
    for path in sorted(str(p) for p in paths):
        yield from read_events(path)[1]


def default_cut(ev) -> bool:
    """met.pt > 150 GeV, muon and electron veto, >= 1 jet above 30 GeV."""
    if not ev["met"]["pt"] > 150.0:
        return False
    if len(ev["muons"]) != 0 or len(ev["electrons"]) != 0:
        return False
    njets = 0
    for jet in ev["jets"]:
        if jet["pt"] > 30.0:
            njets += 1
    return njets >= 1


def default_row(ev) -> tuple:
    """(met_pt, met_phi, ht, njets, jet_pt_max), matching the shipped
    default projection column for column."""
    ht = 0.0
    njets = 0
    best = None
    for jet in ev["jets"]:
        pt = jet["pt"]
        ht += pt
        if pt > 30.0:
            njets += 1
        if best is None or pt > best:
            best = pt
    return (ev["met"]["pt"], ev["met"]["phi"], ht, njets, float(best) if best is not None else 0.0)


def normalize(gen_weight, xsec_pb, luminosity_invpb, sumw) -> float:
    return gen_weight * xsec_pb * luminosity_invpb / sumw


def serial_sum_of_weights(paths) -> float:
    return kahan_sum(ev["genInfo"]["weight"] for ev in iter_all_events(paths))


def serial_skim(paths, kind, xsec_pb, luminosity_invpb):
    """Two-pass serial pipeline: returns (sum_of_weights | None, rows with
    the appended weight column)."""
    sumw = serial_sum_of_weights(paths) if kind == "mc" else None
    rows = []
    for ev in iter_all_events(paths):
        if not default_cut(ev):
            continue
        row = default_row(ev)
        if kind == "mc":
            w = normalize(ev["genInfo"]["weight"], xsec_pb, luminosity_invpb, sumw)
        else:
            w = 1.0
        rows.append(row + (w,))
    return sumw, rows


def fill_hist_brute(values, weights, nbins, lo, hi):
    """Naive binning loop; same floor semantics, written independently."""
    contents = [0.0] * nbins
    sumw2 = [0.0] * nbins
    under = over = under2 = over2 = 0.0
    span = hi - lo
    for v, w in zip(values, weights):
        v = float(v)
        w = float(w)
        if v != v or v >= hi:
            over += w
            over2 += w * w
        elif v < lo:
            under += w
            under2 += w * w
        else:
            i = int((v - lo) / span * nbins)
            if i >= nbins:
                i = nbins - 1
            contents[i] += w
            sumw2[i] += w * w
    return {
        "contents": contents,
        "sumw2": sumw2,
        "underflow": under,
        "underflow_sumw2": under2,
        "overflow": over,
        "overflow_sumw2": over2,
    }


def rel_close(a, b, tol=1e-12) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def assert_rows_match(actual, expected, tol=1e-12):
    assert len(actual) == len(expected), f"{len(actual)} rows != {len(expected)} expected"
    for i, (row_a, row_e) in enumerate(zip(actual, expected)):
        assert len(row_a) == len(row_e), f"row {i}: arity {len(row_a)} != {len(row_e)}"
        for j, (va, ve) in enumerate(zip(row_a, row_e)):
            assert rel_close(float(va), float(ve), tol), f"row {i} col {j}: {va} != {ve}"
