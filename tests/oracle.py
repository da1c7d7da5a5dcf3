"""Serial, hand-coded reference pipeline used to check the parallel engine.

Everything here is deliberately written directly in Python against event
dicts: the default selection and projection are spelled out by hand (not
compiled from expression text), the sums are a plain serial Kahan loop,
and the histogram filler is a naive per-row loop. Only the storage reader
is shared with the code under test, and it shares the engine's column
decoder: `read_evt` builds its events from the same column sets the
skims read. The check of that decoder that does not depend on it is
`tests/test_codec.py::test_column_decode_equals_reference_layout`,
against the byte layout read back by hand; round-trip tests cover the
rest of the format.
"""

from __future__ import annotations

from skimflow.storage import read_evt


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
        _, events = read_evt(path)
        yield from events


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
