"""The benchmark's own tests: the hand-written reference agrees with the
program on small corpora, a perturbed output is counted as failed, and the
traced run reports every per-layer metric.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import struct

import pytest

import reference as ref
import run
import tracing
import workloads

SMALL = {"mc_events": 2000, "data_events": 600}


def _one_round(cls, seed, tmp_path):
    wl = cls(seed, tmp_path / cls.name, **SMALL)
    wl.setup()
    for i in range(wl.round_size):
        wl.keep(i, wl.operation(i))
    wl.close()
    return wl


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_reference_agrees_with_program(cls, seed, tmp_path):
    wl = _one_round(cls, seed, tmp_path)
    assert len(wl.kept) == wl.round_size
    assert wl.check() == {digest: [] for digest in wl.kept}


def test_loose_cuts_pass_most_events():
    sels = workloads.loose_selections(3)
    assert len(sels) == len(workloads.LOOSE_LADDER)
    events = list(ref.corpus_events(workloads.mc_spec(3, 2000), workloads.MC_FILES))
    for _, params in sels:
        passed = sum(map(ref.loose_cut(*params), events))
        assert 0.75 < passed / len(events) < 1.0


def _first_group(data: bytes) -> int:
    """Offset of the first value of the first column of an NTU file."""
    return 8 + int.from_bytes(data[4:8], "little") + 4


def _perturb_ntu(kept):
    path = kept["ntu"]["mc"]
    data = bytearray(path.read_bytes())
    data[_first_group(data) + 7] ^= 0x01  # exponent of the first met_pt
    path.write_bytes(bytes(data))


def _perturb_hist(kept):
    kept["hists"]["mc"]["ht"]["contents"][3] += 0.5


def _perturb_bundle(kept):
    kept["bundle"]["histograms"][0]["stack"]["contents"][2] *= 1.001


def _perturb_sumw(kept):
    n, sumw = kept["results"]["mc"]
    kept["results"]["mc"] = (n, sumw * (1 + 1e-9))


def _perturb_rows(kept):
    n, sumw = kept["results"]["mc"]
    kept["results"]["mc"] = (n + 1, sumw)


@pytest.mark.parametrize(
    "perturb", [_perturb_ntu, _perturb_hist, _perturb_bundle, _perturb_sumw, _perturb_rows]
)
def test_perturbed_output_is_a_problem(perturb, tmp_path):
    wl = _one_round(workloads.McCachedIterate, 5, tmp_path)
    digest = next(iter(wl.kept))
    perturb(wl.kept[digest])
    problems = wl.check()
    assert problems[digest]
    assert all(not p for d, p in problems.items() if d != digest)


def test_data_weight_must_be_exactly_one(tmp_path):
    wl = _one_round(workloads.AnalysisCold, 5, tmp_path)
    (kept,) = wl.kept.values()
    path = kept["ntu"]["data"]
    data = bytearray(path.read_bytes())
    n_rows = int.from_bytes(data[_first_group(data) - 4:_first_group(data)], "little")
    weight = _first_group(data) + 5 * 8 * n_rows  # five f64/i64 columns precede it
    data[weight:weight + 8] = struct.pack("<d", 1.0 + 2.0 ** -52)
    path.write_bytes(bytes(data))
    problems = wl.check()[next(iter(wl.kept))]
    assert "data: a data weight is not exactly 1.0" in problems


def test_run_counts_perturbed_operations_as_failed(monkeypatch):
    original = workloads.Workload._skim_and_plot

    def perturbed(self, config, datasets):
        out = original(self, config, datasets)
        out["hists"]["mc"]["met_pt"].contents[0] += 1.0
        return out

    monkeypatch.setattr(workloads.Workload, "_skim_and_plot", perturbed)
    result = run.run_workload("mc_deflate_budget", 4, 0.0, False, **SMALL)
    assert result["attempted"] == run.SETUP_REPEATS
    assert result["failed"] == run.SETUP_REPEATS
    assert result["correct"] is False


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_run_reports_every_metric(name):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = run.run_workload(name, 6, 0.0, False, **SMALL)
    assert result["failed"] == 0 and result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run.run_workload(name, 6, 0.0, True, **SMALL)
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert all(m["value"] is not None for m in metrics.values())
    passes = metrics["engine.decode_passes"]["value"]
    if name == "mc_cached_iterate":
        assert metrics["evt.bytes_read"]["value"] == 0
        assert passes == 0
        assert metrics["engine.cache_hit_ratio"]["value"] == 1.0
    else:
        assert metrics["evt.bytes_read"]["value"] > 0
        assert passes >= 1


def test_missing_entry_point_is_reported_absent(monkeypatch, tmp_path):
    import skimflow.engine

    monkeypatch.delattr(skimflow.engine, "_run_partitions")
    tracer = tracing.Tracer(1)
    tracer.install(workloads.Workload(1, tmp_path).api)
    tracer.uninstall()
    assert tracer.absent == {"engine.parallel_efficiency"}
    tracer.end_op(1.0, 1)
    metrics = tracing.layer_metrics(tracer, {"generator_events_per_s": 1.0, "convert_s": 0.0},
                                    [1.0])
    assert metrics["engine.parallel_efficiency"] == {"value": None, "unit": "ratio",
                                                     "absent": True}
