import hashlib
import json

import pytest

import oracle
from skimflow.cli import main
from skimflow.storage import read_ntu, scan_evt


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, mc_glob, data_glob=None, **extra):
    datasets = [{"glob": mc_glob, "kind": "mc", "xsec_pb": 50.0, "label": "sig"}]
    if data_glob:
        datasets.append({"glob": data_glob, "kind": "data", "label": "data"})
    raw = {"datasets": datasets, "luminosity_invpb": 1000.0}
    raw.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture()
def corpus(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "mc"), "--files", "2", "--events", "3000",
                 "--seed", "42", "--kind", "mc", "--weight-dist", "signed"]) == 0
    assert main(["gen", "--out", str(tmp_path / "data"), "--files", "2", "--events", "1000",
                 "--seed", "77", "--kind", "data"]) == 0
    return tmp_path


def test_gen_and_inspect_agree(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "f.evt"), "--events", "1234", "--seed", "1"]) == 0
    assert main(["inspect", str(tmp_path / "f.evt")]) == 0
    out = capsys.readouterr().out
    assert "1234 events, 1 blocks" in out
    assert "compression: none" in out


def test_inspect_empty_evt(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "e.evt"), "--events", "0"]) == 0
    assert main(["inspect", str(tmp_path / "e.evt")]) == 0
    assert "0 events, 0 blocks" in capsys.readouterr().out


def test_gen_negative_events_usage_error(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "f.evt"), "--events", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_unwritable_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    rc = main(["gen", "--out", str(blocker / "sub.evt"), "--events", "10"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_usage_error(capsys):
    assert main(["gen", "--nope"]) == 1


def test_inspect_truncated_file_names_block(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "f.evt"), "--events", "500", "--seed", "3"]) == 0
    raw = (tmp_path / "f.evt").read_bytes()
    (tmp_path / "f.evt").write_bytes(raw[:-9])
    assert main(["inspect", str(tmp_path / "f.evt")]) == 2
    err = capsys.readouterr().err
    assert "block 0" in err


def test_inspect_bad_magic(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"JUNKJUNKJUNK")
    assert main(["inspect", str(path)]) == 2


def test_convert_requires_explicit_flag(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "f.evt"), "--events", "100", "--seed", "3"]) == 0
    assert main(["convert", str(tmp_path / "f.evt"), str(tmp_path / "g.evt")]) == 1


def test_convert_round_trip(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "f.evt"), "--events", "800", "--seed", "3"]) == 0
    assert main(["convert", str(tmp_path / "f.evt"), str(tmp_path / "c.evt"), "--compress"]) == 0
    assert scan_evt(tmp_path / "c.evt").compressed is True
    assert (tmp_path / "c.evt").stat().st_size < (tmp_path / "f.evt").stat().st_size
    assert main(["convert", str(tmp_path / "c.evt"), str(tmp_path / "u.evt"), "--no-compress"]) == 0
    assert (tmp_path / "u.evt").read_bytes() == (tmp_path / "f.evt").read_bytes()


def test_sum_weights_on_data_only_config_is_kind_mismatch(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d.evt"), "--events", "100",
                 "--seed", "5", "--kind", "data"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "datasets": [{"glob": str(tmp_path / "d.evt"), "kind": "data", "label": "d"}],
        "luminosity_invpb": 1000.0,
    }))
    assert main(["sum-weights", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "mc" in capsys.readouterr().err


def test_sum_weights_explicit_data_dataset_is_kind_mismatch(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), str(corpus / "data" / "*.evt"))
    rc = main(["sum-weights", "--config", str(cfg), "--out-dir", str(corpus / "out"),
               "--dataset", "data"])
    assert rc == 1


def test_sum_weights_writes_artifact(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"))
    assert main(["sum-weights", "--config", str(cfg), "--out-dir", str(corpus / "out")]) == 0
    doc = json.loads((corpus / "out" / "sum_of_weights.json").read_text())
    assert oracle.rel_close(doc["sig"], oracle.serial_sum_of_weights((corpus / "mc").glob("*.evt")))


def test_skim_false_cut_summary(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), selection="false")
    assert main(["skim", "--config", str(cfg), "--out-dir", str(corpus / "out")]) == 0
    out = capsys.readouterr().out
    assert "3000 -> 0 rows" in out
    assert read_ntu(corpus / "out" / "sig.ntu").n_rows == 0


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["skim", "--config", str(tmp_path / "nope.json")]) == 3


def test_bad_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["skim", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("expr", ["met.pt + (met.phi > 1.0)", "-(met.pt > 1.0)"])
def test_skim_boolean_operand_in_projection_is_config_error(corpus, capsys, expr):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"),
                       projection=[{"name": "x", "expr": expr}])
    assert main(["skim", "--config", str(cfg), "--out-dir", str(corpus / "out")]) == 1
    assert "bool" in capsys.readouterr().err


def test_hist_requires_skim_outputs(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"))
    assert main(["hist", "--config", str(cfg), "--out-dir", str(corpus / "empty_out")]) == 2
    assert "skim" in capsys.readouterr().err


def test_full_pipeline_matches_serial_oracle(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), str(corpus / "data" / "*.evt"),
                       workers=3, partition={"mode": "auto", "target_bytes": 262144})
    out = corpus / "out"
    for cmd in ("skim", "hist", "plot-data"):
        assert main([cmd, "--config", str(cfg), "--out-dir", str(out)]) == 0

    bundle = json.loads((out / "plot_bundle.json").read_text())
    mc_sumw, mc_rows = oracle.serial_skim(sorted((corpus / "mc").glob("*.evt")), "mc", 50.0, 1000.0)
    _, data_rows = oracle.serial_skim(sorted((corpus / "data").glob("*.evt")), "data", None, None)

    by_var = {h["variable"]: h for h in bundle["histograms"]}
    met_hist = by_var["met_pt"]
    brute_mc = oracle.fill_hist_brute(
        [r[0] for r in mc_rows], [r[-1] for r in mc_rows], 40, 0.0, 1000.0
    )
    for got, want in zip(met_hist["mc"][0]["contents"], brute_mc["contents"]):
        assert oracle.rel_close(got, want)
    assert met_hist["stack"]["contents"] == met_hist["mc"][0]["contents"]
    brute_data = oracle.fill_hist_brute(
        [r[0] for r in data_rows], [1.0] * len(data_rows), 40, 0.0, 1000.0
    )
    assert met_hist["data"]["contents"] == brute_data["contents"]

    csv_lines = (out / "plot_bundle.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 3 * (40 + 30 + 12)  # mc+stack+data per bin per variable


def test_idempotent_artifacts(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), str(corpus / "data" / "*.evt"))
    out = corpus / "out"
    digests = {}
    for round_no in range(2):
        for cmd in ("skim", "hist", "plot-data"):
            assert main([cmd, "--config", str(cfg), "--out-dir", str(out)]) == 0
        snapshot = {p.name: sha(p) for p in sorted(out.iterdir()) if p.is_file()}
        if round_no:
            assert snapshot == digests
        digests = snapshot
    assert set(digests) == {
        "sig.ntu", "data.ntu", "histograms.json", "plot_bundle.json", "plot_bundle.csv",
    }


def test_gen_idempotent(tmp_path):
    args = ["gen", "--out", str(tmp_path / "f.evt"), "--events", "500", "--seed", "9"]
    assert main(args) == 0
    first = sha(tmp_path / "f.evt")
    assert main(args) == 0
    assert sha(tmp_path / "f.evt") == first


def test_bench_cli_smoke(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), selection="met.pt > 50.0")
    out = corpus / "bench_out"
    rc = main(["bench", "--config", str(cfg), "--out-dir", str(out), "--reps", "3",
               "--cells", "uncached+raw,cached+raw"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "cached vs uncached (raw)" in stdout
    reports = json.loads((out / "bench_report.json").read_text())
    assert len(reports) == 2
    assert (out / "bench_report.csv").exists()


def test_bench_cli_labels_thread_sums(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), selection="met.pt > 50.0")
    rc = main(["bench", "--config", str(cfg), "--out-dir", str(corpus / "bench_out"),
               "--reps", "3", "--workers", "2", "--cells", "uncached+raw"])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("uncached+raw+w2: total ")
    assert "s wall; phases summed over 2 threads: read " in line


def test_bench_reports_cache_budget_overflow(corpus, capsys):
    # a 1-byte budget is below any partition, so the cached cell overflows it
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), cache_budget_bytes=1)
    out = corpus / "bench_out"
    rc = main(["bench", "--config", str(cfg), "--out-dir", str(out), "--reps", "3",
               "--cells", "cached+raw"])
    assert rc == 0
    assert "warning: sig: cached+raw+w1: cache budget exceeded" in capsys.readouterr().err
    (report,) = json.loads((out / "bench_report.json").read_text())
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("cache budget exceeded")


def test_skim_does_not_cache(corpus, capsys):
    # a 1-byte budget is below any partition: a caching skim would overflow it
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), cache_budget_bytes=1)
    assert main(["skim", "--config", str(cfg), "--out-dir", str(corpus / "out")]) == 0
    assert "cache budget" not in capsys.readouterr().err


def test_bench_bad_cells_usage_error(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"))
    assert main(["bench", "--config", str(cfg), "--cells", "warm+raw"]) == 1


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "skimflow" in capsys.readouterr().out
