import hashlib
import json
import math
import struct
import zlib

import pytest

import oracle
from skimflow import cli, engine
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


def test_inspect_of_an_overrunning_count_under_a_valid_crc_names_block(tmp_path, capsys):
    path = tmp_path / "f.evt"
    assert main(["gen", "--out", str(path), "--events", "300", "--seed", "3",
                 "--block-events", "100"]) == 0
    block = scan_evt(path).blocks[1]
    raw = bytearray(path.read_bytes())
    start = block.offset + 8
    # the muon count of the block's first event, after run, lumi, event, weight and met
    raw[start + 48:start + 52] = (2**32 - 1).to_bytes(4, "little")
    end = start + block.payload_len
    raw[end:end + 4] = zlib.crc32(raw[start:end]).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    assert main(["inspect", str(path)]) == 2
    assert "block 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["gen", "--out", "g.evt", "--events", "-1"],
    ["gen", "--out", "g", "--events", "10", "--files", "0"],
    ["gen", "--out", "g.evt", "--events", "10", "--block-events", "0"],
    ["gen", "--out", "g", "--events", "10", "--files", "2", "--block-events", "0"],
    ["convert", "f.evt", "g.evt", "--compress", "--block-events", "0"],
    ["bench", "--config", "cfg.json", "--out-dir", "g", "--reps", "2"],
    ["skim", "--config", "cfg.json", "--out-dir", "g", "--workers", "0"],
    ["gen", "--out", "g.evt", "--events", "10", "--met-scale", "inf"],
], ids=["gen-events", "gen-files", "gen-block-events", "gen-files-block-events",
        "convert-block-events", "bench-reps", "skim-workers", "gen-met-scale"])
def test_a_bad_numeric_flag_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", "f.evt", "--events", "100", "--seed", "3"]) == 0
    write_config(tmp_path, "f.evt")
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("g*")) and not list(tmp_path.rglob("*.tmp"))


def test_a_bad_partition_plan_is_one_error_line_before_any_file_is_read(tmp_path, capsys,
                                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", "mc", "--files", "2", "--events", "100"]) == 0
    scanned = []
    monkeypatch.setattr(engine, "scan_evt", lambda path, timers=None: scanned.append(path))
    for glob in ("mc/*.evt", "none/*.evt"):
        write_config(tmp_path, glob, partition={"custom": {"per_file": 3}})
        capsys.readouterr()
        assert main(["skim", "--config", "cfg.json", "--out-dir", "g"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "partition: unknown keys ['custom']" in err
    assert scanned == [] and not list(tmp_path.glob("g*"))


@pytest.mark.parametrize("cmd", ["skim", "sum-weights"])
def test_a_glob_that_matches_no_file_leaves_no_directory(tmp_path, capsys, cmd):
    cfg = write_config(tmp_path, str(tmp_path / "none" / "*.evt"))
    assert main([cmd, "--config", str(cfg), "--out-dir", str(tmp_path / "g")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("args", [
    ["--cells", "uncached+raw"],
    ["--cells", "cached+deflate", "--workdir", "w2"],
], ids=["bench_work", "workdir"])
def test_bench_on_a_glob_that_matches_no_file_leaves_no_work_directory(tmp_path, capsys,
                                                                       monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, str(tmp_path / "none" / "*.evt"))
    assert main(["bench", "--config", str(cfg), "--out-dir", "g", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("name, magic, header", [
    ("f.ntu", b"NTU1", b'{"columns":[["a","f64"]],"columns":[["a","f64"]],"extra":1}'),
    ("f.evt", b"EVT1", b'{"record":[["a","f64"]],"record":[["b","i64"]]}'),
], ids=["ntu", "evt"])
def test_inspect_of_a_header_with_a_repeated_key_is_a_data_error(tmp_path, capsys, name,
                                                                 magic, header):
    path = tmp_path / name
    path.write_bytes(magic + struct.pack("<I", len(header)) + header + bytes(13))
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "duplicate key" in err


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


def test_config_value_of_the_wrong_json_type_is_one_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path, str(tmp_path / "*.evt"), workers="2")
    assert main(["skim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "workers" in err


@pytest.mark.parametrize("extra, named", [
    ({"luminosity_invpb": math.inf}, "Infinity is not a JSON number"),
    ({"partition": {"mode": "custom"}}, "unknown keys ['mode']"),
    ({"persist": True}, "unknown keys ['persist']"),
    ({"ntu_group_rows": 65536}, "unknown keys ['ntu_group_rows']"),
])
def test_a_config_the_parser_rejects_is_one_error_line(tmp_path, capsys, extra, named):
    cfg = write_config(tmp_path, str(tmp_path / "*.evt"), **extra)
    assert main(["skim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_a_repeated_config_key_is_one_error_line(tmp_path, capsys):
    cfg = write_config(tmp_path, str(tmp_path / "*.evt"), workers=1)
    cfg.write_text(cfg.read_text().replace('"workers": 1', '"workers": 1, "workers": 4'))
    assert main(["skim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "duplicate key 'workers'" in err


def test_a_config_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"luminosity_invpb": 1000.0, "selection": "\xff"}')
    assert main(["skim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "utf-8" in err


def test_a_config_nested_too_deeply_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"datasets": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["skim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nests too deeply" in err


@pytest.mark.parametrize("expr", ["met.pt + (met.phi > 1.0)", "-(met.pt > 1.0)"])
def test_skim_boolean_operand_in_projection_is_config_error(corpus, capsys, expr):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"),
                       projection=[{"name": "x", "expr": expr}])
    assert main(["skim", "--config", str(cfg), "--out-dir", str(corpus / "out")]) == 1
    assert "bool" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["hist", "plot-data"])
def test_subcommands_that_read_no_events_take_no_workers_flag(corpus, capsys, cmd):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"))
    out = str(corpus / "out")
    assert main([cmd, "--config", str(cfg), "--out-dir", out, "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--workers" in err


@pytest.mark.parametrize("cmd", ["skim", "sum-weights"])
def test_workers_flag_replaces_the_config_worker_count(corpus, capsys, monkeypatch, cmd):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), workers=3)
    opened = []

    def spy(descriptor, config):
        opened.append(config.workers)
        return open_dataset(descriptor, config)

    open_dataset = cli.open_dataset
    monkeypatch.setattr(cli, "open_dataset", spy)
    out = str(corpus / "out")
    assert main([cmd, "--config", str(cfg), "--out-dir", out]) == 0
    assert main([cmd, "--config", str(cfg), "--out-dir", out, "--workers", "2"]) == 0
    assert opened == [3, 2]


def test_hist_requires_skim_outputs(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"))
    assert main(["hist", "--config", str(cfg), "--out-dir", str(corpus / "empty_out")]) == 2
    assert "skim" in capsys.readouterr().err


def test_hist_of_an_ntuple_cut_inside_its_footer_is_a_data_error(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"))
    out = corpus / "out"
    assert main(["skim", "--config", str(cfg), "--out-dir", str(out)]) == 0
    ntu = out / "sig.ntu"
    ntu.write_bytes(ntu.read_bytes()[:-5])
    capsys.readouterr()
    assert main(["hist", "--config", str(cfg), "--out-dir", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "histograms.json").exists()


@pytest.mark.parametrize("cmd", ["skim", "hist", "plot-data"])
def test_two_labels_that_map_to_one_ntuple_are_one_error_line(corpus, capsys, cmd):
    def config(mc_label, data_label):
        datasets = [
            {"glob": str(corpus / "mc" / "*.evt"), "kind": "mc", "xsec_pb": 50.0,
             "label": mc_label},
            {"glob": str(corpus / "data" / "*.evt"), "kind": "data", "label": data_label},
        ]
        path = corpus / f"{mc_label.replace('/', '-')}.json"
        path.write_text(json.dumps({"datasets": datasets, "luminosity_invpb": 1000.0}))
        return str(path)

    out = corpus / "out"
    assert main(["skim", "--config", config("x_y", "data"), "--out-dir", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main([cmd, "--config", config("x/y", "x_y"), "--out-dir", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith("error: datasets 'x/y' and 'x_y' both map to ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_full_pipeline_matches_serial_oracle(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), str(corpus / "data" / "*.evt"),
                       workers=3, partition={"target_bytes": 262144})
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
    # only the cached cell's warm-up fills the cache, and the line shows how much
    filled = {r["cell"]["cached"]: r["warmup"]["bytes_cached"] for r in reports}
    assert filled[False] == 0 and filled[True] > 0
    assert f"warm-up bytes_cached {filled[True]})" in stdout
    assert (out / "bench_report.csv").exists()


def test_bench_cli_labels_thread_sums(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), selection="met.pt > 50.0")
    rc = main(["bench", "--config", str(cfg), "--out-dir", str(corpus / "bench_out"),
               "--reps", "3", "--workers", "2", "--cells", "uncached+raw"])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("uncached+raw+w2: total ")
    assert "s wall; phases summed over 2 threads: read " in line


def test_bench_runs_on_the_config_worker_count(corpus, capsys):
    cfg = write_config(corpus, str(corpus / "mc" / "*.evt"), workers=2)
    rc = main(["bench", "--config", str(cfg), "--out-dir", str(corpus / "bench_out"),
               "--reps", "3", "--cells", "uncached+raw"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("uncached+raw+w2: total ")


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
