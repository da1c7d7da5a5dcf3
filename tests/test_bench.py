import csv
import glob
import io
import json
from dataclasses import fields

import pytest

from skimflow.analysis import AnalysisConfig
from skimflow.bench import (
    BenchCell,
    PhaseSample,
    TimingReport,
    compare_reports,
    prepare_input,
    run_benchmark,
    reports_to_csv,
    reports_to_json,
)
from skimflow.engine import DatasetDescriptor, EngineConfig
from skimflow.errors import IncomparableConfigs, UsageError
from skimflow.generator import GeneratorSpec, generate_corpus, generate_evt
from skimflow.storage import inspect_evt, scan_evt
from skimflow.timing import PhaseTimers


@pytest.fixture(scope="module")
def bench_setup(tmp_path_factory):
    """A corpus big enough that phase times are not pure noise, plus a
    permissive config so the write phase does real work."""
    root = tmp_path_factory.mktemp("bench_corpus")
    generate_corpus(GeneratorSpec(seed=21, n_events=20000), root / "mc", 2, block_target=2048)
    config = AnalysisConfig(
        datasets=(DatasetDescriptor(glob=str(root / "mc" / "*.evt"), kind="mc",
                                    label="sample", xsec_pb=10.0),),
        luminosity_invpb=1000.0,
        selection="met.pt > 50.0",
        engine=EngineConfig(partition_target_bytes=1 << 20),
    )
    return {"root": root, "config": config}


def test_repetitions_must_be_at_least_three(bench_setup, tmp_path):
    with pytest.raises(UsageError):
        run_benchmark(bench_setup["config"], BenchCell(False, False), repetitions=2,
                      workdir=tmp_path)


def test_uncached_report_structure_and_decomposition(bench_setup, tmp_path):
    report = run_benchmark(bench_setup["config"], BenchCell(cached=False, compressed=False),
                           repetitions=3, workdir=tmp_path)
    assert report.repetitions == 3 and len(report.reps) == 3
    assert report.corpus_events == 20000 and report.corpus_files == 2
    med = report.median
    # one traversal: every corpus byte is read once and every block decoded once
    paths = sorted((bench_setup["root"] / "mc").glob("*.evt"))
    assert med.bytes_read == report.corpus_bytes
    assert med.bytes_decoded == sum(inspect_evt(p)["decoded_bytes"] for p in paths)
    assert med.cache_hits == 0 and med.bytes_cached == 0
    assert med.read_compute_s == med.read_s + med.decode_s + med.compute_s
    # single worker: the four phases cover the measured wall time within 5%
    for sample in report.reps:
        phase_sum = sample.read_s + sample.decode_s + sample.compute_s + sample.write_s
        assert abs(sample.total_s - phase_sum) <= 0.05 * sample.total_s


def test_cached_reps_read_zero_bytes(bench_setup, tmp_path):
    report = run_benchmark(bench_setup["config"], BenchCell(cached=True, compressed=False),
                           repetitions=3, workdir=tmp_path)
    assert report.warmup.bytes_read > 0  # warm-up populated the cache
    assert report.warmup.bytes_cached > 0
    for sample in report.reps:
        assert sample.bytes_read == 0 and sample.bytes_cached == 0
        assert sample.cache_hits > 0


def test_outputs_identical_across_cells(bench_setup, tmp_path):
    cells = [BenchCell(False, False), BenchCell(True, False), BenchCell(False, True)]
    reports = [run_benchmark(bench_setup["config"], cell, repetitions=3, workdir=tmp_path)
               for cell in cells]
    assert len({r.output_sha256 for r in reports}) == 1
    assert len({r.median.rows_out for r in reports}) == 1


def test_compare_reports_self_is_unity(bench_setup, tmp_path):
    report = run_benchmark(bench_setup["config"], BenchCell(False, False),
                           repetitions=3, workdir=tmp_path)
    cmp = compare_reports(report, report)
    assert all(r == 1.0 for r in cmp["ratios"].values())


def test_compare_cached_vs_uncached_speedup(bench_setup, tmp_path):
    uncached = run_benchmark(bench_setup["config"], BenchCell(False, False),
                             repetitions=3, workdir=tmp_path)
    cached = run_benchmark(bench_setup["config"], BenchCell(True, False),
                           repetitions=3, workdir=tmp_path)
    cmp = compare_reports(cached, uncached)
    assert cmp["ratios"]["total"] < 1.0
    assert cmp["ratios"]["read_compute"] < 1.0


def test_compressed_input_increases_read_decode(bench_setup, tmp_path):
    raw = run_benchmark(bench_setup["config"], BenchCell(False, False),
                        repetitions=3, workdir=tmp_path)
    packed = run_benchmark(bench_setup["config"], BenchCell(False, True),
                           repetitions=3, workdir=tmp_path)
    assert packed.corpus_bytes < raw.corpus_bytes
    assert packed.median.read_s + packed.median.decode_s > raw.median.read_s + raw.median.decode_s


def test_incomparable_reports_rejected(bench_setup, tmp_path, tmp_path_factory):
    report_a = run_benchmark(bench_setup["config"], BenchCell(False, False),
                             repetitions=3, workdir=tmp_path)
    other_root = tmp_path_factory.mktemp("other")
    generate_evt(GeneratorSpec(seed=5, n_events=500), other_root / "f.evt")
    other_config = AnalysisConfig(
        datasets=(DatasetDescriptor(glob=str(other_root / "*.evt"), kind="mc",
                                    label="sample", xsec_pb=10.0),),
        luminosity_invpb=1000.0,
        selection="met.pt > 50.0",
    )
    report_b = run_benchmark(other_config, BenchCell(False, False),
                             repetitions=3, workdir=other_root)
    with pytest.raises(IncomparableConfigs):
        compare_reports(report_a, report_b)


def test_report_serialization(bench_setup, tmp_path):
    reports = [run_benchmark(bench_setup["config"], BenchCell(False, False),
                             repetitions=3, workdir=tmp_path)]
    parsed = json.loads(reports_to_json(reports))
    assert parsed[0]["cell"] == {"cached": False, "compressed": False, "workers": 1}
    sample_keys = {f.name for f in fields(PhaseTimers)} | {"total_s", "rows_out", "read_compute_s"}
    for sample in [parsed[0]["warmup"], *parsed[0]["reps"], parsed[0]["median"]]:
        assert set(sample) == sample_keys
    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "dataset,cached,compressed,workers,phase,seconds"
    assert len(lines) == 1 + 6  # one cell x six phases


def test_csv_quotes_a_label_that_holds_a_comma_a_quote_or_a_newline():
    label = 'sig, "v2"\nrun'
    sample = PhaseSample(read_s=0.5, total_s=2.0)
    report = TimingReport(label, BenchCell(cached=True, compressed=False, workers=2), 3,
                          1, 10, 100, sample, (sample,) * 3, sample, "", ())
    rows = list(csv.reader(io.StringIO(reports_to_csv([report]), newline="")))
    assert rows[0] == ["dataset", "cached", "compressed", "workers", "phase", "seconds"]
    assert rows[1] == [label, "true", "false", "2", "read", "0.5"]
    assert [row[4:] for row in rows[1:]] == [
        ["read", "0.5"], ["decode", "0.0"], ["compute", "0.0"], ["write", "0.0"],
        ["read_compute", "0.5"], ["total", "2.0"],
    ]


def deflate_copies(source_glob, workdir):
    """The event count of each file that the deflate variant's glob
    matches, in the order a dataset opens them."""
    descriptor = DatasetDescriptor(glob=str(source_glob), kind="mc", label="sample",
                                   xsec_pb=10.0)
    copies = sorted(glob.glob(prepare_input(descriptor, True, workdir)))
    assert all(scan_evt(path).compressed for path in copies)
    return [scan_evt(path).n_events for path in copies]


def test_sources_not_named_evt_are_converted_and_matched(tmp_path):
    (tmp_path / "bin").mkdir()
    for i, n in enumerate((300, 200)):
        generate_evt(GeneratorSpec(seed=i, n_events=n), tmp_path / "bin" / f"f{i}.dat")
    assert deflate_copies(tmp_path / "bin" / "*.dat", tmp_path / "work") == [300, 200]


def test_copies_of_sources_that_left_the_glob_are_not_read(tmp_path):
    for n_files in (3, 2):
        for old in (tmp_path / "mc").glob("*.evt"):
            old.unlink()
        generate_corpus(GeneratorSpec(seed=n_files, n_events=600), tmp_path / "mc", n_files)
        counts = deflate_copies(tmp_path / "mc" / "*.evt", tmp_path / "work")
        assert counts == [600 // n_files] * n_files


def test_sources_of_one_name_in_two_directories_get_a_copy_each(tmp_path):
    for directory, n in (("a", 300), ("b", 200)):
        (tmp_path / directory).mkdir()
        generate_evt(GeneratorSpec(seed=n, n_events=n), tmp_path / directory / "x.evt")
    assert deflate_copies(tmp_path / "*" / "x.evt", tmp_path / "work") == [300, 200]


def test_bytes_read_scales_linearly_with_events(tmp_path):
    """Uncached bytes read vs event count: linear fit R^2 > 0.99."""
    sizes = [2000, 4000, 6000, 8000]
    points = []
    for n in sizes:
        generate_evt(GeneratorSpec(seed=31, n_events=n), tmp_path / f"n{n}.evt")
        config = AnalysisConfig(
            datasets=(DatasetDescriptor(glob=str(tmp_path / f"n{n}.evt"), kind="mc",
                                        label="sample", xsec_pb=10.0),),
            luminosity_invpb=1000.0,
            selection="met.pt > 50.0",
        )
        report = run_benchmark(config, BenchCell(False, False), repetitions=3,
                               workdir=tmp_path / f"w{n}")
        points.append((n, report.median.bytes_read))
    xs = [p[0] for p in points]
    ys = [float(p[1]) for p in points]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in points)
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    r_squared = sxy * sxy / (sxx * syy)
    assert r_squared > 0.99


def test_a_regenerated_source_is_converted_again(tmp_path):
    """The deflate cell skims a fresh copy of a corpus regenerated under
    the same glob, not the copy converted from the old one."""
    config = AnalysisConfig(
        datasets=(DatasetDescriptor(glob=str(tmp_path / "mc" / "*.evt"), kind="mc",
                                    label="sample", xsec_pb=10.0),),
        luminosity_invpb=1000.0,
    )
    cells = [BenchCell(cached=False, compressed=False), BenchCell(cached=False, compressed=True)]
    for seed in (1, 2):
        generate_corpus(GeneratorSpec(seed=seed, n_events=3000), tmp_path / "mc", 2)
        raw, deflate = (run_benchmark(config, cell, repetitions=3, workdir=tmp_path / "work")
                        for cell in cells)
        assert raw.median.rows_out == deflate.median.rows_out
        assert raw.output_sha256 == deflate.output_sha256
