"""skimflow benchmark: time-to-plots, cached re-skims and budgeted cold reads.

    python3 perfbench/run.py --workload analysis_cold --seed 1 --seconds 10 --trace 0

Runs one workload in this process and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run. Without --workload, every workload runs in its own
process, one at a time, and each prints its line prefixed by its name.

A run sets up its inputs SETUP_REPEATS times (setup_s is the median),
each set-up followed by a whole round of operations, and adds rounds until
the operations have taken --seconds. It then records peak memory, and only
then computes the reference and checks every distinct output. An operation that raises or whose output
disagrees with the reference counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 3


def _cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """One run of one workload; `sizes` overrides the corpus sizes."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[name](seed, workdir, **sizes)
    try:
        tracer = Tracer(workload.workers) if trace else None
        setups, setup_s = [], []
        walls, untraced_walls, digests = [], [], []
        op_cpu = 0.0
        rounds = 0
        # Every set-up is followed by a round, and rounds go on until they
        # have taken `seconds`. The host's speed drifts over tens of
        # seconds; rounds spread over the whole run average more of that
        # drift than rounds measured back to back. A traced run alternates
        # untraced and traced rounds, so the tracing overhead is measured in
        # the same process.
        while rounds < SETUP_REPEATS or sum(walls) < seconds:
            if len(setups) < SETUP_REPEATS:
                t0 = time.perf_counter()
                setups.append(workload.setup())
                setup_s.append(time.perf_counter() - t0)
            traced = trace and rounds % 2 == 1
            if traced:
                tracer.install(workload.api)
            try:
                for i in range(workload.round_size):
                    c0 = _cpu_seconds()
                    t0 = time.perf_counter()
                    try:
                        out = workload.operation(i)
                    except Exception:
                        traceback.print_exc(file=sys.stderr)
                        out = None
                    wall = time.perf_counter() - t0
                    op_cpu += _cpu_seconds() - c0
                    walls.append(wall)
                    print(f"op {len(walls)}{' traced' if traced else ''}: {wall:.3f} s",
                          file=sys.stderr)
                    problem = out is None
                    if traced:
                        op = tracer.end_op(wall, workload.input_events)
                        if not workload.reads_storage and op["bytes_read"]:
                            print(f"op {len(walls)}: read {op['bytes_read']} storage bytes "
                                  "from a persisted dataset", file=sys.stderr)
                            problem = True
                    elif trace:
                        untraced_walls.append(wall)
                    digests.append(None if problem else workload.keep(i, out))
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
        peak_rss_mb = _peak_rss_mb()
        workload.close()
        for warning in sorted(workload.warnings):
            print(f"warning: {warning}", file=sys.stderr)

        problems = workload.check()
        failed = 0
        for n, digest in enumerate(digests, 1):
            if digest is None or problems[digest]:
                failed += 1
                for p in problems.get(digest, ())[:5]:
                    print(f"op {n}: {p}", file=sys.stderr)
        attempted = len(digests)
        events = attempted * workload.input_events
        if trace:
            metrics = layer_metrics(
                tracer,
                {
                    "generator_events_per_s": statistics.median(
                        workload.input_events / s["generator_s"] for s in setups
                    ),
                    "convert_s": statistics.median(s["convert_s"] for s in setups),
                },
                untraced_walls,
            )
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "turnaround_s": {"value": statistics.median(walls), "unit": "s"},
                "events_per_s": {"value": events / sum(walls), "unit": "events/s"},
                "cpu_us_per_event": {"value": op_cpu / events * 1e6, "unit": "us"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }
        return {
            "correct": failed < attempted,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run_all(args) -> int:
    """Every workload in its own process, one at a time."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(f"{name}: {lines[-1]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured operation time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skimflow").is_dir():
        print(f"no program sources at {SRC / 'skimflow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return _run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
