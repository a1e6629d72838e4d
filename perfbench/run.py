"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point-pooled --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with spans recorded around the program's public entry
points and prints the per-layer metrics instead (plus a per-request
attribution table on the lines before the result).  The last line of
standard output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every answer matched its exact reference, 1 when one did not, and 2
when the run could not be made at all (for example, no ``src/repro``
next to the benchmark).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
TRACES = os.path.join(ROOT, ".perfbench-traces")

# Host contention drifts over fractions of a second, so back-to-back
# set-ups or restarts all see the same moment; spacing them out lets
# their median sample several.
REPEAT_GAP_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "resume_s": "s",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}


class PhaseTimer:
    """Wall-clock ``(start, end)`` of named set-up phases."""

    def __init__(self) -> None:
        self.phases: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (start, time.perf_counter())


def process_rss_mb(measure, workers) -> float:
    """Peak resident memory of this process and its workers so far, in MB."""
    return measure.peak_rss_mb() + sum(
        measure.worker_peak_rss_mb(pid) for pid in workers
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("point-pooled", "screened-sharded",
                                 "ingest-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, measure, workloads, layers) -> tuple[dict, int, int, bool]:
    """Set up, measure, restart and check one workload; returns the result parts."""
    import numpy as np

    workload = {
        "point-pooled": workloads.PointPooled,
        "screened-sharded": workloads.ScreenedSharded,
        "ingest-mixed": workloads.IngestMixed,
    }[args.workload](args.seed)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    found = workloads.Mismatches()
    trace = layers.Trace(workload.name) if args.trace else None
    server = None
    try:
        if trace is not None:
            trace.install(workload)
        setups = []
        for i in range(workload.setup_repeats):
            time.sleep(REPEAT_GAP_S)
            timer = PhaseTimer()
            server, first, path = workload.setup(
                os.path.join(work, f"setup-{i}"), timer
            )
            found.compare(f"setup {i} first answer", first,
                          workload.expected_first())
            setups.append(timer.phases)
            if i < workload.setup_repeats - 1:
                server.close()
                server = None
                gc.collect()  # release the closed server before the next

        workers = measure.child_pids()
        # Gated memory is read before traffic: during the window each
        # server keeps every deadlined answer for DEADLINE_MS, so the
        # peak there grows with throughput, i.e. with the host's speed.
        setup_rss_mb = process_rss_mb(measure, workers)
        meter = measure.CpuMeter(workers)
        on_issue = trace.on_issue if trace is not None else None
        if trace is not None:
            trace.begin_window(server)
        window = workload.measure(server, args.seconds, workload.warmup,
                                  meter, on_issue)
        if trace is not None:
            trace.tracer.set_request(None)
            trace.end_window(server, workload)
        window_rss_mb = process_rss_mb(measure, workers)
        if isinstance(workload, workloads.IngestMixed):
            workload.crash(server, work, workload.crash_copies)
            space = workload.space
        else:
            space = workload.space(path)
        server.close()
        server = None

        resumes = []
        for i, image in enumerate(workload.resume_images(path)):
            time.sleep(REPEAT_GAP_S)
            start = time.perf_counter()
            resumed = workload.open(image)
            opened = time.perf_counter()
            try:
                workload.resume_firsts.append(workload.first_answer(resumed))
                resumes.append((start, opened, time.perf_counter()))
                if i == workload.resume_repeats - 1:
                    workload.keep_resumed(resumed)
            finally:
                resumed.close()
                gc.collect()
        if trace is not None:
            trace.uninstall()  # the reference builds are not traced

        workload.check(found)
    finally:
        if server is not None:
            server.close()
        if trace is not None:
            trace.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it

    for example in found.examples:
        print(f"MISMATCH {example}")
    for error in window.errors[:3]:
        print(f"FAILED {error}")
    print(f"checked {found.checked} answers, {found.wrong} differ")

    latencies = window.latencies
    ops = window.completed
    rates = measure.sub_window_rates(meter.marks, window.completions)
    setup_totals = [sum(b - a for a, b in phases.values())
                    for phases in setups]
    environment = measure.environment(
        np, multiprocessing.get_start_method(),
        "group" if workload.name == "ingest-mixed" else None,
    )
    environment.update({
        "workload": workload.name, "seed": args.seed,
        "seconds": window.seconds, "trace": args.trace,
        "host_steal_s": meter.steal_s, "host_busy_s": meter.host_busy_s,
        "workers": len(workers),
    })
    print("env " + json.dumps(environment, sort_keys=True))
    end_to_end = {
        "setup_s": measure.median(setup_totals),
        "throughput_ops_s": ops / window.seconds,
        "latency_p50_ms": measure.median(latencies) * 1e3,
        "cpu_ms_per_op": (meter.front_s + meter.workers_s) / ops * 1e3,
        "resume_s": measure.median([end - start
                                    for start, _, end in resumes]),
        "space_amp": space[0] / space[1],
        "peak_rss_mb": setup_rss_mb,
    }
    print(f"samples: {len(latencies)} query latencies, "
          f"{len(setup_totals)} set-ups, {len(resumes)} restarts, "
          f"{len(rates)} sub-windows")
    steals = [b[3] - a[3] for a, b in zip(meter.marks, meter.marks[1:])]
    print("sub-windows: ops/s " + " ".join(f"{r:.0f}" for r in rates)
          + " | host steal s " + " ".join(f"{s:.2f}" for s in steals))
    for phase in setups[0]:
        spent = [p[phase][1] - p[phase][0] for p in setups]
        print(f"setup.{phase} median {measure.median(spent) * 1e3:.3f} ms")
    # Tails are printed but not part of the result: they followed host
    # CPU steal too closely to gate (see README).
    tails = [("latency", latencies, 95.0), ("latency", latencies, 99.0)]
    if isinstance(workload, workloads.IngestMixed):
        writes = workload.write_latencies
        print(f"write_p50_ms {measure.median(writes) * 1e3:.4f} ms "
              f"({len(writes)} writes)")
        tails.append(("write", writes, 99.0))
    for what, samples, q in tails:
        used, value = layers.supported_tail(samples, q)
        print(f"{what}_p{used:g}_ms {value * 1e3:.4f} ms")
    print(f"peak_rss_window_mb {window_rss_mb:.1f} MB (not gated: see README)")
    print(f"failed_frac {window.failed / max(1, window.attempted):.6f} ratio "
          f"({window.failed} of {window.attempted})")
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")

    if trace is None:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    else:
        os.makedirs(TRACES, exist_ok=True)
        trace.tracer.dump(os.path.join(
            TRACES, f"{workload.name}-{args.seed}.jsonl"
        ))
        metrics = trace.metrics(workload, window, setups, resumes, meter)
        for line in trace.report_lines():
            print(line)
    correct = found.wrong == 0 and found.checked > 0
    return metrics, window.attempted, window.failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import measure

    measure.pin_blas_threads()
    import layers
    import workloads

    metrics, attempted, failed, correct = run(args, measure, workloads,
                                              layers)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
