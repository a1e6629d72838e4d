"""Ablation — micro-batched serving vs. closed-loop one-query-per-call.

The serving layer (:mod:`repro.serve`) claims that single-query traffic
can inherit the vectorized ``query_batch`` speedup by coalescing
individually arriving requests into micro-batches, and that a pool of
worker processes over one ``mmap_points=True`` snapshot serves them
without multiplying corpus memory.  This bench measures the claim:

* For every index kind, a **closed-loop baseline** answers the request
  stream with one ``index.query`` call per request.
* The same stream is then pushed through :class:`repro.serve.IndexServer`
  one request at a time — in-process (``workers=0``) and over worker
  pools — and throughput, latency percentiles, and batch shapes are
  recorded.
* Served answers are checked **bit-identical** to the closed-loop
  baseline (indices, distances, and per-query stats) at every scale.

Results land in ``benchmarks/results/BENCH_serving.json`` (schema
``bench_serving/v1``) plus a human-readable text report.  Set
``REPRO_BENCH_SERVING_SCALE=smoke`` to run tiny corpora and skip the
machine-speed assertion (identity is still enforced) — that is what the
CI smoke job does.
"""

import json
import os
import tempfile

import numpy as np

import _experiments as exp
from repro.evaluation.reporting import format_table
from repro.search import (
    BruteForceIndex,
    IDistanceIndex,
    IGridIndex,
    KdTreeIndex,
    LshIndex,
    PyramidIndex,
    RTreeIndex,
    VAFileIndex,
)
from repro.serve import BatchPolicy, compare_serving

_SMOKE = os.environ.get("REPRO_BENCH_SERVING_SCALE", "").lower() == "smoke"
_K = 3
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_JSON_NAME = "BENCH_serving.json"

# A batch starts whenever a worker is free and carries at most 128
# requests: the wide batch is what buys the vectorized speedup.
_POLICY_MAX_BATCH = 128

if _SMOKE:
    _N, _D = 300, 8
    _HEADLINE_QUERIES = 60
    _SWEEP_QUERIES = 60
    _HEADLINE_WORKERS = [0, 1, 2]
    _SWEEP_WORKERS = [0, 1]
else:
    # The acceptance configuration: 10k x 16 brute force, 4 workers.
    _N, _D = 10_000, 16
    _HEADLINE_QUERIES = 2_000
    _SWEEP_QUERIES = 300
    _HEADLINE_WORKERS = [0, 1, 2, 4]
    _SWEEP_WORKERS = [0, 2]

# Brute force is the headline family (its query_batch is a single
# matmul, so micro-batching has the most to win); the remaining kinds
# run a narrower sweep that still exercises in-process and pooled
# serving for every query_batch implementation.
_FAMILIES = [
    ("bruteforce", lambda pts: BruteForceIndex(pts), _HEADLINE_WORKERS,
     _HEADLINE_QUERIES),
    ("kdtree", lambda pts: KdTreeIndex(pts), _SWEEP_WORKERS, _SWEEP_QUERIES),
    ("rtree", lambda pts: RTreeIndex(pts), _SWEEP_WORKERS, _SWEEP_QUERIES),
    ("vafile", lambda pts: VAFileIndex(pts), _SWEEP_WORKERS, _SWEEP_QUERIES),
    ("pyramid", lambda pts: PyramidIndex(pts), _SWEEP_WORKERS, _SWEEP_QUERIES),
    ("idistance", lambda pts: IDistanceIndex(pts, seed=0), _SWEEP_WORKERS,
     _SWEEP_QUERIES),
    ("igrid", lambda pts: IGridIndex(pts), _SWEEP_WORKERS, _SWEEP_QUERIES),
    ("lsh", lambda pts: LshIndex(pts, seed=0), _SWEEP_WORKERS, _SWEEP_QUERIES),
]


def _run():
    rng = np.random.default_rng(exp.SEED)
    corpus = rng.standard_normal((_N, _D))
    policy = BatchPolicy(max_batch=_POLICY_MAX_BATCH)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, build, worker_grid, n_queries in _FAMILIES:
            queries = rng.standard_normal((n_queries, _D))
            index = build(corpus)
            path = os.path.join(workdir, f"{name}.npz")
            index.save(path)
            for n_workers in worker_grid:
                comparison = compare_serving(
                    index, path, queries, _K,
                    n_workers=n_workers, policy=policy,
                )
                report = comparison.report
                rows.append(
                    {
                        "index": name,
                        "corpus_size": _N,
                        "dims": _D,
                        "n_queries": n_queries,
                        "k": _K,
                        "n_workers": n_workers,
                        "closed_loop_qps": comparison.closed_loop_qps,
                        "served_qps": comparison.served_qps,
                        "speedup": comparison.speedup,
                        "latency_p50_ms": report.latency_p50_ms,
                        "latency_p95_ms": report.latency_p95_ms,
                        "latency_p99_ms": report.latency_p99_ms,
                        "mean_batch_size": report.mean_batch_size,
                        "batch_size_histogram": {
                            str(size): count
                            for size, count in sorted(
                                report.batch_size_histogram.items()
                            )
                        },
                        "points_scanned": report.query_stats.points_scanned,
                        "identical": comparison.identical,
                    }
                )
    return rows


def _emit_json(rows):
    payload = {
        "schema": "bench_serving/v1",
        "config": {
            "scale": "smoke" if _SMOKE else "full",
            "corpus_size": _N,
            "dims": _D,
            "k": _K,
            "policy": {"max_batch": _POLICY_MAX_BATCH},
            "seed": exp.SEED,
        },
        "runs": rows,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, _JSON_NAME), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_ablation_serving(benchmark, capsys):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    _emit_json(rows)

    table = format_table(
        [
            "index", "workers", "queries", "closed q/s", "served q/s",
            "speedup", "p50 ms", "p99 ms", "mean batch", "bit-identical",
        ],
        [
            (
                row["index"],
                "in-proc" if row["n_workers"] == 0 else row["n_workers"],
                row["n_queries"],
                f"{row['closed_loop_qps']:,.0f}",
                f"{row['served_qps']:,.0f}",
                f"{row['speedup']:.1f}x",
                f"{row['latency_p50_ms']:.2f}",
                f"{row['latency_p99_ms']:.2f}",
                f"{row['mean_batch_size']:.1f}",
                "yes" if row["identical"] else "NO",
            )
            for row in rows
        ],
        title=(
            "Micro-batched serving vs. closed-loop one-query-per-call "
            f"({_N:,} x {_D} corpus)"
        ),
    )
    if _SMOKE:
        table += "\nnote: smoke scale — throughput assertion skipped"
    exp.emit(table, "ablation_serving", capsys)

    # Identity is non-negotiable at every scale: a serving layer that
    # answers differently from sequential ``query`` is wrong, not fast.
    for row in rows:
        assert row["identical"], (
            f"{row['index']} served results diverged from the closed-loop "
            f"baseline at n_workers={row['n_workers']}"
        )
    if _SMOKE:
        return
    # The headline claim: micro-batching turns one-at-a-time brute-force
    # traffic into >= 5x the closed-loop throughput at the acceptance
    # configuration (10k x 16 corpus, 4 workers).
    headline = [
        row for row in rows
        if row["index"] == "bruteforce" and row["n_workers"] == 4
    ]
    assert headline, "bruteforce 4-worker configuration missing from sweep"
    assert headline[0]["speedup"] >= 5.0, (
        "micro-batched brute-force serving only "
        f"{headline[0]['speedup']:.1f}x the closed-loop baseline"
    )
