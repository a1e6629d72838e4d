"""Ablation — scatter-gather sharding scaling curve with identity checks.

The sharded serving layer (:mod:`repro.shard`) claims that splitting a
corpus into S shard snapshots behind a :class:`ShardedIndexServer`
changes *where* the work runs but never *what* is answered: every merged
top-k is bit-identical to the unsharded index, including distance-tie
ordering.  This bench measures the 1 -> 8 shard scaling curve on one
corpus and asserts the identity on **every** run:

* ``shards=1`` — the fan-out degenerates to a single shard (the
  overhead-of-the-fan-out control row).
* ``shards=2,4,8`` (round-robin) — the scaling curve proper.
* ``shards=4`` (projected) — the same corpus partitioned by
  PROCLUS-style projected clusters instead of row interleaving, showing
  the identity is partition-independent.

Results land in ``benchmarks/results/BENCH_sharding.json`` (schema
``bench_sharding/v1``) plus a human-readable report.  Set
``REPRO_BENCH_SHARDING_SCALE=smoke`` for the tiny CI configuration —
the identity assertions hold at every scale.
"""

import json
import os
import tempfile

import numpy as np

import _experiments as exp
from repro.evaluation.reporting import format_table
from repro.search import BruteForceIndex
from repro.serve import BatchPolicy
from repro.shard import build_shards
from repro.shard.bench import compare_sharded_serving

_SMOKE = (
    os.environ.get("REPRO_BENCH_SHARDING_SCALE", "").lower() == "smoke"
)
_K = 10
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_JSON_NAME = "BENCH_sharding.json"

if _SMOKE:
    _N, _D = 600, 8
    _N_QUERIES = 40
else:
    _N, _D = 100_000, 16
    _N_QUERIES = 400

# (n_shards, method): the round-robin scaling curve plus one projected
# row demonstrating partition-independence of the merged answers.
_CONFIGS = [
    (1, "round-robin"),
    (2, "round-robin"),
    (4, "round-robin"),
    (8, "round-robin"),
    (4, "projected"),
]


def _run():
    rng = np.random.default_rng(exp.SEED)
    corpus = rng.standard_normal((_N, _D))
    queries = rng.standard_normal((_N_QUERIES, _D))
    index = BruteForceIndex(corpus)
    policy = BatchPolicy(max_batch=64, max_wait_ms=1.0)
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for n_shards, method in _CONFIGS:
            manifest = build_shards(
                corpus,
                os.path.join(workdir, f"{method}-{n_shards}"),
                n_shards,
                kind="bruteforce",
                method=method,
                seed=exp.SEED,
            )
            comparison = compare_sharded_serving(
                index,
                manifest,
                queries,
                _K,
                n_workers=1,
                policy=policy,
            )
            report = comparison.report
            rows.append(
                {
                    "shards": n_shards,
                    "method": method,
                    "closed_loop_qps": comparison.closed_loop_qps,
                    "served_qps": comparison.served_qps,
                    "speedup": comparison.speedup,
                    "n_ok": report.n_requests,
                    "n_shed": report.n_shed,
                    "n_deadline_exceeded": report.n_deadline_exceeded,
                    "n_failed": report.n_failed,
                    "n_cancelled": report.n_cancelled,
                    "identical": comparison.identical,
                }
            )
    return rows


def _emit_json(rows):
    payload = {
        "schema": "bench_sharding/v1",
        "config": {
            "scale": "smoke" if _SMOKE else "full",
            "corpus_size": _N,
            "dims": _D,
            "n_queries": _N_QUERIES,
            "k": _K,
            "index": "bruteforce",
            "workers_per_shard": 1,
            "seed": exp.SEED,
        },
        "runs": rows,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, _JSON_NAME), "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def test_ablation_sharding(benchmark, capsys):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    _emit_json(rows)

    table = format_table(
        [
            "shards", "method", "closed-loop q/s", "served q/s", "speedup",
            "ok", "failed", "bit-identical",
        ],
        [
            (
                row["shards"],
                row["method"],
                f"{row['closed_loop_qps']:.0f}",
                f"{row['served_qps']:.0f}",
                f"{row['speedup']:.2f}x",
                row["n_ok"],
                row["n_failed"],
                "yes" if row["identical"] else "NO",
            )
            for row in rows
        ],
        title=(
            "Scatter-gather sharding vs the unsharded closed loop "
            f"({_N:,} x {_D} corpus, {_N_QUERIES} queries, k={_K})"
        ),
    )
    exp.emit(table, "ablation_sharding", capsys)

    # The invariant that holds in EVERY run at EVERY scale: a sharded
    # deployment never answers differently from the single big index.
    for row in rows:
        assert row["identical"], (
            f"shards={row['shards']} ({row['method']}) delivered answers "
            "that differ from the unsharded index"
        )
        assert row["n_ok"] == _N_QUERIES, (
            f"shards={row['shards']} ({row['method']}) answered "
            f"{row['n_ok']}/{_N_QUERIES}"
        )
    assert {row["shards"] for row in rows} == {1, 2, 4, 8}
    assert {row["method"] for row in rows} == {"round-robin", "projected"}
