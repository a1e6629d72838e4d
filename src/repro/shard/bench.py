"""Unsharded vs scatter-gather serving comparison.

Shared by ``repro serve-bench --shards S`` (CLI) and
``benchmarks/bench_ablation_sharding.py`` so both measure the same way.
The measurement protocol is exactly :mod:`repro.serve.bench` — a
:class:`~repro.shard.server.ShardedIndexServer` speaks the same
``reset_stats`` / ``submit`` / ``stats`` surface as a single
:class:`~repro.serve.server.IndexServer`, so :func:`served_run` drives
it unchanged.  The baseline stays the *unsharded* closed loop (one
``index.query`` per query on the full corpus), which is also the
reference for the bit-identity check: a sharded deployment is not
allowed to answer differently from the single big index, down to tie
ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.bench import closed_loop_run, served_run
from repro.serve.stats import ServingReport
from repro.shard.partition import ShardManifest
from repro.shard.server import ShardedIndexServer


def identical_answers(expected, observed) -> bool:
    """True when every delivered *answer* matches bit-for-bit.

    Like :func:`repro.serve.bench.identical_results` but compares the
    answer surface only — neighbor indices and distances.  The sharded
    execution's summed ``QueryStats`` legitimately differ from the
    single index's for pruning structures (S small trees visit and
    prune different node counts than one big tree), so stats are not
    part of the sharded identity contract; stats identity for the
    scan-everything index is pinned by the sharding property suite.
    ``None`` entries in ``observed`` mark requests resolved with a
    typed serving error and are skipped — an undelivered answer is not
    a divergence, a *different* answer is.
    """
    expected = list(expected)
    observed = list(observed)
    if len(expected) != len(observed):
        return False
    return all(
        tuple(a.indices.tolist()) == tuple(b.indices.tolist())
        and tuple(a.distances.tolist()) == tuple(b.distances.tolist())
        for a, b in zip(expected, observed)
        if b is not None
    )


@dataclass(frozen=True)
class ShardedComparison:
    """Unsharded closed-loop vs sharded served, one configuration."""

    index_kind: str
    n_points: int
    dims: int
    n_queries: int
    k: int
    n_shards: int
    method: str
    n_workers: int
    closed_loop_seconds: float
    closed_loop_qps: float
    served_seconds: float
    served_qps: float
    speedup: float
    identical: bool
    report: ServingReport


def compare_sharded_serving(
    index,
    manifest: ShardManifest | str,
    queries,
    k: int,
    *,
    n_workers: int = 1,
    policy=None,
    cache_capacity: int = 0,
    start_method: str | None = None,
    deadline_ms: float | None = None,
    heartbeat_timeout: float | None = 30.0,
    max_resubmits: int = 1,
) -> ShardedComparison:
    """Measure unsharded closed-loop vs sharded scatter-gather serving.

    ``index`` is the unsharded reference structure built over the full
    corpus; ``manifest`` locates the shard snapshots built from that
    same corpus with matching constructor arguments, so the identity
    check is meaningful.  Requests resolved with a typed serving error
    are excluded from the identity check (they appear in the report's
    ledger); a *different* answer fails it.
    """
    array = np.asarray(queries, dtype=np.float64)
    closed_seconds, closed_results = closed_loop_run(index, array, k)
    with ShardedIndexServer(
        manifest,
        n_workers=n_workers,
        policy=policy,
        cache_capacity=cache_capacity,
        start_method=start_method,
        heartbeat_timeout=heartbeat_timeout,
        max_resubmits=max_resubmits,
    ) as server:
        served_seconds, served_results, report = served_run(
            server, array, k, deadline_ms=deadline_ms
        )
        n_shards = server.n_shards
        method = server.manifest.method
    n_queries = array.shape[0]
    return ShardedComparison(
        index_kind=type(index).__name__,
        n_points=index.n_points,
        dims=index.dimensionality,
        n_queries=n_queries,
        k=k,
        n_shards=n_shards,
        method=method,
        n_workers=n_workers,
        closed_loop_seconds=closed_seconds,
        closed_loop_qps=n_queries / closed_seconds if closed_seconds else 0.0,
        served_seconds=served_seconds,
        served_qps=n_queries / served_seconds if served_seconds else 0.0,
        speedup=closed_seconds / served_seconds if served_seconds else 0.0,
        identical=identical_answers(closed_results, served_results),
        report=report,
    )
