"""Closed-loop vs micro-batched serving comparison.

Shared by ``repro serve-bench`` (CLI) and
``benchmarks/bench_ablation_serving.py`` so both measure the same way:

* **closed loop** — one ``index.query`` call per query, sequentially:
  the one-query-per-call baseline a naive deployment pays.
* **served** — the same queries submitted one at a time to a running
  :class:`~repro.serve.server.IndexServer`, which coalesces them into
  ``query_batch`` calls; wall time covers first submit to last result
  (server startup is excluded — serving throughput is a warm-process
  property).

Both paths answer from the same index structure, and
:func:`identical_results` checks the served answers are bit-identical
to the closed-loop ones — the serving layer is not allowed to buy
throughput with accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.serve.batcher import BatchPolicy
from repro.serve.errors import ServerOverloaded, ServingError
from repro.serve.server import IndexServer
from repro.serve.stats import ServingReport


def identical_answers(reference, live_ids, observed) -> bool:
    """True when a mutable-serving answer equals the fresh-rebuild one.

    ``reference`` is the answer of an index freshly built over the live
    rowset (rows ascending by global id), ``live_ids`` maps its local
    indices to global row ids, and ``observed`` is the
    :class:`~repro.serve.mutation.MutableIndexServer` answer (global
    ids).  Neighbors and distances must match bit-for-bit; stats are
    not compared — base + delta execution honestly reports its own work
    (base top-``k+|tombstones|`` plus a delta scan), like the sharded
    merge does.
    """
    want = [
        (float(n.distance), int(live_ids[n.index]))
        for n in reference.neighbors
    ]
    got = [(float(n.distance), int(n.index)) for n in observed.neighbors]
    return want == got


def identical_results(expected, observed) -> bool:
    """True when every delivered result matches bit-for-bit.

    Compares neighbor indices, distances, and per-query stats — the
    full observable surface of a :class:`KnnResult`.  ``None`` entries
    in ``observed`` mark requests that were shed or failed with a typed
    serving error; they are skipped, because the degradation contract is
    "fail loudly, never answer wrong" — an undelivered answer is not a
    divergence, a *different* answer is.
    """
    expected = list(expected)
    observed = list(observed)
    if len(expected) != len(observed):
        return False
    return all(
        tuple(a.indices.tolist()) == tuple(b.indices.tolist())
        and tuple(a.distances.tolist()) == tuple(b.distances.tolist())
        and a.stats == b.stats
        for a, b in zip(expected, observed)
        if b is not None
    )


def closed_loop_run(index, queries, k: int) -> tuple[float, list]:
    """Sequential one-query-per-call baseline: (seconds, results)."""
    array = np.asarray(queries, dtype=np.float64)
    started = time.perf_counter()
    results = [index.query(row, k=k) for row in array]
    return time.perf_counter() - started, results


def served_run(
    server: IndexServer, queries, k: int, *, deadline_ms: float | None = None
) -> tuple[float, list, ServingReport]:
    """Submit every query individually; gather: (seconds, results, report).

    The server's stats are reset at the start so the returned report
    describes exactly this run.  Requests resolved with a typed serving
    error (shed by admission control, expired deadline, worker failure)
    appear as ``None`` in the result list; the report's
    ``n_shed`` / ``n_deadline_exceeded`` / ``n_failed`` counters say
    why.
    """
    array = np.asarray(queries, dtype=np.float64)
    server.reset_stats()
    started = time.perf_counter()
    futures: list = []
    for row in array:
        try:
            futures.append(server.submit(row, k=k, deadline_ms=deadline_ms))
        except ServerOverloaded:
            futures.append(None)
    results = []
    for future in futures:
        if future is None:
            results.append(None)
            continue
        try:
            results.append(future.result())
        except ServingError:
            results.append(None)
    seconds = time.perf_counter() - started
    return seconds, results, server.stats()


@dataclass(frozen=True)
class ServingComparison:
    """Closed-loop vs served measurements for one configuration."""

    index_kind: str
    n_points: int
    dims: int
    n_queries: int
    k: int
    n_workers: int
    closed_loop_seconds: float
    closed_loop_qps: float
    served_seconds: float
    served_qps: float
    speedup: float
    identical: bool
    report: ServingReport


def compare_serving(
    index,
    snapshot_path: str,
    queries,
    k: int,
    *,
    n_workers: int,
    policy: BatchPolicy | None = None,
    cache_capacity: int = 0,
    deadline_ms: float | None = None,
    heartbeat_timeout: float | None = 30.0,
) -> ServingComparison:
    """Measure closed-loop vs micro-batched serving for one index.

    ``index`` is the locally built structure (the baseline); the server
    loads ``snapshot_path``, which must be a snapshot of that same
    index so the bit-identity check is meaningful.  The hardening knobs
    (``deadline_ms``, admission bounds on ``policy``,
    ``heartbeat_timeout``) are forwarded so
    ``repro serve-bench`` can exercise degradation behavior; shed or
    failed requests are excluded from the identity check and show up in
    the report counters instead.
    """
    array = np.asarray(queries, dtype=np.float64)
    closed_seconds, closed_results = closed_loop_run(index, array, k)
    with IndexServer(
        snapshot_path,
        n_workers=n_workers,
        policy=policy,
        cache_capacity=cache_capacity,
        heartbeat_timeout=heartbeat_timeout,
    ) as server:
        served_seconds, served_results, report = served_run(
            server, array, k, deadline_ms=deadline_ms
        )
    n_queries = array.shape[0]
    return ServingComparison(
        index_kind=type(index).__name__,
        n_points=index.n_points,
        dims=index.dimensionality,
        n_queries=n_queries,
        k=k,
        n_workers=n_workers,
        closed_loop_seconds=closed_seconds,
        closed_loop_qps=n_queries / closed_seconds if closed_seconds else 0.0,
        served_seconds=served_seconds,
        served_qps=n_queries / served_seconds if served_seconds else 0.0,
        speedup=closed_seconds / served_seconds if served_seconds else 0.0,
        identical=identical_results(closed_results, served_results),
        report=report,
    )


@dataclass(frozen=True)
class MutationComparison:
    """One mutate-while-serving trace, identity-checked throughout."""

    index_kind: str
    n_initial: int
    dims: int
    k: int
    n_ops: int
    n_inserts: int
    n_deletes: int
    n_queries: int
    n_compactions: int
    n_drift_compactions: int
    n_generations: int
    swap_inflight_queries: int
    wal_sync: str
    identical: bool
    mutate_seconds: float
    query_seconds: float
    query_qps: float


def compare_mutable_serving(
    root: str,
    points,
    queries,
    k: int,
    *,
    kind: str = "bruteforce",
    index_kwargs: dict | None = None,
    n_ops: int = 200,
    insert_fraction: float = 0.5,
    delete_fraction: float = 0.2,
    compact_every: int | None = 64,
    drift_threshold: float | None = None,
    drift_scale=None,
    swap_inflight_queries: int = 8,
    n_workers: int = 0,
    deadline_ms: float | None = None,
    wal_sync: str = "always",
    seed: int = 0,
) -> MutationComparison:
    """Drive an insert/delete/query trace and check rebuild identity.

    The trace interleaves inserts, deletes, and queries drawn from a
    seeded rng over a :class:`~repro.serve.mutation.MutableIndexServer`
    rooted at ``root``.  **Every** query in the trace is checked
    bit-identical against an index freshly built over the live rowset
    at that instant.  After every ``compact_every`` mutations a manual
    compaction runs *concurrently* with ``swap_inflight_queries``
    queries (mutations quiescent, so the expected answer is fixed),
    asserting the hot swap neither drops nor mis-answers in-flight
    traffic.  With ``drift_threshold`` set (projscreen), inserts are
    drawn scaled by ``drift_scale`` so the live distribution rotates
    away from the frozen basis and drift compactions fire.
    ``wal_sync`` picks the write-ahead-log fsync policy the mutations
    pay for (``mutate_seconds`` prices it).
    """
    import threading

    from repro.serve.mutation import (
        MutableIndexServer,
        live_reference_index,
    )

    array = np.asarray(points, dtype=np.float64)
    probe = np.asarray(queries, dtype=np.float64)
    rng = np.random.default_rng(seed)
    dims = array.shape[1]
    n_inserts = n_deletes = n_queries = n_checked_swap = 0
    identical = True
    mutate_seconds = 0.0
    query_seconds = 0.0

    server = MutableIndexServer(
        root,
        array,
        kind=kind,
        index_kwargs=index_kwargs,
        n_workers=n_workers,
        drift_threshold=drift_threshold,
        default_deadline_ms=deadline_ms,
        wal_sync=wal_sync,
    )
    live: list[int] = list(range(array.shape[0]))
    with server:
        def check_queries(rows) -> bool:
            nonlocal query_seconds
            reference, live_ids = live_reference_index(server)
            ok = True
            for row in rows:
                started = time.perf_counter()
                observed = server.query(row, k=k)
                query_seconds += time.perf_counter() - started
                ok = ok and identical_answers(
                    reference.query(row, k=k), live_ids, observed
                )
            return ok

        since_compaction = 0
        for _ in range(n_ops):
            roll = rng.random()
            if roll < insert_fraction:
                vector = rng.standard_normal(dims)
                if drift_scale is not None:
                    vector = vector * np.asarray(drift_scale, dtype=float)
                started = time.perf_counter()
                live.append(server.insert(vector))
                mutate_seconds += time.perf_counter() - started
                n_inserts += 1
                since_compaction += 1
            elif roll < insert_fraction + delete_fraction and len(live) > k:
                victim = live.pop(int(rng.integers(len(live))))
                started = time.perf_counter()
                server.delete(victim)
                mutate_seconds += time.perf_counter() - started
                n_deletes += 1
                since_compaction += 1
            else:
                row = probe[int(rng.integers(probe.shape[0]))]
                n_queries += 1
                identical = check_queries([row]) and identical
            if compact_every is not None and since_compaction >= compact_every:
                since_compaction = 0
                # Hot swap under fire: queries run while the compactor
                # publishes and swaps the next generation.  Mutations
                # are quiescent, so each in-flight query has exactly
                # one correct answer regardless of which side of the
                # swap serves it.
                swap_rows = probe[
                    rng.integers(probe.shape[0], size=swap_inflight_queries)
                ]
                outcome: dict = {}

                def run_swap_queries():
                    outcome["ok"] = check_queries(list(swap_rows))

                thread = threading.Thread(target=run_swap_queries)
                thread.start()
                server.compact(reason="size")
                thread.join()
                identical = identical and outcome["ok"]
                n_queries += swap_inflight_queries
                n_checked_swap += swap_inflight_queries
        # Final sweep over the full probe set against the final rowset.
        identical = check_queries(list(probe)) and identical
        n_queries += probe.shape[0]
        generations = server.store.generations()
        return MutationComparison(
            index_kind=kind,
            n_initial=array.shape[0],
            dims=dims,
            k=k,
            n_ops=n_ops,
            n_inserts=n_inserts,
            n_deletes=n_deletes,
            n_queries=n_queries,
            n_compactions=server.n_compactions,
            n_drift_compactions=server.n_drift_compactions,
            n_generations=len(generations),
            swap_inflight_queries=n_checked_swap,
            wal_sync=wal_sync,
            identical=identical,
            mutate_seconds=mutate_seconds,
            query_seconds=query_seconds,
            query_qps=(
                n_queries / query_seconds if query_seconds else 0.0
            ),
        )
