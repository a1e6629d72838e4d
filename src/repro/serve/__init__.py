"""Query serving: micro-batching, worker pools, caching, and stats.

The paper's operational argument (Sections 4-6) is that a well-chosen
reduced representation makes similarity *queries* cheap; this package
turns the repo's batch kernels and snapshot persistence into a serving
stack that realizes the claim for single-query traffic:

* :class:`MicroBatcher` — coalesces individually arriving ``(query, k)``
  requests into ``query_batch`` calls, starting a batch whenever the
  backend has a free slot (:class:`BatchPolicy` caps its size), so
  one-at-a-time traffic inherits the vectorized batch speedup without
  waiting on a timer.  The same queue enforces per-request
  deadlines and the bounded admission/load-shedding policy.
* :class:`WorkerPool` — N OS processes, each ``load()``-ing the same
  index snapshot with ``mmap_points=True``.  The corpus pages are shared
  read-only through the page cache, so N workers cost roughly one
  corpus, not N.  Crashed workers restart; hung workers (unanswered work
  held in silence past the heartbeat timeout, even after request
  deadlines expired) are killed into the same
  restart-plus-bounded-resubmission path.
* :class:`ResultCache` — an LRU over ``(query bytes, k, snapshot
  fingerprint)`` with hit/miss/eviction counters.  Concurrent identical
  misses coalesce: the second submitter rides the first's in-flight
  computation instead of recomputing (no cache stampede), and the
  fingerprint is derived from the snapshot's zip central directory so
  startup never streams the corpus bytes a memory-mapped server
  deliberately left on disk.
* :class:`ServingStats` / :class:`ServingReport` — throughput, latency
  percentiles over a bounded deterministic reservoir, batch-size
  histogram, summed :class:`~repro.search.results.QueryStats`, and the
  full degradation ledger (failed / shed / deadline-exceeded /
  cancelled / restarted / resubmitted).
* :class:`IndexServer` — the facade wiring all of the above together.
* :class:`MutableIndexServer` (:mod:`repro.serve.mutation`) — live
  insert/delete on top of immutable snapshot *generations*: an
  in-memory memtable merged exactly with the base answer, a background
  compactor that publishes new generations, and a zero-downtime hot
  swap whose in-flight queries are never dropped or mis-answered.
* :mod:`repro.serve.wal` — the per-generation write-ahead log
  (:class:`WalWriter`, :func:`read_wal`, :class:`WalError`) that makes
  the memtable crash-durable: checksummed append-before-acknowledge
  records, a ``sync_policy`` knob pricing fsync explicitly, atomic
  rotation at every compaction, and replay on resume that rebuilds the
  server bit-identically — torn tails truncated, mid-stream corruption
  refused loudly.
* :mod:`repro.serve.errors` — the typed failure taxonomy
  (:class:`DeadlineExceeded`, :class:`ServerOverloaded`,
  :class:`ServerClosedError`, :class:`WorkerError`, and
  :class:`ShardError` raised by the scatter-gather coordinator in
  :mod:`repro.shard`).
* :mod:`repro.serve.faults` — deterministic fault injection
  (:class:`FaultPlan`, :class:`FaultyIndex`, :class:`FaultyLoader`) for
  the robustness tests and ``bench_ablation_robustness.py``.

Every layer preserves the repo-wide contract: served answers are
bit-identical to sequential ``index.query`` — batching, caching, and
process hops never trade accuracy for throughput, and degradation sheds
or fails requests loudly instead of answering approximately.
"""

from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.bench import (
    MutationComparison,
    ServingComparison,
    compare_mutable_serving,
    compare_serving,
)
from repro.serve.cache import (
    CacheCounters,
    ResultCache,
    result_cache_key,
    snapshot_fingerprint,
)
from repro.serve.errors import (
    DeadlineExceeded,
    ServerClosedError,
    ServerOverloaded,
    ServingError,
    ShardError,
)
from repro.serve.faults import (
    FaultPlan,
    FaultyIndex,
    FaultyLoader,
    InjectedFault,
)
from repro.serve.mutation import MutableIndexServer, MutationError
from repro.serve.pool import WorkerError, WorkerPool
from repro.serve.server import IndexServer
from repro.serve.stats import LatencyReservoir, ServingReport, ServingStats
from repro.serve.wal import (
    SYNC_POLICIES,
    WalError,
    WalReplay,
    WalWriter,
    read_wal,
)

__all__ = [
    "BatchPolicy",
    "CacheCounters",
    "compare_mutable_serving",
    "compare_serving",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultyIndex",
    "FaultyLoader",
    "IndexServer",
    "InjectedFault",
    "LatencyReservoir",
    "MicroBatcher",
    "MutableIndexServer",
    "MutationComparison",
    "MutationError",
    "ResultCache",
    "result_cache_key",
    "ServerClosedError",
    "ServerOverloaded",
    "ServingComparison",
    "ServingError",
    "ServingReport",
    "ServingStats",
    "ShardError",
    "snapshot_fingerprint",
    "SYNC_POLICIES",
    "read_wal",
    "WalError",
    "WalReplay",
    "WalWriter",
    "WorkerError",
    "WorkerPool",
]
