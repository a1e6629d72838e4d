"""Exact top-k merge of per-shard answers.

The correctness core of scatter-gather serving.  Each shard returns the
exact top-k of *its* candidate set with local row indices; the merge
maps local indices to global ids, pools the candidates, and re-selects
the global top-k ordered by ``(distance, global id)``.

The same merge folds a mutable server's base answer (local indices)
with its memtable scan (global ids already) and drops the tombstoned
rows, and it pools the answers of mutable shards.

Why this is bit-identical to the unsharded index:

* a point's distance to the query is a function of the point and the
  query alone, so the same corpus row produces the same distance bytes
  whether it lives in a shard or in the full corpus;
* the shards partition the corpus, so the union of per-shard candidate
  sets equals the unsharded candidate set (for the exact indexes that
  set is the whole corpus; for LSH it is the probed buckets, which
  shard-decompose because bucket keys depend only on the point and the
  shared hash functions);
* any global top-k member must rank within the top-k of its own shard,
  so keeping k per shard loses nothing;
* every index in the family breaks distance ties by *lower corpus
  index*, and sorting pooled candidates by ``(distance, global id)``
  reproduces exactly that order.

Per-query :class:`~repro.search.results.QueryStats` are **summed**
across the contributing shards — work accounting is additive.  For a
scan-everything index (bruteforce) the sum equals the unsharded count;
for pruning indexes the per-shard tree shapes differ from the single
big tree, so the summed stats describe the sharded execution honestly
rather than imitating the unsharded one.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    combine_stats,
)


def merge_results(
    per_shard: Sequence[KnnResult],
    shard_ids: Sequence[np.ndarray | None],
    k: int,
    *,
    exclude=frozenset(),
) -> KnnResult:
    """Merge one query's per-shard top-k lists into the global top-k.

    Args:
        per_shard: one :class:`KnnResult` per shard.
        shard_ids: per shard, the ``(n_s,)`` global row ids mapping its
            local row ``i`` to corpus row ``shard_ids[s][i]``, or
            ``None`` when that shard's answers already carry global ids.
        k: neighbors to keep after merging.  Fewer may be returned when
            the pooled candidates run short (an approximate index with
            sparse buckets), exactly like the unsharded index would.
        exclude: global ids to drop before selection (a mutable
            server's tombstones).

    Returns:
        A :class:`KnnResult` with global indices, candidates ordered by
        ``(distance, global id)`` and truncated to ``k``, and the
        per-shard stats summed.
    """
    if len(per_shard) != len(shard_ids):
        raise ValueError(
            f"got {len(per_shard)} shard results but {len(shard_ids)} "
            "id arrays"
        )
    candidates: list[tuple[float, int]] = []
    for result, ids in zip(per_shard, shard_ids):
        for neighbor in result.neighbors:
            gid = neighbor.index if ids is None else int(ids[neighbor.index])
            if gid not in exclude:
                candidates.append((neighbor.distance, gid))
    candidates.sort()
    neighbors = tuple(
        Neighbor(index=gid, distance=distance)
        for distance, gid in candidates[:k]
    )
    return KnnResult(
        neighbors=neighbors,
        stats=combine_stats(result.stats for result in per_shard),
    )


def merge_batches(
    per_shard: Sequence[BatchKnnResult],
    shard_ids: Sequence[np.ndarray | None],
    k: int,
    *,
    exclude=frozenset(),
) -> BatchKnnResult:
    """Row-wise :func:`merge_results` over per-shard batch answers."""
    if len(per_shard) != len(shard_ids):
        raise ValueError(
            f"got {len(per_shard)} shard batches but {len(shard_ids)} "
            "id arrays"
        )
    lengths = {len(batch) for batch in per_shard}
    if len(lengths) > 1:
        raise ValueError(
            f"shard batches disagree on row count: {sorted(lengths)}"
        )
    n_rows = lengths.pop() if lengths else 0
    merged = tuple(
        merge_results(
            [batch.results[row] for batch in per_shard],
            shard_ids,
            k,
            exclude=exclude,
        )
        for row in range(n_rows)
    )
    return BatchKnnResult(
        results=merged,
        stats=combine_stats(result.stats for result in merged),
    )
