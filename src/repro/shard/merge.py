"""Exact top-k merge of per-shard answers.

The correctness core of scatter-gather serving.  Each shard returns the
exact top-k of *its* candidate set with local row indices; the merge
maps local indices to global ids, pools the candidates, and re-selects
the global top-k ordered by ``(distance, global id)``.  It works on the
batches' arrays (:class:`~repro.search.results.KnnColumns`): the
shards' ``(b, k)`` id and distance arrays are concatenated, padding and
excluded ids are dropped, and one ``np.lexsort`` orders every row.

The same merge folds a mutable server's base answer (local indices)
with its memtable scan (global ids already), dropping the deleted base
rows when the base kind has no masked scan, and it pools the answers
of mutable shards.

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

from repro.search.results import STATS_FIELDS, BatchKnnResult, KnnResult

# Sort key of a dropped entry (padding or an excluded id): after every
# kept entry, including one at distance +inf.
_DROPPED = np.iinfo(np.int64).max


def merge_results(
    per_shard: Sequence[KnnResult],
    shard_ids: Sequence[np.ndarray | None],
    k: int,
    *,
    exclude=frozenset(),
) -> KnnResult:
    """Merge one query's per-shard top-k lists into the global top-k.

    The one-row case of :func:`merge_batches`; the arguments mean the
    same, with one :class:`KnnResult` per shard.
    """
    rows = [BatchKnnResult(results=(result,)) for result in per_shard]
    return merge_batches(rows, shard_ids, k, exclude=exclude)[0]


def merge_batches(
    per_shard: Sequence[BatchKnnResult],
    shard_ids: Sequence[np.ndarray | None],
    k: int,
    *,
    exclude=frozenset(),
) -> BatchKnnResult:
    """Merge every row of the per-shard batch answers into its global top-k.

    Args:
        per_shard: one :class:`BatchKnnResult` per shard, all with the
            same number of rows.  Batches built from
            :class:`KnnResult` objects are padded into arrays first.
        shard_ids: per shard, the ``(n_s,)`` global row ids mapping its
            local row ``i`` to corpus row ``shard_ids[s][i]``, or
            ``None`` when that shard's answers already carry global ids.
        k: neighbors to keep after merging.  A row keeps fewer when its
            pooled candidates run short (an approximate index with
            sparse buckets), exactly like the unsharded index would.
        exclude: global ids to drop before selection (the deleted
            base rows of a mutable server whose base kind has no masked
            scan), as an int64 array or any sized iterable of ints.

    Returns:
        A :class:`BatchKnnResult` whose arrays hold global ids: the
        pooled candidates of each row, minus padding and ``exclude``,
        ordered by ``(distance, global id)`` and cut to ``k``, with the
        per-shard stats summed row by row.
    """
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
    columns = [batch.columns for batch in per_shard]
    n_rows = lengths.pop() if lengths else 0
    gids = np.concatenate(
        [np.empty((n_rows, 0), dtype=np.int64)]
        + [_global_ids(c.ids, ids) for c, ids in zip(columns, shard_ids)],
        axis=1,
    )
    distances = np.concatenate(
        [np.empty((n_rows, 0))] + [c.distances for c in columns], axis=1
    )
    dropped = gids < 0
    if len(exclude):
        if not isinstance(exclude, np.ndarray):
            exclude = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
        dropped |= np.isin(gids, exclude)
    gids[dropped] = _DROPPED
    distances[dropped] = np.inf
    # lexsort's last key is primary: distance, then global id.
    order = np.lexsort((gids, distances), axis=1)[:, :k]
    top_ids = np.full((n_rows, k), -1, dtype=np.int64)
    top_distances = np.full((n_rows, k), np.inf)
    kept = np.take_along_axis(gids, order, axis=1)
    top_ids[:, : order.shape[1]] = np.where(kept == _DROPPED, -1, kept)
    top_distances[:, : order.shape[1]] = np.take_along_axis(
        distances, order, axis=1
    )
    stats = sum(
        (c.stats for c in columns),
        np.zeros((n_rows, len(STATS_FIELDS)), dtype=np.int64),
    )
    return BatchKnnResult.from_columns(top_ids, top_distances, stats)


def _global_ids(local: np.ndarray, ids: np.ndarray | None) -> np.ndarray:
    """``local`` shard ids mapped through ``ids``; padding stays ``-1``."""
    if ids is None:
        return local
    mapped = np.full(local.shape, -1, dtype=np.int64)
    found = local >= 0
    mapped[found] = ids[local[found]]
    return mapped
