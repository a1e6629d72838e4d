"""Property: sharded answers are bit-identical to the unsharded index.

For every index kind, both partition methods, and multiple shard
counts, the scatter-gather merge must reproduce exactly what the
unsharded index answers — same neighbor indices, same distance bytes,
same tie ordering.  The corpus contains duplicated rows and the query
stream includes corpus points, so zero-distance and equal-distance ties
are genuinely exercised (ties are where a sloppy merge diverges first).

Stats equality is asserted for the scan-everything index (bruteforce:
per-shard scans sum to exactly the corpus size); the pruning indexes'
per-shard tree shapes legitimately differ from the single big tree, so
their summed stats describe the sharded execution, not the unsharded
one, and only the answers are compared.  The projection-screened index
sits in between: every shard screens with the one projection fitted on
the full corpus (the shared-structure rule in ``build_shards``), so its
``reduced_rows_scanned`` sums to exactly the corpus size per query, but
each shard seeds its own k refinements, so ``points_scanned`` describes
the sharded execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.search.bruteforce import BruteForceIndex
from repro.search.idistance import IDistanceIndex
from repro.search.igrid import IGridIndex
from repro.search.kdtree import KdTreeIndex
from repro.search.lsh import LshIndex
from repro.search.projected import ProjectionScreenedIndex
from repro.search.pyramid import PyramidIndex
from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    combine_stats,
)
from repro.search.rtree import RTreeIndex
from repro.search.vafile import VAFileIndex
from repro.serve import BatchPolicy
from repro.shard import ShardedIndexServer, build_shards, merge_batches

ALL_INDEXES = [
    BruteForceIndex,
    KdTreeIndex,
    RTreeIndex,
    VAFileIndex,
    PyramidIndex,
    IDistanceIndex,
    IGridIndex,
    LshIndex,
    ProjectionScreenedIndex,
]

_KINDS = {
    BruteForceIndex: "bruteforce",
    KdTreeIndex: "kdtree",
    RTreeIndex: "rtree",
    VAFileIndex: "vafile",
    PyramidIndex: "pyramid",
    IDistanceIndex: "idistance",
    IGridIndex: "igrid",
    LshIndex: "lsh",
    ProjectionScreenedIndex: "projscreen",
}

# A small max_batch forces multiple member flushes per stream.
_POLICY = BatchPolicy(max_batch=4)


def _tie_heavy_corpus(rng):
    corpus = rng.normal(size=(90, 5))
    # Duplicated rows make exact zero- and equal-distance ties across
    # shard boundaries, whatever the partition.
    corpus[30] = corpus[7]
    corpus[61] = corpus[7]
    corpus[45] = corpus[12]
    return corpus


@pytest.mark.parametrize("cls", ALL_INDEXES)
@pytest.mark.parametrize("method", ["round-robin", "projected"])
def test_sharded_serving_is_bit_identical(cls, method, tmp_path, rng):
    corpus = _tie_heavy_corpus(rng)
    index = cls(corpus)

    # Fresh queries plus corpus points (the duplicated ones included),
    # each with its own k.
    fresh = rng.normal(size=(12, 5))
    stream = [(row, int(k)) for row, k in zip(fresh, rng.integers(1, 8, 12))]
    stream += [(corpus[i], 5) for i in (7, 30, 12, 0, 89)]

    for n_shards in (2, 3):
        manifest = build_shards(
            corpus,
            str(tmp_path / f"{method}-{n_shards}"),
            n_shards,
            kind=_KINDS[cls],
            method=method,
            seed=1,
        )
        with ShardedIndexServer(
            manifest, n_workers=0, policy=_POLICY
        ) as server:
            futures = [server.submit(q, k=k) for q, k in stream]
            for (query, k), future in zip(stream, futures):
                expected = index.query(query, k=k)
                got = future.result(timeout=30)
                context = (
                    f"{cls.__name__} diverged at k={k} "
                    f"({method}, {n_shards} shards)"
                )
                assert got.indices.tolist() == (
                    expected.indices.tolist()
                ), context
                assert got.distances.tolist() == (
                    expected.distances.tolist()
                ), context
                if cls is BruteForceIndex:
                    assert got.stats == expected.stats, context
                if cls is ProjectionScreenedIndex:
                    # Shards share one full-corpus projection, so the
                    # summed reduced scans cover the corpus exactly once.
                    assert (
                        got.stats.reduced_rows_scanned
                        == expected.stats.reduced_rows_scanned
                    ), context
            # The explicit-batch path merges identically too.  Rows are
            # compared individually: an approximate index may return
            # fewer than k neighbors for some rows (ragged batches).
            batch = server.query_batch(fresh, k=4)
            expected_batch = index.query_batch(fresh, k=4)
            assert len(batch) == len(expected_batch)
            for got_row, want_row in zip(batch, expected_batch):
                assert got_row.indices.tolist() == want_row.indices.tolist()
                assert (
                    got_row.distances.tolist() == want_row.distances.tolist()
                )
            if cls is BruteForceIndex:
                assert batch.stats == expected_batch.stats


@pytest.mark.parametrize(
    "kind, index_kwargs, build",
    [
        ("lsh", {"n_probes": 4},
         lambda pts: LshIndex(pts, n_probes=4)),
        ("vafile", {"bit_allocation": "variance"},
         lambda pts: VAFileIndex(pts, bit_allocation="variance")),
    ],
)
def test_sharded_new_knobs_stay_bit_identical(
    kind, index_kwargs, build, tmp_path, rng
):
    # build_shards must hand the new constructor knobs to every shard;
    # the scatter-gather merge over fused-gemm shard refinements must
    # still reproduce the unsharded index exactly.
    corpus = _tie_heavy_corpus(rng)
    index = build(corpus)
    queries = [(row, 4) for row in rng.normal(size=(10, 5))]
    queries += [(corpus[i], 5) for i in (7, 30, 12)]
    manifest = build_shards(
        corpus,
        str(tmp_path / kind),
        3,
        kind=kind,
        method="round-robin",
        seed=1,
        index_kwargs=index_kwargs,
    )
    with ShardedIndexServer(manifest, n_workers=0, policy=_POLICY) as server:
        futures = [server.submit(q, k=k) for q, k in queries]
        for (query, k), future in zip(queries, futures):
            expected = index.query(query, k=k)
            got = future.result(timeout=30)
            context = f"sharded {kind} with {index_kwargs} diverged at k={k}"
            assert got.indices.tolist() == expected.indices.tolist(), context
            assert got.distances.tolist() == (
                expected.distances.tolist()
            ), context


@st.composite
def _merge_cases(draw):
    """Per-shard batch answers with ties, short rows and mixed id maps."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    # Small-integer coordinates plus copied rows: distances tie often.
    corpus = draw(
        arrays(np.int64, (n, d), elements=st.integers(-2, 2))
    ).astype(np.float64)
    for target, source in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=4)
    ):
        corpus[target] = corpus[source]
    n_queries = draw(st.integers(1, 4))
    queries = draw(
        arrays(np.int64, (n_queries, d), elements=st.integers(-2, 2))
    ).astype(np.float64)
    n_shards = draw(st.integers(1, 5))
    labels = draw(
        arrays(np.int64, n, elements=st.integers(0, n_shards - 1))
    )
    per_shard, shard_ids = [], []
    for shard in range(n_shards):
        ids = np.flatnonzero(labels == shard)
        if ids.size == 0:
            batch = BatchKnnResult(
                results=(KnnResult(neighbors=()),) * n_queries
            )
        else:
            k_shard = draw(st.integers(1, ids.size))
            batch = BruteForceIndex(corpus[ids]).query_batch(
                queries, k=k_shard
            )
            if draw(st.booleans()):  # short or empty rows
                cuts = draw(st.lists(st.integers(0, k_shard),
                                     min_size=n_queries,
                                     max_size=n_queries))
                batch = BatchKnnResult(results=tuple(
                    KnnResult(neighbors=r.neighbors[:cut], stats=r.stats)
                    for r, cut in zip(batch, cuts)
                ))
        if draw(st.booleans()):  # answers already carry global ids
            batch = BatchKnnResult(results=tuple(
                KnnResult(
                    neighbors=tuple(
                        Neighbor(int(ids[nb.index]), nb.distance)
                        for nb in r.neighbors
                    ),
                    stats=r.stats,
                )
                for r in batch
            ))
            ids = None
        per_shard.append(batch)
        shard_ids.append(ids)
    k = draw(st.integers(1, n))
    exclude = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    if draw(st.booleans()):
        exclude = np.array(sorted(exclude), dtype=np.int64)
    return per_shard, shard_ids, k, exclude


@given(_merge_cases())
@settings(max_examples=200, deadline=None)
def test_merge_batches_matches_tuple_sort_reference(case):
    # The reference pools (distance, gid) tuples, drops the excluded
    # ids, sorts and keeps k: the merge's definition, row by row.
    per_shard, shard_ids, k, exclude = case
    dead = {int(gid) for gid in exclude}
    merged = merge_batches(per_shard, shard_ids, k, exclude=exclude)
    assert len(merged) == len(per_shard[0])
    for row, got in enumerate(merged):
        pooled = []
        for batch, ids in zip(per_shard, shard_ids):
            for nb in batch[row].neighbors:
                gid = nb.index if ids is None else int(ids[nb.index])
                if gid not in dead:
                    pooled.append((nb.distance, gid))
        want = sorted(pooled)[:k]
        assert got.indices.tolist() == [gid for _, gid in want]
        assert got.distances.tobytes() == np.array(
            [dist for dist, _ in want], dtype=np.float64
        ).tobytes()
        assert got.stats == combine_stats(
            batch[row].stats for batch in per_shard
        )
    assert merged.stats == combine_stats(r.stats for r in merged)
