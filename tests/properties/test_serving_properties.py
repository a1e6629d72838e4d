"""Property: served answers are bit-identical to ``index.query``.

For every index kind, any stream of single-query requests pushed
through the serving stack — micro-batched, cached, in-process or over
worker processes — must produce exactly what sequential ``index.query``
on the freshly built index produces: same neighbor indices, same
distances bit-for-bit, same per-query stats.  The streams here randomize
arrival grouping and ``k`` per request, and replay a subset so the
cache-hit path is exercised too.
"""

import numpy as np
import pytest

from repro.search.bruteforce import BruteForceIndex
from repro.search.idistance import IDistanceIndex
from repro.search.igrid import IGridIndex
from repro.search.kdtree import KdTreeIndex
from repro.search.lsh import LshIndex
from repro.search.projected import ProjectionScreenedIndex
from repro.search.pyramid import PyramidIndex
from repro.search.rtree import RTreeIndex
from repro.search.vafile import VAFileIndex
from repro.serve import BatchPolicy, IndexServer

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

# A small max_batch forces multiple flushes per stream.
_POLICY = BatchPolicy(max_batch=4)


def assert_result_matches(got, expected, context):
    assert tuple(got.indices.tolist()) == tuple(
        expected.indices.tolist()
    ), context
    assert tuple(got.distances.tolist()) == tuple(
        expected.distances.tolist()
    ), context
    assert got.stats == expected.stats, context


@pytest.mark.parametrize("cls", ALL_INDEXES)
def test_served_stream_is_bit_identical(cls, tmp_path, rng):
    corpus = rng.normal(size=(90, 5))
    index = cls(corpus)
    path = str(tmp_path / "index.npz")
    index.save(path)

    # Randomized request stream: fresh queries and corpus points
    # (distance ties), each with its own k, submitted in permuted order.
    fresh = rng.normal(size=(20, 5))
    stream = [(row, int(k)) for row, k in zip(fresh, rng.integers(1, 6, 20))]
    stream += [(corpus[i], 3) for i in rng.integers(0, 90, 5)]
    order = rng.permutation(len(stream))

    with IndexServer(
        path, n_workers=0, policy=_POLICY, cache_capacity=64
    ) as server:
        futures = [
            (stream[i][0], stream[i][1], server.submit(*stream[i]))
            for i in order
        ]
        for query, k, future in futures:
            assert_result_matches(
                future.result(timeout=30),
                index.query(query, k=k),
                f"{cls.__name__} diverged at k={k}",
            )
        # Replay a slice once the originals are cached: the hit path
        # must hand back the same bit-identical results.
        for query, k in stream[:8]:
            assert_result_matches(
                server.query(query, k=k),
                index.query(query, k=k),
                f"{cls.__name__} cache replay diverged at k={k}",
            )
        report = server.stats()
    assert report.n_requests == len(stream) + 8
    assert report.cache_hits >= 8


@pytest.mark.parametrize(
    "cls", [BruteForceIndex, ProjectionScreenedIndex]
)
def test_served_stream_over_worker_pool(cls, tmp_path, rng):
    corpus = rng.normal(size=(150, 6))
    index = cls(corpus)
    path = str(tmp_path / "index.npz")
    index.save(path)
    queries = rng.normal(size=(30, 6))
    ks = rng.integers(1, 5, 30)
    with IndexServer(path, n_workers=2, policy=_POLICY) as server:
        futures = [
            server.submit(q, k=int(k)) for q, k in zip(queries, ks)
        ]
        for q, k, future in zip(queries, ks, futures):
            assert_result_matches(
                future.result(timeout=30),
                index.query(q, k=int(k)),
                f"{cls.__name__} pooled serving diverged at k={k}",
            )


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda pts: LshIndex(pts, bucket_width=3.0, seed=0, n_probes=4),
         "multi-probe lsh"),
        (lambda pts: VAFileIndex(
            pts, bits_per_dim=3, bit_allocation="variance"
        ), "variance-bit vafile"),
    ],
)
def test_served_snapshot_keeps_new_knobs_bit_identical(
    build, kind, tmp_path, rng
):
    # The v2 snapshot members (n_probes, per-dim bits) must survive the
    # save -> serve path: a served stream answers exactly like the
    # freshly built index, which itself refines through the fused gemm
    # kernel by default.
    corpus = rng.normal(size=(200, 5)) * np.array([6.0, 2.0, 1.0, 0.5, 0.1])
    index = build(corpus)
    path = str(tmp_path / "index.npz")
    index.save(path)
    queries = np.vstack([rng.normal(size=(14, 5)), corpus[:4]])
    with IndexServer(path, n_workers=0, policy=_POLICY) as server:
        futures = [server.submit(q, k=3) for q in queries]
        for q, future in zip(queries, futures):
            assert_result_matches(
                future.result(timeout=30),
                index.query(q, k=3),
                f"served {kind} diverged",
            )


@pytest.mark.parametrize(
    "build",
    [
        lambda pts: ProjectionScreenedIndex(pts, refine_kernel="gather"),
        lambda pts: VAFileIndex(pts, bits_per_dim=3, refine_kernel="gather"),
    ],
    ids=["projscreen", "vafile"],
)
def test_served_gemm_default_matches_gather_reference(build, tmp_path, rng):
    # Snapshots deliberately do not persist the refine_kernel knob: a
    # loaded (and therefore served) index runs the fused gemm kernel.
    # Serving a gather-built index must still answer bit-identically to
    # the gather original — the kernels are interchangeable arithmetic.
    corpus = rng.normal(size=(180, 6))
    corpus[40] = corpus[3]
    reference = build(corpus)
    assert reference.refine_kernel == "gather"
    path = str(tmp_path / "index.npz")
    reference.save(path)
    queries = np.vstack([rng.normal(size=(12, 6)), corpus[:4]])
    with IndexServer(path, n_workers=0, policy=_POLICY) as server:
        futures = [server.submit(q, k=4) for q in queries]
        for q, future in zip(queries, futures):
            assert_result_matches(
                future.result(timeout=30),
                reference.query(q, k=4),
                "gemm-served answers diverged from gather reference",
            )
