"""Property: a masked scan answers like a fresh index over the live rows.

``index.with_live(mask)`` is how a mutable server's base skips deleted
rows without rebuilding.  For brute force and projscreen, its
``query_batch`` must return exactly what an index freshly built over
``points[mask]`` returns, with local ids mapped back: the same ids and
the same distance bits.  The corpora are small integers, so distance
ties are everywhere and only the lower-index tie-break separates rows.

Masks with fewer live rows than ``k`` are drawn on purpose: those rows
pad with id ``-1`` / distance ``+inf``, and projscreen must then refine
every live row rather than trust a ``tau`` set by a dead seed.  Every
split of the batch, and ``query`` row by row, must agree with the
whole batch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.search.bruteforce import BruteForceIndex
from repro.search.projected import ProjectionScreenedIndex


def _small_ints(low, high):
    return st.integers(low, high).map(float)


@st.composite
def masked_cases(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    corpus = draw(arrays(np.float64, (n, d), elements=_small_ints(-2, 2)))
    live = draw(arrays(np.bool_, (n,)))
    b = draw(st.integers(1, 6))
    queries = draw(arrays(np.float64, (b, d), elements=_small_ints(-3, 3)))
    k = draw(st.integers(1, n))
    return corpus, live, queries, k


def _dead_rows_nearest():
    """The query's nearest rows are all dead.

    Unless dead rows score +inf before selection, they set brute
    force's k-th value and projscreen's seeds, and the live rows at
    distance 3 are pruned.
    """
    corpus = np.array(
        [[0, 0]] * 4 + [[3, 0], [0, 3], [3, 3], [-3, 0]], dtype=float
    )
    live = np.arange(8) >= 4
    return corpus, live, np.zeros((2, 2)), 3


def _fresh_answer(build, corpus, live, queries, k):
    """``(ids, distances)`` of a fresh index over the live rows, padded."""
    live_ids = np.flatnonzero(live)
    b = queries.shape[0]
    ids = np.full((b, k), -1, dtype=np.int64)
    distances = np.full((b, k), np.inf)
    if live_ids.size:
        width = min(k, live_ids.size)
        fresh = build(corpus[live_ids]).query_batch(queries, width)
        ids[:, :width] = live_ids[fresh.indices]
        distances[:, :width] = fresh.distances
    return ids, distances


def _assert_same(ids, distances, want_ids, want_distances):
    assert np.array_equal(ids, want_ids)
    # Distance bits, not values: +inf padding compares equal too.
    assert np.array_equal(
        distances.view(np.int64), want_distances.view(np.int64)
    )


def _check_view(build, case):
    corpus, live, queries, k = case
    view = build(corpus).with_live(live)
    want_ids, want_distances = _fresh_answer(build, corpus, live, queries, k)

    whole = view.query_batch(queries, k)
    _assert_same(whole.indices, whole.distances, want_ids, want_distances)
    for split in range(1, queries.shape[0]):
        head = view.query_batch(queries[:split], k)
        tail = view.query_batch(queries[split:], k)
        _assert_same(
            np.vstack([head.indices, tail.indices]),
            np.vstack([head.distances, tail.distances]),
            want_ids,
            want_distances,
        )
    for row, query in enumerate(queries):
        single = view.query(query, k)
        width = len(single.neighbors)
        assert width == min(k, int(live.sum()))
        _assert_same(
            np.array([n.index for n in single.neighbors], dtype=np.int64),
            np.array([n.distance for n in single.neighbors]),
            want_ids[row, :width],
            want_distances[row, :width],
        )


@given(masked_cases())
@example(_dead_rows_nearest())
@settings(max_examples=150, deadline=None)
def test_bruteforce_view_matches_fresh_index(case):
    _check_view(BruteForceIndex, case)


@given(masked_cases(), st.sampled_from(["gather", "gemm"]))
@example(_dead_rows_nearest(), "gemm")
@settings(max_examples=150, deadline=None)
def test_projscreen_view_matches_fresh_index(case, kernel):
    _check_view(
        lambda points: ProjectionScreenedIndex(points, refine_kernel=kernel),
        case,
    )


def test_view_shares_the_scanner_and_leaves_the_index_unmasked():
    rng = np.random.default_rng(3)
    corpus = rng.integers(-2, 3, size=(40, 3)).astype(float)
    queries = rng.integers(-2, 3, size=(5, 3)).astype(float)
    live = rng.random(40) < 0.5
    for index in (BruteForceIndex(corpus), ProjectionScreenedIndex(corpus)):
        before = index.query_batch(queries, 4)
        view = index.with_live(live)
        assert view._scanner is index._scanner
        assert set(view.query_batch(queries, 4).indices.ravel()) <= set(
            np.flatnonzero(live)
        )
        after = index.query_batch(queries, 4)
        assert np.array_equal(before.indices, after.indices)


@pytest.mark.parametrize(
    "bad",
    [np.ones(3, dtype=bool), np.ones(4), np.ones((4, 1), dtype=bool)],
)
def test_with_live_rejects_a_mask_of_the_wrong_shape_or_dtype(bad):
    for index in (BruteForceIndex(np.eye(4)), ProjectionScreenedIndex(np.eye(4))):
        with pytest.raises(ValueError, match=r"boolean \(4,\) mask"):
            index.with_live(bad)
