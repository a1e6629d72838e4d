"""Property-based tests for metric axioms and index agreement."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances.metrics import (
    chebyshev,
    euclidean,
    manhattan,
    minkowski,
    squared_euclidean_matrix,
)
from repro.search.bruteforce import BruteForceIndex
from repro.search.kdtree import KdTreeIndex
from repro.search.rtree import RTreeIndex
from repro.search.vafile import VAFileIndex

_COORD = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _vectors(d):
    return arrays(np.float64, (d,), elements=_COORD)


@st.composite
def vector_triples(draw):
    d = draw(st.integers(1, 8))
    return (
        draw(_vectors(d)),
        draw(_vectors(d)),
        draw(_vectors(d)),
    )


_METRICS = [euclidean, manhattan, chebyshev]


class TestMetricAxioms:
    @given(vector_triples())
    @settings(max_examples=200, deadline=None)
    def test_non_negativity_and_symmetry(self, triple):
        a, b, _ = triple
        for metric in _METRICS:
            assert metric(a, b) >= 0.0
            assert abs(metric(a, b) - metric(b, a)) < 1e-9

    @given(vector_triples())
    @settings(max_examples=200, deadline=None)
    def test_identity(self, triple):
        a, _, _ = triple
        for metric in _METRICS:
            assert metric(a, a) == 0.0

    @given(vector_triples())
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        for metric in _METRICS:
            direct = metric(a, c)
            detour = metric(a, b) + metric(b, c)
            assert direct <= detour + 1e-6 * max(1.0, detour)

    @given(vector_triples(), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_minkowski_triangle_for_p_at_least_one(self, triple, p):
        a, b, c = triple
        direct = minkowski(a, c, p)
        detour = minkowski(a, b, p) + minkowski(b, c, p)
        assert direct <= detour + 1e-6 * max(1.0, detour)

    @given(vector_triples())
    @settings(max_examples=100, deadline=None)
    def test_metric_ordering(self, triple):
        # chebyshev <= euclidean <= manhattan for any pair.
        a, b, _ = triple
        tolerance = 1e-9 * max(1.0, manhattan(a, b))
        assert chebyshev(a, b) <= euclidean(a, b) + tolerance
        assert euclidean(a, b) <= manhattan(a, b) + tolerance


@st.composite
def corpora_and_queries(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    corpus = draw(
        arrays(
            np.float64,
            (n, d),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
        )
    )
    query = draw(
        arrays(
            np.float64,
            (d,),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
        )
    )
    k = draw(st.integers(1, n))
    return corpus, query, k


def _kdtree_rounding_case():
    """A tie the kd-tree's incremental bound once pruned.

    Rows 1 and 4 are identical (zero), so they tie; brute force answers
    ``[2, 0, 1]``.  The far subtree holding row 1 has a bound of
    ``(144 + a*a) + a*a`` (``a`` the query's first coordinate), one ulp
    above row 1's ``np.sum`` distance ``(a*a + a*a) + 144``, so a strict
    bound comparison skipped it and answered ``[2, 0, 4]``.
    """
    corpus = np.zeros((20, 3))
    corpus[0] = (1.0, 0.5, 0.0)
    corpus[2] = (0.0, 0.0, 1.0)
    query = np.array([1.616281528399469, 1.616281528399469, 12.0])
    return corpus, query, 3


class TestIndexAgreement:
    """Every index must return exactly the brute-force answer.

    Arbitrary corpora include duplicates, collinear points, and exact
    ties — the cases where tree pruning with `<` instead of `<=` or a
    sloppy tie-break silently diverges.
    """

    @given(corpora_and_queries())
    @example(_kdtree_rounding_case())
    @settings(max_examples=100, deadline=None)
    def test_kdtree(self, case):
        corpus, query, k = case
        expected = BruteForceIndex(corpus).query(query, k)
        actual = KdTreeIndex(corpus, leaf_size=4).query(query, k)
        assert np.array_equal(actual.indices, expected.indices)

    @given(corpora_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_rtree(self, case):
        corpus, query, k = case
        expected = BruteForceIndex(corpus).query(query, k)
        actual = RTreeIndex(corpus, page_size=4).query(query, k)
        assert np.array_equal(actual.indices, expected.indices)

    @given(corpora_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_vafile(self, case):
        corpus, query, k = case
        expected = BruteForceIndex(corpus).query(query, k)
        actual = VAFileIndex(corpus, bits_per_dim=3).query(query, k)
        assert np.array_equal(actual.indices, expected.indices)


class TestSquaredMatrixProperties:
    @given(corpora_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_euclidean(self, case):
        corpus, _, _ = case
        matrix = squared_euclidean_matrix(corpus)
        n = corpus.shape[0]
        i, j = 0, n - 1
        direct = euclidean(corpus[i], corpus[j]) ** 2
        assert abs(matrix[i, j] - direct) < 1e-6 * max(1.0, direct)
