"""The index-kind registry: one mapping, validated specs, exact builds.

:mod:`repro.search.registry` replaced three drifting kind→class tables
(``cli.py``, ``snapshot.py``, ``shard/partition.py``) plus the pipeline
factory dict.  These tests pin the contract that makes that safe:

* **round-trip every kind** — ``build_index`` over the registry equals
  direct construction bit-for-bit, and the built index snapshots and
  reloads through the registry-backed dispatch;
* **loud rejection** — unknown kinds and wrong-kind keywords fail with
  messages naming the accepted set, never a deep ``TypeError``;
* **the protocol** — every registered class satisfies the runtime
  :class:`repro.search.Index` protocol and declares a matching ``kind``
  class attribute;
* **one mapping remains** — a source lint asserting no module outside
  the registry declares a dict literal keyed by kind names.
"""

import os
import re

import numpy as np
import pytest

from repro.search import (
    EXACT_KINDS,
    INDEX_KINDS,
    Index,
    KindSpec,
    build_index,
    index_class,
    index_spec,
    iter_specs,
    load_index,
    save_index,
    shared_build_kwargs,
)

# Non-default build kwargs per kind, exercising every declared CLI
# parameter at least once.
_BUILD_KWARGS = {
    "bruteforce": {},
    "kdtree": {"leaf_size": 4},
    "rtree": {"page_size": 4},
    "vafile": {"bits_per_dim": 3, "bit_allocation": "variance"},
    "pyramid": {},
    "idistance": {"seed": 0},
    "igrid": {"ranges_per_dim": 3},
    "lsh": {"n_tables": 4, "n_hashes": 3, "bucket_width": 2.0, "seed": 0},
    "projscreen": {"subspace_dim": 2, "ordering": "coherence"},
}


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    return rng.standard_normal((60, 6))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(8)
    return rng.standard_normal((5, 6))


def _assert_same_answers(left, right, queries, k=3):
    for query in queries:
        a, b = left.query(query, k), right.query(query, k)
        assert [(n.index, n.distance) for n in a.neighbors] == [
            (n.index, n.distance) for n in b.neighbors
        ]


class TestRegistryContents:
    def test_every_kind_has_a_spec(self):
        assert set(INDEX_KINDS) == set(_BUILD_KWARGS)
        for kind in INDEX_KINDS:
            spec = index_spec(kind)
            assert isinstance(spec, KindSpec)
            assert spec.kind == kind

    def test_iter_specs_covers_all_kinds(self):
        assert tuple(spec.kind for spec in iter_specs()) == INDEX_KINDS

    def test_exact_kinds_subset(self):
        assert set(EXACT_KINDS) < set(INDEX_KINDS)
        # The two kinds a delta-merge server cannot serve exactly.
        assert set(INDEX_KINDS) - set(EXACT_KINDS) == {"lsh", "igrid"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown index kind"):
            index_spec("btree")
        with pytest.raises(ValueError, match="unknown index kind"):
            index_class("btree")

    def test_class_kind_attribute_matches_registration(self):
        for kind in INDEX_KINDS:
            cls = index_class(kind)
            assert cls.kind == kind


class TestBuildRoundTrip:
    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_build_equals_direct_construction(self, kind, corpus, queries):
        built = build_index(kind, corpus, **_BUILD_KWARGS[kind])
        direct = index_class(kind)(corpus, **_BUILD_KWARGS[kind])
        _assert_same_answers(built, direct, queries)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_snapshot_round_trip(self, kind, corpus, queries, tmp_path):
        built = build_index(kind, corpus, **_BUILD_KWARGS[kind])
        path = os.path.join(tmp_path, f"{kind}.npz")
        save_index(built, path)
        loaded = load_index(path)
        assert type(loaded) is index_class(kind)
        _assert_same_answers(built, loaded, queries)

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_satisfies_index_protocol(self, kind, corpus):
        built = build_index(kind, corpus, **_BUILD_KWARGS[kind])
        assert isinstance(built, Index)
        assert built.kind == kind
        assert built.n_points == corpus.shape[0]
        assert built.dimensionality == corpus.shape[1]

    @pytest.mark.parametrize("kind", INDEX_KINDS)
    def test_wrong_keyword_rejected_with_accepted_set(self, kind, corpus):
        with pytest.raises(ValueError, match="accepted") as excinfo:
            build_index(kind, corpus, definitely_not_a_kwarg=1)
        assert "definitely_not_a_kwarg" in str(excinfo.value)

    def test_cross_kind_keyword_rejected(self, corpus):
        # A keyword valid for one kind is loudly invalid for another.
        with pytest.raises(ValueError, match="subspace_dim"):
            build_index("kdtree", corpus, subspace_dim=2)
        with pytest.raises(ValueError, match="n_probes"):
            build_index("pyramid", corpus, n_probes=3)


class TestSharedArtifacts:
    def test_igrid_discretization_filled_once(self, corpus):
        kwargs = shared_build_kwargs("igrid", corpus, {"ranges_per_dim": 3})
        assert "discretization" in kwargs
        # Sub-builds over disjoint halves score by the full-corpus
        # discretization, exactly like one index over the whole corpus.
        left = build_index("igrid", corpus[:30], **kwargs)
        right = build_index("igrid", corpus[30:], **kwargs)
        whole = build_index("igrid", corpus, ranges_per_dim=3)
        assert left.dimensionality == right.dimensionality
        assert whole.n_points == left.n_points + right.n_points

    def test_projscreen_projection_filled_and_params_popped(self, corpus):
        kwargs = shared_build_kwargs(
            "projscreen",
            corpus,
            {"subspace_dim": 2, "ordering": "coherence"},
        )
        assert "projection" in kwargs
        assert "subspace_dim" not in kwargs and "ordering" not in kwargs
        index = build_index("projscreen", corpus, **kwargs)
        assert index.subspace_dim == 2

    def test_existing_artifact_respected(self, corpus):
        first = shared_build_kwargs("projscreen", corpus, {})
        again = shared_build_kwargs("projscreen", corpus, dict(first))
        assert again["projection"] is first["projection"]

    def test_plain_kinds_pass_through(self, corpus):
        assert shared_build_kwargs("kdtree", corpus, {"leaf_size": 4}) == {
            "leaf_size": 4
        }


def test_exactly_one_kind_to_class_mapping_in_source():
    """Source lint: no dict literal keyed by kind names outside registry.

    The refactor's acceptance criterion — if someone reintroduces a
    ``{"kdtree": KdTreeIndex, ...}`` table in another module, this test
    names the file.  Dict-literal keys sit at the start of their line;
    equality comparisons (``if kind == "kdtree":``) do not match.
    """
    pattern = re.compile(
        r'^\s*"(%s)"\s*:' % "|".join(INDEX_KINDS), re.MULTILINE
    )
    src_root = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "src"
    )
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            if os.path.basename(path) == "registry.py":
                continue
            with open(path) as handle:
                if pattern.search(handle.read()):
                    offenders.append(os.path.relpath(path, src_root))
    assert not offenders, (
        "kind→class mappings outside repro.search.registry: "
        f"{sorted(offenders)}"
    )
