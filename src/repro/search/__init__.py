"""Index substrate.

k-nearest-neighbor indexes with pruning instrumentation, nine kinds:
brute force, a kd-tree and an STR-bulk-loaded R-tree (branch-and-bound
/ best-first search after Roussopoulos et al. and Hjaltason & Samet), a
VA-file, the pyramid technique, iDistance, projection-screened search,
approximate E2LSH and the grid-similarity IGrid of the paper's ref [3].
The per-query statistics (node accesses, points scanned, partitions
pruned) substantiate the paper's Section 1.1 argument: in high
dimensionality the optimistic bounds stop pruning, and aggressive
dimensionality reduction restores index effectiveness.

Every kind also persists to a single-file snapshot
(:func:`save_index` / :func:`load_index`): structures are stored as flat
arrays, so a loaded index is query-ready with zero rebuilding and
answers bit-identically to the freshly built original.

The kinds themselves are enumerated by :mod:`repro.search.registry` —
the single kind→class mapping in the codebase.  ``INDEX_KINDS`` lists
them, :func:`build_index` constructs one by name with validated
keywords, and every registered class satisfies the :class:`Index`
protocol.
"""

from repro.search.registry import (
    EXACT_KINDS,
    INDEX_KINDS,
    Index,
    KindSpec,
    ParamSpec,
    build_index,
    index_class,
    index_spec,
    iter_specs,
    shared_build_kwargs,
)
from repro.search.snapshot import (
    SnapshotError,
    load_index,
    save_index,
    snapshot_kind,
)
from repro.search.results import (
    BatchKnnResult,
    KnnResult,
    Neighbor,
    QueryStats,
    combine_stats,
)
from repro.search.bruteforce import BruteForceIndex
from repro.search.idistance import IDistanceIndex
from repro.search.igrid import IGridIndex, igrid_discretization
from repro.search.kdtree import KdTreeIndex
from repro.search.lsh import LshIndex
from repro.search.projected import (
    ProjectionScreenedIndex,
    ProjectionSpec,
    fit_projection,
)
from repro.search.pyramid import PyramidIndex
from repro.search.recall import ExactnessViolation, recall_against_exact
from repro.search.rtree import RTreeIndex
from repro.search.vafile import VAFileIndex

__all__ = [
    "BatchKnnResult",
    "BruteForceIndex",
    "build_index",
    "combine_stats",
    "EXACT_KINDS",
    "ExactnessViolation",
    "fit_projection",
    "IDistanceIndex",
    "IGridIndex",
    "igrid_discretization",
    "Index",
    "INDEX_KINDS",
    "index_class",
    "index_spec",
    "iter_specs",
    "KdTreeIndex",
    "KindSpec",
    "KnnResult",
    "load_index",
    "LshIndex",
    "Neighbor",
    "ParamSpec",
    "ProjectionScreenedIndex",
    "ProjectionSpec",
    "PyramidIndex",
    "QueryStats",
    "recall_against_exact",
    "RTreeIndex",
    "save_index",
    "shared_build_kwargs",
    "snapshot_kind",
    "SnapshotError",
    "VAFileIndex",
]
