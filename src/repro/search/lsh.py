"""Locality-sensitive hashing (p-stable / E2LSH) for approximate k-NN.

The exact indexes in this package all degrade to a scan in high
dimensionality (Section 1.1); LSH is the classical way to trade accuracy
for speed *without* reducing the data.  Each hash function is
``h(x) = floor((a . x + b) / w)`` with Gaussian ``a`` (2-stable for the
Euclidean metric); ``n_hashes`` functions are concatenated per table and
``n_tables`` tables are probed per query.  Candidates from the probed
buckets are ranked by exact distance.

**Multi-probe** (Lv et al., VLDB 2007) recovers the recall that a small
table count loses: instead of building 10x the tables, each query also
probes the buckets *adjacent* to its own — the ones its projections
nearly fell into.  A perturbation moves one concatenated hash value by
±1; its cost is the squared distance from the query's projection to the
slot boundary it crosses, and the best perturbation *sets* are the ones
with the smallest total cost.  The implementation uses the paper's
optimized two-level scheme:

* At build time, the valid perturbation sets over the ``2 * n_hashes``
  boundary-distance *ranks* are generated in increasing expected-score
  order with the shift/expand min-heap (a set containing both a rank and
  its complementary partner would move the same hash both ways, so those
  are skipped).  This depends only on ``n_hashes`` and ``n_probes``.
* At query time, the query's actual boundary distances are sorted per
  table (that is the query-directed part: the hashes closest to their
  slot boundaries get perturbed first) and the precomputed rank sets are
  mapped through that order into concrete ±1 delta vectors — one
  integer matmul, exact and batch-invariant.

Probing ``T`` buckets per table multiplies candidate coverage roughly
``T``-fold at constant memory, which is the trade the comparison benches
measure (probes x tables x recall).

The tables live in CSR-style arrays rather than dicts of Python tuples:
per table a ``(B, n_hashes)`` matrix of the distinct bucket keys in
lexicographic order, bucket start offsets, and one corpus-row permutation
grouped by bucket.  The fill is a single matmul over all tables followed
by one ``lexsort`` per table.  When the per-column key ranges fit, each
distinct key row is additionally packed into one monotone int64, so a
whole batch of probe lookups is a single vectorized ``searchsorted`` per
table — no Python loop over queries or probes.  Arrays also mean
snapshots (:mod:`repro.search.snapshot`) load with zero reconstruction;
the packed lookup keys and the perturbation pool are derived state,
rebuilt in vectorized form at load time.

Results are **approximate**: a true neighbor hashed into a different
bucket in every probed position is missed.  Candidate *ranking* is still
exact — the probed buckets' members go through the shared
:func:`~repro.search.batch.refine_masked_candidates` kernel, so returned
distances and tie-breaks are bit-identical to a sequential scan
restricted to the candidates, single query or batch.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.search.batch import (
    blocked_query_batch,
    pad_rows,
    refine_masked_candidates,
    validate_refine_kernel,
)
from repro.search.results import (
    BatchKnnResult,
    KnnColumns,
    KnnResult,
    stats_block,
    validate_corpus,
    validate_k,
    validate_queries,
    validate_query,
)
from repro.search.snapshot import read_snapshot, write_snapshot

# Fixed row-block size for the hashing matmul.  The bucket key is a
# *floor* of a float projection, so the projection must be computed with
# the same BLAS shape for every batch size — a key flipping across a
# slot boundary between query() and query_batch() would break their
# bit-identity.  Short blocks are zero-padded up to this size.
_HASH_CHUNK_ROWS = 32

# Candidate masks are (rows, n_points) booleans; query batches are
# processed in row blocks that keep the mask around this many entries.
_BLOCK_ENTRIES = 4_194_304


def _expected_rank_scores(n_hashes: int) -> np.ndarray:
    """Expected j-th smallest squared boundary distance (unit width).

    Lv et al.'s closed forms for uniform quantization residuals: over the
    ``2M`` boundary distances of a random query, the j-th smallest
    (1-based) has expected squared value ``j(j+1) / (4(M+1)(M+2))`` for
    ``j <= M``, and the mirrored form below past the midpoint.  These
    order the precomputed perturbation sets; actual per-query distances
    re-anchor them at query time.
    """
    m = n_hashes
    j = np.arange(1, 2 * m + 1, dtype=np.float64)
    low = j * (j + 1) / (4.0 * (m + 1) * (m + 2))
    jr = 2 * m + 1 - j
    high = 1.0 - jr / (m + 1) + jr * (jr + 1) / (4.0 * (m + 1) * (m + 2))
    return np.where(j <= m, low, high)


def _perturbation_rank_sets(n_hashes: int, max_sets: int) -> np.ndarray:
    """The first ``max_sets`` valid perturbation sets, as a 0/1 matrix.

    Sets are subsets of the ``2M`` boundary-distance ranks (0-based,
    ascending), generated in increasing expected-score order with the
    shift/expand min-heap: pop the cheapest set, push the set with its
    maximum rank shifted up by one and the set extended by that next
    rank.  Every subset is reached exactly once.  A set containing both
    rank ``r`` and its partner ``2M - 1 - r`` would perturb one hash
    position by +1 and -1 at once, so those are generated but never
    emitted.  Returns a ``(n_sets, 2M)`` int64 membership matrix (rows
    in emission order); fewer than ``max_sets`` rows when the valid sets
    run out.
    """
    if max_sets <= 0:
        return np.zeros((0, 2 * n_hashes), dtype=np.int64)
    scores = _expected_rank_scores(n_hashes)
    top = 2 * n_hashes
    heap: list[tuple[float, tuple[int, ...]]] = [(float(scores[0]), (0,))]
    emitted: list[tuple[int, ...]] = []
    while heap and len(emitted) < max_sets:
        score, ranks = heapq.heappop(heap)
        last = ranks[-1]
        if last + 1 < top:
            shifted = ranks[:-1] + (last + 1,)
            heapq.heappush(
                heap,
                (score - float(scores[last]) + float(scores[last + 1]), shifted),
            )
            heapq.heappush(heap, (score + float(scores[last + 1]), ranks + (last + 1,)))
        chosen = set(ranks)
        if all((top - 1 - r) not in chosen for r in ranks):
            emitted.append(ranks)
    sets = np.zeros((len(emitted), top), dtype=np.int64)
    for row, ranks in enumerate(emitted):
        sets[row, list(ranks)] = 1
    return sets


class LshIndex:
    """E2LSH-style approximate k-NN index with multi-probe querying.

    Args:
        points: ``(n, d)`` corpus.
        n_tables: independent hash tables probed per query.
        n_hashes: hash functions concatenated per table (bucket key
            length); more hashes = smaller buckets = faster but lower
            recall.
        bucket_width: the quantization width ``w``; should be on the
            order of the nearest-neighbor distances of interest.
        seed: RNG seed for the hash functions.
        n_probes: buckets probed per table, in increasing perturbation
            score order; 1 probes only the query's own bucket (classic
            E2LSH).  Raising it recovers recall without more tables.
            The probe sequence for ``T`` probes is a prefix of the
            sequence for ``T' > T``, so candidate sets (and recall) are
            monotone in this knob.  Capped by the number of valid
            perturbation sets (``3**n_hashes - 1`` beyond the home
            bucket).
        refine_kernel: exact re-ranking kernel for the probed
            candidates, ``"gather"`` or ``"gemm"`` (see
            :func:`~repro.search.batch.refine_masked_candidates`); both
            produce bit-identical answers.  Not persisted in snapshots.
    """

    # Snapshot kind: read by the registry, snapshot dispatch, and
    # the :class:`repro.search.Index` protocol.
    kind = "lsh"

    def __init__(
        self,
        points,
        n_tables: int = 8,
        n_hashes: int = 4,
        bucket_width: float = 1.0,
        seed: int = 0,
        n_probes: int = 1,
        refine_kernel: str = "gemm",
    ) -> None:
        if n_tables < 1 or n_hashes < 1:
            raise ValueError("n_tables and n_hashes must be positive")
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        if n_probes < 1:
            raise ValueError(f"n_probes must be positive, got {n_probes}")
        self._points = validate_corpus(points)
        self.n_tables = n_tables
        self.n_hashes = n_hashes
        self.bucket_width = bucket_width
        self.n_probes = int(n_probes)
        self.refine_kernel = validate_refine_kernel(refine_kernel)

        rng = np.random.default_rng(seed)
        d = self.dimensionality
        # Projections: (n_tables, n_hashes, d); offsets in [0, w).
        self._projections = rng.normal(size=(n_tables, n_hashes, d))
        self._offsets = rng.uniform(0.0, bucket_width, size=(n_tables, n_hashes))

        self._fill_tables()
        self._finalize()

    def _fill_tables(self) -> None:
        """One matmul + one lexsort per table replaces the per-point loop.

        For each table the corpus keys are sorted lexicographically
        (stable, so rows within a bucket stay in ascending corpus order)
        and run boundaries mark the distinct buckets — the classic
        sort-based CSR group-by.
        """
        n = self.n_points
        keys, _ = self._keys_and_residuals(self._points)
        self._table_keys: list[np.ndarray] = []
        self._table_starts: list[np.ndarray] = []
        self._table_members: list[np.ndarray] = []
        for t in range(self.n_tables):
            table_keys = keys[:, t, :]
            # When the per-column key ranges fit, pack each row into one
            # int64 with a monotone lexicographic encoding so a single-key
            # argsort replaces the multi-pass lexsort; both orderings are
            # identical (stable, ties to ascending corpus index).
            kmin = table_keys.min(axis=0)
            kmax = table_keys.max(axis=0)
            spans = [int(hi - lo) + 1 for lo, hi in zip(kmin, kmax)]
            total = 1
            for span in spans:
                total *= span
            if total <= 2**62:
                packed = table_keys[:, 0] - kmin[0]
                for h in range(1, self.n_hashes):
                    packed = packed * spans[h] + (table_keys[:, h] - kmin[h])
                order = np.argsort(packed, kind="stable")
                sorted_packed = packed[order]
                boundary = np.r_[
                    True, sorted_packed[1:] != sorted_packed[:-1]
                ]
            else:
                # lexsort's last key is primary: feed columns reversed so
                # rows sort lexicographically by hash position 0, 1, ...
                order = np.lexsort(table_keys.T[::-1])
                sorted_wide = table_keys[order]
                boundary = np.r_[
                    True, np.any(sorted_wide[1:] != sorted_wide[:-1], axis=1)
                ]
            sorted_keys = table_keys[order]
            starts = np.flatnonzero(boundary)
            self._table_keys.append(np.ascontiguousarray(sorted_keys[starts]))
            self._table_starts.append(np.r_[starts, n].astype(np.int64))
            self._table_members.append(order.astype(np.intp, copy=False))

    def _finalize(self) -> None:
        """Derived query-time state: packed lookup keys + probe pool.

        Everything here is recomputed from the stored arrays, so
        snapshots stay at the same schema and legacy files need nothing
        new — loads just run this after restoring the tables.
        """
        self._probe_sets = _perturbation_rank_sets(
            self.n_hashes, self.n_probes - 1
        )
        # Per table: monotone int64 packing of the distinct bucket keys,
        # so a batch of probe keys resolves with one searchsorted.  The
        # packing from _fill_tables is not reused because its spans come
        # from the corpus of *that* run; this one is rebuilt from the
        # stored distinct keys on every construction and load.
        self._pack_min: list[np.ndarray | None] = []
        self._pack_max: list[np.ndarray | None] = []
        self._pack_strides: list[np.ndarray | None] = []
        self._packed_keys: list[np.ndarray | None] = []
        for t in range(self.n_tables):
            uniq = self._table_keys[t]
            kmin = uniq.min(axis=0)
            kmax = uniq.max(axis=0)
            # Python ints: span products overflow int64 exactly when
            # packing is not applicable.
            spans = [int(hi - lo) + 1 for lo, hi in zip(kmin, kmax)]
            total = 1
            for span in spans:
                total *= span
            if total > 2**62:
                self._pack_min.append(None)
                self._pack_max.append(None)
                self._pack_strides.append(None)
                self._packed_keys.append(None)
                continue
            strides = np.ones(self.n_hashes, dtype=np.int64)
            for h in range(self.n_hashes - 2, -1, -1):
                strides[h] = strides[h + 1] * spans[h + 1]
            packed = ((uniq - kmin) * strides).sum(axis=1)
            self._pack_min.append(kmin)
            self._pack_max.append(kmax)
            self._pack_strides.append(strides)
            self._packed_keys.append(packed)

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._points.shape[1]

    @property
    def effective_probes(self) -> int:
        """Buckets actually probed per table (pool may cap ``n_probes``)."""
        return 1 + self._probe_sets.shape[0]

    def _keys_and_residuals(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket keys and quantization residuals of every row.

        Returns ``(keys, residuals)`` shaped ``(m, n_tables, n_hashes)``:
        ``keys`` int64 bucket coordinates, ``residuals`` the fractional
        position of each projection inside its slot (in ``[0, 1)`` slot
        units — the raw material of the perturbation scores).  The
        matmul runs in fixed zero-padded :data:`_HASH_CHUNK_ROWS` blocks
        so a key never depends on how many rows share the batch; build
        and query go through this same arithmetic, so a corpus point and
        an identical query always land in the same bucket.
        """
        m = rows.shape[0]
        flat = self._projections.reshape(-1, self.dimensionality)
        width = self.n_tables * self.n_hashes
        keys = np.empty((m, width), dtype=np.int64)
        residuals = np.empty((m, width))
        offsets = self._offsets.reshape(1, -1)
        for start in range(0, m, _HASH_CHUNK_ROWS):
            stop = min(start + _HASH_CHUNK_ROWS, m)
            block = pad_rows(rows[start:stop], _HASH_CHUNK_ROWS)
            scaled = (block @ flat.T + offsets) / self.bucket_width
            floored = np.floor(scaled)
            keys[start:stop] = floored[: stop - start].astype(np.int64)
            residuals[start:stop] = (scaled - floored)[: stop - start]
        shape = (m, self.n_tables, self.n_hashes)
        return keys.reshape(shape), residuals.reshape(shape)

    def _probe_keys(
        self, keys: np.ndarray, residuals: np.ndarray
    ) -> np.ndarray:
        """All probed bucket keys: ``(m, n_tables, effective_probes, M)``.

        Probe 0 is always the home bucket.  The remaining probes map the
        precomputed rank sets through each (query, table)'s sorted actual
        boundary distances: rank ``r``'s perturbation is a one-hot ±1
        delta vector, so a set's delta vector is an integer matmul of
        its membership row with the per-rank delta matrix — exact
        arithmetic, hence identical for any batching of the queries.
        """
        if self._probe_sets.shape[0] == 0:
            return keys[:, :, None, :]
        m_hashes = self.n_hashes
        w = self.bucket_width
        # Squared distance from each projection to the slot boundary a
        # -1 / +1 perturbation would cross.
        down = np.square(residuals * w)
        up = np.square((1.0 - residuals) * w)
        scores = np.concatenate([down, up], axis=-1)  # (m, T, 2M)
        order = np.argsort(scores, axis=-1, kind="stable")
        position = order % m_hashes
        sign = np.where(order < m_hashes, -1, 1).astype(np.int64)
        rank_deltas = np.zeros(scores.shape + (m_hashes,), dtype=np.int64)
        np.put_along_axis(
            rank_deltas, position[..., None], sign[..., None], axis=-1
        )
        deltas = np.einsum(
            "pr,mtrh->mtph", self._probe_sets, rank_deltas
        )  # (m, T, n_sets, M)
        return np.concatenate(
            [keys[:, :, None, :], keys[:, :, None, :] + deltas], axis=2
        )

    def _lookup_table(
        self, t: int, probe_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Member ranges of a batch of probe keys in table ``t``.

        Returns ``(starts, stops)`` into the table's member permutation,
        with ``stop == start`` for probes whose bucket does not exist.
        Packed tables answer the whole batch with one ``searchsorted``;
        the (rare) unpackable-span tables fall back to the per-probe
        binary-search narrowing.
        """
        strides = self._pack_strides[t]
        bucket_starts = self._table_starts[t]
        if strides is not None:
            kmin = self._pack_min[t]
            kmax = self._pack_max[t]
            in_range = np.all(
                (probe_keys >= kmin) & (probe_keys <= kmax), axis=1
            )
            # Clip before packing: an out-of-range coordinate cannot hit
            # any bucket, and unclipped it could overflow the packing.
            clipped = np.clip(probe_keys, kmin, kmax)
            packed = ((clipped - kmin) * strides).sum(axis=1)
            packed = np.where(in_range, packed, np.int64(-1))
            uniq = self._packed_keys[t]
            pos = np.searchsorted(uniq, packed)
            safe = np.minimum(pos, uniq.size - 1)
            found = in_range & (pos < uniq.size) & (uniq[safe] == packed)
            bucket = np.where(found, safe, 0)
            starts = np.where(found, bucket_starts[bucket], 0)
            stops = np.where(found, bucket_starts[bucket + 1], 0)
            return starts.astype(np.int64), stops.astype(np.int64)
        starts = np.zeros(probe_keys.shape[0], dtype=np.int64)
        stops = np.zeros(probe_keys.shape[0], dtype=np.int64)
        for row in range(probe_keys.shape[0]):
            found_slice = self._bucket_slice(t, probe_keys[row])
            if found_slice is not None:
                starts[row], stops[row] = found_slice
        return starts, stops

    def _bucket_slice(self, t: int, key: np.ndarray) -> tuple[int, int] | None:
        """``[start, stop)`` of ``key``'s bucket in table ``t``, if any.

        The distinct-key matrix is in lexicographic order, so the bucket
        is located by narrowing a row range with two binary searches per
        hash position — the fallback for tables whose key spans overflow
        the int64 packing.
        """
        uniq = self._table_keys[t]
        lo, hi = 0, uniq.shape[0]
        for h in range(self.n_hashes):
            column = uniq[lo:hi, h]
            value = key[h]
            left = int(np.searchsorted(column, value, side="left"))
            right = int(np.searchsorted(column, value, side="right"))
            lo, hi = lo + left, lo + right
            if lo == hi:
                return None
        starts = self._table_starts[t]
        return int(starts[lo]), int(starts[lo + 1])

    def _candidate_block(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probed candidates for a block of query rows, fully vectorized.

        Returns ``(qrow, member, generated)``: flat parallel arrays of
        deduplicated (query row, corpus index) pairs — sorted by query
        row, then ascending corpus index — plus the ``(m,)`` per-query
        count of bucket members pulled *before* deduplication (the
        ``candidates_generated`` stat).  Within one table the probed
        buckets are distinct (valid perturbation sets have distinct
        delta vectors), so duplication only happens across tables; one
        ``np.unique`` over encoded pairs collapses it per query.
        """
        m = rows.shape[0]
        n = self.n_points
        keys, residuals = self._keys_and_residuals(rows)
        probes = self._probe_keys(keys, residuals)
        n_probes = probes.shape[2]
        probe_qids = np.repeat(np.arange(m, dtype=np.int64), n_probes)
        generated = np.zeros(m, dtype=np.int64)
        encoded: list[np.ndarray] = []
        for t in range(self.n_tables):
            flat_keys = probes[:, t].reshape(m * n_probes, self.n_hashes)
            starts, stops = self._lookup_table(t, flat_keys)
            lengths = stops - starts
            total = int(lengths.sum())
            generated += np.bincount(
                probe_qids, weights=lengths, minlength=m
            ).astype(np.int64)
            if total == 0:
                continue
            # Ragged gather: for each found bucket, its [start, stop)
            # run of the member permutation.
            first = starts - np.r_[np.int64(0), np.cumsum(lengths)[:-1]]
            gather = np.repeat(first, lengths) + np.arange(total)
            members = self._table_members[t][gather]
            qids = np.repeat(probe_qids, lengths)
            encoded.append(qids * n + members)
        if not encoded:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, generated
        uniq = np.unique(np.concatenate(encoded))
        qrow = (uniq // n).astype(np.intp, copy=False)
        member = (uniq % n).astype(np.intp, copy=False)
        return qrow, member, generated

    def candidates(self, query) -> np.ndarray:
        """Union of corpus indices sharing a probed bucket with the query."""
        vector = validate_query(query, self.dimensionality)
        _, member, _ = self._candidate_block(vector.reshape(1, -1))
        return member

    def save(self, path: str) -> None:
        """Persist the index to ``path`` (``.npz`` snapshot).

        The per-table CSR arrays are stored concatenated (bucket counts
        recorded so :meth:`load` can split them back); the hash functions
        themselves ride along so queries hash identically after a load.
        The packed lookup keys and perturbation pool are derived state
        and are rebuilt at load time, so the schema only grows by the
        ``n_probes`` scalar (snapshot version 2; version-1 files load
        with ``n_probes = 1``).
        """
        write_snapshot(
            path,
            self.kind,
            {
                "points": self._points,
                "n_tables": np.int64(self.n_tables),
                "n_hashes": np.int64(self.n_hashes),
                "bucket_width": np.float64(self.bucket_width),
                "n_probes": np.int64(self.n_probes),
                "projections": self._projections,
                "offsets": self._offsets,
                "table_keys": np.concatenate(self._table_keys, axis=0),
                "table_n_buckets": np.asarray(
                    [keys.shape[0] for keys in self._table_keys],
                    dtype=np.int64,
                ),
                "table_starts": np.concatenate(self._table_starts),
                "table_members": np.stack(self._table_members),
            },
        )

    @classmethod
    def load(cls, path: str, *, mmap_points: bool = False) -> "LshIndex":
        """Load a snapshot saved by :meth:`save`; query-ready immediately."""
        data = read_snapshot(
            path,
            cls.kind,
            required=(
                "points", "n_tables", "n_hashes", "bucket_width",
                "projections", "offsets", "table_keys", "table_n_buckets",
                "table_starts", "table_members",
            ),
            mmap_points=mmap_points,
        )
        index = cls.__new__(cls)
        index._points = data["points"]
        index.n_tables = int(data["n_tables"])
        index.n_hashes = int(data["n_hashes"])
        index.bucket_width = float(data["bucket_width"])
        # Version-1 snapshots predate multi-probe: single-probe is
        # exactly their historical behavior.
        index.n_probes = int(data.get("n_probes", 1))
        index.refine_kernel = "gemm"
        index._projections = data["projections"]
        index._offsets = data["offsets"]
        counts = data["table_n_buckets"]
        key_splits = np.cumsum(counts)[:-1]
        start_splits = np.cumsum(counts + 1)[:-1]
        index._table_keys = np.split(data["table_keys"], key_splits)
        index._table_starts = np.split(data["table_starts"], start_splits)
        members = data["table_members"].astype(np.intp, copy=False)
        index._table_members = list(members)
        index._finalize()
        return index

    def _query_block(
        self, rows: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probe, deduplicate, and exactly re-rank one block of rows.

        Returns ``(ids, distances, stats)``; a row with fewer than ``k``
        probed candidates keeps the refine kernel's ``-1`` / ``+inf``
        padding.
        """
        m = rows.shape[0]
        qrow, member, generated = self._candidate_block(rows)
        mask = np.zeros((m, self.n_points), dtype=bool)
        mask[qrow, member] = True
        top_indices, top_squared, counts = refine_masked_candidates(
            self._points, rows, mask, k, kernel=self.refine_kernel
        )
        stats = stats_block(
            m,
            points_scanned=counts,
            nodes_visited=self.n_tables * self.effective_probes,
            nodes_pruned=self.n_points - counts,
            candidates_generated=generated,
        )
        return top_indices, np.sqrt(top_squared), stats

    def query(self, query, k: int = 1) -> KnnResult:
        """Approximate k-NN: rank the probed buckets' candidates exactly.

        May return fewer than ``k`` neighbors when the buckets are too
        sparse — that is the approximation showing, and callers measuring
        recall should count it against the index.
        """
        vector = validate_query(query, self.dimensionality)
        k = validate_k(k, self.n_points)
        return KnnColumns(*self._query_block(vector.reshape(1, -1), k))[0]

    def query_batch(self, queries, k: int = 1) -> BatchKnnResult:
        """Approximate k-NN for every row of ``queries``.

        Candidate generation is vectorized end to end — one hashing
        matmul, one packed-key ``searchsorted`` per table for all rows
        and probes at once, one deduplication — and the probed members
        re-rank through the shared exact refine kernel, so the results
        are bit-identical to looping :meth:`query`.
        """
        array = validate_queries(queries, self.dimensionality)
        k = validate_k(k, self.n_points)
        return blocked_query_batch(
            self._query_block, array, k,
            max(1, _BLOCK_ENTRIES // self.n_points),
        )

    def recall_against_exact(
        self, queries, k: int = 3, *, reference=None
    ) -> float:
        """Mean fraction of true k-NN retrieved, over a query batch.

        ``reference`` optionally reuses a prebuilt exact index over the
        same corpus (probe-count sweeps should not rebuild it per
        configuration).  LSH is approximate by design, so the value is a
        tunable metric (``exact=False``), not a contract.
        """
        from repro.search.recall import recall_against_exact

        return recall_against_exact(
            self, queries, k=k, exact=False, reference=reference
        )
