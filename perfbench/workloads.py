"""The three workloads: inputs, set-up, measured phase, restart, checks.

Each workload drives the unmodified program through the public APIs of
``repro.search``, ``repro.serve`` and ``repro.shard`` from one thread,
and checks every answer against an exact reference outside the timed
region.  All three use the default ``BatchPolicy`` (``max_batch`` 64,
``max_wait_ms`` 2), k = 10, the default worker start method, unique
queries and no result cache.
"""

from __future__ import annotations

import functools
import os
import shutil
import time

import numpy as np

from repro.search import BruteForceIndex, build_index, save_index
from repro.serve import IndexServer, MutableIndexServer
from repro.shard import ShardedIndexServer, build_shards

import inputs
from loops import Window, closed_loop

K = 10
OUTSTANDING = 64
DEADLINE_MS = 5000.0


def answer(result) -> tuple:
    """The comparable surface of a ``KnnResult``: ``(id, distance)`` pairs."""
    return tuple((n.index, n.distance) for n in result.neighbors)


def directory_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Mismatches:
    """Counts answers that differ from their exact reference."""

    def __init__(self) -> None:
        self.checked = 0
        self.wrong = 0
        self.examples: list[str] = []

    def compare(self, what: str, got, want) -> None:
        self.checked += 1
        if got != want:
            self.wrong += 1
            if len(self.examples) < 3:
                self.examples.append(f"{what}: got {got!r:.200} want {want!r:.200}")


class AnswerLog:
    """Answers of a request stream, kept as flat arrays by request id.

    ``ids``/``distances`` are ``(n, k)`` and ``stats`` is ``(n, 5)``
    (the :class:`~repro.search.results.QueryStats` counters); a request
    that failed keeps ``ok`` False.
    """

    STATS = ("points_scanned", "nodes_visited", "nodes_pruned",
             "reduced_rows_scanned", "candidates_generated")

    def __init__(self, k: int, capacity: int) -> None:
        self.k = k
        self.ids = np.full((capacity, k), -1, dtype=np.int64)
        self.distances = np.zeros((capacity, k))
        self.stats = np.zeros((capacity, len(self.STATS)), dtype=np.int64)
        self.ok = np.zeros(capacity, dtype=bool)
        self.n = 0

    def put(self, rid: int, result) -> None:
        if rid >= self.ok.size:
            grow = max(rid + 1, 2 * self.ok.size) - self.ok.size
            self.ids = np.vstack([self.ids, np.full((grow, self.k), -1)])
            self.distances = np.vstack([self.distances,
                                        np.zeros((grow, self.k))])
            self.stats = np.vstack([self.stats,
                                    np.zeros((grow, len(self.STATS)),
                                             dtype=np.int64)])
            self.ok = np.concatenate([self.ok, np.zeros(grow, dtype=bool)])
        self.n = max(self.n, rid + 1)
        if result is None:
            return
        neighbors = result.neighbors
        self.ids[rid, :len(neighbors)] = [n.index for n in neighbors]
        self.distances[rid, :len(neighbors)] = [n.distance for n in neighbors]
        self.stats[rid] = [getattr(result.stats, f) for f in self.STATS]
        self.ok[rid] = True

    def on_answer(self, rid: int, future) -> None:
        self.put(rid, None if future.exception() else future.result())

    def compare(self, found: "Mismatches", reference, with_stats: bool) -> None:
        """Compare every answered request with ``reference``'s answers, bit for bit."""
        want = AnswerLog(self.k, self.n)
        for rid, result in enumerate(reference):
            want.put(rid, result)
        ok = self.ok[: self.n]
        fields = [(self.ids, want.ids, "ids"),
                  (self.distances.view(np.int64),
                   want.distances.view(np.int64), "distance bits")]
        if with_stats:
            fields.append((self.stats, want.stats, "stats"))
        found.checked += int(ok.sum())
        bad = np.zeros(self.n, dtype=bool)
        for got, expected, what in fields:
            rows = np.any(got[: self.n] != expected[: self.n], axis=1) & ok
            for rid in np.flatnonzero(rows)[:3]:
                if len(found.examples) < 3:
                    found.examples.append(
                        f"request {rid} {what}: got {got[rid].tolist()} "
                        f"want {expected[rid].tolist()}"
                    )
            bad |= rows
        found.wrong += int(bad.sum())


class ServedWorkload:
    """Shared flow of the two read-only serving workloads."""

    name = ""
    setup_repeats = 11
    resume_repeats = 31
    # Servers keep each deadlined future in their reaper until its
    # deadline passes, so the live heap (and with it the collector's
    # pause times) only settles DEADLINE_MS after traffic starts; the
    # measured window opens after that.
    warmup = DEADLINE_MS / 1e3 + 1.0
    reserve: int  # queries drawn before set-up (and answer slots kept)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.answers = AnswerLog(K, self.reserve)
        self.resume_firsts: list[tuple] = []
        self.server_options: dict = {}
        self.persisted_bytes = 0

    def submit(self, server, query):
        return server.submit(query, k=K, deadline_ms=DEADLINE_MS)

    def first_answer(self, server) -> tuple:
        return answer(self.submit(server, self.probes[0]).result())

    def resume_images(self, path: str) -> list[str]:
        return [path] * self.resume_repeats

    def keep_resumed(self, server) -> None:
        pass

    def measure(self, server, seconds, warmup, meter, on_issue=None) -> Window:
        return closed_loop(
            lambda query: self.submit(server, query),
            self.queries.next, self.answers.on_answer,
            seconds=seconds, warmup=warmup, outstanding=OUTSTANDING,
            meter=meter, on_issue=on_issue,
        )


class PointPooled(ServedWorkload):
    """Brute force over 10,000 x 16 Gaussian rows, one pooled worker."""

    name = "point-pooled"
    reserve = 131_072

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        corpus_rng, query_rng, probe_rng = inputs.streams(seed, 3)
        self.corpus = inputs.gaussian(corpus_rng, 10_000, 16)
        self.queries = inputs.QueryStream(
            query_rng, functools.partial(inputs.gaussian, d=16),
            reserve=self.reserve,
        )
        self.probes = inputs.gaussian(probe_rng, 64, 16)
        self.reference = BruteForceIndex(self.corpus)

    def setup(self, directory: str, timer) -> tuple:
        os.makedirs(directory)
        path = os.path.join(directory, "index.npz")
        with timer("build"):
            index = build_index("bruteforce", self.corpus)
        with timer("persist"):
            save_index(index, path)
        with timer("start"):
            server = self.open(path)
        with timer("first_answer"):
            first = self.first_answer(server)
        self.persisted_bytes = os.path.getsize(path)
        return server, first, path

    def open(self, path: str):
        return IndexServer(path, n_workers=1, **self.server_options)

    def space(self, path: str) -> tuple[int, int]:
        return os.path.getsize(path), self.corpus.nbytes

    def expected_first(self) -> tuple:
        return answer(self.reference.query_batch(self.probes[:1], k=K)[0])

    def check(self, found: Mismatches) -> None:
        want = self.reference.query_batch(self.queries.issued(), k=K)
        self.answers.compare(found, want, with_stats=True)
        for i, first in enumerate(self.resume_firsts):
            found.compare(f"restart {i} first answer", first,
                          self.expected_first())


class ScreenedSharded(ServedWorkload):
    """Projscreen over a 40,000 x 64 latent-rank-8 corpus in 4 in-process shards."""

    name = "screened-sharded"
    setup_repeats = 7
    reserve = 32_768

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        corpus_rng, query_rng, probe_rng = inputs.streams(seed, 3)
        model = inputs.LatentModel(corpus_rng, 64, 8, 0.05)
        self.corpus = model.sample(corpus_rng, 40_000)
        self.queries = inputs.QueryStream(query_rng, model.sample,
                                          reserve=self.reserve)
        self.probes = model.sample(probe_rng, 64)
        self.reference = BruteForceIndex(self.corpus)

    def setup(self, directory: str, timer) -> tuple:
        with timer("build"):
            manifest = build_shards(
                self.corpus, directory, 4, kind="projscreen",
                method="round-robin",
            )
        with timer("start"):
            server = self.open(manifest)
        with timer("first_answer"):
            first = self.first_answer(server)
        self.persisted_bytes = directory_bytes(directory)
        return server, first, directory

    def open(self, manifest):
        return ShardedIndexServer(manifest, n_workers=0,
                                  **self.server_options)

    def space(self, directory: str) -> tuple[int, int]:
        return directory_bytes(directory), self.corpus.nbytes

    def expected_first(self) -> tuple:
        return answer(self.reference.query_batch(self.probes[:1], k=K)[0])

    def check(self, found: Mismatches) -> None:
        want = self.reference.query_batch(self.queries.issued(), k=K)
        self.answers.compare(found, want, with_stats=False)
        for i, first in enumerate(self.resume_firsts):
            found.compare(f"restart {i} first answer", first,
                          self.expected_first())


class IngestMixed:
    """Inserts, deletes and single queries against one mutable server."""

    name = "ingest-mixed"
    warmup = 1.0
    compaction_timeout = 60.0
    setup_repeats = 11
    resume_repeats = 31
    crash_copies = 3  # a resume leaves its image unchanged, so images are reused

    def __init__(self, seed: int, n_seed: int = 50_000, d: int = 32,
                 threshold: int = 4000) -> None:
        self.seed = seed
        self.threshold = threshold
        corpus_rng, op_rng, probe_rng = inputs.streams(seed, 3)
        self.corpus = inputs.gaussian(corpus_rng, n_seed, d)
        self.stream = inputs.IngestStream(op_rng, n_seed, d)
        self.probes = inputs.gaussian(probe_rng, 64, d)
        self.reference = BruteForceIndex(self.corpus)
        # The benchmark's own record of every acknowledged operation:
        # ("insert", id, row) / ("delete", id) / ("query", row, answer).
        self.record: list = []
        self.n_inserted = 0
        self.last_stats = None
        self.write_latencies: list[float] = []
        self.crash_images: list[str] = []
        self.crash_live = 0
        self.crash_point = 0
        self.memtable_samples: list[int] = []
        # Per measured query: QueryStats counters and the live row count.
        self.query_stats: list[tuple] = []
        self.resume_firsts: list[tuple] = []

    def open(self, root: str, points=None):
        return MutableIndexServer(
            root, points, kind="bruteforce", n_workers=0,
            wal_sync="group", compact_threshold=self.threshold,
        )

    def setup(self, directory: str, timer) -> tuple:
        root = os.path.join(directory, "store")
        with timer("start"):
            server = self.open(root, self.corpus)
        with timer("first_answer"):
            first = self.first_answer(server)
        return server, first, root

    def first_answer(self, server) -> tuple:
        return answer(server.query(self.probes[0], k=K))

    def resume_images(self, path: str) -> list[str]:
        return [self.crash_images[i % len(self.crash_images)]
                for i in range(self.resume_repeats)]

    def keep_resumed(self, server) -> None:
        """Record what the last resumed server holds, for the check."""
        self.resumed = (server.n_live, [
            answer(server.query(probe, k=K)) for probe in self.probes
        ])

    def expected_first(self) -> tuple:
        return answer(self.reference.query_batch(self.probes[:1], k=K)[0])

    def apply(self, server, op) -> float:
        """Run one op, record it, and return its latency in seconds."""
        kind, payload = op
        if kind == "insert":
            start = time.perf_counter()
            row_id = server.insert(payload)
            latency = time.perf_counter() - start
            expected = self.corpus.shape[0] + self.n_inserted
            if row_id != expected:
                raise RuntimeError(
                    f"server allocated row id {row_id}, expected {expected}"
                )
            self.n_inserted += 1
            self.record.append(("insert", row_id, payload))
        elif kind == "delete":
            start = time.perf_counter()
            server.delete(payload)
            latency = time.perf_counter() - start
            self.record.append(("delete", payload))
        else:
            start = time.perf_counter()
            result = server.query(payload, k=K)
            latency = time.perf_counter() - start
            self.last_stats = result.stats
            self.record.append(("query", payload, answer(result)))
        return latency

    def measure(self, server, seconds, warmup, meter, on_issue=None) -> Window:
        """Run the stream; the window opens at the first compaction after ``warmup``.

        Opening at a compaction puts every window at the same phase of
        the compaction cycle, so runs differ only in how far the last
        cycle got, not in where the first one started.
        """
        window = Window()
        open_at = time.perf_counter() + warmup
        give_up = open_at + self.compaction_timeout
        close_at = None
        n = 0
        while True:
            now = time.perf_counter()
            if close_at is None and now >= open_at:
                if server.n_compactions >= 1:
                    close_at = now + seconds
                    window.start = now
                    if meter is not None:
                        meter.start(now, seconds)
                elif now > give_up:
                    raise RuntimeError("no compaction during the warm-up")
            elif meter is not None:
                meter.tick(now)
            measuring = close_at is not None
            if measuring and now >= close_at:
                window.end = now
                if meter is not None:
                    meter.stop(now)
                break
            op = self.stream.next()
            if on_issue is not None:
                on_issue(n, op)
            n += 1
            latency = self.apply(server, op)
            if measuring:
                window.attempted += 1
                window.completions.append(time.perf_counter())
                if op[0] == "query":
                    window.latencies.append(latency)
                    self.memtable_samples.append(server.memtable_ops)
                    stats = self.last_stats
                    self.query_stats.append((
                        stats.points_scanned, stats.reduced_rows_scanned,
                        stats.candidates_generated, server.n_live,
                    ))
                else:
                    self.write_latencies.append(latency)
        return window

    def crash(self, server, directory: str, copies: int) -> None:
        """Quiesce compaction, top the log up to threshold-1 ops, copy the store.

        Copying the open store models a process kill (the OS keeps every
        flushed byte), not power loss.
        """
        store = server.store
        deadline = time.perf_counter() + self.compaction_timeout
        while True:
            generations = [
                name for name in os.listdir(store.root)
                if name.startswith("gen-")
            ]
            if (server.memtable_ops < self.threshold
                    and len(generations) <= 2):
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("compaction did not quiesce")
            time.sleep(0.01)
        while server.memtable_ops < self.threshold - 1:
            self.apply(server, self.stream.next_write())
        self.crash_point = len(self.record)
        self.crash_live = server.n_live
        self.space = (directory_bytes(store.root),
                      server.n_live * self.corpus.shape[1] * 8)
        for i in range(copies):
            image = os.path.join(directory, f"crash-{i}")
            shutil.copytree(store.root, image)
            self.crash_images.append(image)

    def live_rows(self, upto: int):
        """Replay the op record; yield ``(position, ids, rows)`` at queries."""
        n_seed, d = self.corpus.shape
        inserted = [op for op in self.record[:upto] if op[0] == "insert"]
        rows = np.empty((n_seed + len(inserted), d))
        rows[:n_seed] = self.corpus
        alive = np.zeros(rows.shape[0], dtype=bool)
        alive[:n_seed] = True
        for position, op in enumerate(self.record[:upto]):
            if op[0] == "insert":
                rows[op[1]] = op[2]
                alive[op[1]] = True
            elif op[0] == "delete":
                alive[op[1]] = False
            else:
                ids = np.flatnonzero(alive)
                yield position, ids, rows[ids]
        ids = np.flatnonzero(alive)
        yield upto, ids, rows[ids]

    @staticmethod
    def fresh_answer(ids, rows, queries) -> list[tuple]:
        """Answers of an index freshly built over ``rows`` (global ids ``ids``)."""
        batch = BruteForceIndex(rows).query_batch(queries, k=K)
        return [
            tuple((int(ids[n.index]), n.distance) for n in result.neighbors)
            for result in batch
        ]

    def check(self, found: Mismatches) -> None:
        for position, ids, rows in self.live_rows(self.crash_point):
            if position == self.crash_point:
                self.crash_reference = (ids.size, self.fresh_answer(
                    ids, rows, self.probes
                ))
                break
            _, query, got = self.record[position]
            want = self.fresh_answer(ids, rows, query[None, :])[0]
            found.compare(f"op {position}", got, want)

        n_live, want = self.crash_reference
        got_live, got = self.resumed
        found.compare("resumed n_live", got_live, n_live)
        found.compare("acknowledged n_live", self.crash_live, n_live)
        for i, (g, w) in enumerate(zip(got, want)):
            found.compare(f"resumed probe {i}", g, w)
        for i, first in enumerate(self.resume_firsts):
            found.compare(f"resume {i} first answer", first, want[0])
