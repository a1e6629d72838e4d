"""The traced run: patches, per-layer metrics, and the attribution table.

Layers are named after the program's modules: ``setup``, ``search``
(index kernels), ``serve.server``/``serve.batcher``, ``serve.pool``,
``shard``, ``serve.mutation``, ``serve.wal`` and ``search.snapshot``.
Spans come from wrappers around public entry points (see
:mod:`tracing`); counts come from public objects at the same
boundaries (``QueryStats`` in answers, ``ServingReport``, the WAL
record format, ``memtable_ops``).  A layer a workload bypasses reports
0 for its metrics.
"""

from __future__ import annotations

import functools
import gc
import time

import numpy as np

import repro.search.bruteforce as bruteforce_module
import repro.search.projected as projected_module
import repro.search.snapshot as snapshot_module
import repro.serve.mutation as mutation_module
import repro.shard.server as shard_server_module
from repro.search import BruteForceIndex, ProjectionScreenedIndex
from repro.search.snapshot import GenerationStore
from repro.serve import IndexServer, MicroBatcher, MutableIndexServer, WorkerPool
from repro.serve.wal import WalWriter, encode_delete, encode_insert
from repro.shard import ShardedIndexServer

import measure
import workloads
from tracing import (END, KEY, NAME, PARENT, REQUEST, ROWS, SID, START,
                     Patcher, TimedBatch, Tracer, covered_length, self_times,
                     traced_call, traced_query_batch, traced_submit)

_FRAME_BYTES = 8  # u32 length + u32 crc32 ahead of every WAL payload

UNITS = {
    "setup.build_ms": "ms", "setup.fit_ms": "ms", "setup.persist_ms": "ms",
    "setup.start_ms": "ms", "setup.first_answer_ms": "ms",
    "search.batch_ms": "ms", "search.rows_per_batch": "rows",
    "search.us_per_row": "us", "search.refine_frac": "ratio",
    "search.points_scanned_per_q": "rows", "search.reduced_rows_per_q": "rows",
    "search.candidates_per_q": "rows", "search.prune_frac": "ratio",
    "server.submit_us": "us", "batcher.wait_ms_p50": "ms",
    "batcher.wait_ms_p99": "ms", "batcher.flushes": "count",
    "batcher.mean_batch": "rows", "batcher.full_frac": "ratio",
    "reaper.watched": "count",
    "pool.roundtrip_ms": "ms", "pool.transport_ms": "ms",
    "pool.worker_busy_frac": "ratio", "pool.front_cpu_ms_per_op": "ms",
    "pool.worker_cpu_ms_per_op": "ms", "pool.restarts": "count",
    "pool.resubmits": "count",
    "shard.fanout_ms_p50": "ms", "shard.straggler_ms_p50": "ms",
    "shard.straggler_ms_p99": "ms", "shard.merge_us": "us",
    "shard.member_mean_batch": "rows",
    "mutation.insert_us_p50": "us", "mutation.delete_us_p50": "us",
    "mutation.query_base_ms": "ms", "mutation.query_delta_ms": "ms",
    "mutation.memtable_rows_mean": "rows", "compaction.count": "count",
    "compaction.ms_p50": "ms", "compaction.overlap_frac": "ratio",
    "compaction.overlap_write_p99_ms": "ms",
    "wal.appends": "count", "wal.syncs": "count", "wal.sync_ms_total": "ms",
    "wal.bytes_per_op": "bytes", "replay.records": "count",
    "replay.read_ms": "ms", "replay.apply_ms": "ms",
    "snapshot.save_ms": "ms", "snapshot.load_ms": "ms",
    "store.prepare_ms": "ms", "store.commit_ms": "ms",
    "store.prune_ms": "ms", "store.write_amp": "ratio",
    "trace.throughput_ops_s": "ops/s", "trace.latency_p50_ms": "ms",
    "trace.cpu_ms_per_op": "ms", "trace.spans_per_op": "count",
    "runtime.gc_frac": "ratio",
}


def _median(values) -> float:
    return measure.median(values) if len(values) else 0.0


def supported_tail(values, q: float) -> tuple[float, float]:
    """``(percentile used, value)``: ``q`` when the sample supports it, else lower."""
    if not len(values):
        return q, 0.0
    supported = measure.highest_supported_percentile(
        len(values), ladder=(q, 95.0, 90.0, 75.0)
    )
    if supported is None:
        return 50.0, measure.median(values)
    return supported, measure.tail_percentile(values, supported)


class Trace:
    """Everything the traced run adds to a plain run."""

    def __init__(self, workload_name: str) -> None:
        self.workload = workload_name
        self.tracer = Tracer()
        self.patcher = Patcher()
        self.deadlined: list[float] = []
        self.replays: list[tuple[float, float, int]] = []
        self.prepared_bytes: list[tuple[float, int]] = []
        self.notes: list[str] = []
        self.stages: list[tuple[str, float]] = []
        self.write_stages: list[tuple[str, float]] = []
        self.report = None
        self.served = (0, 0, 0, 0, 0)
        self.collections: list[tuple[str, float]] = []

    # -- installation ---------------------------------------------------

    def install(self, workload) -> None:
        t, patch = self.tracer, self.patcher.patch
        path_of = lambda args: args[0].snapshot_path  # noqa: E731

        def count_deadline(fn):
            @functools.wraps(fn)
            def wrapper(server, *args, **kwargs):
                if (kwargs.get("deadline_ms") is not None
                        or server.default_deadline_ms is not None):
                    self.deadlined.append(time.perf_counter())
                return fn(server, *args, **kwargs)
            return wrapper

        patch(IndexServer, "submit",
              traced_submit(t, "IndexServer.submit", key_of=path_of))
        patch(IndexServer, "submit", count_deadline)
        patch(ShardedIndexServer, "submit",
              traced_submit(t, "ShardedIndexServer.submit"))
        patch(ShardedIndexServer, "submit", count_deadline)
        patch(MicroBatcher, "submit", traced_call(t, "MicroBatcher.submit"))

        def adopt(sid, future):
            if future.exception() is None:
                result = future.result()
                if isinstance(result, TimedBatch):
                    t.adopt(result.worker_spans, sid)

        patch(WorkerPool, "submit", traced_submit(
            t, "WorkerPool.submit", key_of=path_of,
            rows_of=lambda args: t.owners(args[1]), on_answer=adopt,
        ))
        # Index kernels: through the index_loader seam where the server
        # offers one; the mutable server's per-generation base has no
        # seam, so its index class is patched instead.
        if self.workload == "ingest-mixed":
            patch(BruteForceIndex, "query_batch",
                  traced_query_batch(t, queries_at=1))
        else:
            workload.server_options["index_loader"] = functools.partial(
                _traced_loader, t
            )
        refine = traced_call(t, "refine_masked_candidates")
        patch(bruteforce_module, "refine_masked_candidates", refine)
        patch(projected_module, "refine_masked_candidates", refine)
        patch(shard_server_module, "merge_results",
              traced_call(t, "merge_results"))
        for name in ("insert", "delete", "query", "compact"):
            patch(MutableIndexServer, name,
                  traced_call(t, f"MutableIndexServer.{name}"))
        for name in ("append_insert", "append_delete", "sync"):
            patch(WalWriter, name, traced_call(t, f"WalWriter.{name}"))
        patch(mutation_module, "read_wal", self._traced_read_wal)
        patch(GenerationStore, "prepare", self._traced_prepare)
        for name in ("commit", "prune"):
            patch(GenerationStore, name,
                  traced_call(t, f"GenerationStore.{name}"))
        patch(workloads, "build_index", traced_call(t, "build_index"))
        patch(mutation_module, "build_index", traced_call(t, "build_index"))
        patch(workloads, "build_shards", traced_call(t, "build_shards"))
        patch(projected_module, "fit_projection",
              traced_call(t, "fit_projection"))
        patch(workloads, "save_index", traced_call(t, "save_index"))
        for cls in (BruteForceIndex, ProjectionScreenedIndex):
            patch(cls, "save", traced_call(t, "save"))
        patch(snapshot_module, "load_index", traced_call(t, "load_index"))
        # Collector pauses stop every thread; they land inside whichever
        # spans were open, so their share is reported on its own.
        gc.callbacks.append(self._on_collection)

    def _traced_read_wal(self, fn):
        @functools.wraps(fn)
        def wrapper(path):
            start = time.perf_counter()
            replay = fn(path)
            self.replays.append((start, time.perf_counter(), len(replay.ops)))
            return replay
        return wrapper

    def _traced_prepare(self, fn):
        traced = traced_call(self.tracer, "GenerationStore.prepare")(fn)

        @functools.wraps(fn)
        def wrapper(store, *args, **kwargs):
            info = traced(store, *args, **kwargs)
            self.prepared_bytes.append(
                (time.perf_counter(), workloads.directory_bytes(info.directory))
            )
            return info
        return wrapper

    def _on_collection(self, phase: str, _info) -> None:
        self.collections.append((phase, time.perf_counter()))

    def uninstall(self) -> None:
        self.patcher.undo()
        if self._on_collection in gc.callbacks:
            gc.callbacks.remove(self._on_collection)

    def begin_window(self, server) -> None:
        if hasattr(server, "reset_stats"):
            server.reset_stats()

    def end_window(self, server, workload) -> None:
        """Read the public counters of the measured phase."""
        if isinstance(server, MutableIndexServer):
            stats = np.array(workload.query_stats, dtype=float).reshape(-1, 4)
            self.served = (*stats[:, :3].sum(axis=0), len(stats),
                           stats[:, 3].sum())
            return
        self.report = server.stats()
        rows = sum(size * count for size, count
                   in self.report.batch_size_histogram.items())
        queries = rows / getattr(server, "n_shards", 1)
        work = self.report.query_stats
        self.served = (work.points_scanned, work.reduced_rows_scanned,
                       work.candidates_generated, queries,
                       queries * server.n_points)

    def on_issue(self, rid: int, item) -> None:
        """Tag the next request with its id (and its query row, if any)."""
        self.tracer.set_request(rid)
        if isinstance(item, tuple):
            if item[0] != "query":
                return
            item = item[1]
        self.tracer.row_owner[item.tobytes()] = rid

    # -- metrics --------------------------------------------------------

    def metrics(self, workload, window, setups, resumes, meter) -> dict:
        """Every per-layer metric, as ``{name: {"value", "unit"}}``."""
        spans = self.tracer.spans
        lo, hi = window.start, window.end
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span[NAME], []).append(span)

        def named(name, inside=True):
            found = by_name.get(name, [])
            if inside:
                return [s for s in found if lo <= s[START] <= hi]
            return found

        def durations(name, inside=True):
            return [s[END] - s[START] for s in named(name, inside)]

        children: dict[int, list] = {}
        for span in spans:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append(span)
        ops = window.completed
        m: dict[str, float] = {}

        # setup
        def phase_spans(name, phase):
            total = []
            for phases in setups:
                a, b = phases[phase]
                total.append(sum(s[END] - s[START] for s in by_name.get(name, [])
                                 if a <= s[START] <= b))
            return total

        setup_phase = "build" if "build" in setups[0] else "start"
        fit = phase_spans("fit_projection", setup_phase)
        persist = [a + b for a, b in zip(
            phase_spans("save", setup_phase),
            phase_spans("GenerationStore.commit", setup_phase),
        )]
        if self.workload == "ingest-mixed":
            # prepare() wraps the snapshot save plus its fsyncs.
            persist = [a + b for a, b in zip(
                phase_spans("GenerationStore.prepare", setup_phase),
                phase_spans("GenerationStore.commit", setup_phase),
            )]
            built = phase_spans("build_index", setup_phase)
            start = [(p["start"][1] - p["start"][0]) - b - s
                     for p, b, s in zip(setups, built, persist)]
        else:
            whole = [p["build"][1] - p["build"][0] for p in setups]
            if "persist" in setups[0]:
                persist = [p["persist"][1] - p["persist"][0] for p in setups]
                built = whole
            else:
                built = [w - f - s for w, f, s in zip(whole, fit, persist)]
            start = [p["start"][1] - p["start"][0] for p in setups]
        m["setup.build_ms"] = _median(built) * 1e3
        m["setup.fit_ms"] = _median(fit) * 1e3
        m["setup.persist_ms"] = _median(persist) * 1e3
        m["setup.start_ms"] = _median(start) * 1e3
        m["setup.first_answer_ms"] = _median(
            [p["first_answer"][1] - p["first_answer"][0] for p in setups]
        ) * 1e3

        # search: in-process batches, or worker batches under pool answers
        batches = [s for s in named("query_batch") if s[ROWS] is not None]
        worker_batches = [
            c for s in named("WorkerPool.submit.answer")
            for c in children.get(s[SID], ()) if c[NAME] == "query_batch"
        ]
        kernel = batches + worker_batches
        rows = [len(s[ROWS]) if s[ROWS] is not None else 0 for s in batches]
        for s in named("WorkerPool.submit.answer"):
            rows.append(len(s[ROWS]))
        kernel_time = sum(s[END] - s[START] for s in kernel)
        refine_time = sum(
            c[END] - c[START] for s in kernel
            for c in children.get(s[SID], ()) if c[NAME] == "refine_masked_candidates"
        )
        m["search.batch_ms"] = _median([s[END] - s[START] for s in kernel]) * 1e3
        m["search.rows_per_batch"] = float(np.mean(rows)) if rows else 0.0
        m["search.us_per_row"] = kernel_time / max(1, sum(rows)) * 1e6
        m["search.refine_frac"] = refine_time / kernel_time if kernel_time else 0.0
        scanned, reduced, candidates, queries, scannable = self.served
        m["search.points_scanned_per_q"] = scanned / max(1, queries)
        m["search.reduced_rows_per_q"] = reduced / max(1, queries)
        m["search.candidates_per_q"] = candidates / max(1, queries)
        m["search.prune_frac"] = 1.0 - scanned / max(1, scannable)

        # serve.server / serve.batcher
        m["server.submit_us"] = _median(durations("IndexServer.submit")) * 1e6
        arrivals_by_key = {}
        arrivals = {}
        for s in by_name.get("MicroBatcher.submit", []):
            arrivals_by_key[(s[REQUEST], s[KEY])] = s[START]
            arrivals[s[REQUEST]] = s[START]
        flushed = batches + named("WorkerPool.submit.answer")
        waits = []
        for s in flushed:
            for rid in s[ROWS]:
                if rid < 0:
                    continue
                arrived = (arrivals.get(rid) if s[KEY] is None
                           else arrivals_by_key.get((rid, s[KEY])))
                if arrived is not None:
                    waits.append(s[START] - arrived)
        q, wait_tail = supported_tail(waits, 99.0)
        if q != 99.0:
            self.notes.append(f"batcher.wait_ms_p99 reports p{q:g}: "
                              f"{len(waits)} samples")
        m["batcher.wait_ms_p50"] = _median(waits) * 1e3
        m["batcher.wait_ms_p99"] = wait_tail * 1e3
        sizes = [len(s[ROWS]) for s in flushed]
        m["batcher.flushes"] = float(len(sizes))
        m["batcher.mean_batch"] = float(np.mean(sizes)) if sizes else 0.0
        m["batcher.full_frac"] = (
            sum(1 for n in sizes if n >= 64) / len(sizes) if sizes else 0.0
        )
        m["reaper.watched"] = float(sum(1 for t in self.deadlined if lo <= t <= hi))

        # serve.pool
        trips = named("WorkerPool.submit.answer")
        transport = []
        busy = 0.0
        for s in trips:
            inner = [c for c in children.get(s[SID], ()) if c[NAME] == "query_batch"]
            work = sum(c[END] - c[START] for c in inner)
            busy += work
            transport.append((s[END] - s[START]) - work)
        m["pool.roundtrip_ms"] = _median([s[END] - s[START] for s in trips]) * 1e3
        m["pool.transport_ms"] = _median(transport) * 1e3
        m["pool.worker_busy_frac"] = busy / window.seconds
        has_pool = bool(trips)
        m["pool.front_cpu_ms_per_op"] = meter.front_s / ops * 1e3 if has_pool else 0.0
        m["pool.worker_cpu_ms_per_op"] = meter.workers_s / ops * 1e3
        m["pool.restarts"] = float(self.report.n_restarts) if self.report else 0.0
        m["pool.resubmits"] = float(self.report.n_resubmitted) if self.report else 0.0

        # shard
        m["shard.fanout_ms_p50"] = _median(durations("ShardedIndexServer.submit")) * 1e3
        member_ends: dict[int, list] = {}
        coordinated = {s[REQUEST] for s in named("ShardedIndexServer.submit")}
        for s in by_name.get("IndexServer.submit.answer", []):
            if s[REQUEST] in coordinated:
                member_ends.setdefault(s[REQUEST], []).append(s[END])
        stragglers = [max(e) - min(e) for e in member_ends.values() if len(e) > 1]
        q, straggler_tail = supported_tail(stragglers, 99.0)
        if stragglers and q != 99.0:
            self.notes.append(f"shard.straggler_ms_p99 reports p{q:g}")
        m["shard.straggler_ms_p50"] = _median(stragglers) * 1e3
        m["shard.straggler_ms_p99"] = straggler_tail * 1e3
        m["shard.merge_us"] = _median(durations("merge_results")) * 1e6
        m["shard.member_mean_batch"] = (
            m["batcher.mean_batch"] if coordinated else 0.0
        )

        # serve.mutation
        m["mutation.insert_us_p50"] = _median(
            durations("MutableIndexServer.insert")) * 1e6
        m["mutation.delete_us_p50"] = _median(
            durations("MutableIndexServer.delete")) * 1e6
        # A query's time outside its base answer: the capture before the
        # base submit, and the wake-up and merge after the base answer.
        # The delta scan runs in between, on the caller's thread while
        # the base request waits in the batcher; it is private to the
        # server, so no public boundary separates it from that wait.
        base, outside = [], []
        base_by_request = {
            s[REQUEST]: s for s in by_name.get("IndexServer.submit.answer", [])
        }
        for s in named("MutableIndexServer.query"):
            answered = base_by_request.get(s[REQUEST])
            if answered is not None:
                base.append(answered[END] - answered[START])
                outside.append((s[END] - s[START]) - base[-1])
        m["mutation.query_base_ms"] = _median(base) * 1e3
        m["mutation.query_delta_ms"] = _median(outside) * 1e3
        samples = getattr(workload, "memtable_samples", [])
        m["mutation.memtable_rows_mean"] = float(np.mean(samples)) if samples else 0.0
        compactions = named("MutableIndexServer.compact")
        m["compaction.count"] = float(len(compactions))
        m["compaction.ms_p50"] = _median(
            [s[END] - s[START] for s in compactions]) * 1e3
        writes = (named("MutableIndexServer.insert")
                  + named("MutableIndexServer.delete"))
        overlapping = [
            w[END] - w[START] for w in writes
            if any(c[START] < w[END] and w[START] < c[END] for c in compactions)
        ]
        m["compaction.overlap_frac"] = len(overlapping) / len(writes) if writes else 0.0
        q, overlap_tail = supported_tail(overlapping, 99.0)
        if overlapping and q != 99.0:
            self.notes.append(
                f"compaction.overlap_write_p99_ms reports p{q:g}: "
                f"{len(overlapping)} overlapping writes"
            )
        m["compaction.overlap_write_p99_ms"] = overlap_tail * 1e3

        # serve.wal
        d = workload.corpus.shape[1]
        insert_bytes = _FRAME_BYTES + len(encode_insert(0, np.zeros(d)))
        delete_bytes = _FRAME_BYTES + len(encode_delete(0))
        n_ins = len(named("WalWriter.append_insert"))
        n_del = len(named("WalWriter.append_delete"))
        wal_bytes = n_ins * insert_bytes + n_del * delete_bytes
        m["wal.appends"] = float(n_ins + n_del)
        m["wal.syncs"] = float(len(named("WalWriter.sync")))
        m["wal.sync_ms_total"] = sum(durations("WalWriter.sync")) * 1e3
        m["wal.bytes_per_op"] = wal_bytes / len(writes) if writes else 0.0
        replayed, read, apply = [], [], []
        for open_start, open_end, _ in resumes:
            for start, end, records in self.replays:
                if open_start <= start <= open_end:
                    replayed.append(records)
                    read.append(end - start)
                    apply.append(open_end - end)
        m["replay.records"] = _median(replayed)
        m["replay.read_ms"] = _median(read) * 1e3
        m["replay.apply_ms"] = _median(apply) * 1e3

        # search.snapshot
        m["snapshot.save_ms"] = _median(durations("save", inside=False)) * 1e3
        m["snapshot.load_ms"] = _median(durations("load_index", inside=False)) * 1e3
        for name in ("prepare", "commit", "prune"):
            m[f"store.{name}_ms"] = _median(
                durations(f"GenerationStore.{name}", inside=False)) * 1e3
        if self.workload == "ingest-mixed":
            inserted = len(named("MutableIndexServer.insert"))
            written = wal_bytes + sum(
                b for t, b in self.prepared_bytes if lo <= t <= hi)
            m["store.write_amp"] = written / max(1, inserted * d * 8)
        else:
            m["store.write_amp"] = workload.persisted_bytes / workload.corpus.nbytes

        # tracing overhead, against the untraced runs' medians
        m["trace.throughput_ops_s"] = ops / window.seconds
        m["trace.latency_p50_ms"] = _median(window.latencies) * 1e3
        m["trace.cpu_ms_per_op"] = (meter.front_s + meter.workers_s) / ops * 1e3
        in_window = sum(1 for s in spans if lo <= s[START] <= hi)
        m["trace.spans_per_op"] = in_window / ops
        pauses = [(a[1], b[1]) for a, b in zip(self.collections[::2],
                                                 self.collections[1::2])]
        m["runtime.gc_frac"] = covered_length(pauses, lo, hi) / window.seconds
        self.notes.append(
            f"collector pauses cover {m['runtime.gc_frac']:.1%} of the window; "
            "they stop every thread and land inside the stages above"
        )

        self.stages = self._stages(spans, by_name, children, lo, hi)
        return {name: {"value": float(value), "unit": UNITS[name]}
                for name, value in m.items()}

    # -- attribution ------------------------------------------------------

    def _stages(self, spans, by_name, children, lo, hi) -> list[tuple[str, float]]:
        """Mean per-request time of each stage along the blocking path, in ms.

        Stages are span self times (a span minus its children) plus the
        gaps between spans where the request waited; they add up to the
        request's latency (``total``).
        """
        own = self_times(spans)

        def first(name):
            return {s[REQUEST]: s for s in by_name.get(name, [])
                    if s[REQUEST] is not None}

        def kids(span, name):
            return [c for c in children.get(span[SID], ()) if c[NAME] == name]

        def kernel(batch):
            """(scan, refine) self times of one ``query_batch`` span."""
            refine = sum(own[c[SID]] for c in kids(batch, "refine_masked_candidates"))
            return own[batch[SID]], refine

        def containing(name):
            found = {}
            for s in by_name.get(name, []):
                for rid in s[ROWS] or ():
                    found[(rid, s[KEY])] = s
                    found[rid] = s
            return found

        rows = []
        calls, enqueued = first("IndexServer.submit"), first("MicroBatcher.submit")
        if self.workload == "point-pooled":
            trips = containing("WorkerPool.submit.answer")
            for a in by_name.get("IndexServer.submit.answer", []):
                r = a[REQUEST]
                if not lo <= a[START] <= hi or r not in trips:
                    continue
                call, trip = calls[r], trips[r]
                scan = refine = 0.0
                for batch in kids(trip, "query_batch"):
                    s_, f_ = kernel(batch)
                    scan, refine = scan + s_, refine + f_
                rows.append({
                    "serve.server submit": own[call[SID]],
                    "serve.batcher submit": own[enqueued[r][SID]],
                    "serve.batcher wait": trip[START] - call[END],
                    "serve.pool transport": own[trip[SID]],
                    "search scan": scan,
                    "search refine": refine,
                    "serve.server deliver": a[END] - trip[END],
                    "total": a[END] - a[START],
                })
        elif self.workload == "screened-sharded":
            scatters = first("ShardedIndexServer.submit")
            merges = first("merge_results")
            members: dict[int, list] = {}
            for s in by_name.get("IndexServer.submit.answer", []):
                if lo <= s[START] <= hi:
                    members.setdefault(s[REQUEST], []).append(s)
            batches = containing("query_batch")
            for a in by_name.get("ShardedIndexServer.submit.answer", []):
                r = a[REQUEST]
                if not lo <= a[START] <= hi or r not in members:
                    continue
                last = max(members[r], key=lambda s: s[END])
                batch = batches.get((r, last[KEY]))
                if batch is None:
                    continue
                call = scatters[r]
                submits = kids(call, "IndexServer.submit")
                scan, refine = kernel(batch)
                merge = own[merges[r][SID]] if r in merges else 0.0
                rows.append({
                    "shard scatter": own[call[SID]],
                    "serve.server submit (all members)": sum(
                        own[c[SID]] for c in submits),
                    "serve.batcher submit (all members)": sum(
                        own[m[SID]] for c in submits
                        for m in kids(c, "MicroBatcher.submit")),
                    "serve.batcher wait (last member)": batch[START] - call[END],
                    "search screen": scan,
                    "search refine": refine,
                    "serve.server deliver": last[END] - batch[END],
                    "shard merge": merge,
                    "shard gather": (a[END] - last[END]) - merge,
                    "total": a[END] - a[START],
                })
        else:
            answers = first("IndexServer.submit.answer")
            batches = containing("query_batch")
            for q in by_name.get("MutableIndexServer.query", []):
                r = q[REQUEST]
                if not lo <= q[START] <= hi or r not in batches:
                    continue
                call, answered, batch = calls[r], answers[r], batches[r]
                scan, refine = kernel(batch)
                rows.append({
                    "serve.mutation capture": call[START] - q[START],
                    "serve.server submit": own[call[SID]],
                    "serve.batcher submit": own[enqueued[r][SID]],
                    "serve.batcher wait (delta scan meanwhile)":
                        batch[START] - call[END],
                    "search scan": scan,
                    "search refine": refine,
                    "serve.server deliver": answered[END] - batch[END],
                    "serve.mutation wake-up and merge": q[END] - answered[END],
                    "total": q[END] - q[START],
                })
            writes = []
            for name in ("MutableIndexServer.insert", "MutableIndexServer.delete"):
                for w in by_name.get(name, []):
                    if not lo <= w[START] <= hi:
                        continue
                    appended = [c for c in children.get(w[SID], ())
                                if c[NAME].startswith("WalWriter.append")]
                    syncs = [c for a in appended for c in kids(a, "WalWriter.sync")]
                    writes.append({
                        "serve.mutation write": own[w[SID]],
                        "serve.wal append": sum(own[a[SID]] for a in appended),
                        "serve.wal sync": sum(own[c[SID]] for c in syncs),
                        "total": w[END] - w[START],
                    })
            self.write_stages = _means(writes)
        return _means(rows)

    def report_lines(self) -> list[str]:
        lines = [f"attribution ({self.workload}): mean ms per request "
                 "along the blocking path"]
        for name, ms in self.stages:
            lines.append(f"  {name:34s} {ms:9.4f} ms")
        for name, ms in self.write_stages:
            lines.append(f"  write: {name:27s} {ms:9.4f} ms")
        lines.extend(f"note: {note}" for note in self.notes)
        return lines


def _means(rows: list[dict]) -> list[tuple[str, float]]:
    """Column means of ``rows``, in milliseconds."""
    return [(name, float(np.mean([r[name] for r in rows])) * 1e3)
            for name in (rows[0] if rows else {})]


def _traced_loader(tracer: Tracer, snapshot_path: str, mmap_points: bool):
    """``index_loader`` seam: the plain snapshot load, with ``query_batch`` timed."""
    index = snapshot_module.load_index(snapshot_path, mmap_points=mmap_points)
    index.query_batch = traced_query_batch(tracer, key=snapshot_path)(
        index.query_batch
    )
    return index
