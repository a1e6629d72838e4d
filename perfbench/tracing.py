"""Spans recorded around the program's public entry points.

The traced run patches public functions and methods of ``repro`` at
run time (the files on disk are untouched) so that each call records a
span: name, start, end, parent span, request id, and a ``key`` naming
the server or snapshot it ran against.  Spans stay in memory and are
written out when the run ends.

Asynchronous completions (a future resolving on another thread) are
recorded as separate ``<name>.answer`` spans from the call's start to
the resolution, with no parent, so they never count as covering the
synchronous caller's time.  Batch spans carry the request ids of their
rows, recovered from the row bytes (every generated query is unique).

Worker processes inherit the patches through ``fork`` (the workloads
use the default start method).  A worker records into its own copy of
the tracer and ships the spans of one batch back inside the batch
result (:class:`TimedBatch`), where the parent re-parents them under
the pool round trip that carried the batch.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass

from repro.search.results import BatchKnnResult

# Span tuple layout.
SID, NAME, START, END, PARENT, REQUEST, KEY, ROWS = range(8)


@dataclass(frozen=True)
class TimedBatch(BatchKnnResult):
    """A batch answer carrying the spans a worker recorded while computing it."""

    worker_spans: tuple = ()


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.row_owner: dict[bytes, int] = {}
        self.owner_pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- thread-local context -----------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: int | None) -> None:
        """Request id that spans opened on this thread default to."""
        self._local.request = request

    # -- recording -----------------------------------------------------

    def begin(self, name: str, key=None) -> tuple:
        stack = self._stack()
        if stack:
            parent, request, parent_key = stack[-1]
            key = parent_key if key is None else key
        else:
            parent, request = None, getattr(self._local, "request", None)
        sid = next(self._ids)
        stack.append((sid, request, key))
        return (sid, name, time.perf_counter(), parent, request, key)

    def end(self, token: tuple, rows=None, end: float | None = None) -> tuple:
        if end is None:
            end = time.perf_counter()
        self._stack().pop()
        sid, name, start, parent, request, key = token
        span = (sid, name, start, end, parent, request, key, rows)
        self.spans.append(span)
        return span

    def add(self, name, start, end, *, request, key, rows) -> int:
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, None, request, key, rows))
        return sid

    def owners(self, queries) -> tuple:
        """Request ids of a batch's rows (``-1`` for rows not issued by the run)."""
        lookup = self.row_owner.get
        return tuple(lookup(row.tobytes(), -1) for row in queries)

    def adopt(self, spans, parent: int | None) -> None:
        """Re-number spans shipped from a worker and hang them under ``parent``."""
        mapping = {}
        for span in spans:
            mapping[span[SID]] = next(self._ids)
        for span in spans:
            self.spans.append((
                mapping[span[SID]], span[NAME], span[START], span[END],
                mapping.get(span[PARENT], parent), None, span[KEY], None,
            ))

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        fields = ("id", "name", "start", "end", "parent", "request",
                  "key", "rows")
        with open(path, "w") as handle:
            for span in self.spans:
                record = dict(zip(fields, span))
                record["key"] = None if span[KEY] is None else str(span[KEY])
                handle.write(json.dumps(record) + "\n")


# -- span arithmetic ----------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    return {
        span[SID]: (span[END] - span[START]) - covered_length(
            children.get(span[SID], ()), span[START], span[END]
        )
        for span in spans
    }


# -- patching -----------------------------------------------------------------


class Patcher:
    """Replace attributes and restore them in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(original)``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def traced_call(tracer: Tracer, name: str):
    """Wrapper factory: one span around each call."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(token)

        return wrapper

    return make


def traced_submit(tracer: Tracer, name: str, key_of=None, rows_of=None,
                  on_answer=None):
    """Wrapper factory for calls returning a future.

    Records the synchronous call span plus a ``<name>.answer`` span from
    the call's start to the future's resolution.  ``on_answer(span_id,
    future)`` runs after the answer span is recorded.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.begin(name, key_of(args) if key_of else None)
            try:
                future = fn(*args, **kwargs)
            finally:
                span = tracer.end(token)
            rows = rows_of(args) if rows_of else None
            start, request, key = span[START], span[REQUEST], span[KEY]

            def done(f):
                sid = tracer.add(name + ".answer", start, time.perf_counter(),
                                 request=request, key=key, rows=rows)
                # Work the resolution triggers on this thread (the
                # scatter-gather merge) belongs to this request.
                tracer.set_request(request)
                if on_answer is not None:
                    on_answer(sid, f)

            future.add_done_callback(done)
            return future

        return wrapper

    return make


def traced_query_batch(tracer: Tracer, key=None, queries_at: int = 0):
    """Wrapper factory for an index's ``query_batch``.

    ``queries_at`` is the position of the queries among the positional
    arguments (1 when patching the method on the class, where ``self``
    comes first).  In the tracer's own process the span (with its rows'
    request ids) is recorded directly; in a forked worker the spans
    recorded during the call are returned inside a :class:`TimedBatch`.
    """

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            queries = args[queries_at]
            mark = len(tracer.spans)
            token = tracer.begin("query_batch", key)
            try:
                batch = fn(*args, **kwargs)
            except BaseException:
                tracer.end(token)
                raise
            end = time.perf_counter()
            if os.getpid() == tracer.owner_pid:
                tracer.end(token, rows=tracer.owners(queries), end=end)
                return batch
            tracer.end(token, end=end)
            shipped = tuple(tracer.spans[mark:])
            del tracer.spans[mark:]
            return TimedBatch(results=batch.results, stats=batch.stats,
                              worker_spans=shipped)

        return wrapper

    return make
