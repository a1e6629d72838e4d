"""Load generators: a closed loop of outstanding requests, and a serial stream.

Both run on the calling thread alone.  The closed loop keeps
``outstanding`` requests in flight (that many virtual clients, no extra
threads): each answer's done-callback hands its slot back and the loop
submits the next request.  Latency runs from just before ``submit`` to
the moment the future resolves (taken in the resolving thread).

The measured window opens ``warmup`` seconds after the first request
and lasts ``seconds``; only requests submitted inside it count, and the
window closes before the in-flight tail drains, so neither ramp-up nor
drain is measured.  Each answer is handed to ``on_answer`` on the
loop's thread as its slot returns, so the loop itself holds no result
objects (a growing heap of them would make the collector's full passes,
and with them the latency tail, grow over the run).
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field


@dataclass
class Window:
    """What one measured window saw."""

    start: float = 0.0
    end: float = 0.0
    completions: list = field(default_factory=list)  # sorted times of answers inside
    attempted: int = 0          # submitted inside the window
    failed: int = 0             # typed serving errors among ``attempted``
    latencies: list = field(default_factory=list)   # seconds, answered requests
    errors: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def completed(self) -> int:
        return len(self.completions)


def closed_loop(submit, next_query, on_answer, *, seconds: float,
                warmup: float, outstanding: int, meter=None, on_issue=None):
    """Drive ``submit(query) -> Future`` with ``outstanding`` requests in flight.

    ``on_answer(rid, future)`` receives every resolved request (warm-up
    and drain included), in completion order.  Returns the window.
    """
    slots: queue.SimpleQueue = queue.SimpleQueue()
    pending: dict = {}
    sent_at: list[float] = []
    done_at: list[float | None] = []
    failed: set[int] = set()
    window = Window()

    def launch() -> None:
        rid = len(sent_at)
        query = next_query()
        if on_issue is not None:
            on_issue(rid, query)
        done_at.append(None)
        sent_at.append(time.perf_counter())
        future = submit(query)
        pending[rid] = future

        def done(_f, rid=rid):
            done_at[rid] = time.perf_counter()
            slots.put(rid)

        future.add_done_callback(done)

    def settle(rid: int) -> None:
        future = pending.pop(rid)
        error = future.exception()
        if error is not None:
            failed.add(rid)
            window.errors.append(repr(error))
        on_answer(rid, future)

    for _ in range(outstanding):
        launch()
    open_at = time.perf_counter() + warmup
    close_at = open_at + seconds
    first_in_window = None
    while True:
        settle(slots.get())
        now = time.perf_counter()
        if first_in_window is None and now >= open_at:
            first_in_window = len(sent_at)
            window.start = now
            if meter is not None:
                meter.start(now, seconds)
        elif first_in_window is not None and meter is not None:
            meter.tick(now)

        if now >= close_at:
            window.end = now
            if meter is not None:
                meter.stop(now)
            break
        launch()
    last_in_window = len(sent_at)
    # Drain: every outstanding request resolves before the tally.
    while pending:
        settle(slots.get())
    for rid, done in enumerate(done_at):
        ok = rid not in failed
        if ok and window.start <= done <= window.end:
            window.completions.append(done)
        if first_in_window <= rid < last_in_window:
            window.attempted += 1
            if ok:
                window.latencies.append(done - sent_at[rid])
            else:
                window.failed += 1
    window.completions.sort()
    return window
