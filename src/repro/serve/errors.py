"""Typed error taxonomy for the serving stack.

The serving layer's degradation contract is: shed or fail a request
*loudly*, never answer it approximately or drop it silently.  Every
degradation path therefore resolves the affected future (or raises in
the submitting caller) with one of the types below, so callers can
branch on *what* went wrong instead of parsing message strings:

* :class:`DeadlineExceeded` — the request's end-to-end deadline passed
  before its answer was delivered.  The work may still complete
  downstream (queries are read-only, so that is harmless), but the
  caller is released at the deadline instead of waiting forever.
* :class:`ServerOverloaded` — the bounded admission queue was full and
  the load-shedding policy sacrificed this request: raised
  synchronously from ``submit`` under ``reject-new``, set on the oldest
  queued future under ``drop-oldest``.
* :class:`ServerClosedError` — work was submitted after ``close()``.
* :class:`ShardError` — in sharded serving, one shard of a
  scatter-gather fan-out failed, so the merged top-k cannot be produced.
  A partial merge over the surviving shards would be silently *wrong*
  (the dead shard may hold true neighbors), so the whole request fails
  with this type instead — partial answers are never returned.
* :class:`~repro.serve.pool.WorkerError` — a batch failed in (or was
  abandoned by) a worker process; also derives from
  :class:`ServingError`.

All of them subclass :class:`RuntimeError` so existing callers that
catch broadly keep working; none of them is ever paired with a partial
or approximate answer — an error future carries *no* result, and a
result future is always bit-identical to sequential ``index.query``.
"""

from __future__ import annotations

from concurrent.futures import Future, InvalidStateError


class ServingError(RuntimeError):
    """Base class for every typed serving-layer failure."""


class DeadlineExceeded(ServingError):
    """The request's deadline passed before an answer was delivered."""


class ServerOverloaded(ServingError):
    """The bounded admission queue was full and this request was shed."""


class ServerClosedError(ServingError):
    """Work was submitted to a server (or layer) after ``close()``."""


class ShardError(ServingError):
    """A shard of a scatter-gather fan-out failed; no partial answer.

    Raised (set on the request future) by
    :class:`~repro.shard.ShardedIndexServer` when any shard of the
    fan-out cannot deliver its per-shard top-k.  The original shard
    failure is attached as ``__cause__``.
    """


# Future resolution shared by every serving layer: a future may already
# be resolved (cancelled by its caller, or failed by a deadline reaper
# or a shed), and whoever resolves it first wins; the loser is a no-op.


def _complete(future: Future, value) -> None:
    try:
        future.set_result(value)
    except InvalidStateError:
        pass


def _fail(future: Future, error: BaseException) -> None:
    try:
        future.set_exception(error)
    except InvalidStateError:
        pass
