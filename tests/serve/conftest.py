"""Shared fixtures for the serving tests.

The serving stack runs real threads and worker processes, and its
failure-path tests deliberately create hung workers; a bug in the
recovery code could otherwise wedge the whole test session.  Since the
environment has no ``pytest-timeout``, an autouse SIGALRM watchdog
gives every test in this package a hard wall-clock budget on POSIX.
A second autouse guard fails any test that leaves a ``repro-*`` thread
or a worker process running.
"""

import multiprocessing
import signal
import threading
import time

import pytest

_TEST_TIMEOUT_SECONDS = 120


@pytest.fixture(autouse=True)
def _watchdog(request):
    """Fail (rather than hang) any serve test that exceeds the budget."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - POSIX only
        yield
        return

    def _expired(signum, frame):
        pytest.fail(
            f"{request.node.nodeid} exceeded the "
            f"{_TEST_TIMEOUT_SECONDS}s serve-test watchdog",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_LEAK_GRACE_SECONDS = 1.0


@pytest.fixture(autouse=True)
def _no_leaked_threads_or_workers():
    """Fail a test that leaves a serving thread or worker process behind.

    After the test (and every fixture it requested) has finished, no
    ``repro-*`` thread started during the test may still be alive and
    no child process may remain; stragglers get a short grace period
    to exit.  A leak here means some error path skipped a ``close()``.
    """
    before = set(threading.enumerate())
    yield
    give_up = time.monotonic() + _LEAK_GRACE_SECONDS
    while True:
        threads = sorted(
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-") and thread not in before
        )
        children = multiprocessing.active_children()
        if not (threads or children) or time.monotonic() > give_up:
            break
        time.sleep(0.02)
    assert not threads, f"leaked serving threads: {threads}"
    assert not children, f"leaked child processes: {children}"
