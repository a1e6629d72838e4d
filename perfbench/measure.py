"""Measurement helpers: percentiles, ``/proc`` readers, environment record.

Everything here is plain arithmetic over numbers the benchmark already
holds or reads from ``/proc``; nothing imports the program under test,
so the helpers can be tested without it (``perfbench/tests``).
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import statistics
import sys

# A tail percentile is reported only when at least this many samples
# lie beyond it; fewer and the value is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND = 10

# Each run reports its rate and host CPU steal over this many equal
# parts of the measured window, so a burst of steal shows where it fell.
SUB_WINDOWS = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def median(samples) -> float:
    """Median of a non-empty sample (interpolated for even counts)."""
    if len(samples) == 0:
        raise ValueError("median of an empty sample")
    return float(statistics.median(samples))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused when the tail is too thin.

    Raises:
        ValueError: fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
            beyond the percentile, so the sample cannot support it.
    """
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has only {beyond} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are needed"
        )
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(q / 100.0 * n)) - 1])


def highest_supported_percentile(n: int, ladder) -> float | None:
    """The highest percentile of ``ladder`` that ``n`` samples support."""
    for q in ladder:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


# -- /proc parsing ----------------------------------------------------------


def parse_cpu_line(text: str) -> dict[str, int]:
    """Aggregate ``cpu`` line of ``/proc/stat`` as named tick counters."""
    names = ("user", "nice", "system", "idle", "iowait", "irq",
             "softirq", "steal", "guest", "guest_nice")
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:]]
            values += [0] * (len(names) - len(values))
            return dict(zip(names, values))
    raise ValueError("no aggregate 'cpu' line in /proc/stat text")


def parse_pid_cpu_ticks(text: str) -> int:
    """``utime + stime`` (all threads) from a ``/proc/<pid>/stat`` line.

    The command name sits in parentheses and may itself hold spaces or
    parentheses, so fields are counted from the *last* ``)``: the
    remainder starts at field 3 (state), putting utime and stime at
    offsets 11 and 12.
    """
    rest = text[text.rindex(")") + 2:].split()
    return int(rest[11]) + int(rest[12])


def parse_status_kb(text: str, key: str) -> int:
    """A ``kB`` field such as ``VmHWM`` from ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise ValueError(f"no {key} field in /proc status text")


def parse_pid_parent(text: str) -> int:
    """Parent pid (field 4) from a ``/proc/<pid>/stat`` line."""
    return int(text[text.rindex(")") + 2:].split()[1])


def child_pids() -> list[int]:
    """Live direct children of this process, from ``/proc``."""
    pid = os.getpid()
    children = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            if parse_pid_parent(_read(f"/proc/{name}/stat")) == pid:
                children.append(int(name))
        except (OSError, ValueError):  # exited while we looked
            continue
    return sorted(children)


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def cpu_seconds(pid: int | str = "self") -> float:
    """CPU time (user + system, all threads) a process has used."""
    return parse_pid_cpu_ticks(_read(f"/proc/{pid}/stat")) / _CLOCK_TICKS


def host_cpu_seconds() -> dict[str, float]:
    """Host-wide CPU counters from ``/proc/stat``, in seconds."""
    ticks = parse_cpu_line(_read("/proc/stat"))
    return {name: value / _CLOCK_TICKS for name, value in ticks.items()}


def peak_rss_mb() -> float:
    """Peak resident set (``VmHWM``) of this process, in MB."""
    return parse_status_kb(_read("/proc/self/status"), "VmHWM") / 1024.0


def worker_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a forked worker less the pages it still shares, in MB.

    A forked child's ``VmHWM`` starts with every parent page it
    inherited, which the parent's own ``VmHWM`` already counts; the
    pages it shares now (``Shared_Clean`` + ``Shared_Dirty`` of
    ``smaps_rollup``) are subtracted so that only what the worker added
    remains.
    """
    rollup = _read(f"/proc/{pid}/smaps_rollup")
    shared = (parse_status_kb(rollup, "Shared_Clean")
              + parse_status_kb(rollup, "Shared_Dirty"))
    peak = parse_status_kb(_read(f"/proc/{pid}/status"), "VmHWM")
    return (peak - shared) / 1024.0


class CpuMeter:
    """CPU seconds of this process plus a set of child pids, and host steal.

    ``start`` and ``stop`` bracket the measured phase, and ``tick``
    (called as often as the load generator likes) reads the counters
    again at each of the :data:`SUB_WINDOWS` - 1 inner boundaries, so
    ``marks`` holds ``(time, front CPU, worker CPU, steal, busy)`` at
    every boundary.  Pids must be alive at every read (worker processes
    are read before they stop).
    """

    def __init__(self, pids=()) -> None:
        self.pids = list(pids)
        self._start: tuple | None = None
        self._due: list[float] = []
        self.marks: list[tuple] = []
        self.front_s = 0.0
        self.workers_s = 0.0
        self.steal_s = 0.0
        self.host_busy_s = 0.0

    def _read(self) -> tuple:
        host = host_cpu_seconds()
        busy = sum(v for k, v in host.items() if k not in ("idle", "iowait"))
        return (
            cpu_seconds(),
            sum(cpu_seconds(pid) for pid in self.pids),
            host["steal"],
            busy,
        )

    def start(self, now: float, seconds: float) -> None:
        self._start = self._read()
        self.marks = [(now, *self._start)]
        self._due = [now + seconds * i / SUB_WINDOWS
                     for i in range(1, SUB_WINDOWS)]

    def tick(self, now: float) -> None:
        if self._due and now >= self._due[0]:
            del self._due[0]
            self.marks.append((now, *self._read()))

    def stop(self, now: float) -> None:
        end = self._read()
        self.marks.append((now, *end))
        front, workers, steal, busy = (
            b - a for a, b in zip(self._start, end)
        )
        self.front_s, self.workers_s = front, workers
        self.steal_s, self.host_busy_s = steal, busy


def sub_window_rates(marks, completions) -> list[float]:
    """Operations completed per second between consecutive marks.

    ``marks`` are :attr:`CpuMeter.marks` (time first); ``completions``
    the sorted completion times of the operations answered in the
    window.
    """
    return [
        (bisect.bisect_left(completions, b[0])
         - bisect.bisect_left(completions, a[0])) / (b[0] - a[0])
        for a, b in zip(marks, marks[1:])
    ]


# -- environment -----------------------------------------------------------

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Pin every common BLAS to one thread; call before importing numpy."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def environment(numpy_module, start_method: str, wal_sync: str | None) -> dict:
    """The run's environment, recorded next to its metrics."""
    blas = {}
    try:
        config = numpy_module.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy without dict configs
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "start_method": start_method,
        "python": platform.python_version(),
        "numpy": numpy_module.__version__,
        "platform": sys.platform,
        "wal_sync": wal_sync,
    }
