"""Tests for the benchmark's own helpers (not for the program it measures)."""

import contextlib
import os

import numpy as np
import pytest

import measure
import workloads
from tracing import Tracer, covered_length, self_times


# -- the percentile rule ------------------------------------------------------


def test_samples_beyond_counts_past_the_nearest_rank():
    assert measure.samples_beyond(1000, 99.0) == 10
    assert measure.samples_beyond(999, 99.0) == 9
    assert measure.samples_beyond(100, 50.0) == 50


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert measure.tail_percentile(values, 99.0) == 990.0
    with pytest.raises(ValueError, match="at least 10"):
        measure.tail_percentile(values[:999], 99.0)
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(19)), 50.0)


def test_tail_percentile_is_nearest_rank_on_unsorted_input():
    rng = np.random.default_rng(0)
    values = rng.permutation(np.arange(2000.0))
    assert measure.tail_percentile(values, 99.0) == 1979.0
    assert measure.tail_percentile(values, 95.0) == 1899.0


def test_highest_supported_percentile_walks_down_the_ladder():
    ladder = (99.9, 99.0, 95.0, 90.0, 75.0)
    assert measure.highest_supported_percentile(20_000, ladder) == 99.9
    assert measure.highest_supported_percentile(1000, ladder) == 99.0
    assert measure.highest_supported_percentile(999, ladder) == 95.0
    assert measure.highest_supported_percentile(40, ladder) == 75.0
    assert measure.highest_supported_percentile(39, ladder) is None


def test_sub_window_rates_count_completions_between_marks():
    marks = [(10.0, 0, 0, 0, 0), (11.0, 0, 0, 0, 0), (13.0, 0, 0, 0, 0)]
    completions = [9.5, 10.1, 10.5, 10.9, 11.0, 12.9, 13.5]
    assert measure.sub_window_rates(marks, completions) == [3.0, 1.0]


# -- span self-time arithmetic -----------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert covered_length([(0, 10)], 3, 4) == 1
    assert covered_length([], 0, 1) == 0
    assert covered_length([(5, 6)], 0, 1) == 0


def _span(sid, start, end, parent=None):
    return (sid, f"s{sid}", start, end, parent, None, None, None)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),   # overlaps its sibling
        _span(4, 2.0, 3.0, parent=2),   # grandchild: only its parent counts
        _span(5, 9.0, 12.0, parent=1),  # runs past the parent: clipped
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times[2] == pytest.approx(3.0 - 1.0)
    assert times[3] == pytest.approx(3.0)
    assert times[5] == pytest.approx(3.0)


def test_tracer_nests_spans_and_inherits_request():
    tracer = Tracer()
    tracer.set_request(7)
    outer = tracer.begin("outer", key="k")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    inner_span, outer_span = tracer.spans
    assert inner_span[4] == outer_span[0]          # parent
    assert inner_span[5] == outer_span[5] == 7     # request
    assert inner_span[6] == "k"                    # key inherited
    times = self_times(tracer.spans)
    assert times[outer_span[0]] <= outer_span[3] - outer_span[2]


# -- /proc parsing ------------------------------------------------------------


def test_parse_cpu_line_names_the_counters():
    text = "cpu  74528 0 9109 583532 669 0 450 5756 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
    ticks = measure.parse_cpu_line(text)
    assert ticks["user"] == 74528
    assert ticks["idle"] == 583532
    assert ticks["steal"] == 5756


def test_parse_cpu_line_pads_short_kernels():
    ticks = measure.parse_cpu_line("cpu 1 2 3 4\n")
    assert ticks["steal"] == 0


def test_parse_pid_stat_survives_odd_command_names():
    fields = " ".join(["S", "4242"] + [str(i) for i in range(3, 60)])
    # utime is field 14 and stime field 15 (1-based, pid = 1, comm = 2)
    text = f"123 (a b) c)) {fields}\n"
    rest = fields.split()
    assert measure.parse_pid_parent(text) == 4242
    assert measure.parse_pid_cpu_ticks(text) == int(rest[11]) + int(rest[12])


def test_parse_status_kb():
    text = "Name:\tpython3\nVmPeak:\t  2000 kB\nVmHWM:\t  1234 kB\n"
    assert measure.parse_status_kb(text, "VmHWM") == 1234
    with pytest.raises(ValueError):
        measure.parse_status_kb(text, "VmSwap")


def test_live_proc_reads_are_sane():
    assert measure.cpu_seconds() > 0
    assert measure.peak_rss_mb() > 1
    assert 0 < measure.worker_peak_rss_mb(os.getpid()) <= measure.peak_rss_mb()
    assert measure.host_cpu_seconds()["idle"] > 0
    assert os.getpid() not in measure.child_pids()


# -- the crash-image resume check ---------------------------------------------


def _timer(_name):
    return contextlib.nullcontext()


def _crash_and_resume(tmp_path, damage=None):
    """Run a small ingest stream, crash it, resume once; return the mismatches."""
    workload = workloads.IngestMixed(3, n_seed=300, d=4, threshold=40)
    server, _, _ = workload.setup(str(tmp_path / "setup"), _timer)
    try:
        workload.measure(server, seconds=0.3, warmup=0.0, meter=None)
        workload.crash(server, str(tmp_path), copies=1)
    finally:
        server.close()
    image = workload.crash_images[0]
    if damage is not None:
        damage(image)
    resumed = workload.open(image)
    try:
        workload.resume_firsts.append(workload.first_answer(resumed))
        workload.keep_resumed(resumed)
    finally:
        resumed.close()
    found = workloads.Mismatches()
    workload.check(found)
    return workload, found


def test_crash_image_resumes_to_the_acknowledged_rowset(tmp_path):
    workload, found = _crash_and_resume(tmp_path)
    assert found.wrong == 0, found.examples
    assert workload.resumed[0] == workload.crash_live
    # threshold - 1 logged ops are replayed on resume
    assert found.checked > len(workload.probes)


def test_resume_check_catches_a_lost_acknowledged_write(tmp_path):
    def drop_last_record(image):
        gens = sorted(d for d in os.listdir(image) if d.startswith("gen-"))
        log = os.path.join(image, gens[-1], "wal.log")
        with open(log, "r+b") as handle:
            handle.truncate(os.path.getsize(log) - 1)  # torn last record

    workload, found = _crash_and_resume(tmp_path, damage=drop_last_record)
    assert found.wrong >= 1
    assert any("n_live" in example for example in found.examples)


def test_answer_log_flags_a_single_flipped_distance_bit():
    from repro.search import BruteForceIndex

    rng = np.random.default_rng(5)
    index = BruteForceIndex(rng.standard_normal((200, 3)))
    queries = rng.standard_normal((20, 3))
    want = index.query_batch(queries, k=4)
    log = workloads.AnswerLog(4, capacity=8)
    for rid, result in enumerate(want):
        log.put(rid, result)
    found = workloads.Mismatches()
    log.compare(found, want, with_stats=True)
    assert (found.checked, found.wrong) == (20, 0)
    bits = log.distances.view(np.int64)
    bits[7, 2] ^= 1
    found = workloads.Mismatches()
    log.compare(found, want, with_stats=True)
    assert found.wrong == 1
