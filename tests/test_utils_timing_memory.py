"""Unit tests for timing and memory utilities."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.utils.memory import (
    MemoryReport,
    PeakMemoryTracker,
    _read_rss_bytes,
    measure_peak_memory,
    peak_rss_bytes,
)
from repro.utils.timing import StageTimings, Timer, timed


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.01

    def test_multiple_intervals_accumulate(self):
        timer = Timer()
        with timer:
            time.sleep(0.005)
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed > first

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0


class TestStageTimings:
    def test_measure_and_total(self):
        timings = StageTimings()
        with timings.measure("a"):
            time.sleep(0.005)
        timings.add("b", 1.5)
        assert timings.get("a") > 0.0
        assert timings.get("b") == 1.5
        assert timings.total() == pytest.approx(timings.get("a") + 1.5)

    def test_repeated_stage_accumulates(self):
        timings = StageTimings()
        timings.add("solve", 1.0)
        timings.add("solve", 2.0)
        assert timings.get("solve") == 3.0

    def test_merge_keeps_both(self):
        a = StageTimings({"x": 1.0})
        b = StageTimings({"x": 2.0, "y": 3.0})
        merged = a.merge(b)
        assert merged.get("x") == 3.0
        assert merged.get("y") == 3.0
        # originals untouched
        assert a.get("x") == 1.0

    def test_get_default(self):
        assert StageTimings().get("missing", 7.0) == 7.0

    def test_as_dict_is_copy(self):
        timings = StageTimings({"x": 1.0})
        d = timings.as_dict()
        d["x"] = 99.0
        assert timings.get("x") == 1.0


class TestTimedDecorator:
    def test_returns_result_and_elapsed(self):
        @timed
        def add(a, b):
            return a + b

        result, elapsed = add(2, 3)
        assert result == 5
        assert elapsed >= 0.0


class TestPeakMemoryTracker:
    def test_tracks_allocation(self):
        with PeakMemoryTracker() as tracker:
            _ = np.zeros(500_000)  # ~4 MB
        assert tracker.peak_bytes > 1_000_000

    def test_report_units(self):
        report = MemoryReport(peak_traced_bytes=2**30, rss_delta_bytes=None)
        assert report.peak_traced_gb == pytest.approx(1.0)
        assert report.peak_traced_mb == pytest.approx(1024.0)

    def test_peak_bytes_before_exit_raises(self):
        tracker = PeakMemoryTracker()
        with pytest.raises(RuntimeError):
            _ = tracker.peak_bytes

    def test_measure_peak_memory_helper(self):
        result, report = measure_peak_memory(lambda: np.ones(100_000).sum())
        assert result == pytest.approx(100_000.0)
        assert report.peak_traced_bytes > 0

    def test_nested_tracker_keeps_outer_peak(self):
        allocation = 8 * 2**20
        with PeakMemoryTracker() as outer:
            block = np.ones(allocation // 8)
            del block  # the outer peak now lives only in tracemalloc's peak
            with PeakMemoryTracker() as inner:
                _ = np.ones(1_000)
        assert outer.peak_bytes >= allocation
        assert 0 < inner.peak_bytes < allocation
        assert not tracemalloc.is_tracing()

    def test_overlapping_threads_each_see_their_own_allocation(self):
        # Thread "first" enters and exits first; thread "second" enters while
        # "first" is open and exits after it.  Tracing must stay on for
        # "second" and neither region may lose its own allocation.
        allocation = 8 * 2**20
        first_allocated = threading.Event()
        second_allocated = threading.Event()
        first_exited = threading.Event()
        peaks: dict[str, int] = {}
        errors: list[BaseException] = []

        def first() -> None:
            try:
                with PeakMemoryTracker() as tracker:
                    block = np.ones(allocation // 8)
                    first_allocated.set()
                    assert second_allocated.wait(10)
                    del block
                peaks["first"] = tracker.peak_bytes
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)
            finally:
                first_exited.set()

        def second() -> None:
            try:
                assert first_allocated.wait(10)
                with PeakMemoryTracker() as tracker:
                    block = np.ones(allocation // 8)
                    second_allocated.set()
                    assert first_exited.wait(10)
                    block[0] = 2.0
                    del block
                peaks["second"] = tracker.peak_bytes
            except BaseException as exc:
                errors.append(exc)
                second_allocated.set()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        assert peaks["first"] >= allocation
        assert peaks["second"] >= allocation
        assert not tracemalloc.is_tracing()

    def test_many_threads_nesting_under_a_short_switch_interval(self):
        # More threads than cores, each nesting trackers many times: a lost
        # fold or an early tracemalloc.stop() shows as a region peak below
        # its own live allocation, or as tracing left on at the end.
        allocation = 2**20
        shortfalls: list[tuple[int, int]] = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(20):
                    with PeakMemoryTracker() as outer:
                        block = np.ones(allocation // 8)
                        with PeakMemoryTracker() as inner:
                            inner_block = np.ones(allocation // 8)
                            del inner_block
                        del block
                    for tracker in (outer, inner):
                        if tracker.peak_bytes < allocation:
                            shortfalls.append((tracker.peak_bytes, allocation))
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert shortfalls == []
        assert not tracemalloc.is_tracing()


class TestPeakRss:
    def test_peak_covers_the_rss_before_an_allocation(self):
        rss_before = _read_rss_bytes()
        block = np.ones(2 * 2**20)  # 16 MiB, every page touched
        peak = peak_rss_bytes()
        del block
        # Bytes, not KiB: any live interpreter with numpy exceeds 16 MiB.
        assert 16 * 2**20 < peak < 2**40
        if rss_before is not None:
            assert peak >= rss_before
