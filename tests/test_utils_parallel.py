"""Tests for the shared worker-pool helpers."""

import os
import threading

import pytest

import repro.utils.parallel as parallel_module
from repro.utils.parallel import available_cpus, parallel_map, resolve_jobs
from repro.utils.validation import ValidationError


class TestResolveJobs:
    def test_none_resolves_to_at_least_one(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_non_positive_rejected(self):
        with pytest.raises(ValidationError):
            resolve_jobs(0)
        with pytest.raises(ValidationError):
            resolve_jobs(-2)


class TestAvailableCpus:
    """The default worker count must honour cgroup/affinity limits."""

    def test_uses_sched_getaffinity_when_available(self, monkeypatch):
        # An affinity mask smaller than the machine (the CI-container case):
        # the pool must follow the mask, not os.cpu_count().
        monkeypatch.setattr(
            parallel_module.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 64)
        assert available_cpus() == 2
        assert resolve_jobs(None) == 2

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        # Platforms without sched_getaffinity (e.g. macOS/Windows).
        monkeypatch.delattr(parallel_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 5)
        assert available_cpus() == 5
        assert resolve_jobs(None) == 5

    def test_falls_back_when_affinity_query_fails(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity support")

        monkeypatch.setattr(parallel_module.os, "sched_getaffinity", boom, raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 3)
        assert available_cpus() == 3

    def test_at_least_one_cpu(self, monkeypatch):
        monkeypatch.delattr(parallel_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: None)
        assert available_cpus() == 1

    def test_matches_live_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        assert available_cpus() == len(os.sched_getaffinity(0))


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(lambda x: x * x, range(7), jobs=1) == [
            x * x for x in range(7)
        ]

    def test_preserves_order_threaded(self):
        items = list(range(25))
        assert parallel_map(lambda x: x * x, items, jobs=4) == [x * x for x in items]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []

    def test_single_item_runs_in_calling_thread(self):
        caller = threading.get_ident()
        assert parallel_map(lambda _: threading.get_ident(), [None], jobs=8) == [caller]

    def test_actually_uses_worker_threads(self):
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=10)

        def task(_):
            barrier.wait()  # forces two workers to be live simultaneously
            return threading.get_ident()

        idents = parallel_map(task, [0, 1], jobs=2)
        assert all(ident != caller for ident in idents)

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError(f"task {x} failed")

        with pytest.raises(RuntimeError, match="task"):
            parallel_map(boom, [1, 2, 3], jobs=2)
