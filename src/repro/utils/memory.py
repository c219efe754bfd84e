"""Peak memory measurement.

Two instruments, for two purposes:

* :func:`peak_rss_bytes` — the process's resident-set high-water mark
  (``getrusage().ru_maxrss``).  One system call, no per-allocation cost and
  process-wide by construction, so it is what the executor records for every
  run (and what an operator sees on a live process).
* :class:`PeakMemoryTracker` — the peak size of Python-visible allocations in
  one region, measured with :mod:`tracemalloc`.  The paper reports the
  maximum memory used by each *method* (Table 1, Table 2); the tracker is the
  like-for-like instrument for that comparison (full FEM, linear
  superposition and MORE-Stress each bracketed the same way).  Tracing hooks
  every allocation, so it stays off the production hot path.

The resident set size is also sampled (when ``/proc/self/status`` is
available) so that allocations made inside compiled code that bypass the
Python allocator are not entirely invisible.
"""

from __future__ import annotations

import resource
import sys
import threading
import tracemalloc
from dataclasses import dataclass


def _read_rss_bytes() -> int | None:
    """Return the current resident set size in bytes, or ``None`` if unknown."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def peak_rss_bytes() -> int:
    """Resident-set high-water mark of this process, in bytes.

    ``ru_maxrss`` is reported in KiB on Linux and in bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


@dataclass
class MemoryReport:
    """Peak memory observed during a tracked region."""

    peak_traced_bytes: int
    rss_delta_bytes: int | None

    @property
    def peak_traced_mb(self) -> float:
        """Peak traced allocation size in mebibytes."""
        return self.peak_traced_bytes / 2**20

    @property
    def peak_traced_gb(self) -> float:
        """Peak traced allocation size in gibibytes."""
        return self.peak_traced_bytes / 2**30


# ``tracemalloc`` keeps one global peak.  Every open tracker is registered
# here so that a tracker entering (and resetting that peak) first folds it
# into the running maximum of every region still open, and tracing stops only
# when the last tracker that needed it exits.
_registry_lock = threading.Lock()
_open_trackers: list["PeakMemoryTracker"] = []
_trackers_started_tracing = False


def _fold_global_peak() -> None:
    """Fold the current global traced peak into every open tracker."""
    _, peak = tracemalloc.get_traced_memory()
    for tracker in _open_trackers:
        tracker._peak = max(tracker._peak, peak)


class PeakMemoryTracker:
    """Context manager measuring peak Python allocations in a region.

    Trackers may nest and may be open on several threads at once.  Traced
    memory is process-wide, so a region's peak includes whatever any
    concurrently open region (or its own enclosing region) holds at the
    time: concurrent regions include each other's allocations.

    Example
    -------
    >>> with PeakMemoryTracker() as tracker:
    ...     x = [0] * 10_000
    >>> tracker.report.peak_traced_bytes > 0
    True
    """

    def __init__(self) -> None:
        self.report: MemoryReport | None = None
        self._rss_before: int | None = None
        self._peak = 0

    def __enter__(self) -> "PeakMemoryTracker":
        global _trackers_started_tracing
        self._rss_before = _read_rss_bytes()
        with _registry_lock:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                _trackers_started_tracing = True
            _fold_global_peak()
            tracemalloc.reset_peak()
            self._peak = 0
            _open_trackers.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        global _trackers_started_tracing
        with _registry_lock:
            _fold_global_peak()
            _open_trackers.remove(self)
            if not _open_trackers and _trackers_started_tracing:
                tracemalloc.stop()
                _trackers_started_tracing = False
        rss_after = _read_rss_bytes()
        rss_delta = None
        if self._rss_before is not None and rss_after is not None:
            rss_delta = max(0, rss_after - self._rss_before)
        self.report = MemoryReport(peak_traced_bytes=self._peak, rss_delta_bytes=rss_delta)

    @property
    def peak_bytes(self) -> int:
        """Peak traced bytes of the last tracked region."""
        if self.report is None:
            raise RuntimeError("PeakMemoryTracker used before the region completed")
        return self.report.peak_traced_bytes


def measure_peak_memory(func, *args, **kwargs):
    """Call ``func`` and return ``(result, MemoryReport)``."""
    with PeakMemoryTracker() as tracker:
        result = func(*args, **kwargs)
    return result, tracker.report


def process_rss_mb() -> float | None:
    """Current resident set size of this process in MiB (or ``None``)."""
    rss = _read_rss_bytes()
    if rss is None:
        return None
    return rss / 2**20


__all__ = [
    "MemoryReport",
    "PeakMemoryTracker",
    "measure_peak_memory",
    "peak_rss_bytes",
    "process_rss_mb",
]
