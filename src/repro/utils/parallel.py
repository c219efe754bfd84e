"""Shared worker-pool helpers.

One small, order-preserving ``parallel_map`` serves the embarrassingly
parallel loops of the package: the independent unit-block ROM builds of the
local stage (one thread per block, at most one per CPU) and the experiment
drivers' sweeps over independent cases, whose worker count follows
``--jobs N`` semantics (``None`` means one worker per CPU).  One effective
worker degrades to a plain serial loop in the calling thread, so callers pay
no pool overhead — and get byte-for-byte the same results — when there is
nothing to run concurrently.

The workers are threads: the heavy lifting inside each task happens in
NumPy/SciPy compiled code, and every task writes only to its own result.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.utils.validation import ValidationError

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def available_cpus() -> int:
    """Number of CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine's CPUs, which oversubscribes the
    pool inside cgroup/affinity-limited containers (CI runners, schedulers);
    ``os.sched_getaffinity(0)`` reports the CPUs this process may run on and
    is preferred wherever the platform provides it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalize a ``--jobs``-style worker count.

    ``None`` resolves to the CPUs available to this process (affinity-aware,
    at least 1); explicit values must be positive integers.
    """
    if jobs is None:
        return available_cpus()
    jobs = int(jobs)
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1 (or None for one per CPU), got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    jobs: int | None = None,
) -> list[_ResultT]:
    """Map ``fn`` over ``items`` on a thread pool, preserving input order.

    Parameters
    ----------
    fn:
        The per-item task.  Tasks must be independent of each other.
    items:
        The work list (consumed eagerly).
    jobs:
        Worker count (``None`` = one per CPU), capped at the number of
        items.  With one effective worker the map runs serially in the
        calling thread, bit-identical to a plain loop.

    Returns
    -------
    list
        ``[fn(item) for item in items]`` — the parallel schedule never
        changes results, only wall-clock time.
    """
    work: Sequence[_ItemT] = list(items)
    workers = min(resolve_jobs(jobs), len(work))
    if workers <= 1:
        return [fn(item) for item in work]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))


__all__ = ["available_cpus", "resolve_jobs", "parallel_map"]
