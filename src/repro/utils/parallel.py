"""Shared worker-pool helpers.

One small, order-preserving ``parallel_map`` serves every embarrassingly
parallel loop in the package: independent unit-block ROM builds, load-sweep
cases and experiment scenario sweeps.  The default worker count follows ``--jobs N`` semantics
(``None`` means one worker per CPU), and ``jobs=1`` degrades to a plain
serial loop so callers pay no pool overhead — and produce byte-for-byte the
same results — when parallelism is off.

Threads are the default executor: the heavy lifting inside each task happens
in NumPy/SciPy compiled code, and every task writes only to its own result.
A process pool (fork/spawn via :mod:`concurrent.futures`) is available for
coarse-grained tasks whose functions and results pickle cleanly, e.g. whole
experiment cases.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
    executor: str = "thread",
) -> list[_ResultT]:
    """Map ``fn`` over ``items``, preserving input order.

    Parameters
    ----------
    fn:
        The per-item task.  Tasks must be independent of each other; with
        ``executor="process"`` both ``fn`` and its results must pickle.
    items:
        The work list (consumed eagerly).
    jobs:
        Worker count (``None`` = one per CPU).  With one effective worker the
        map runs serially in the calling thread, bit-identical to a plain
        loop.
    executor:
        ``"thread"`` (default) or ``"process"``.

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
    if executor == "thread":
        pool_cls = ThreadPoolExecutor
    elif executor == "process":
        pool_cls = ProcessPoolExecutor
    else:
        raise ValidationError(
            f"executor must be 'thread' or 'process', got {executor!r}"
        )
    with pool_cls(max_workers=workers) as pool:
        return list(pool.map(fn, work))


__all__ = ["available_cpus", "resolve_jobs", "parallel_map"]
