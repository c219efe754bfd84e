"""Rate-limited worker pool executing queued jobs over one warm ROM cache.

The pool is the service's execution half: N daemon threads (``repro serve
--workers N``; default half the CPUs) drain a FIFO queue of job ids and run
each spec through :func:`repro.api.run`.  All workers share **one** process-wide
:class:`~repro.rom.cache.ROMCache`, so concurrent jobs with the same
geometry/mesh/materials hit warm factorizations instead of rebuilding the
local stage — the whole point of serving simulations from a long-lived
process.

Per-job control is cooperative, threaded through the executor's progress
callback at case boundaries:

* **cancellation** — ``DELETE /v1/jobs/{id}`` sets ``cancel_requested``; the
  worker raises :class:`~repro.errors.JobCancelledError` at the next case.
* **timeout** — a job whose wall clock exceeds its ``timeout_seconds`` raises
  :class:`~repro.errors.JobTimeoutError` and fails with HTTP 504 semantics.
* **retry** — unexpected (non-:class:`~repro.errors.ReproError`) failures are
  transient by definition and retried with exponential backoff up to the
  job's ``max_attempts``; taxonomy errors (invalid spec, backend problems)
  are permanent and fail immediately.
* **liveness** — every execution carries a heartbeat token (beaten at attempt
  start and at every case boundary); a
  :class:`~repro.service.watchdog.WorkerWatchdog` reaps executions whose
  heartbeat goes stale, re-queues the job under its retry budget, and spawns
  a replacement worker.  The stuck thread is *abandoned*: threads cannot be
  killed, so when it eventually wakes it discards its result and exits
  instead of double-completing the job.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro import faults
from repro.api.result import RunResult
from repro.errors import (
    JobCancelledError,
    JobTimeoutError,
    ReproError,
    WorkerStalledError,
)
from repro.rom.cache import ROMCache
from repro.service.jobs import Job, JobStore
from repro.service.watchdog import WorkerWatchdog
from repro.utils.logging import get_logger
from repro.utils.parallel import available_cpus, resolve_jobs

_logger = get_logger("service.pool")

_ROM_CACHE_SUBDIR = "rom_cache"

#: Queue sentinel telling a worker thread to exit.
_STOP = None


class _AbandonedExecution(Exception):
    """Internal control flow: the watchdog reaped this execution.

    Raised inside the worker when it discovers its token was abandoned; the
    worker discards whatever it computed and exits (a replacement thread is
    already running).  Never escapes the pool.
    """


class ExecutionToken:
    """Heartbeat + liveness state of one in-flight job execution."""

    __slots__ = ("job", "abandoned", "finished", "_heartbeat")

    def __init__(self, job: Job) -> None:
        self.job = job
        self.abandoned = threading.Event()
        self.finished = threading.Event()
        self._heartbeat = time.monotonic()

    def beat(self) -> None:
        """Refresh the heartbeat (attempt start and every case boundary)."""
        self._heartbeat = time.monotonic()

    def heartbeat_age(self) -> float:
        """Seconds since the execution last proved it was alive."""
        return time.monotonic() - self._heartbeat

    def check_abandoned(self) -> None:
        if self.abandoned.is_set():
            # repro-lint: disable=REP004 -- internal control-flow sentinel; caught in _worker(), never escapes the pool
            raise _AbandonedExecution(f"job {self.job.id}: execution abandoned")


def _default_workers() -> int:
    """Concurrent jobs by default: half the CPUs, at least one.

    Each job may itself fan its local stage out over a thread pool, so
    running one job per CPU would oversubscribe; half keeps latency low for
    small queues without starving intra-job parallelism.
    """
    return max(1, available_cpus() // 2)


def default_run_summary(result: RunResult) -> dict[str, Any]:
    """The lightweight solve-statistics view stored on a finished job."""
    return {
        "num_cases": len(result.cases),
        "num_case_groups": result.num_case_groups,
        "backends_used": result.backends_used,
        "local_stage_seconds": result.local_stage_seconds,
        "global_stage_seconds": result.total_global_stage_seconds,
        "peak_von_mises": max(
            (case.peak_von_mises for case in result.cases), default=0.0
        ),
        "rom_cache": result.rom_cache_stats,
    }


class WorkerPool:
    """N worker threads draining the job queue over one shared ROM cache.

    Parameters
    ----------
    store:
        The persistent :class:`JobStore` (owns all job state).
    workers:
        Concurrent jobs, a positive integer (default: half the CPUs).
    rom_cache:
        Shared cache instance or directory.  Defaults to ``rom_cache/``
        inside the store directory, so restarts stay warm.
    rom_cache_max_bytes:
        Optional LRU size cap applied when the pool constructs the cache
        from a directory (an explicitly passed :class:`ROMCache` instance
        keeps its own cap) — a long-lived server then cannot grow the
        cache without bound.
    retry_backoff_seconds:
        Base of the exponential backoff between transient-failure retries.
    run_fn:
        The executor invoked per attempt, ``run_fn(spec, rom_cache=...,
        progress=...) -> RunResult``.  Defaults to :func:`repro.api.run`;
        tests inject doubles to count invocations or simulate failures.
        A retried attempt, or a job re-queued by a service restart, runs
        its spec from the start.
    stall_timeout_seconds:
        When set, a :class:`WorkerWatchdog` reaps executions whose heartbeat
        (attempt start + every case boundary) is staler than this many
        seconds: the job is re-queued under its retry budget (or failed with
        :class:`WorkerStalledError`), a replacement worker thread is
        spawned, and the stuck thread is abandoned.  ``None`` (the default)
        runs without a watchdog.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int | None = None,
        rom_cache: "ROMCache | str | Path | None" = None,
        rom_cache_max_bytes: int | None = None,
        retry_backoff_seconds: float = 0.5,
        run_fn: Callable[..., RunResult] | None = None,
        stall_timeout_seconds: float | None = None,
    ) -> None:
        self.store = store
        self.workers = (
            resolve_jobs(workers) if workers is not None else _default_workers()
        )
        if rom_cache is None:
            rom_cache = store.directory / _ROM_CACHE_SUBDIR
        self.rom_cache = ROMCache.from_spec(rom_cache, max_bytes=rom_cache_max_bytes)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self._run_fn = run_fn
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._executions: set[ExecutionToken] = set()
        self._executions_lock = threading.Lock()
        # Lifecycle state is shared between start()/shutdown() callers and
        # the watchdog thread (which spawns replacement workers): one lock
        # guards all of it so stall counts and thread bookkeeping cannot
        # tear or lose updates.
        self._lifecycle_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._worker_serial = 0
        self.stalls = 0
        self.watchdog = (
            WorkerWatchdog(self, stall_timeout_seconds=stall_timeout_seconds)
            if stall_timeout_seconds is not None
            else None
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Start the worker threads and re-enqueue recovered jobs."""
        with self._lifecycle_lock:
            if self._started:
                return self
            self._started = True
        for job in self.store.recover():
            self._queue.put(job.id)
        for _ in range(self.workers):
            self._spawn_worker()
        if self.watchdog is not None:
            self.watchdog.start()
        _logger.info(
            "worker pool: %d worker(s), rom cache at %s",
            self.workers,
            self.rom_cache.directory,
        )
        return self

    def _spawn_worker(self) -> None:
        with self._lifecycle_lock:
            self._worker_serial += 1
            serial = self._worker_serial
        thread = threading.Thread(
            target=self._worker,
            name=f"repro-worker-{serial}",
            daemon=True,
        )
        thread.start()
        with self._lifecycle_lock:
            self._threads.append(thread)

    def shutdown(self, wait: bool = True, timeout: float | None = 10.0) -> None:
        """Stop the workers (running jobs finish their current attempt)."""
        with self._lifecycle_lock:
            if not self._started:
                return
            self._started = False
            threads = list(self._threads)
            self._threads.clear()
        if self.watchdog is not None:
            self.watchdog.stop()
        for _ in threads:
            self._queue.put(_STOP)
        if wait:
            for thread in threads:
                thread.join(timeout=timeout)

    def enqueue(self, job: Job) -> None:
        """Feed a freshly queued job to the workers."""
        self._queue.put(job.id)

    @property
    def busy_workers(self) -> int:
        """Workers currently executing a job (for utilization stats)."""
        with self._busy_lock:
            return self._busy

    def stats(self) -> dict[str, Any]:
        """Pool utilization plus the shared ROM cache statistics."""
        busy = self.busy_workers
        with self._lifecycle_lock:
            stalls = self.stalls
        document = {
            "workers": self.workers,
            "busy_workers": busy,
            "utilization": busy / self.workers if self.workers else 0.0,
            "stalls": stalls,
            "rom_cache": self.rom_cache.stats(),
        }
        if self.watchdog is not None:
            document["watchdog"] = self.watchdog.stats()
        return document

    # ------------------------------------------------------------------ #
    # execution registry (read by the watchdog)
    # ------------------------------------------------------------------ #
    def active_executions(self) -> list[ExecutionToken]:
        """Snapshot of the currently running execution tokens."""
        with self._executions_lock:
            return list(self._executions)

    def _register(self, token: ExecutionToken) -> None:
        with self._executions_lock:
            self._executions.add(token)

    def _unregister(self, token: ExecutionToken) -> None:
        token.finished.set()
        with self._executions_lock:
            self._executions.discard(token)

    def reap_execution(self, token: ExecutionToken, age: float) -> bool:
        """Abandon a stalled execution and reschedule its job.

        Called by the watchdog.  Returns ``True`` when the execution was
        actually reaped (``False`` if it finished or was already reaped in
        the meantime).  The job goes back to the queue while its retry
        budget lasts; otherwise it fails with :class:`WorkerStalledError`.
        A replacement worker thread is spawned either way, because the stuck
        one cannot take new work until (if ever) it wakes.
        """
        if token.finished.is_set() or token.abandoned.is_set():
            return False
        token.abandoned.set()
        self._unregister(token)
        with self._lifecycle_lock:
            self.stalls += 1
            started = self._started
        job = token.job
        _logger.warning(
            "watchdog: job %s stalled (heartbeat %.1fs old); reaping worker",
            job.id,
            age,
        )
        if started:
            self._spawn_worker()
        try:
            current = self.store.get(job.id)
            if current.state != "running":
                return True  # finished/cancelled concurrently; nothing to redo
            if job.attempts >= job.max_attempts:
                self.store.mark_failed(
                    job,
                    WorkerStalledError(
                        f"job {job.id}: worker heartbeat stale for {age:.1f}s "
                        f"and retry budget exhausted "
                        f"({job.attempts}/{job.max_attempts} attempts)",
                        detail={"job_id": job.id, "heartbeat_age": age},
                    ),
                )
            else:
                self.store.requeue(job)
                self._queue.put(job.id)
        except ReproError:
            _logger.exception("watchdog: could not reschedule job %s", job.id)
        return True

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is _STOP:
                return
            with self._busy_lock:
                self._busy += 1
            abandoned = False
            try:
                self._run_job(job_id)
            except _AbandonedExecution:
                # The watchdog reaped this execution and spawned a
                # replacement thread; this one exits to keep the worker
                # count honest.
                abandoned = True
            except Exception:
                _logger.exception("worker: unexpected error running job %s", job_id)
            finally:
                with self._busy_lock:
                    self._busy -= 1
            if abandoned:
                _logger.info(
                    "worker %s: exiting after abandoned execution of job %s",
                    threading.current_thread().name,
                    job_id,
                )
                return

    def _run_job(self, job_id: str) -> None:
        try:
            job = self.store.mark_running(job_id)
        except Exception as exc:
            # mark_running sets "running" before it persists: a crash
            # persisting the claim must not leave the job there.
            self._release(job_id, exc)
            raise
        if job is None:  # cancelled (or otherwise gone) while queued
            return
        spec = job.build_spec()
        deadline = (
            job.started_at + job.timeout_seconds
            if job.timeout_seconds is not None and job.started_at is not None
            else None
        )
        token = ExecutionToken(job)
        self._register(token)

        def progress(done: int, total: int, case_name: str) -> None:
            token.beat()
            token.check_abandoned()
            self.store.update_progress(job, done, total)
            # Re-read our own record: cancel_requested is flipped by the
            # HTTP thread on the same Job instance the store holds.
            if self.store.get(job.id).cancel_requested:
                raise JobCancelledError(
                    f"job {job.id} cancelled after case {case_name!r}"
                )
            if deadline is not None and time.time() > deadline:
                raise JobTimeoutError(
                    f"job {job.id} exceeded its timeout of "
                    f"{job.timeout_seconds:g}s after case {case_name!r}",
                    detail={"timeout_seconds": job.timeout_seconds},
                )

        run_fn = self._run_fn
        if run_fn is None:
            from repro.api import run as run_fn  # late import: heavy module

        try:
            while True:
                try:
                    # Inside the retry path: a crash persisting the attempt
                    # count must not strand the job in "running".
                    self.store.record_execution(job)
                    token.beat()
                    # The worker fault site: "hang" blocks here with a stale
                    # heartbeat (watchdog bait), "crash" raises below and
                    # rides the transient-retry path like any foreign error.
                    directive = faults.fault_point("service.pool.worker")
                    token.check_abandoned()
                    if directive == "crash":
                        # repro-lint: disable=REP004 -- injected fault: deliberately foreign to the taxonomy so it rides the transient-retry path
                        raise faults.SimulatedCrashError(
                            f"injected worker crash while running job {job.id}"
                        )
                    result = run_fn(spec, rom_cache=self.rom_cache, progress=progress)
                    token.check_abandoned()
                    result.save(self.store.result_dir(job))
                    summary = default_run_summary(result)
                except _AbandonedExecution:
                    raise
                except JobCancelledError:
                    self.store.mark_cancelled(job)
                    return
                except (JobTimeoutError, ReproError) as exc:
                    # Timeouts and taxonomy errors (invalid spec, backend
                    # misconfiguration) are permanent: retrying cannot help.
                    self.store.mark_failed(job, exc)
                    return
                except Exception as exc:
                    token.check_abandoned()
                    if job.attempts >= job.max_attempts:
                        self.store.mark_failed(job, exc)
                        return
                    backoff = self.retry_backoff_seconds * 2 ** (job.attempts - 1)
                    _logger.warning(
                        "job %s: attempt %d/%d failed (%s); retrying in %.2fs",
                        job.id,
                        job.attempts,
                        job.max_attempts,
                        exc,
                        backoff,
                    )
                    time.sleep(backoff)
                else:
                    # Outside the retry path: a crash persisting "done" must
                    # not run the finished job again.
                    self.store.mark_done(job, summary)
                    return
        finally:
            self._unregister(token)

    def _release(self, job_id: str, exc: Exception) -> None:
        """Re-queue a job whose claim failed to persist, or fail it.

        The claim started no attempt, so the job goes back to the queue
        without consuming one, as after a restart, unless its retry budget
        is already spent.
        """
        job = self.store.get(job_id)
        if job.state != "running":
            return
        if job.attempts >= job.max_attempts:
            self.store.mark_failed(job, exc)
            return
        try:
            self.store.requeue(job)
        finally:
            # requeue sets "queued" before it persists: enqueue the job even
            # if that persist crashed too.
            if job.state == "queued":
                self._queue.put(job.id)


__all__ = ["ExecutionToken", "WorkerPool", "default_run_summary"]
