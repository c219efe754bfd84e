"""The HTTP job server: ``ThreadingHTTPServer`` over store + worker pool.

Stdlib only — :class:`http.server.ThreadingHTTPServer` handles each request
on its own thread, the handlers below translate HTTP to store/pool calls,
and every taxonomy error maps 1:1 to its HTTP status through
:func:`repro.errors.http_status_for`.  Endpoints (all under ``/v1``):

====================================  =======================================
``POST   /v1/jobs``                   submit a spec (bare document or
                                      ``{"spec": ..., "timeout_seconds":
                                      ..., "max_attempts": ...}``); 201 on a
                                      new job, 200 on a dedup hit
``GET    /v1/jobs``                   list all jobs
``GET    /v1/jobs/{id}``              status + progress + solve statistics
``GET    /v1/jobs/{id}/result``       the run's manifest envelope —
                                      byte-identical to the ``manifest.json``
                                      that :meth:`RunResult.save` wrote
``GET    /v1/jobs/{id}/fields``       the ``fields.npz`` stress-field bundle
``DELETE /v1/jobs/{id}``              cancel (queued: immediate; running:
                                      cooperative at the next case boundary)
``GET    /v1/healthz``                liveness probe
``GET    /v1/stats``                  queue depth, worker utilization, ROM
                                      cache hit rate, dedup accounting
====================================  =======================================

Start one with :class:`JobServer` (in-process, used by the tests and the
example) or ``repro serve`` (the CLI wrapper).  ``port=0`` binds an
ephemeral port, exposed as :attr:`JobServer.port` after :meth:`start`.
"""

from __future__ import annotations

import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro import faults
from repro._version import __version__
from repro.api.envelope import wrap
from repro.api.spec import SimulationSpec
from repro.errors import (
    JobNotFoundError,
    JobStateError,
    error_envelope,
    http_status_for,
)
from repro.rom.cache import ROMCache
from repro.service import protocol
from repro.service.jobs import JobStore
from repro.service.pool import WorkerPool
from repro.service.watchdog import CircuitBreaker
from repro.utils.logging import get_logger

_logger = get_logger("service.server")

_JOB_ROUTE = re.compile(r"^/v1/jobs/(?P<job_id>[A-Za-z0-9_-]+)(?P<rest>/result|/fields)?$")

_RESULT_MANIFEST = "manifest.json"
_RESULT_FIELDS = "fields.npz"


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the owning :class:`JobServer`."""

    daemon_threads = True
    job_server: "JobServer"


class _Handler(BaseHTTPRequestHandler):
    """Routes ``/v1`` requests to the job server; everything returns JSON."""

    server: _ServiceHTTPServer
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _logger.info("%s - %s", self.address_string(), format % args)

    def _send_json(
        self,
        document: Any,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = protocol.encode_document(document)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_envelope(self, exc: BaseException) -> None:
        if not isinstance(exc, (JobNotFoundError, JobStateError)):
            _logger.warning("request %s %s failed: %s", self.command, self.path, exc)
        status = http_status_for(exc)
        headers: dict[str, str] = {}
        if status in (429, 503):
            # Back-pressure responses tell polite clients when to try again;
            # a circuit breaker carries its remaining cooldown in the detail.
            retry_after = 1.0
            detail = getattr(exc, "detail", None)
            if isinstance(detail, dict):
                try:
                    retry_after = float(detail.get("retry_after", retry_after))
                except (TypeError, ValueError):
                    pass
            headers["Retry-After"] = str(max(1, round(retry_after)))
        self._send_json(error_envelope(exc), status=status, headers=headers)

    def _send_file(self, path: Path, content_type: str) -> None:
        data = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str) -> None:
        try:
            handled = self.server.job_server.handle(self, method, self.path)
        except Exception as exc:  # every error becomes a taxonomy envelope
            self._send_error_envelope(exc)
            return
        if not handled:
            self._send_error_envelope(
                JobNotFoundError(f"no route for {method} {self.path}")
            )

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class JobServer:
    """The assembled service: job store + worker pool + HTTP front end.

    Parameters
    ----------
    store_dir:
        Service state directory: ``jobs/`` (the persistent queue),
        ``results/`` (saved run results) and — unless ``rom_cache`` points
        elsewhere — ``rom_cache/`` (the shared warm cache).
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port (see :attr:`port`).
    workers:
        Concurrent jobs (default: half the CPUs).
    max_queued:
        Bound on the number of *queued* jobs; submissions beyond it are
        rejected with HTTP 429 (dedup hits are always accepted).
    rom_cache, rom_cache_max_bytes, run_fn, retry_backoff_seconds:
        Forwarded to :class:`WorkerPool` (``rom_cache_max_bytes`` caps the
        shared cache with LRU eviction, surfaced in ``/stats``).
    default_timeout_seconds, default_max_attempts:
        Job options applied when a submission does not carry its own.
    stall_timeout_seconds:
        Enables the worker watchdog: executions whose heartbeat goes staler
        than this are reaped and re-queued (``None`` disables).
    circuit_threshold, circuit_reset_seconds:
        Circuit breaker per spec hash: after ``circuit_threshold``
        consecutive permanent failures, further submissions of that hash
        fail fast with HTTP 503 + ``Retry-After`` until
        ``circuit_reset_seconds`` elapse.  ``circuit_threshold=None``
        disables the breaker.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` activated for the server's
        lifetime (staging/chaos use; see ``repro serve --fault-plan``).
    """

    def __init__(
        self,
        store_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        max_queued: int | None = 256,
        rom_cache: "ROMCache | str | Path | None" = None,
        rom_cache_max_bytes: int | None = None,
        run_fn: Any = None,
        retry_backoff_seconds: float = 0.5,
        default_timeout_seconds: float | None = None,
        default_max_attempts: int = 2,
        stall_timeout_seconds: float | None = None,
        circuit_threshold: int | None = 3,
        circuit_reset_seconds: float = 60.0,
        fault_plan: "faults.FaultPlan | None" = None,
    ) -> None:
        breaker = (
            CircuitBreaker(circuit_threshold, circuit_reset_seconds)
            if circuit_threshold is not None
            else None
        )
        self.fault_plan = fault_plan
        if fault_plan is not None:
            # Activate before the store loads: corrupt-on-read faults must
            # already apply to the recovery scan.
            faults.activate(fault_plan)
        self.store = JobStore(store_dir, circuit_breaker=breaker)
        self.pool = WorkerPool(
            self.store,
            workers=workers,
            rom_cache=rom_cache,
            rom_cache_max_bytes=rom_cache_max_bytes,
            retry_backoff_seconds=retry_backoff_seconds,
            run_fn=run_fn,
            stall_timeout_seconds=stall_timeout_seconds,
        )
        self.host = host
        self.max_queued = max_queued
        self.default_timeout_seconds = default_timeout_seconds
        self.default_max_attempts = default_max_attempts
        self._http = _ServiceHTTPServer((host, port), _Handler)
        self._http.job_server = self
        self._serve_thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "JobServer":
        """Start the worker pool (resuming queued jobs) and the HTTP loop."""
        if self._serve_thread is not None:
            return self
        self._started_at = time.time()
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()
        _logger.info("job server listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop accepting requests and shut the worker pool down."""
        if self._serve_thread is None:
            return
        self._http.shutdown()
        self._http.server_close()
        self._serve_thread.join(timeout=10.0)
        self._serve_thread = None
        if self.fault_plan is not None:
            # Wake any worker sleeping in an injected hang so shutdown joins.
            self.fault_plan.release_hangs()
            if faults.active_plan() is self.fault_plan:
                faults.deactivate()
        self.pool.shutdown()

    def __enter__(self) -> "JobServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def handle(self, request: _Handler, method: str, path: str) -> bool:
        """Dispatch one request; returns ``False`` for unknown routes."""
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/v1/healthz":
            request._send_json(self._health_document())
            return True
        if method == "GET" and path == "/v1/stats":
            request._send_json(self._stats_document())
            return True
        if path == "/v1/jobs":
            if method == "POST":
                self._handle_submit(request)
                return True
            if method == "GET":
                request._send_json(protocol.job_list_envelope(self.store.list()))
                return True
            return False
        match = _JOB_ROUTE.match(path)
        if match is None:
            return False
        job_id, rest = match.group("job_id"), match.group("rest")
        if rest is None and method == "GET":
            request._send_json(protocol.job_envelope(self.store.get(job_id)))
            return True
        if rest is None and method == "DELETE":
            request._send_json(protocol.job_envelope(self.store.request_cancel(job_id)))
            return True
        if rest == "/result" and method == "GET":
            self._handle_result(request, job_id)
            return True
        if rest == "/fields" and method == "GET":
            self._handle_fields(request, job_id)
            return True
        return False

    # ------------------------------------------------------------------ #
    # endpoint implementations
    # ------------------------------------------------------------------ #
    def _handle_submit(self, request: _Handler) -> None:
        document = protocol.decode_document(request._read_body())
        spec_document, options = protocol.parse_submission(document)
        spec = SimulationSpec.from_dict(spec_document)
        job, created = self.store.submit(
            spec,
            timeout_seconds=options.get(
                "timeout_seconds", self.default_timeout_seconds
            ),
            max_attempts=options.get("max_attempts", self.default_max_attempts),
            max_queued=self.max_queued,
        )
        if created or job.state == "queued":
            # Re-enqueueing a dedup hit that is still queued is harmless
            # (workers skip entries whose job already left the queue) and it
            # heals the orphan left by a crash-after-persist submission: the
            # job record survived on disk but its queue entry was never made,
            # so the client's retried submit must restore it.
            self.pool.enqueue(job)
        request._send_json(
            protocol.job_envelope(job, deduplicated=not created),
            status=201 if created else 200,
        )

    def _finished_job(self, job_id: str) -> Any:
        job = self.store.get(job_id)
        if job.state != "done":
            raise JobStateError(
                f"job {job.id} is {job.state}; results exist only for done jobs",
                detail={"job_id": job.id, "state": job.state, "error": job.error},
            )
        return job

    def _handle_result(self, request: _Handler, job_id: str) -> None:
        job = self._finished_job(job_id)
        manifest = self.store.result_dir(job) / _RESULT_MANIFEST
        if not manifest.exists():
            raise JobNotFoundError(
                f"job {job.id} is done but its result manifest is missing "
                f"(was the store directory pruned?)"
            )
        # Serve the persisted envelope byte-for-byte: the wire payload IS the
        # manifest.json that RunResult.save() wrote.
        request._send_file(manifest, "application/json; charset=utf-8")

    def _handle_fields(self, request: _Handler, job_id: str) -> None:
        job = self._finished_job(job_id)
        bundle = self.store.result_dir(job) / _RESULT_FIELDS
        if not bundle.exists():
            raise JobNotFoundError(
                f"job {job.id} has no persisted stress-field bundle"
            )
        request._send_file(bundle, "application/octet-stream")

    def _health_document(self) -> dict[str, Any]:
        return wrap(
            "health",
            {
                "status": "ok",
                "repro_version": __version__,
                "uptime_seconds": (
                    time.time() - self._started_at if self._started_at else 0.0
                ),
            },
        )

    def _stats_document(self) -> dict[str, Any]:
        from repro.utils.serialization import count_quarantined

        return wrap(
            "stats",
            {
                **self.store.stats(),
                **self.pool.stats(),
                "max_queued": self.max_queued,
                # Every quarantined artifact under the store tree (job
                # records, result bundles) — the ROM cache
                # reports its own count under rom_cache.
                "quarantined_files": count_quarantined(self.store.directory),
                "uptime_seconds": (
                    time.time() - self._started_at if self._started_at else 0.0
                ),
            },
        )


__all__ = ["JobServer"]
