"""Tests for the job service: store, worker pool, and the HTTP server/client.

The store and pool are exercised with an injected ``run_fn`` double (fast,
deterministic failure modes); the end-to-end tests run a real in-process
:class:`JobServer` on an ephemeral port against the smallest solvable spec
and check the acceptance criteria: bit-identical results vs ``repro.api.run``,
dedup of concurrent identical submissions, cancel, restart-resume, and the
error-envelope mapping.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import faults
from repro.api import SimulationSpec, run
from repro.errors import (
    JobCancelledError,
    JobNotFoundError,
    JobQueueFullError,
    JobStateError,
    SpecConflictError,
    SpecError,
)
from repro.service import JobServer, JobStore, ServiceClient, WorkerPool

TINY_SPEC = {
    "name": "tiny-service",
    "geometry": {"rows": 2, "pitch": 15.0},
    "mesh": {"resolution": "tiny", "nodes_per_axis": [3, 3, 3], "points_per_block": 8},
    "load_cases": [{"name": "cooldown", "delta_t": -100.0}],
}

OTHER_SPEC = {**TINY_SPEC, "name": "tiny-service-b", "geometry": {"rows": 1}}


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


class FakeResult:
    """Stand-in for RunResult: enough surface for the pool's summary + save."""

    cases = ()
    num_case_groups = 1
    backends_used = ["fake"]
    local_stage_seconds = 0.0
    total_global_stage_seconds = 0.0
    rom_cache_stats = None

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text("{}\n")


class TestJobStore:
    def test_submit_creates_and_persists(self, tmp_path):
        store = JobStore(tmp_path)
        job, created = store.submit(TINY_SPEC)
        assert created
        assert job.state == "queued"
        assert job.progress == {"done_cases": 0, "total_cases": 1}
        assert (tmp_path / "jobs" / f"{job.id}.json").exists()
        # The stored spec is normalized (defaults filled in).
        assert job.spec == SimulationSpec.from_dict(TINY_SPEC).to_dict()

    def test_duplicate_submission_attaches(self, tmp_path):
        store = JobStore(tmp_path)
        first, created_first = store.submit(TINY_SPEC)
        second, created_second = store.submit(TINY_SPEC)
        assert created_first and not created_second
        assert second.id == first.id
        assert second.submissions == 2
        assert store.dedup_hits == 1

    def test_failed_jobs_do_not_block_resubmission(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC)
        assert store.mark_running(job.id) is not None
        store.mark_failed(job, RuntimeError("boom"))
        retry, created = store.submit(TINY_SPEC)
        assert created
        assert retry.id != job.id

    def test_spec_conflict_detected(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC)
        job.spec = {**job.spec, "name": "tampered"}  # same hash, other document
        with pytest.raises(SpecConflictError):
            store.submit(TINY_SPEC)

    def test_queue_bound_rejects_new_but_not_duplicates(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(TINY_SPEC, max_queued=1)
        with pytest.raises(JobQueueFullError) as excinfo:
            store.submit(OTHER_SPEC, max_queued=1)
        assert excinfo.value.http_status == 429
        _, created = store.submit(TINY_SPEC, max_queued=1)  # dedup is exempt
        assert not created

    def test_cancel_queued_and_terminal(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC)
        assert store.request_cancel(job.id).state == "cancelled"
        with pytest.raises(JobStateError):
            store.request_cancel(job.id)
        with pytest.raises(JobNotFoundError):
            store.request_cancel("nope")

    def test_reload_from_disk(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC)
        reloaded = JobStore(tmp_path)
        assert reloaded.get(job.id).spec_hash == job.spec_hash

    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC)
        store.mark_running(job.id)
        # Simulate a crash: a fresh store sees the job still "running".
        recovered = JobStore(tmp_path)
        queued = recovered.recover()
        assert [entry.id for entry in queued] == [job.id]
        assert recovered.get(job.id).state == "queued"


class TestWorkerPool:
    def _drain(self, store, run_fn, job, **pool_kwargs):
        pool = WorkerPool(store, workers=1, run_fn=run_fn, **pool_kwargs)
        pool.start()
        try:
            wait_until(lambda: store.get(job.id).is_terminal)
        finally:
            pool.shutdown()
        return store.get(job.id)

    def test_executes_job_once(self, tmp_path):
        store = JobStore(tmp_path)
        calls = []

        def run_fn(spec, rom_cache=None, progress=None):
            calls.append(spec.name)
            return FakeResult()

        job, _ = store.submit(TINY_SPEC)
        done = self._drain(store, run_fn, job)
        assert done.state == "done"
        assert done.executions == 1
        assert calls == ["tiny-service"]
        assert done.result_summary["backends_used"] == ["fake"]
        assert (store.result_dir(done) / "manifest.json").exists()

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        store = JobStore(tmp_path)
        attempts = []

        def run_fn(spec, rom_cache=None, progress=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("flaky filesystem")
            return FakeResult()

        job, _ = store.submit(TINY_SPEC, max_attempts=2)
        done = self._drain(store, run_fn, job, retry_backoff_seconds=0.01)
        assert done.state == "done"
        assert done.attempts == 2

    def test_transient_failure_exhausts_attempts(self, tmp_path):
        store = JobStore(tmp_path)

        def run_fn(spec, rom_cache=None, progress=None):
            raise RuntimeError("always broken")

        job, _ = store.submit(TINY_SPEC, max_attempts=2)
        failed = self._drain(store, run_fn, job, retry_backoff_seconds=0.01)
        assert failed.state == "failed"
        assert failed.attempts == 2
        assert failed.error["code"] == "internal_error"

    def test_taxonomy_error_fails_permanently(self, tmp_path):
        store = JobStore(tmp_path)

        def run_fn(spec, rom_cache=None, progress=None):
            raise SpecError("spec.rows: impossible geometry")

        job, _ = store.submit(TINY_SPEC, max_attempts=3)
        failed = self._drain(store, run_fn, job, retry_backoff_seconds=0.01)
        assert failed.state == "failed"
        assert failed.attempts == 1  # no retry for permanent errors
        assert failed.error["code"] == "invalid_spec"

    def test_cancel_running_job_at_case_boundary(self, tmp_path):
        store = JobStore(tmp_path)
        started = threading.Event()

        def run_fn(spec, rom_cache=None, progress=None):
            started.set()
            for index in range(200):
                time.sleep(0.01)
                progress(index + 1, 200, f"case-{index}")
            return FakeResult()

        job, _ = store.submit(TINY_SPEC)
        pool = WorkerPool(store, workers=1, run_fn=run_fn)
        pool.start()
        try:
            started.wait(timeout=10)
            store.request_cancel(job.id)
            wait_until(lambda: store.get(job.id).is_terminal)
        finally:
            pool.shutdown()
        assert store.get(job.id).state == "cancelled"

    def test_timeout_fails_with_job_timeout(self, tmp_path):
        store = JobStore(tmp_path)

        def run_fn(spec, rom_cache=None, progress=None):
            for index in range(200):
                time.sleep(0.02)
                progress(index + 1, 200, f"case-{index}")
            return FakeResult()

        job, _ = store.submit(TINY_SPEC, timeout_seconds=0.05)
        failed = self._drain(store, run_fn, job)
        assert failed.state == "failed"
        assert failed.error["code"] == "job_timeout"

    def test_progress_is_visible_while_running(self, tmp_path):
        store = JobStore(tmp_path)
        release = threading.Event()

        def run_fn(spec, rom_cache=None, progress=None):
            progress(3, 7, "case-3")
            release.wait(timeout=10)
            return FakeResult()

        job, _ = store.submit(TINY_SPEC)
        pool = WorkerPool(store, workers=1, run_fn=run_fn)
        pool.start()
        try:
            wait_until(lambda: store.get(job.id).progress["done_cases"] == 3)
            assert store.get(job.id).progress == {"done_cases": 3, "total_cases": 7}
            release.set()
            wait_until(lambda: store.get(job.id).is_terminal)
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("max_attempts, final", [(2, "done"), (1, "failed")])
    def test_crash_persisting_the_attempt_retries_or_fails(
        self, tmp_path, max_attempts, final
    ):
        # After the submit, a one-worker pool persists the job twice before
        # run_fn: mark_running, then record_execution, whose write crashes.
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC, max_attempts=max_attempts)
        plan = faults.FaultPlan(
            seed=0,
            rules=({"site": "service.jobs.persist", "kind": "crash", "nth": 2},),
        )
        calls = []

        def run_fn(spec, rom_cache=None, progress=None):
            calls.append(1)
            return FakeResult()

        with faults.injected_faults(plan):
            ended = self._drain(store, run_fn, job, retry_backoff_seconds=0.01)
        assert [event["site"] for event in plan.fired] == ["service.jobs.persist"]
        assert ended.state == final
        assert ended.attempts == max_attempts
        assert len(calls) == max_attempts - 1

    @pytest.mark.parametrize(
        "nth, attempts_before, final, runs",
        [
            (1, 0, "done", 1),  # the claim: re-queued, costs no attempt
            (1, 2, "failed", 0),  # the claim of a job with no attempt left
            (3, 0, "done", 1),  # the "done" record: the job is not run again
        ],
    )
    def test_crash_persisting_a_transition_never_strands_the_job(
        self, tmp_path, nth, attempts_before, final, runs
    ):
        # After the submit, a one-worker pool persists the job in mark_running
        # (1st write), record_execution (2nd) and mark_done (3rd).
        store = JobStore(tmp_path)
        job, _ = store.submit(TINY_SPEC, max_attempts=2)
        job.attempts = attempts_before  # as after attempts before a restart
        plan = faults.FaultPlan(
            seed=0,
            rules=({"site": "service.jobs.persist", "kind": "crash", "nth": nth},),
        )
        calls = []

        def run_fn(spec, rom_cache=None, progress=None):
            calls.append(1)
            return FakeResult()

        with faults.injected_faults(plan):
            ended = self._drain(store, run_fn, job, retry_backoff_seconds=0.01)
        assert [event["site"] for event in plan.fired] == ["service.jobs.persist"]
        assert ended.state == final
        assert len(calls) == runs
        if final == "failed":
            assert ended.error["code"] == "internal_error"
        # The crash lands after the write, and later writes heal the record.
        assert JobStore(tmp_path).get(job.id).state == final


@pytest.fixture()
def fake_server(tmp_path):
    """An in-process server with a fast run_fn double (counts invocations)."""
    calls = []

    def run_fn(spec, rom_cache=None, progress=None):
        calls.append(spec.spec_hash())
        time.sleep(0.05)  # long enough for duplicates to arrive mid-flight
        return FakeResult()

    with JobServer(tmp_path / "store", workers=2, run_fn=run_fn) as server:
        server.run_calls = calls
        yield server


class TestServerEndToEnd:
    def test_submit_poll_result_matches_direct_run(self, tmp_path):
        spec = SimulationSpec.from_dict(TINY_SPEC)
        direct = run(spec)
        with JobServer(tmp_path / "store", workers=1) as server:
            client = ServiceClient(server.url)
            record = client.submit(spec)
            assert record["state"] in ("queued", "running", "done")
            final = client.wait(record["id"], timeout=120)
            assert final["state"] == "done"
            assert final["progress"] == {"done_cases": 1, "total_cases": 1}

            envelope = client.result(record["id"])
            assert envelope["kind"] == "run_result"
            served = envelope["data"]

            # The wire payload is byte-identical to the persisted manifest.
            job = server.store.get(record["id"])
            manifest_path = server.store.result_dir(job) / "manifest.json"
            raw = client._request("GET", f"/jobs/{record['id']}/result", raw=True)
            assert raw == manifest_path.read_bytes()

            # ... and numerically identical to the in-process run.
            expected = json.loads(json.dumps(direct.manifest()))
            assert served["spec_hash"] == expected["spec_hash"]
            assert served["spec"] == expected["spec"]
            for served_case, expected_case in zip(served["cases"], expected["cases"]):
                assert served_case["peak_von_mises"] == expected_case["peak_von_mises"]
                assert served_case["mean_von_mises"] == expected_case["mean_von_mises"]
                assert served_case["num_global_dofs"] == expected_case["num_global_dofs"]

    def test_concurrent_identical_submissions_execute_once(self, fake_server):
        client = ServiceClient(fake_server.url)
        records = []
        errors = []

        def submit():
            try:
                records.append(client.submit(TINY_SPEC))
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        ids = {record["id"] for record in records}
        assert len(ids) == 1  # everyone attached to one job
        job_id = ids.pop()
        final = client.wait(job_id, timeout=30)
        assert final["state"] == "done"
        assert final["executions"] == 1
        assert len(fake_server.run_calls) == 1
        assert final["submissions"] == 8
        assert client.stats()["dedup_hits"] == 7

    def test_cancel_mid_queue(self, tmp_path):
        release = threading.Event()

        def run_fn(spec, rom_cache=None, progress=None):
            release.wait(timeout=30)
            return FakeResult()

        with JobServer(tmp_path / "store", workers=1, run_fn=run_fn) as server:
            client = ServiceClient(server.url)
            blocker = client.submit(TINY_SPEC)
            victim = client.submit(OTHER_SPEC)  # sits behind the blocker
            cancelled = client.cancel(victim["id"])
            assert cancelled["state"] == "cancelled"
            release.set()
            final = client.wait(blocker["id"], timeout=30)
            assert final["state"] == "done"
            # The cancelled job never reached the executor.
            assert client.job(victim["id"])["executions"] == 0

    def test_restart_resumes_queued_and_running_jobs(self, tmp_path):
        store_dir = tmp_path / "store"
        # Session one dies with one queued and one "running" job on disk.
        store = JobStore(store_dir)
        queued_job, _ = store.submit(TINY_SPEC)
        crashed_job, _ = store.submit(OTHER_SPEC)
        store.mark_running(crashed_job.id)

        def run_fn(spec, rom_cache=None, progress=None):
            return FakeResult()

        with JobServer(store_dir, workers=2, run_fn=run_fn) as server:
            client = ServiceClient(server.url)
            assert client.wait(queued_job.id, timeout=30)["state"] == "done"
            assert client.wait(crashed_job.id, timeout=30)["state"] == "done"

    def test_invalid_spec_maps_to_400_invalid_spec(self, fake_server):
        body = json.dumps({"geometry": {"rows": "many"}}).encode()
        request = urllib.request.Request(
            f"{fake_server.url}/v1/jobs",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["code"] == "invalid_spec"

    def test_client_reraises_typed_errors(self, fake_server):
        client = ServiceClient(fake_server.url)
        with pytest.raises(SpecError):
            client.submit({"geometry": {"rows": "many"}})
        with pytest.raises(JobNotFoundError):
            client.job("does-not-exist")
        with pytest.raises(JobNotFoundError):
            client._request("GET", "/no/such/route")

    def test_result_of_unfinished_job_is_409(self, tmp_path):
        release = threading.Event()

        def run_fn(spec, rom_cache=None, progress=None):
            release.wait(timeout=30)
            return FakeResult()

        with JobServer(tmp_path / "store", workers=1, run_fn=run_fn) as server:
            client = ServiceClient(server.url)
            record = client.submit(TINY_SPEC)
            with pytest.raises(JobStateError):
                client.result(record["id"])
            release.set()

    def test_health_and_stats(self, fake_server):
        client = ServiceClient(fake_server.url)
        health = client.health()
        assert health["status"] == "ok"
        stats = client.stats()
        assert stats["workers"] == 2
        assert stats["queue_depth"] == 0
        assert {"hits", "misses", "hit_rate", "entries"} <= set(stats["rom_cache"])

    def test_fields_endpoint_streams_npz(self, tmp_path):
        spec_doc = {
            **TINY_SPEC,
            "output": {"formats": ["npz"]},
        }
        with JobServer(tmp_path / "store", workers=1) as server:
            client = ServiceClient(server.url)
            record = client.submit(spec_doc)
            assert client.wait(record["id"], timeout=120)["state"] == "done"
            destination = client.fetch_fields(record["id"], tmp_path / "dl" / "f.npz")
            import numpy as np

            with np.load(destination) as bundle:
                assert len(bundle.files) > 0

    def test_queue_full_maps_to_429(self, tmp_path):
        release = threading.Event()

        def run_fn(spec, rom_cache=None, progress=None):
            release.wait(timeout=30)
            return FakeResult()

        with JobServer(
            tmp_path / "store", workers=1, run_fn=run_fn, max_queued=1
        ) as server:
            client = ServiceClient(server.url)
            blocker = client.submit(TINY_SPEC)
            # Wait until the single worker has claimed the blocker so the
            # queue is empty; then fill the one slot and overflow it.
            wait_until(lambda: client.job(blocker["id"])["state"] == "running")
            second = {**TINY_SPEC, "name": "second", "geometry": {"rows": 1}}
            third = {**TINY_SPEC, "name": "third", "geometry": {"rows": 3}}
            try:
                client.submit(second)
                with pytest.raises(JobQueueFullError):
                    client.submit(third)
            finally:
                release.set()

    def test_warm_cache_speeds_up_second_distinct_job(self, tmp_path):
        # Two specs, same geometry/mesh (same ROM), different load: the
        # second job should hit the shared cache the first one filled.
        first = TINY_SPEC
        second = {
            **TINY_SPEC,
            "name": "hotter",
            "load_cases": [{"name": "reflow", "delta_t": -50.0}],
        }
        with JobServer(tmp_path / "store", workers=1) as server:
            client = ServiceClient(server.url)
            record = client.submit(first)
            assert client.wait(record["id"], timeout=120)["state"] == "done"
            record2 = client.submit(second)
            assert record2["id"] != record["id"]
            assert client.wait(record2["id"], timeout=120)["state"] == "done"
            assert client.stats()["rom_cache"]["hits"] >= 1

    def test_cache_cap_flows_to_pool_and_stats(self, tmp_path):
        server = JobServer(tmp_path, rom_cache_max_bytes=123456)
        assert server.pool.rom_cache.max_bytes == 123456
        stats = server.pool.stats()["rom_cache"]
        assert stats["max_bytes"] == 123456
        for key in ("evictions", "evicted_bytes", "bytes"):
            assert key in stats
