"""Chaos tests: the in-process service under seeded fault injection.

Each scenario boots a real :class:`~repro.service.server.JobServer` with a
deterministic :class:`~repro.faults.FaultPlan` active and asserts the
reliability invariants of :mod:`repro.chaos`: no lost or duplicated jobs, no
temp/lock orphans, quarantine accounting, and result parity with a
fault-free run.  ``-k smoke`` selects the fast fixed-seed subset CI runs.
"""

import json

import pytest

from repro import chaos, faults
from repro.chaos import OTHER_SPEC, SCENARIOS, TINY_SPEC
from repro.errors import CorruptArtifactError, WorkerStalledError
from repro.service import JobServer, JobStore, ServiceClient
from repro.utils.serialization import count_quarantined, load_json

SEED = 1


@pytest.fixture(scope="module")
def baselines():
    """Fault-free ground-truth results, computed once for every scenario."""
    return chaos._baseline_results([TINY_SPEC, OTHER_SPEC])


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test must leave the process without an active fault plan."""
    yield
    assert faults.active_plan() is None, "a test leaked an active fault plan"
    faults.deactivate()


def _run(scenario, tmp_path, baselines, seed=SEED):
    report = chaos.run_scenario(
        scenario,
        seed=seed,
        store_dir=tmp_path / scenario,
        baselines=baselines,
    )
    assert report.ok, f"{scenario}: {report.violations}"
    return report


class TestScenarios:
    def test_smoke_torn_write(self, tmp_path, baselines):
        report = _run("torn-write", tmp_path, baselines)
        assert report.fired, "the torn-write scenario never injected a fault"
        assert any(event["kind"] == "torn_write" for event in report.fired)

    def test_smoke_worker_crash(self, tmp_path, baselines):
        report = _run("worker-crash", tmp_path, baselines)
        assert any(event["kind"] == "crash" for event in report.fired)
        # The crashed attempt was retried: at least one job completed.
        assert "done" in report.final_states.values()

    def test_enospc(self, tmp_path, baselines):
        report = _run("enospc", tmp_path, baselines)
        assert any(event["kind"] in ("enospc", "eio") for event in report.fired)
        assert "done" in report.final_states.values()

    def test_worker_hang_is_reaped_by_watchdog(self, tmp_path, baselines):
        report = _run("worker-hang", tmp_path, baselines)
        assert any(event["kind"] == "hang" for event in report.fired)
        # The watchdog reaped the stalled execution and the retry finished.
        assert report.stats["restart"]["jobs"].get("done", 0) >= 1
        server_stats = report.stats["server"]
        assert server_stats["stalls"] >= 1
        assert server_stats["watchdog"]["reaped"] >= 1

    def test_solver_transient(self, tmp_path, baselines):
        report = _run("solver-transient", tmp_path, baselines)
        assert any(event["kind"] == "transient" for event in report.fired)
        assert "done" in report.final_states.values()

    def test_every_registered_scenario_has_rules(self):
        for name in SCENARIOS:
            plan = chaos.scenario_plan(name, seed=3)
            assert plan.rules, name
            assert plan.seed == 3
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            chaos.scenario_plan("meteor-strike")


class TestKillNineRecovery:
    """Torn on-disk state (as after ``kill -9``) must quarantine + recover."""

    def test_torn_job_record_is_quarantined_on_restart(self, tmp_path, baselines):
        store_dir = tmp_path / "store"
        store = JobStore(store_dir)
        from repro.api import SimulationSpec

        job, created = store.submit(SimulationSpec.from_dict(TINY_SPEC))
        assert created
        record_path = store_dir / "jobs" / f"{job.id}.json"
        payload = record_path.read_bytes()
        record_path.write_bytes(payload[: len(payload) // 2])  # tear it

        reopened = JobStore(store_dir)
        assert reopened.quarantined == 1
        assert count_quarantined(store_dir) == 1
        assert job.id not in {j.id for j in reopened.list()}
        # The torn record is preserved for inspection, with its reason.
        quarantine_dir = store_dir / "jobs" / ".quarantine"
        sidecars = list(quarantine_dir.glob("*.reason.json"))
        assert len(sidecars) == 1
        assert "failed to load" in json.loads(sidecars[0].read_text())["reason"]

    def test_checksum_flip_is_quarantined_on_restart(self, tmp_path):
        store_dir = tmp_path / "store"
        store = JobStore(store_dir)
        from repro.api import SimulationSpec

        job, _ = store.submit(SimulationSpec.from_dict(TINY_SPEC))
        record_path = store_dir / "jobs" / f"{job.id}.json"
        document = json.loads(record_path.read_text())
        document["state"] = "done"  # silent bit-flip: checksum now stale
        record_path.write_text(json.dumps(document))

        with pytest.raises(CorruptArtifactError):
            load_json(record_path)
        reopened = JobStore(store_dir)
        assert reopened.quarantined == 1
        assert reopened.stats()["quarantined"] == 1

    def test_server_boots_and_serves_over_torn_store(self, tmp_path, baselines):
        store_dir = tmp_path / "store"
        store = JobStore(store_dir)
        from repro.api import SimulationSpec

        job, _ = store.submit(SimulationSpec.from_dict(OTHER_SPEC))
        record_path = store_dir / "jobs" / f"{job.id}.json"
        record_path.write_text("{not json")

        server = JobServer(store_dir, port=0, workers=1, circuit_threshold=None)
        try:
            server.start()
            client = ServiceClient(server.url, timeout_seconds=30.0)
            assert client.health()["status"] == "ok"
            assert client.stats()["quarantined_files"] == 1
            # The healed service still takes and finishes work.
            record = client.submit(TINY_SPEC)
            final = client.wait(record["id"], timeout=120.0)
            assert final["state"] == "done"
        finally:
            server.stop()


class TestWatchdogAndBreaker:
    def test_stalled_job_exhausting_budget_fails_typed(self, tmp_path):
        plan = faults.FaultPlan(
            seed=0,
            rules=(
                {
                    "site": "service.pool.worker",
                    "kind": "hang",
                    "max_triggers": 5,
                    "hang_seconds": 30.0,
                },
            ),
        )
        server = JobServer(
            tmp_path / "store",
            port=0,
            workers=1,
            retry_backoff_seconds=0.05,
            stall_timeout_seconds=0.6,
            circuit_threshold=None,
            fault_plan=plan,
        )
        try:
            server.start()
            client = ServiceClient(server.url, timeout_seconds=30.0)
            record = client.submit(TINY_SPEC, max_attempts=1)
            final = client.wait(record["id"], timeout=60.0)
            assert final["state"] == "failed"
            assert final["error"]["code"] == "worker_stalled"
            rebuilt_detail = final["error"]["detail"]
            assert rebuilt_detail["heartbeat_age"] >= 0.6
        finally:
            server.stop()
        assert issubclass(WorkerStalledError, Exception)

    def test_circuit_breaker_fails_fast_after_repeated_failures(self, tmp_path):
        # A spec that always crashes its worker trips the breaker; further
        # submissions of the same spec are rejected with circuit_open.
        plan = faults.FaultPlan(
            seed=0,
            rules=({"site": "service.pool.worker", "kind": "crash"},),
        )
        server = JobServer(
            tmp_path / "store",
            port=0,
            workers=1,
            retry_backoff_seconds=0.02,
            circuit_threshold=2,
            circuit_reset_seconds=60.0,
            fault_plan=plan,
        )
        try:
            server.start()
            client = ServiceClient(server.url, timeout_seconds=30.0)
            from repro.errors import CircuitOpenError

            document = {**TINY_SPEC, "name": "breaker"}
            # Failed jobs never dedup, so each submission is a fresh job for
            # the same spec hash — two failures reach the threshold.
            for _ in range(2):
                record = client.submit(document, max_attempts=1)
                final = client.wait(record["id"], timeout=60.0)
                assert final["state"] == "failed"
            with pytest.raises(CircuitOpenError) as excinfo:
                client.submit(document)
            assert excinfo.value.retry_after > 0  # carried via Retry-After
            breaker = client.stats()["circuit_breaker"]
            assert breaker["open_circuits"] >= 1
            assert breaker["trips"] >= 1
        finally:
            server.stop()
