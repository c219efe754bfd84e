"""Chaos harness: run the in-process service under seeded fault plans.

The harness is the executable form of the reliability contract: it boots a
real :class:`~repro.service.server.JobServer` (real executor, real solves of
a tiny spec) with a deterministic :class:`~repro.faults.FaultPlan` active,
drives it through the HTTP client like any other consumer, restarts the
store the way a crashed server would, and then checks the **invariants**
that must survive any of the injected failures:

* **no lost jobs** — every job id the service acknowledged is either present
  after the restart or was quarantined (and is still on disk, inspectable);
* **no duplicated jobs** — at most one live (non-failed, non-cancelled) job
  per spec hash;
* **no orphans** — no ``.tmp-*`` or ``.lock-*`` files anywhere under the
  store or the ROM cache after shutdown;
* **quarantine accounting** — every quarantined artifact carries its
  ``.reason.json`` sidecar, and the restart's quarantine counter matches the
  newly quarantined record files;
* **result parity** — every completed job's persisted result is equal to a
  fault-free :func:`repro.api.run` of the same spec: same spec hash, exactly
  equal stress metrics, bitwise-equal field arrays (timings may differ).
  The one sanctioned exception: a case whose ``solver_method`` records a
  fallback substitution (``"gmres->direct-splu"``) answered from a different
  backend and is held to tight numeric tolerance instead of bit identity.

Five named scenarios cover the failure modes of the ISSUE: torn writes,
``ENOSPC``, worker crash, worker hang (watchdog reap) and transient solver
failures.  ``repro chaos --scenario torn-write --seed 7`` runs one from the
command line; ``tests/test_chaos.py`` runs them all under pytest.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro import faults
from repro.errors import ReproError
from repro.utils.logging import get_logger
from repro.utils.serialization import QUARANTINE_DIRNAME, count_quarantined

_logger = get_logger("chaos")

#: The spec solved during chaos runs: the smallest solvable configuration,
#: so a scenario with several jobs and retries still finishes in seconds.
TINY_SPEC: dict[str, Any] = {
    "name": "chaos-a",
    "geometry": {"rows": 1, "pitch": 15.0},
    "mesh": {"resolution": "tiny", "nodes_per_axis": [3, 3, 3], "points_per_block": 5},
    "load_cases": [{"name": "cooldown", "delta_t": -100.0}],
}

#: A second distinct spec so dedup and per-spec isolation are exercised.
OTHER_SPEC: dict[str, Any] = {
    **TINY_SPEC,
    "name": "chaos-b",
    "load_cases": [{"name": "cooldown", "delta_t": -150.0}],
}

#: Per-case manifest keys that must match a fault-free run exactly, always.
_STRUCTURAL_KEYS = ("name", "delta_t", "rows", "cols", "num_global_dofs", "field_shape")

#: Stress metrics: bitwise-equal to the fault-free run, unless the case
#: records a solver substitution ("gmres->direct-splu") — a degraded-mode
#: answer from a different backend is only tolerance-equal.
_METRIC_KEYS = ("peak_von_mises", "mean_von_mises")
_METRIC_RTOL = 1e-9


def _scenario_rules(name: str) -> list[dict[str, Any]]:
    """The fault rules of one named scenario."""
    if name == "torn-write":
        return [
            {"site": "service.jobs.persist", "kind": "torn_write",
             "probability": 0.25, "max_triggers": 4},
            {"site": "rom_cache.put", "kind": "torn_write", "nth": 1},
        ]
    if name == "enospc":
        return [
            {"site": "rom_cache.put", "kind": "enospc", "nth": 1},
            {"site": "service.jobs.persist", "kind": "eio",
             "probability": 0.1, "max_triggers": 2},
        ]
    if name == "worker-crash":
        return [
            {"site": "service.pool.worker", "kind": "crash", "nth": 1},
            {"site": "service.jobs.persist", "kind": "crash", "nth": 5},
        ]
    if name == "worker-hang":
        return [
            {"site": "service.pool.worker", "kind": "hang", "nth": 1,
             "hang_seconds": 6.0},
        ]
    if name == "solver-transient":
        return [
            {"site": "fem.backends.*", "kind": "transient",
             "probability": 0.3, "max_triggers": 3},
        ]
    raise ValueError(f"unknown chaos scenario {name!r}")


#: Scenario name -> one-line description (the registry the CLI exposes).
SCENARIOS: dict[str, str] = {
    "torn-write": "truncated bytes at job-record and cache writes",
    "enospc": "ENOSPC/EIO at cache and job-record writes",
    "worker-crash": "worker dies at attempt start; retry budget absorbs it",
    "worker-hang": "worker hangs mid-job; the watchdog reaps and re-queues",
    "solver-transient": "sparse solves fail transiently; fallback absorbs it",
}


def scenario_plan(name: str, seed: int = 0) -> faults.FaultPlan:
    """The seeded :class:`FaultPlan` of a named scenario."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown chaos scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    return faults.FaultPlan(seed=seed, rules=tuple(_scenario_rules(name)))


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario run."""

    scenario: str
    seed: int
    acknowledged: list[str] = field(default_factory=list)
    final_states: dict[str, str] = field(default_factory=dict)
    fired: list[dict[str, Any]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    quarantined_files: int = 0
    stats: dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "acknowledged": list(self.acknowledged),
            "final_states": dict(self.final_states),
            "fired": list(self.fired),
            "violations": list(self.violations),
            "quarantined_files": self.quarantined_files,
            "stats": self.stats,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _orphan_files(*directories: Path) -> list[str]:
    orphans: list[str] = []
    for directory in directories:
        if not directory.is_dir():
            continue
        for pattern in (".tmp-*", ".lock-*"):
            orphans.extend(
                str(path.relative_to(directory))
                for path in directory.rglob(pattern)
                if QUARANTINE_DIRNAME not in path.parts
            )
    return orphans


def _quarantine_entries(*directories: Path) -> list[Path]:
    entries: list[Path] = []
    for directory in directories:
        if not directory.is_dir():
            continue
        for quarantine_dir in directory.rglob(QUARANTINE_DIRNAME):
            entries.extend(
                path
                for path in quarantine_dir.iterdir()
                if path.is_file() and not path.name.endswith(".reason.json")
            )
    return entries


def _baseline_results(specs: "list[Mapping[str, Any]]") -> dict[str, dict[str, Any]]:
    """Fault-free manifests + field bundles per spec hash (ground truth)."""
    from repro.api import SimulationSpec, run

    assert faults.active_plan() is None, "baseline must run fault-free"
    baselines: dict[str, dict[str, Any]] = {}
    for document in specs:
        spec = SimulationSpec.from_dict(document)
        spec_hash = spec.spec_hash()
        if spec_hash in baselines:
            continue
        result = run(spec)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-base-") as tmp:
            saved = result.save(tmp)
            fields_path = Path(saved) / "fields.npz"
            with np.load(fields_path) as data:
                arrays = {name: np.array(data[name]) for name in data.files}
        baselines[spec_hash] = {"manifest": result.manifest(), "fields": arrays}
    return baselines


def _check_parity(
    report: ChaosReport,
    job: Any,
    store: Any,
    baselines: dict[str, dict[str, Any]],
) -> None:
    """Assert a done job's persisted result equals the fault-free run."""
    baseline = baselines.get(job.spec_hash)
    if baseline is None:
        report.violations.append(
            f"job {job.id}: no fault-free baseline for spec {job.spec_hash}"
        )
        return
    result_dir = store.result_dir(job)
    manifest_path = result_dir / "manifest.json"
    if not manifest_path.exists():
        report.violations.append(f"job {job.id}: done but manifest.json missing")
        return
    document = json.loads(manifest_path.read_text())
    manifest = document.get("data", document)
    if manifest.get("spec_hash") != job.spec_hash:
        report.violations.append(
            f"job {job.id}: manifest spec hash {manifest.get('spec_hash')} "
            f"!= job spec hash {job.spec_hash}"
        )
    expected_cases = baseline["manifest"]["cases"]
    actual_cases = manifest.get("cases") or []
    if len(actual_cases) != len(expected_cases):
        report.violations.append(
            f"job {job.id}: {len(actual_cases)} cases, expected {len(expected_cases)}"
        )
        return
    substituted = False
    for expected, actual in zip(expected_cases, actual_cases):
        for key in _STRUCTURAL_KEYS:
            if expected.get(key) != actual.get(key):
                report.violations.append(
                    f"job {job.id}: case {expected.get('name')!r} differs on "
                    f"{key}: {actual.get(key)!r} != {expected.get(key)!r}"
                )
        case_substituted = "->" in str(actual.get("solver_method", ""))
        substituted = substituted or case_substituted
        for key in _METRIC_KEYS:
            expected_value = expected.get(key)
            actual_value = actual.get(key)
            if case_substituted:
                equal = np.isclose(actual_value, expected_value, rtol=_METRIC_RTOL)
            else:
                equal = actual_value == expected_value
            if not equal:
                report.violations.append(
                    f"job {job.id}: case {expected.get('name')!r} differs on "
                    f"{key}: {actual_value!r} != {expected_value!r}"
                )
    fields_path = result_dir / "fields.npz"
    if not fields_path.exists():
        report.violations.append(f"job {job.id}: fields.npz missing")
        return
    with np.load(fields_path) as data:
        actual_arrays = {name: np.array(data[name]) for name in data.files}
    expected_arrays = baseline["fields"]
    if sorted(actual_arrays) != sorted(expected_arrays):
        report.violations.append(
            f"job {job.id}: field bundle arrays {sorted(actual_arrays)} "
            f"!= {sorted(expected_arrays)}"
        )
        return
    for name, expected_value in expected_arrays.items():
        actual_value = actual_arrays[name]
        if substituted:
            # Degraded-mode solve: the metadata blob records the fallback
            # method and numeric arrays differ at the last ulp.
            if name.startswith("__metadata"):
                continue
            if actual_value.dtype.kind in "fciu":
                equal = actual_value.shape == expected_value.shape and np.allclose(
                    actual_value,
                    expected_value,
                    rtol=_METRIC_RTOL,
                    atol=1e-12,
                )
            else:
                equal = np.array_equal(actual_value, expected_value)
            label = "tolerance-equal"
        else:
            equal = np.array_equal(actual_value, expected_value)
            label = "bitwise equal"
        if not equal:
            report.violations.append(
                f"job {job.id}: field array {name!r} is not {label} "
                f"to the fault-free run"
            )


def run_scenario(
    scenario: str,
    *,
    seed: int = 0,
    store_dir: "str | Path | None" = None,
    specs: "list[Mapping[str, Any]] | None" = None,
    submissions_per_spec: int = 2,
    workers: int = 2,
    stall_timeout_seconds: float = 1.5,
    wait_timeout: float = 180.0,
    baselines: "dict[str, dict[str, Any]] | None" = None,
) -> ChaosReport:
    """Run one chaos scenario end to end and check every invariant.

    Boots a real in-process server over ``store_dir`` (a temporary directory
    by default) with the scenario's seeded fault plan active, submits each
    spec ``submissions_per_spec`` times (exercising dedup), waits for every
    acknowledged job to reach a terminal state, stops the server, and then
    reopens the store the way a restarted server would before checking the
    invariants.  Pre-computed ``baselines`` (from :func:`_baseline_results`)
    can be shared across scenarios to avoid re-solving the ground truth.
    """
    from repro.service import JobServer, JobStore, ServiceClient

    specs = [dict(document) for document in (specs or [TINY_SPEC, OTHER_SPEC])]
    owned_dir = store_dir is None
    if owned_dir:
        store_root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    else:
        store_root = Path(store_dir)
        store_root.mkdir(parents=True, exist_ok=True)

    report = ChaosReport(scenario=scenario, seed=seed)
    started = time.monotonic()
    if baselines is None:
        baselines = _baseline_results(specs)
    plan = scenario_plan(scenario, seed=seed)

    server = JobServer(
        store_root,
        workers=workers,
        retry_backoff_seconds=0.05,
        stall_timeout_seconds=stall_timeout_seconds,
        circuit_threshold=None,  # scenarios assert retry semantics directly
        fault_plan=plan,
    )
    try:
        server.start()
        client = ServiceClient(server.url, timeout_seconds=30.0)
        for document in specs:
            for _ in range(submissions_per_spec):
                record = None
                for _attempt in range(4):
                    try:
                        record = client.submit(document)
                        break
                    except ReproError as exc:
                        # An injected fault on the submit path (ENOSPC on
                        # the critical persist, crash-after-rename) is a
                        # legitimate 5xx; clients retry, dedup absorbs it.
                        _logger.info(
                            "chaos: submit rejected (%s); retrying", exc
                        )
                        time.sleep(0.05)
                if record is not None and record["id"] not in report.acknowledged:
                    report.acknowledged.append(record["id"])
        if not report.acknowledged:
            report.violations.append("no submission was ever acknowledged")
        for job_id in report.acknowledged:
            try:
                record = client.wait(job_id, timeout=wait_timeout)
            except ReproError as exc:
                report.final_states[job_id] = "wait-failed"
                report.violations.append(
                    f"job {job_id} never reached a terminal state: {exc}"
                )
                continue
            report.final_states[job_id] = record["state"]
        report.stats["server"] = client.stats()
    finally:
        server.stop()  # deactivates the plan and releases injected hangs

    report.fired = list(plan.fired)

    # --- restart: reopen the store the way a rebooted server would -------- #
    quarantined_before = count_quarantined(store_root)
    store = JobStore(store_root)
    rom_cache_dir = store_root / "rom_cache"
    report.quarantined_files = count_quarantined(store_root) + count_quarantined(
        rom_cache_dir
    )
    report.stats["restart"] = store.stats()

    # I1: no lost jobs — acknowledged ids survive the restart or were
    # quarantined (torn record discovered and preserved for inspection).
    newly_quarantined = store.quarantined
    surviving = {job.id for job in store.list()}
    lost = [job_id for job_id in report.acknowledged if job_id not in surviving]
    if len(lost) > newly_quarantined:
        report.violations.append(
            f"lost jobs: {lost} missing after restart but only "
            f"{newly_quarantined} record(s) quarantined"
        )

    # I2: no duplicated jobs — at most one live job per spec hash.
    live_by_hash: dict[str, list[str]] = {}
    for job in store.list():
        if job.state not in ("failed", "cancelled"):
            live_by_hash.setdefault(job.spec_hash, []).append(job.id)
    for spec_hash, ids in live_by_hash.items():
        if len(ids) > 1:
            report.violations.append(
                f"duplicated jobs for spec {spec_hash}: {sorted(ids)}"
            )

    # I3: no temp/lock orphans anywhere.
    orphans = _orphan_files(store_root, rom_cache_dir)
    if orphans:
        report.violations.append(f"orphan temp/lock files: {sorted(orphans)}")

    # I4: quarantine accounting — sidecars present, restart counter matches
    # the records quarantined by this reload.
    for entry in _quarantine_entries(store_root, rom_cache_dir):
        if not entry.with_name(entry.name + ".reason.json").exists():
            report.violations.append(
                f"quarantined file {entry.name} has no .reason.json sidecar"
            )
    restart_delta = count_quarantined(store_root) - quarantined_before
    if restart_delta != newly_quarantined:
        report.violations.append(
            f"restart quarantined {restart_delta} file(s) but counted "
            f"{newly_quarantined}"
        )

    # I5: every terminal state is accounted for; done results match the
    # fault-free ground truth byte for byte.
    for job_id, state in report.final_states.items():
        if state not in ("done", "failed", "cancelled"):
            report.violations.append(f"job {job_id} ended non-terminal: {state}")
    for job in store.list():
        if job.state == "done" and job.id in report.final_states:
            _check_parity(report, job, store, baselines)

    report.elapsed_seconds = time.monotonic() - started
    if owned_dir and report.ok:
        shutil.rmtree(store_root, ignore_errors=True)
    if not report.ok:
        _logger.warning(
            "chaos %s (seed %d): %d violation(s): %s",
            scenario,
            seed,
            len(report.violations),
            "; ".join(report.violations),
        )
    return report


__all__ = [
    "OTHER_SPEC",
    "SCENARIOS",
    "TINY_SPEC",
    "ChaosReport",
    "run_scenario",
    "scenario_plan",
]
