"""Smoke test of the benchmark: every workload at smoke size, end to end.

One traced ``run.py --smoke`` run measures each workload in a traced and an
untraced child, so it covers the end-to-end metrics (from the untraced
child), the per-layer metrics (from the traced one), every correctness check,
bit-identical outputs with and without tracing, and the removal of every
wrapper afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_workload_reports_every_metric_and_passes_every_check(tmp_path):
    out = tmp_path / "smoke.json"
    command = [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", "1"]
    proc = subprocess.run(
        [*command, "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0

    benchmark = _benchmark()
    e2e = {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]}
    listed = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    printed = {
        (fields[0], fields[1], fields[3])
        for fields in (line.split() for line in lines[:-1])
        if len(fields) == 4
    }
    assert set(last["metrics"]) == {f"{w}:{m}" for w in workloads for m in listed}

    document = json.loads(out.read_text())
    units = document["units"]
    assert {name: units[name] for name in e2e} == e2e
    assert {name: units[name] for name in listed} == listed
    assert list(document["workloads"]) == workloads
    layer = set(document["workloads"][workloads[0]]["layer"])
    assert set(listed) <= layer
    for name, summary in document["workloads"].items():
        assert set(summary["e2e"]) == set(e2e), name
        assert all(value > 0 for value in summary["e2e"].values()), name
        assert set(summary["layer"]) == layer, name
        assert {(name, metric, units[metric]) for metric in layer} <= printed
        # Listed per-layer times are those every workload spends time in.
        assert all(summary["layer"][m] > 0 for m, unit in listed.items() if unit == "s")
        failed = [check["name"] for check in summary["checks"] if not check["ok"]]
        assert not failed, (name, failed)
        check_names = {check["name"] for check in summary["checks"]}
        assert "wrappers removed" in check_names, name
        assert any(check.startswith("equal inputs give bit-identical") for check in check_names)
    service_checks = {check["name"] for check in document["workloads"]["service-2x2"]["checks"]}
    assert "server wrappers removed" in service_checks


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "global-40x40"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
