"""Repository hygiene guards (mirrored by the CI ``lint-invariants`` job)."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files() -> list[str]:
    result = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


class TestNoTrackedBytecode:
    def test_no_pycache_or_pyc_tracked(self):
        offenders = [
            name
            for name in _tracked_files()
            if "__pycache__" in name or name.endswith((".pyc", ".pyo"))
        ]
        assert offenders == [], (
            "compiled bytecode must never be committed: " + ", ".join(offenders)
        )


class TestCommittedBaseline:
    def test_baseline_parses_and_every_entry_is_justified(self):
        path = REPO_ROOT / ".repro-lint-baseline.json"
        document = json.loads(path.read_text())
        assert document["version"] == 1
        for entry in document["findings"]:
            assert str(entry.get("justification", "")).strip(), (
                f"baseline entry without justification: {entry}"
            )

    def test_committed_baseline_loads_through_the_analyzer(self):
        from repro.lint import Baseline

        baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
        # The tree currently lints clean, so nothing should be grandfathered;
        # entries added later must survive the justification check above.
        assert isinstance(baseline.entries, list)


class TestSelfHosting:
    def test_lint_runs_clean_on_the_source_tree(self):
        """The analyzer's own contract: src/repro has no active findings."""
        from repro.lint import Baseline, run_lint

        baseline = Baseline.load(REPO_ROOT / ".repro-lint-baseline.json")
        report = run_lint(
            REPO_ROOT, [REPO_ROOT / "src" / "repro"], baseline=baseline
        )
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"repro lint found violations:\n{rendered}"
        assert len(report.rules) >= 5
        # Every inline suppression in the tree carries its justification.
        for finding, justification in report.suppressed:
            assert justification.strip(), f"unjustified suppression: {finding}"
        # The committed baseline must not rot: no stale entries.
        assert report.stale_baseline == []
