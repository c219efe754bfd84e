"""Fixture-based positive/negative tests for every repro.lint rule.

Each test copies fixture modules from ``tests/lint_fixtures/`` into a
temporary project tree laid out like the real repository (the rules scope
themselves by path suffix) and runs one rule over it.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint
from tests.lint_fixtures import FIXTURES_DIR


def _place(root: Path, fixture: str, rel: str) -> Path:
    destination = root / rel
    destination.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(FIXTURES_DIR / fixture, destination)
    return destination


def _rules_of(report) -> list[tuple[str, str, int]]:
    return [(f.rule, f.path, f.line) for f in report.findings]


class TestREP001AtomicWrite:
    def test_positive_every_write_shape_is_flagged(self, tmp_path):
        _place(tmp_path, "rep001_bad.py", "src/repro/reporting.py")
        report = run_lint(tmp_path, rule_ids=["REP001"])
        findings = [f for f in report.findings if f.rule == "REP001"]
        messages = "\n".join(f.message for f in findings)
        # One finding per durable-write shape in the fixture.
        assert len(findings) == 7, messages
        assert "open(..., 'w')" in messages
        assert "json.dump" in messages
        assert "np.savez" in messages
        assert "np.savetxt" in messages
        assert "write_text" in messages
        assert "write_bytes" in messages

    def test_negative_reads_and_atomic_helpers_are_clean(self, tmp_path):
        _place(tmp_path, "rep001_good.py", "src/repro/reporting.py")
        report = run_lint(tmp_path, rule_ids=["REP001"])
        assert _rules_of(report) == []
        # The export-stream write is present but suppressed with a reason.
        assert len(report.suppressed) == 1
        assert "export stream" in report.suppressed[0][1]

    def test_serialization_module_is_exempt(self, tmp_path):
        _place(tmp_path, "rep001_bad.py", "src/repro/utils/serialization.py")
        report = run_lint(tmp_path, rule_ids=["REP001"])
        assert _rules_of(report) == []


class TestREP002FaultSites:
    def test_positive_commit_without_site(self, tmp_path):
        _place(
            tmp_path, "rep002_serialization_bad.py", "src/repro/utils/serialization.py"
        )
        report = run_lint(tmp_path, rule_ids=["REP002"])
        assert [f.rule for f in report.findings] == ["REP002"]
        assert "commit" in report.findings[0].message

    def test_negative_commit_with_site_parameter(self, tmp_path):
        _place(
            tmp_path, "rep002_serialization_good.py", "src/repro/utils/serialization.py"
        )
        report = run_lint(tmp_path, rule_ids=["REP002"])
        assert _rules_of(report) == []

    def test_chaos_glob_must_match_a_registered_site(self, tmp_path):
        _place(
            tmp_path, "rep002_serialization_good.py", "src/repro/utils/serialization.py"
        )
        _place(tmp_path, "rep002_chaos_bad.py", "src/repro/chaos.py")
        report = run_lint(tmp_path, rule_ids=["REP002"])
        findings = report.findings
        assert len(findings) == 1
        assert "serialisation.dump_jsonn" in findings[0].message
        assert findings[0].path.endswith("chaos.py")


class TestREP004ErrorTaxonomy:
    def test_positive_unregistered_class_and_bare_raise(self, tmp_path):
        _place(tmp_path, "rep004_errors.py", "src/repro/errors.py")
        _place(tmp_path, "rep004_service_bad.py", "src/repro/service/handlers.py")
        report = run_lint(tmp_path, rule_ids=["REP004"])
        by_path = {f.path.rpartition("/")[2]: f for f in report.findings}
        assert len(report.findings) == 2
        assert "OrphanError" in by_path["errors.py"].message
        assert "RuntimeError" in by_path["handlers.py"].message

    def test_negative_taxonomy_raises_and_reraises(self, tmp_path):
        _place(tmp_path, "rep004_errors.py", "src/repro/errors.py")
        _place(tmp_path, "rep004_service_good.py", "src/repro/service/handlers.py")
        report = run_lint(tmp_path, rule_ids=["REP004"])
        findings = [f for f in report.findings if f.path.endswith("handlers.py")]
        assert findings == []

    def test_raises_outside_service_scope_are_ignored(self, tmp_path):
        _place(tmp_path, "rep004_errors.py", "src/repro/errors.py")
        _place(tmp_path, "rep004_service_bad.py", "src/repro/analysis/helpers.py")
        report = run_lint(tmp_path, rule_ids=["REP004"])
        findings = [f for f in report.findings if f.path.endswith("helpers.py")]
        assert findings == []


class TestREP005LockDiscipline:
    def test_positive_all_three_failure_modes(self, tmp_path):
        _place(tmp_path, "rep005_bad.py", "src/repro/service/pool.py")
        report = run_lint(tmp_path, rule_ids=["REP005"])
        messages = [f.message for f in report.findings]
        assert any("read without it in snapshot" in m for m in messages), messages
        assert any("mutated without it in drop" in m for m in messages), messages
        assert any("unprotected counter update Counter.misses" in m for m in messages)
        assert any("inconsistent lock order in Deadlocker" in m for m in messages)

    def test_negative_consistent_locking(self, tmp_path):
        _place(tmp_path, "rep005_good.py", "src/repro/service/pool.py")
        report = run_lint(tmp_path, rule_ids=["REP005"])
        assert _rules_of(report) == []

    def test_out_of_scope_modules_are_ignored(self, tmp_path):
        _place(tmp_path, "rep005_bad.py", "src/repro/analysis/counters.py")
        report = run_lint(tmp_path, rule_ids=["REP005"])
        assert _rules_of(report) == []


class TestREP006SchemaVersion:
    def test_positive_version_without_branch_or_test(self, tmp_path):
        _place(tmp_path, "rep006_bad.py", "src/repro/api/layout.py")
        report = run_lint(tmp_path, rule_ids=["REP006"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 2
        assert any("no SUPPORTED_*_VERSIONS migration branch" in m for m in messages)
        assert any("test_*migration*" in m for m in messages)

    def test_negative_branch_plus_migration_test(self, tmp_path):
        _place(tmp_path, "rep006_good.py", "src/repro/api/layout.py")
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_layout.py").write_text(
            "from repro.api.layout import SCHEMA_VERSION\n\n\n"
            "def test_layout_v1_migration():\n"
            "    assert SCHEMA_VERSION == 2\n"
        )
        report = run_lint(tmp_path, rule_ids=["REP006"])
        assert _rules_of(report) == []

    def test_version_one_is_exempt(self, tmp_path):
        module = tmp_path / "src/repro/api/layout.py"
        module.parent.mkdir(parents=True)
        module.write_text('"""v1."""\n\nFIELD_SCHEMA_VERSION = 1\n')
        report = run_lint(tmp_path, rule_ids=["REP006"])
        assert _rules_of(report) == []


class TestRuleMetadata:
    @pytest.mark.parametrize(
        "rule_id",
        ["REP001", "REP002", "REP004", "REP005", "REP006"],
    )
    def test_registered_with_severity_and_description(self, rule_id):
        from repro.lint import RULE_REGISTRY, all_rules

        assert len(all_rules()) >= 5
        rule = RULE_REGISTRY[rule_id]()
        assert rule.severity in ("error", "warning")
        assert rule.description
        assert rule.name
