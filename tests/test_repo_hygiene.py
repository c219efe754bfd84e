"""Repository hygiene guards (mirrored by the CI ``lint-invariants`` job)."""

from __future__ import annotations

import ast
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


def _imported_modules(tree: ast.AST) -> set[str]:
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


def _mentions(tree: ast.AST, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == name for alias in node.names
        ):
            return True
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


class TestAllocationTracingStaysOffTheHotPath:
    """``tracemalloc`` hooks every allocation, so only the method comparisons
    (baselines and experiment drivers) may turn it on, via
    ``repro.utils.memory.PeakMemoryTracker``."""

    SOURCE = REPO_ROOT / "src" / "repro"

    def _trees(self):
        for path in sorted(self.SOURCE.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))

    def test_only_the_memory_module_imports_tracemalloc(self):
        importers = [
            path.relative_to(REPO_ROOT).as_posix()
            for path, tree in self._trees()
            if "tracemalloc" in _imported_modules(tree)
        ]
        assert importers == ["src/repro/utils/memory.py"]

    def test_hot_path_packages_never_use_the_tracker(self):
        offenders = [
            path.relative_to(REPO_ROOT).as_posix()
            for path, tree in self._trees()
            if path.relative_to(self.SOURCE).parts[0] in ("api", "rom", "service")
            and _mentions(tree, "PeakMemoryTracker")
        ]
        assert offenders == []


class TestNoPerRowTextWriters:
    """``np.savetxt`` formats and writes one row per Python call; exports
    write each array as one binary block through :mod:`repro.postprocess.vtk`
    instead."""

    def test_no_module_calls_savetxt(self):
        offenders = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "savetxt":
                    offenders.append(f"{path.relative_to(REPO_ROOT).as_posix()}:{node.lineno}")
        assert offenders == []


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


class TestFactorizationsGoThroughTheBackends:
    """Every sparse LU goes through ``FactorizedOperator``: its input
    validation, its error taxonomy and the benchmark tracer's span."""

    def test_splu_is_called_only_in_the_backends_module(self):
        callers = sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "src").rglob("*.py")
            if "splu(" in path.read_text()
        )
        assert callers == ["src/repro/fem/backends.py"]


class TestBundlesAreStored:
    """Bundles are written ``ZIP_STORED``: deflate cost more than any other
    layer of a cold ROM build, for a 2x smaller file."""

    def test_no_deflating_writer_under_src(self):
        offenders = sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "src").rglob("*.py")
            if any(
                word in path.read_text()
                for word in ("savez_compressed(", "ZIP_DEFLATED")
            )
        )
        assert offenders == []
