"""Tests for the field-export CLI surface: ``repro export`` and
``simulate/run --export-field``."""

import json

import pytest

from repro.api import SimulationSpec
from repro.cli import main

FAST = [
    "--rows",
    "2",
    "--resolution",
    "tiny",
    "--nodes",
    "3",
    "--points-per-block",
    "4",
]


class TestSpecTemplate:
    def test_spec_without_flag_has_no_output_section(self, capsys):
        assert main(["spec", *FAST]) == 0
        spec = SimulationSpec.from_json(capsys.readouterr().out)
        assert spec.output is None

    def test_spec_with_flag_includes_output_section(self, capsys):
        assert main(["spec", *FAST, "--export-field"]) == 0
        spec = SimulationSpec.from_json(capsys.readouterr().out)
        assert spec.output is not None
        assert spec.output.formats == ("vtk", "npz")
        assert spec.output.z_planes % 2 == 1


class TestSimulateExportField:
    def test_simulate_writes_exports_and_prints_hotspots(self, tmp_path, capsys):
        export_dir = tmp_path / "exports"
        assert main(["simulate", *FAST, "--export-field", str(export_dir)]) == 0
        out = capsys.readouterr().out
        assert (export_dir / "case0_cli.vtk").exists()
        assert (export_dir / "case0_cli.npz").exists()
        hotspots = json.loads((export_dir / "hotspots.json").read_text())
        assert len(hotspots["cases"]["cli"]["hotspots"]) == 4
        assert "keep-out" in out  # the hotspot table was printed


class TestRunExportField:
    def test_run_injects_output_section_when_missing(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        assert SimulationSpec.from_json(spec_path.read_text()).output is None

        export_dir = tmp_path / "exports"
        assert main(["run", str(spec_path), "--export-field", str(export_dir)]) == 0
        assert (export_dir / "case0_cli.vtk").exists()
        assert (export_dir / "case0_cli.npz").exists()
        assert "keep-out" in capsys.readouterr().out

    def test_run_save_then_export_command(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "--export-field", "-o", str(spec_path)]) == 0
        results_dir = tmp_path / "results"
        assert main(["run", str(spec_path), "--save", str(results_dir)]) == 0
        capsys.readouterr()

        # Exports come straight from the archived fields (no re-solve).
        assert main(["export", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "re-solving" not in out
        assert (results_dir / "fields" / "case0_cli.vtk").exists()
        assert "keep-out" in out

    def test_export_resolves_archived_runs_without_fields(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        results_dir = tmp_path / "results"
        assert main(["run", str(spec_path), "--save", str(results_dir)]) == 0
        assert not (results_dir / "fields").exists()
        capsys.readouterr()

        out_dir = tmp_path / "exports"
        assert main(["export", str(results_dir), "-o", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "re-solving" in out
        assert (out_dir / "case0_cli.vtk").exists()
        assert (out_dir / "case0_cli.npz").exists()

    def test_export_format_selection(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "--export-field", "-o", str(spec_path)]) == 0
        results_dir = tmp_path / "results"
        assert main(["run", str(spec_path), "--save", str(results_dir)]) == 0
        out_dir = tmp_path / "npz-only"
        assert main(["export", str(results_dir), "-o", str(out_dir), "--format", "npz"]) == 0
        assert (out_dir / "case0_cli.npz").exists()
        assert not (out_dir / "case0_cli.vtk").exists()

    def test_export_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err

    def test_export_manifest_that_is_a_directory_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "manifest.json").mkdir()
        assert main(["export", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no manifest.json found in {tmp_path}\n"

    def test_export_zero_jobs_is_a_usage_error(self, tmp_path, capsys):
        assert main(["export", str(tmp_path), "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1, got 0\n"

    def test_export_output_that_is_a_file_is_a_usage_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep me")
        assert main(["export", str(tmp_path), "--output", str(target)]) == 2
        assert (
            capsys.readouterr().err
            == f"error: --output {target} exists and is not a directory\n"
        )
        assert target.read_text() == "keep me"


@pytest.mark.parametrize("flag_set", [["--export-field"]])
def test_spec_flag_round_trips_through_run(tmp_path, capsys, flag_set):
    """A template emitted with --export-field executes with field outputs."""
    spec_path = tmp_path / "with-output.json"
    assert main(["spec", *FAST, *flag_set, "-o", str(spec_path)]) == 0
    export_dir = tmp_path / "exports"
    assert main(["run", str(spec_path), "--export-field", str(export_dir)]) == 0
    assert (export_dir / "case0_cli.npz").exists()
