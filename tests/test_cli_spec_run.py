"""Tests for the spec-driven CLI surface: ``repro spec``, ``repro run``,
``--material`` overrides, ``--json`` manifests and the table ``--preset`` flag."""

import json
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, SimulationSpec
from repro.cli import main

FAST = [
    "--rows",
    "1",
    "--resolution",
    "tiny",
    "--nodes",
    "3",
    "--points-per-block",
    "5",
]


class TestSpecCommand:
    def test_spec_emits_valid_document_to_stdout(self, capsys):
        assert main(["spec", *FAST]) == 0
        out = capsys.readouterr().out
        spec = SimulationSpec.from_json(out)
        assert spec.geometry.rows == 1
        assert spec.mesh.resolution == "tiny"

    def test_spec_writes_file_and_run_executes_it(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "peak von Mises" in out
        assert "execution groups  : 1" in out

    def test_spec_records_material_overrides(self, capsys):
        assert main(["spec", *FAST, "--material", "copper:120,0.34,16.5"]) == 0
        spec = SimulationSpec.from_json(capsys.readouterr().out)
        assert spec.materials.overrides[0].role == "copper"
        assert spec.materials.overrides[0].young_modulus_gpa == 120.0


class TestSimulateMaterials:
    def test_material_override_changes_the_result(self, capsys):
        assert main(["simulate", *FAST]) == 0
        baseline = capsys.readouterr().out
        assert main(["simulate", *FAST, "--material", "copper:220,0.30,25"]) == 0
        overridden = capsys.readouterr().out

        def peak(output: str) -> float:
            line = next(
                row for row in output.splitlines() if "peak von Mises" in row
            )
            return float(line.split(":")[1].replace("MPa", "").strip())

        assert peak(baseline) != peak(overridden)

    def test_malformed_material_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", *FAST, "--material", "copper=120"])
        with pytest.raises(SystemExit):
            main(["simulate", *FAST, "--material", "copper:banana,0.3,17"])
        with pytest.raises(SystemExit):
            main(["simulate", *FAST, "--material", "kryptonite:100,0.3,17"])

    def test_duplicate_material_role_is_a_clean_error(self, capsys):
        code = main(
            [
                "simulate",
                *FAST,
                "--material",
                "copper:120,0.34,16.5",
                "--material",
                "copper:110,0.35,17",
            ]
        )
        assert code == 2
        assert "overridden twice" in capsys.readouterr().err


class TestJsonManifest:
    def test_simulate_json_manifest_reloads(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        assert main(["simulate", *FAST, "--json", str(manifest_path)]) == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["num_case_groups"] == 1
        # the embedded spec is itself a loadable document...
        spec = SimulationSpec.from_dict(manifest["spec"])
        # ...and the hash proves which spec produced this result
        assert manifest["spec_hash"] == spec.spec_hash()
        assert manifest["cases"][0]["peak_von_mises"] > 0.0

    def test_run_json_manifest_reloads(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        manifest_path = tmp_path / "manifest.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        assert main(["run", str(spec_path), "--json", str(manifest_path)]) == 0
        manifest = json.loads(manifest_path.read_text())
        assert SimulationSpec.from_dict(manifest["spec"]).geometry.rows == 1
        assert manifest["backends_used"]

    def test_run_save_directory_reloads(self, tmp_path, capsys):
        from repro.api import RunResult

        spec_path = tmp_path / "spec.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        out_dir = tmp_path / "result"
        assert main(["run", str(spec_path), "--save", str(out_dir)]) == 0
        loaded = RunResult.load(out_dir)
        assert loaded.cases[0].von_mises.shape == (1, 1, 5, 5)


class TestRunExampleSpecs:
    """The shipped example specs execute end to end through ``repro run``."""

    EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"

    def test_load_sweep_spec_batches(self, capsys):
        assert main(["run", str(self.EXAMPLES / "load_sweep.json")]) == 0
        out = capsys.readouterr().out
        # three same-layout loads share one K_ff; the extra 5x5 case is its
        # own group; every case is a GMRES solve, as the spec asks
        assert "execution groups  : 2" in out
        assert out.count("(gmres)") == 4

    def test_submodel_spec_runs(self, capsys):
        assert main(["run", str(self.EXAMPLES / "submodel.json")]) == 0
        out = capsys.readouterr().out
        assert "at loc1" in out and "at loc3" in out


class TestRunErrors:
    def test_missing_spec_file(self, capsys):
        assert main(["run", "/nonexistent/spec.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_spec_file_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"geometry": {"pitch": -1.0}}))
        assert main(["run", str(bad)]) == 2
        assert "pitch" in capsys.readouterr().err

    def test_directory_spec_path_is_a_usage_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert f"spec file {tmp_path} does not exist" in capsys.readouterr().err

    @staticmethod
    def _spec_file(tmp_path: Path, capsys) -> Path:
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        capsys.readouterr()
        return spec_path

    def test_zero_jobs_is_a_usage_error(self, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, capsys)
        assert main(["run", str(spec_path), "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: jobs must be >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--save", "--export-field"])
    def test_output_directory_that_is_a_file_is_a_usage_error(self, flag, tmp_path, capsys):
        spec_path = self._spec_file(tmp_path, capsys)
        target = tmp_path / "taken"
        target.write_text("keep me")
        assert main(["run", str(spec_path), flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} {target} exists and is not a directory\n"
        # Rejected before any work: nothing solved, nothing written.
        assert captured.out == ""
        assert target.read_text() == "keep me"


class TestOutOfRangeFlags:
    """An out-of-range flag is a usage error (exit 2), never a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "spec"])
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--rows", "0", "rows"),
            ("--nodes", "1", "nodes_per_axis"),
            ("--pitch", "nan", "pitch"),
            ("--points-per-block", "0", "points_per_block"),
            ("--jobs", "0", "jobs"),
        ],
    )
    def test_flag_rejected_with_exit_2(self, command, flag, value, field, capsys):
        assert main([command, *FAST, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    def test_table_zero_jobs_rejected_with_exit_2(self, table, capsys):
        assert main([table, "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: jobs must be >= 1, got 0\n"
        assert captured.out == ""


class TestTablePresets:
    @pytest.mark.parametrize("table", ["table2", "table3"])
    def test_medium_rejected_where_missing(self, table, capsys):
        assert main([table, "--preset", "medium"]) == 2
        err = capsys.readouterr().err
        assert "medium" in err and "preset" in err

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["table1", "--preset", "galactic"])
