"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLIInfo:
    def test_info_lists_materials_and_presets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "silicon" in out and "copper" in out
        assert "coarse" in out
        assert "n = 168" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCLISimulate:
    def test_small_simulation(self, capsys):
        code = main(
            [
                "simulate",
                "--rows",
                "2",
                "--pitch",
                "15",
                "--resolution",
                "tiny",
                "--nodes",
                "3",
                "--points-per-block",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak von Mises" in out
        assert "2x2 TSVs" in out

    def test_rectangular_array_and_custom_load(self, capsys):
        code = main(
            [
                "simulate",
                "--rows",
                "1",
                "--cols",
                "2",
                "--delta-t",
                "-100",
                "--resolution",
                "tiny",
                "--nodes",
                "3",
                "--points-per-block",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1x2 TSVs" in out
        assert "-100 degC" in out

    def test_invalid_resolution_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--resolution", "galactic"])


class TestCLIParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])


class TestCLISolverBackendAndJobs:
    def test_simulate_with_jobs_and_backend(self, capsys):
        code = main(
            [
                "simulate",
                "--rows",
                "2",
                "--resolution",
                "tiny",
                "--nodes",
                "3",
                "--points-per-block",
                "5",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert "peak von Mises" in capsys.readouterr().out

    def test_unknown_backend_rejected_by_parser(self):
        # The retired flag is a usage error: solver.method is the one solver choice.
        for value in ("petsc", "direct-splu"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--solver-backend", value])
            assert exc.value.code == 2

    def test_invalid_jobs_rejected(self, capsys):
        code = main(
            [
                "simulate",
                "--rows",
                "1",
                "--resolution",
                "tiny",
                "--nodes",
                "3",
                "--jobs",
                "0",
            ]
        )
        assert code == 2
        assert "error: jobs must be >= 1" in capsys.readouterr().err
