"""Tests for the service CLI (``repro serve``/``repro submit``) and for the
uniform ``--json`` envelope mode across the other subcommands."""

import json
from pathlib import Path

import pytest

from repro.analysis import ResultTable
from repro.api.envelope import ENVELOPE_VERSION, is_envelope
from repro.cli import _build_parser, main
from repro.service import JobServer
from repro.service.protocol import DEFAULT_PORT

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


class FakeResult:
    cases = ()
    num_case_groups = 1
    backends_used = ["fake"]
    local_stage_seconds = 0.0
    total_global_stage_seconds = 0.0
    rom_cache_stats = None

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text(
            json.dumps(
                {
                    "schema_version": ENVELOPE_VERSION,
                    "kind": "run_result",
                    "repro_version": "test",
                    "data": {
                        "spec_hash": "cafe",
                        "spec": {"name": "faked"},
                        "cases": [],
                    },
                }
            )
        )


class TestJsonEnvelopeMode:
    def test_simulate_bare_json_emits_envelope_only(self, capsys):
        assert main(["simulate", *FAST, "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)  # the whole stdout is one JSON document
        assert is_envelope(document)
        assert document["kind"] == "run_result"
        assert document["schema_version"] == ENVELOPE_VERSION
        assert document["data"]["spec_hash"]
        assert document["data"]["cases"][0]["peak_von_mises"] > 0

    def test_simulate_json_path_still_writes_flat_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        assert main(["simulate", *FAST, "--json", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "peak von Mises" in out  # human output kept in PATH mode
        flat = json.loads(manifest_path.read_text())
        assert not is_envelope(flat)  # historical flat shape
        assert "spec_hash" in flat

    def test_run_bare_json_matches_direct_manifest(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        assert main(["spec", *FAST, "-o", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "run_result"
        assert document["data"]["spec"]["mesh"]["resolution"] == "tiny"

    def test_export_json_envelope(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        saved = tmp_path / "saved"
        assert main(["spec", *FAST, "-o", str(spec_path), "--export-field"]) == 0
        assert main(["run", str(spec_path), "--save", str(saved)]) == 0
        capsys.readouterr()
        assert main(["export", str(saved), "--format", "npz", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "export"
        assert document["data"]["files"]
        assert document["data"]["spec_hash"]

    def test_table_json_envelope(self, capsys, monkeypatch):
        import repro.cli as cli

        table = ResultTable(columns=["case", "time"], title="Table 1 (faked)")
        table.add_row(case="2x2", time="0.1 s")
        monkeypatch.setattr(cli, "run_scenario1", lambda config, jobs=None: [])
        monkeypatch.setattr(cli, "scenario1_table", lambda records: table)
        assert main(["table1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "table"
        assert document["data"]["title"] == "Table 1 (faked)"
        assert document["data"]["rows"] == [{"case": "2x2", "time": "0.1 s"}]


class TestServeParser:
    def test_serve_defaults(self):
        args = _build_parser().parse_args(["serve"])
        assert args.port == DEFAULT_PORT
        assert args.store == "service-data"
        assert args.max_queued == 256
        assert args.json_path is None

    def test_submit_defaults(self):
        args = _build_parser().parse_args(["submit", "spec.json"])
        assert args.url == f"http://127.0.0.1:{DEFAULT_PORT}"
        assert args.timeout == 600.0
        assert not args.no_wait


@pytest.fixture()
def live_server(tmp_path):
    def run_fn(spec, rom_cache=None, progress=None):
        return FakeResult()

    with JobServer(tmp_path / "store", workers=1, run_fn=run_fn) as server:
        yield server


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    assert main(["spec", *FAST, "-o", str(path)]) == 0
    return path


class TestSubmitCommand:
    def test_submit_waits_and_prints_summary(self, live_server, spec_file, capsys):
        capsys.readouterr()
        rc = main(["submit", str(spec_file), "--url", live_server.url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job               :" in out
        assert "(cafe)" in out  # the served manifest's spec hash

    def test_submit_json_emits_result_envelope(self, live_server, spec_file, capsys):
        capsys.readouterr()
        rc = main(["submit", str(spec_file), "--url", live_server.url, "--json"])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "run_result"
        assert document["data"]["spec_hash"] == "cafe"

    def test_submit_no_wait_returns_job_envelope(self, live_server, spec_file, capsys):
        capsys.readouterr()
        rc = main(
            ["submit", str(spec_file), "--url", live_server.url, "--no-wait", "--json"]
        )
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "job"
        assert document["data"]["job"]["state"] in ("queued", "running", "done")

    def test_submit_missing_spec_file_is_usage_error(self, live_server, capsys):
        rc = main(["submit", "no-such.json", "--url", live_server.url])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_submit_directory_spec_path_is_usage_error(self, tmp_path, capsys):
        rc = main(["submit", str(tmp_path), "--url", "http://127.0.0.1:1"])
        assert rc == 2
        assert f"spec file {tmp_path} does not exist" in capsys.readouterr().err

    def test_submit_unreachable_server_fails_cleanly(self, spec_file, capsys):
        rc = main(["submit", str(spec_file), "--url", "http://127.0.0.1:1", "--json"])
        assert rc == 1
        document = json.loads(capsys.readouterr().out)
        assert document["error"]["code"] == "job_error"

    def test_submit_reports_failed_job(self, tmp_path, spec_file, capsys):
        def run_fn(spec, rom_cache=None, progress=None):
            raise RuntimeError("solver exploded")

        with JobServer(tmp_path / "store-f", workers=1, run_fn=run_fn) as server:
            capsys.readouterr()
            rc = main(["submit", str(spec_file), "--url", server.url])
            captured = capsys.readouterr()
        assert rc == 1
        assert "failed" in captured.err
