"""Tests for the unified error taxonomy (``repro.errors``) and the
schema-versioned response envelope (``repro.api.envelope``)."""

import pytest

from repro.errors import (
    ERROR_CLASSES_BY_CODE,
    CircuitOpenError,
    CorruptArtifactError,
    JobCancelledError,
    JobError,
    JobNotFoundError,
    JobQueueFullError,
    JobStateError,
    JobTimeoutError,
    ReproError,
    SpecConflictError,
    SpecError,
    ValidationError,
    WorkerStalledError,
    error_envelope,
    error_from_envelope,
    http_status_for,
)
from repro.api.envelope import (
    ENVELOPE_KINDS,
    ENVELOPE_VERSION,
    SUPPORTED_ENVELOPE_VERSIONS,
    is_envelope,
    unwrap,
    wrap,
)


class TestTaxonomy:
    def test_everything_derives_from_repro_error(self):
        for cls in ERROR_CLASSES_BY_CODE.values():
            assert issubclass(cls, ReproError)

    def test_validation_errors_stay_value_errors(self):
        # Historical call sites say `except ValueError` — keep them working.
        assert issubclass(ValidationError, ValueError)
        assert issubclass(SpecError, ValueError)

    def test_job_errors_are_not_value_errors(self):
        assert not issubclass(JobError, ValueError)

    def test_codes_are_unique_and_stable(self):
        expected = {
            "internal_error": ReproError,
            "validation_error": ValidationError,
            "invalid_spec": SpecError,
            "job_error": JobError,
            "job_not_found": JobNotFoundError,
            "job_state": JobStateError,
            "spec_conflict": SpecConflictError,
            "queue_full": JobQueueFullError,
            "job_timeout": JobTimeoutError,
            "job_cancelled": JobCancelledError,
            "corrupt_artifact": CorruptArtifactError,
            "worker_stalled": WorkerStalledError,
            "circuit_open": CircuitOpenError,
        }
        assert ERROR_CLASSES_BY_CODE == expected

    def test_http_status_mapping(self):
        assert http_status_for(SpecError("x")) == 400
        assert http_status_for(JobNotFoundError("x")) == 404
        assert http_status_for(JobStateError("x")) == 409
        assert http_status_for(SpecConflictError("x")) == 409
        assert http_status_for(JobCancelledError("x")) == 409
        assert http_status_for(JobQueueFullError("x")) == 429
        assert http_status_for(ReproError("x")) == 500
        assert http_status_for(CorruptArtifactError("x")) == 500
        assert http_status_for(CircuitOpenError("x")) == 503
        assert http_status_for(JobTimeoutError("x")) == 504
        assert http_status_for(WorkerStalledError("x")) == 504
        # Non-taxonomy exceptions degrade to 500.
        assert http_status_for(RuntimeError("x")) == 500

    def test_reliability_errors_round_trip_with_stable_codes(self):
        # The wire contract of the self-healing layer: each new class keeps
        # its code across envelope encode/decode and rebuilds typed.
        for cls, code in (
            (CorruptArtifactError, "corrupt_artifact"),
            (WorkerStalledError, "worker_stalled"),
            (CircuitOpenError, "circuit_open"),
        ):
            original = cls("why it failed", detail={"spec_hash": "abc"})
            envelope = error_envelope(original)
            assert envelope["error"]["code"] == code
            rebuilt = error_from_envelope(envelope)
            assert type(rebuilt) is cls
            assert rebuilt.message == "why it failed"
            assert rebuilt.detail == {"spec_hash": "abc"}
            assert rebuilt.http_status == original.http_status

    def test_legacy_import_paths_are_aliases(self):
        from repro.api import SpecError as api_spec_error
        from repro.api.spec import SpecError as spec_module_error
        from repro.utils.validation import ValidationError as validation_error

        assert api_spec_error is SpecError
        assert spec_module_error is SpecError
        assert validation_error is ValidationError

    def test_top_level_exports(self):
        import repro

        assert repro.ReproError is ReproError
        assert repro.SpecError is SpecError
        assert repro.ValidationError is ValidationError


class TestErrorEnvelope:
    def test_envelope_shape(self):
        envelope = error_envelope(SpecError("bad field", detail={"path": "spec.rows"}))
        assert envelope == {
            "error": {
                "code": "invalid_spec",
                "message": "bad field",
                "detail": {"path": "spec.rows"},
            }
        }

    def test_foreign_exception_degrades_to_internal_error(self):
        envelope = error_envelope(RuntimeError("boom"))
        assert envelope["error"]["code"] == "internal_error"
        assert envelope["error"]["message"] == "boom"
        assert envelope["error"]["detail"] == {"exception_type": "RuntimeError"}

    def test_round_trip_rebuilds_the_typed_class(self):
        for cls in ERROR_CLASSES_BY_CODE.values():
            original = cls("something happened", detail={"k": 1})
            rebuilt = error_from_envelope(error_envelope(original))
            assert type(rebuilt) is cls
            assert rebuilt.message == "something happened"
            assert rebuilt.detail == {"k": 1}

    def test_unknown_code_degrades_gracefully(self):
        rebuilt = error_from_envelope(
            {"error": {"code": "from_the_future", "message": "hi", "detail": None}}
        )
        assert type(rebuilt) is ReproError
        assert rebuilt.detail["code"] == "from_the_future"

    def test_retired_backend_unavailable_code_degrades_to_base(self):
        # An older server may still send the code of the removed BackendError.
        rebuilt = error_from_envelope(
            {
                "error": {
                    "code": "backend_unavailable",
                    "message": "no such backend",
                    "detail": {"backend": "cholmod"},
                }
            }
        )
        assert type(rebuilt) is ReproError
        assert rebuilt.message == "no such backend"
        assert rebuilt.detail == {"code": "backend_unavailable", "detail": {"backend": "cholmod"}}

    def test_malformed_envelope_degrades_gracefully(self):
        rebuilt = error_from_envelope({"nonsense": True})
        assert isinstance(rebuilt, ReproError)


class TestResponseEnvelope:
    def test_wrap_shape(self):
        document = wrap("health", {"status": "ok"})
        assert document["schema_version"] == ENVELOPE_VERSION
        assert document["kind"] == "health"
        assert document["data"] == {"status": "ok"}
        assert isinstance(document["repro_version"], str)
        assert is_envelope(document)

    def test_wrap_rejects_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown kind"):
            wrap("teapot", {})

    def test_unwrap_round_trip(self):
        payload = {"alpha": 1, "beta": [1, 2, 3]}
        assert unwrap(wrap("table", payload), expected_kind="table") == payload

    def test_unwrap_checks_expected_kind(self):
        with pytest.raises(SpecError, match="expected 'run_result'"):
            unwrap(wrap("health", {}), expected_kind="run_result")

    def test_unwrap_reads_legacy_flat_manifests(self):
        # Envelope versions 1 and 2 were flat RunResult manifests.
        for version in (1, 2):
            legacy = {"schema_version": version, "spec_hash": "abc123", "cases": []}
            assert unwrap(legacy, expected_kind="run_result") == legacy

    def test_unwrap_rejects_unsupported_versions(self):
        with pytest.raises(SpecError, match="unsupported version"):
            unwrap({"schema_version": 99, "kind": "health", "data": {}})
        with pytest.raises(SpecError, match="unsupported version"):
            unwrap({"spec_hash": "abc"})  # no version at all

    def test_unwrap_rejects_non_objects(self):
        with pytest.raises(SpecError, match="expected a JSON object"):
            unwrap([1, 2, 3])

    def test_error_responses_are_not_envelopes(self):
        # Clients classify a response by its single top-level "error" key.
        assert not is_envelope(error_envelope(SpecError("x")))
        assert "run_result" in ENVELOPE_KINDS
        assert set(SUPPORTED_ENVELOPE_VERSIONS) == {1, 2, 3}


class TestRunResultEnvelope:
    def test_save_writes_envelope_and_load_reads_it(self, tmp_path):
        from repro.api import RunResult, SimulationSpec, run
        from repro.utils.serialization import load_json

        spec = SimulationSpec.from_dict(
            {
                "geometry": {"rows": 1},
                "mesh": {
                    "resolution": "tiny",
                    "nodes_per_axis": [3, 3, 3],
                    "points_per_block": 5,
                },
            }
        )
        result = run(spec)
        result.save(tmp_path / "out")

        document = load_json(tmp_path / "out" / "manifest.json")
        assert is_envelope(document)
        assert document["kind"] == "run_result"
        assert document["data"] == result.envelope()["data"]

        loaded = RunResult.load(tmp_path / "out")
        assert loaded.manifest() == result.manifest()

    def test_load_still_reads_legacy_flat_manifests(self, tmp_path):
        from repro.api import RunResult, SimulationSpec, run
        from repro.utils.serialization import dump_json

        spec = SimulationSpec.from_dict(
            {
                "geometry": {"rows": 1},
                "mesh": {
                    "resolution": "tiny",
                    "nodes_per_axis": [3, 3, 3],
                    "points_per_block": 5,
                },
            }
        )
        result = run(spec)
        result.save(tmp_path / "out")
        # Rewrite the manifest the way versions 1/2 of the package did: flat.
        dump_json(tmp_path / "out" / "manifest.json", result.manifest())

        loaded = RunResult.load(tmp_path / "out")
        assert loaded.spec_hash == result.spec_hash
