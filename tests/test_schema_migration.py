"""Migration tests for the schema-versioned surfaces (REP006 evidence).

Two literals promise backwards compatibility: ``SCHEMA_VERSION`` in
``repro.api.spec`` (spec documents) and ``ENVELOPE_VERSION`` in
``repro.api.envelope`` (response envelopes / persisted manifests).  These
tests load documents written by the *older* supported versions and assert
the migration branches actually work — the REP006 lint rule fails the build
if the literals move without tests like these keeping up.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.envelope import (
    ENVELOPE_VERSION,
    SUPPORTED_ENVELOPE_VERSIONS,
    unwrap,
    wrap,
)
from repro.api.result import CaseResult, RunResult
from repro.api.spec import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SimulationSpec,
)
from repro.errors import SpecError


def _spec_document(version: int) -> dict:
    """A spec document of ``version`` without ``solver.array_backend``."""
    document = SimulationSpec().to_dict()
    document["schema_version"] = version
    del document["solver"]["array_backend"]
    if version < 3:
        del document["solver"]["shard"]
    return document


def _v1_spec_document() -> dict:
    """A spec document as the version-1 layout wrote it.

    Version 1 predates the array-backend and shard fields: its solver
    section has neither ``array_backend`` nor ``shard``.
    """
    return _spec_document(1)


def _v2_spec_document() -> dict:
    """Version 2 added ``array_backend`` but not ``shard``."""
    document = _spec_document(2)
    document["solver"]["array_backend"] = "numpy"
    return document


class TestSpecMigration:
    def test_migration_branch_exists(self):
        # The guarantee REP006 enforces: the current version is supported
        # and at least one older version still has a read path.
        assert SCHEMA_VERSION in SUPPORTED_SCHEMA_VERSIONS
        assert any(v < SCHEMA_VERSION for v in SUPPORTED_SCHEMA_VERSIONS)

    def test_current_version_and_supported_set(self):
        assert SCHEMA_VERSION == 3
        assert set(SUPPORTED_SCHEMA_VERSIONS) == {1, 2, 3}
        assert SimulationSpec().to_dict()["schema_version"] == 3

    def test_v1_document_migration(self):
        spec = SimulationSpec.from_dict(_v1_spec_document())
        # Fields that post-date v1 come back as their defaults.
        assert spec.to_dict()["solver"]["shard"] is None
        # Re-serializing writes the *current* version: migration is one-way.
        assert spec.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_v2_document_migration(self):
        spec = SimulationSpec.from_dict(_v2_spec_document())
        assert spec.to_dict()["solver"]["shard"] is None
        assert spec.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_migrated_spec_solves_the_same_hash_space(self):
        # A migrated v1 document and a natively-built spec of the same
        # parameters must agree on identity (hash), or dedup would split.
        migrated = SimulationSpec.from_dict(_v1_spec_document())
        native = SimulationSpec()
        assert migrated.spec_hash() == native.spec_hash()

    def test_unsupported_version_fails_with_migration_pointer(self):
        document = SimulationSpec().to_dict()
        document["schema_version"] = 99
        with pytest.raises(SpecError) as excinfo:
            SimulationSpec.from_dict(document)
        message = str(excinfo.value)
        assert "schema_version" in message
        assert "99" in message
        assert str(list(SUPPORTED_SCHEMA_VERSIONS)) in message


class TestRetiredArrayBackendField:
    """``solver.array_backend`` is numpy-only: written as a constant, ignored on input."""

    @pytest.mark.parametrize("value", ["numpy", "np"])
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_numpy_value_loads_and_hashes_as_absent(self, version, value):
        document = _spec_document(version)
        document["solver"]["array_backend"] = value
        spec = SimulationSpec.from_dict(document)
        without = SimulationSpec.from_dict(_spec_document(version))
        assert spec == without
        assert spec.spec_hash() == without.spec_hash()

    @pytest.mark.parametrize("value", ["torch", "cupy", "bogus", 1])
    def test_other_values_rejected_naming_the_field(self, value):
        document = _v2_spec_document()
        document["solver"]["array_backend"] = value
        with pytest.raises(SpecError, match=r"solver\.array_backend"):
            SimulationSpec.from_dict(document)

    def test_field_is_written_as_numpy(self):
        # Documents and spec hashes stay what builds with the field wrote.
        assert SimulationSpec().to_dict()["solver"]["array_backend"] == "numpy"
        spec = SimulationSpec.from_dict(_v2_spec_document())
        assert spec.to_dict() == SimulationSpec().to_dict()


class TestRetiredShardField:
    """``solver.shard`` is gone: written as ``null``, only ``null`` loads."""

    def test_null_loads_and_hashes_as_absent(self):
        document = _spec_document(3)
        assert document["solver"]["shard"] is None
        spec = SimulationSpec.from_dict(document)
        del document["solver"]["shard"]
        without = SimulationSpec.from_dict(document)
        assert spec == without == SimulationSpec()
        assert spec.spec_hash() == without.spec_hash()

    @pytest.mark.parametrize(
        "value",
        [{"grid": [2, 2]}, {"memory_budget_bytes": 1 << 30}, {}, True, 0, "4x4"],
    )
    def test_other_values_rejected_naming_the_field(self, value):
        document = _spec_document(3)
        document["solver"]["shard"] = value
        with pytest.raises(SpecError, match=r"spec\.solver\.shard") as excinfo:
            SimulationSpec.from_dict(document)
        assert "removed" in str(excinfo.value)

    def test_field_is_written_as_null(self):
        assert SimulationSpec().to_dict()["solver"]["shard"] is None

    def test_example_spec_hash_is_unchanged(self):
        # The hash every saved run of this example carries.
        path = Path(__file__).resolve().parents[1] / "examples/specs/load_sweep.json"
        spec = SimulationSpec.from_json(path.read_text())
        assert spec.spec_hash() == "72b93fd14aca8c83c3f1"


class TestRunManifestMigration:
    _VON_MISES = np.arange(8.0).reshape(1, 2, 2, 2)

    @classmethod
    def _saved(cls, directory) -> tuple[RunResult, dict]:
        """Save a one-case result; return it and its manifest document."""
        result = RunResult(
            spec=SimulationSpec(),
            cases=(
                CaseResult(
                    name="cooldown",
                    delta_t=-250.0,
                    rows=1,
                    cols=2,
                    location=None,
                    von_mises=cls._VON_MISES,
                    num_global_dofs=42,
                    local_stage_seconds=1.0,
                    global_stage_seconds=0.5,
                    peak_memory_bytes=1024,
                    solver_method="gmres",
                    group=0,
                ),
            ),
            num_case_groups=1,
        )
        result.save(directory)
        document = json.loads((directory / "manifest.json").read_text())
        assert document["schema_version"] == ENVELOPE_VERSION
        return result, document

    def _assert_loads_as(self, directory, result: RunResult) -> None:
        loaded = RunResult.load(directory)
        assert loaded.spec == result.spec
        assert loaded.spec_hash == result.spec_hash
        np.testing.assert_array_equal(loaded.cases[0].von_mises, self._VON_MISES)
        assert loaded.manifest() == result.manifest()

    def test_manifest_with_array_backend_entry_round_trips(self, tmp_path):
        # Builds that carried the array-backend layer also wrote a
        # requested/resolved record into the manifest.
        result, document = self._saved(tmp_path)
        assert "array_backend" not in document["data"]
        document["data"]["array_backend"] = {"requested": "numpy", "resolved": "numpy"}
        (tmp_path / "manifest.json").write_text(json.dumps(document))
        self._assert_loads_as(tmp_path, result)

    def test_manifest_with_per_case_shard_entry_loads(self, tmp_path):
        # Builds with the out-of-core global stage wrote a per-case "shard"
        # record (null on monolithic runs); it is ignored on load.
        result, document = self._saved(tmp_path)
        case = document["data"]["cases"][0]
        assert "shard" not in case
        case["shard"] = {"grid": [2, 2]}
        (tmp_path / "manifest.json").write_text(json.dumps(document))
        self._assert_loads_as(tmp_path, result)


class TestEnvelopeMigration:
    def test_migration_branch_exists(self):
        assert ENVELOPE_VERSION in SUPPORTED_ENVELOPE_VERSIONS
        assert any(v < ENVELOPE_VERSION for v in SUPPORTED_ENVELOPE_VERSIONS)

    @pytest.mark.parametrize("legacy_version", [1, 2])
    def test_legacy_flat_manifest_migration(self, legacy_version):
        # Envelope versions 1 and 2 wrote RunResult manifests *flat*: the
        # payload fields live at the top level next to schema_version, and
        # the document is recognised by its spec_hash.
        legacy = {
            "schema_version": legacy_version,
            "spec_hash": "abc123",
            "cases": [{"name": "cooldown", "peak_von_mises": 1.0}],
        }
        data = unwrap(legacy, expected_kind="run_result")
        assert data["spec_hash"] == "abc123"
        assert data["cases"][0]["name"] == "cooldown"

    def test_current_envelope_round_trip(self):
        document = wrap("run_result", {"spec_hash": "abc123", "cases": []})
        assert document["schema_version"] == ENVELOPE_VERSION
        data = unwrap(document, expected_kind="run_result")
        assert data == {"spec_hash": "abc123", "cases": []}

    def test_unsupported_envelope_version_fails(self):
        document = wrap("run_result", {"spec_hash": "x"})
        document["schema_version"] = 99
        with pytest.raises(SpecError):
            unwrap(document)
