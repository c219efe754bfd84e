"""Unit tests for the npz bundle serialization helpers."""

import json
import zipfile

import numpy as np
import pytest

from repro.errors import CorruptArtifactError
from repro.faults import FaultPlan, SimulatedCrashError, injected_faults
from repro.utils import serialization
from repro.utils.serialization import (
    CHECKSUM_KEY,
    QUARANTINE_DIRNAME,
    atomic_write_bytes,
    count_quarantined,
    dump_json,
    load_json,
    load_npz_bundle,
    quarantine_file,
    save_npz_bundle,
    verify_checksum,
    with_checksum,
)


class TestNpzBundle:
    def test_roundtrip_arrays_and_metadata(self, tmp_path):
        arrays = {
            "matrix": np.arange(12, dtype=float).reshape(3, 4),
            "ints": np.array([1, 2, 3]),
        }
        metadata = {"name": "rom", "nodes": [4, 4, 4], "pitch": 15.0}
        path = save_npz_bundle(tmp_path / "bundle", arrays, metadata)
        assert path.suffix == ".npz"

        loaded_arrays, loaded_metadata = load_npz_bundle(path)
        np.testing.assert_allclose(loaded_arrays["matrix"], arrays["matrix"])
        np.testing.assert_array_equal(loaded_arrays["ints"], arrays["ints"])
        assert loaded_metadata == {"name": "rom", "nodes": [4, 4, 4], "pitch": 15.0}

    def test_load_accepts_path_without_suffix(self, tmp_path):
        save_npz_bundle(tmp_path / "data", {"x": np.ones(3)}, {})
        arrays, _ = load_npz_bundle(tmp_path / "data")
        assert "x" in arrays

    def test_empty_metadata_roundtrip(self, tmp_path):
        path = save_npz_bundle(tmp_path / "nometa", {"x": np.zeros(2)})
        _, metadata = load_npz_bundle(path)
        assert metadata == {}

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_npz_bundle(tmp_path / "bad", {"__metadata_json__": np.zeros(1)}, {})

    def test_creates_parent_directories(self, tmp_path):
        path = save_npz_bundle(tmp_path / "deep" / "nested" / "file", {"x": np.ones(1)}, {})
        assert path.exists()

    def test_bundle_detects_flipped_bytes(self, tmp_path):
        path = save_npz_bundle(tmp_path / "b", {"x": np.arange(4.0)}, {"k": 1})
        # Re-save with a changed array but the *old* metadata digest.
        _, metadata = load_npz_bundle(path)
        arrays = {"x": np.arange(4.0) + 1.0}
        meta = dict(metadata)
        meta[CHECKSUM_KEY] = serialization._arrays_digest({"x": np.arange(4.0)}, meta)
        meta_json = json.dumps(meta, sort_keys=True)
        payload = dict(arrays)
        payload["__metadata_json__"] = np.frombuffer(
            meta_json.encode("utf-8"), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            load_npz_bundle(path)
        arrays_unverified, _ = load_npz_bundle(path, verify=False)
        np.testing.assert_allclose(arrays_unverified["x"], np.arange(4.0) + 1.0)

    def test_members_are_stored_uncompressed(self, tmp_path):
        path = save_npz_bundle(
            tmp_path / "b", {"x": np.arange(64.0), "ints": np.arange(5)}, {"k": 1}
        )
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == [
            "__metadata_json__.npy", "ints.npy", "x.npy",
        ]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_deflated_bundle_still_loads_and_verifies(self, tmp_path, monkeypatch):
        # Bundles used to be written deflated: np.savez_compressed over the
        # arrays plus a metadata blob carrying their content digest.
        arrays = {"basis": np.linspace(0.0, 1.0, 50).reshape(5, 10), "ids": np.arange(7)}
        meta = {"name": "rom", "nodes": [3, 3, 3]}
        meta[CHECKSUM_KEY] = serialization._arrays_digest(arrays, meta)
        payload = dict(arrays)
        payload["__metadata_json__"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        path = tmp_path / "deflated.npz"
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        with zipfile.ZipFile(path) as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_DEFLATED}

        digests = []
        original = serialization._arrays_digest

        def counting_digest(*args, **kwargs):
            digests.append(original(*args, **kwargs))
            return digests[-1]

        monkeypatch.setattr(serialization, "_arrays_digest", counting_digest)
        loaded, loaded_meta = load_npz_bundle(path)
        assert digests == [meta[CHECKSUM_KEY]]  # verified, and it matched
        assert loaded_meta == {"name": "rom", "nodes": [3, 3, 3]}
        for name, value in arrays.items():
            assert np.array_equal(loaded[name], value)

    def test_no_temp_files_left_behind(self, tmp_path):
        save_npz_bundle(tmp_path / "a", {"x": np.ones(2)}, {})
        dump_json(tmp_path / "d.json", {"k": 1})
        assert list(tmp_path.glob(".tmp-*")) == []


class TestChecksums:
    def test_json_checksum_round_trip(self, tmp_path):
        path = dump_json(tmp_path / "doc.json", {"a": 1, "b": [2, 3]}, checksum=True)
        raw = json.loads(path.read_text())
        assert CHECKSUM_KEY in raw
        assert load_json(path) == {"a": 1, "b": [2, 3]}

    def test_json_corruption_detected(self, tmp_path):
        path = dump_json(tmp_path / "doc.json", {"a": 1}, checksum=True)
        raw = json.loads(path.read_text())
        raw["a"] = 2  # flip a value; keep the recorded digest
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            load_json(path)

    def test_legacy_documents_pass_through(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"plain": True}))
        assert load_json(path) == {"plain": True}
        assert verify_checksum([1, 2, 3]) == [1, 2, 3]
        assert verify_checksum({"no": "digest"}) == {"no": "digest"}

    def test_with_checksum_verify_round_trip(self):
        document = with_checksum({"x": 1})
        assert verify_checksum(dict(document)) == {"x": 1}


class TestQuarantine:
    def test_quarantine_moves_file_with_reason_sidecar(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("garbage")
        target = quarantine_file(victim, "test corruption")
        assert not victim.exists()
        assert target is not None
        assert target.parent.name == QUARANTINE_DIRNAME
        sidecar = target.with_name(target.name + ".reason.json")
        record = json.loads(sidecar.read_text())
        assert record["reason"] == "test corruption"
        assert count_quarantined(tmp_path) == 1

    def test_count_quarantined_is_recursive_and_skips_sidecars(self, tmp_path):
        for sub in ("a", "b/c"):
            victim = tmp_path / sub / "bad.bin"
            victim.parent.mkdir(parents=True, exist_ok=True)
            victim.write_bytes(b"x")
            quarantine_file(victim, "r")
        assert count_quarantined(tmp_path) == 2
        assert count_quarantined(tmp_path / "missing") == 0

    def test_quarantine_of_missing_file_returns_none(self, tmp_path):
        assert quarantine_file(tmp_path / "never-existed", "r") is None


class TestInjectedWriteFaults:
    def test_torn_write_truncates_but_lands(self, tmp_path):
        plan = FaultPlan(rules=({"site": "unit.write", "kind": "torn_write", "nth": 1},))
        payload = b"x" * 100
        with injected_faults(plan):
            path = atomic_write_bytes(tmp_path / "f.bin", payload, fault_site="unit.write")
        assert path.read_bytes() == b"x" * 50
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_crash_raises_after_rename(self, tmp_path):
        plan = FaultPlan(rules=({"site": "unit.write", "kind": "crash", "nth": 1},))
        with injected_faults(plan):
            with pytest.raises(SimulatedCrashError):
                atomic_write_bytes(tmp_path / "f.bin", b"data", fault_site="unit.write")
        # Rename-then-crash: the destination holds the complete payload.
        assert (tmp_path / "f.bin").read_bytes() == b"data"

    def test_torn_json_write_is_caught_by_reader(self, tmp_path):
        plan = FaultPlan(
            rules=({"site": "serialization.dump_json", "kind": "torn_write", "nth": 1},)
        )
        with injected_faults(plan):
            path = dump_json(tmp_path / "doc.json", {"k": "v" * 64}, checksum=True)
        with pytest.raises((CorruptArtifactError, json.JSONDecodeError, ValueError)):
            load_json(path)

    def test_torn_bundle_write_is_caught_by_reader(self, tmp_path):
        plan = FaultPlan(
            rules=({"site": "serialization.save_npz", "kind": "torn_write", "nth": 1},)
        )
        with injected_faults(plan):
            path = save_npz_bundle(tmp_path / "b", {"x": np.ones(64)}, {"k": 1})
        with pytest.raises(Exception):
            load_npz_bundle(path)

    def test_enospc_leaves_no_destination(self, tmp_path):
        plan = FaultPlan(rules=({"site": "unit.write", "kind": "enospc", "nth": 1},))
        with injected_faults(plan):
            with pytest.raises(OSError):
                atomic_write_bytes(tmp_path / "f.bin", b"data", fault_site="unit.write")
        assert not (tmp_path / "f.bin").exists()
        assert list(tmp_path.glob(".tmp-*")) == []
