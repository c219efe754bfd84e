"""Unit tests for the persistent ROM cache and the material fingerprint."""

import dataclasses
import os
import struct
import time
import zipfile

import numpy as np
import pytest

from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
from repro.materials.material import IsotropicMaterial
from repro.mesh.resolution import MeshResolution
from repro.rom import cache as cache_module
from repro.rom import rom_model
from repro.rom.cache import ROMCache, rom_cache_key
from repro.rom.interpolation import InterpolationScheme
from repro.rom.local_stage import LocalStage
from repro.rom.rom_model import ReducedOrderModel
from repro.rom.workflow import MoreStressSimulator
from repro.utils import serialization
from repro.utils.serialization import count_quarantined
from repro.utils.validation import ValidationError

SCHEME_222 = InterpolationScheme((2, 2, 2))


@pytest.fixture()
def altered_materials() -> MaterialLibrary:
    """Default library with a stiffer copper (a different technology)."""
    library = MaterialLibrary.default()
    library.add(
        "copper",
        IsotropicMaterial(
            name="copper", young_modulus=150.0e3, poisson_ratio=0.35, cte=17.0e-6
        ),
    )
    return library


@pytest.fixture(scope="module")
def fast_rom(materials, tsv15, tiny_resolution):
    """A ROM cheap enough to rebuild inside individual tests."""
    stage = LocalStage(materials=materials, resolution=tiny_resolution, scheme=SCHEME_222)
    return stage.build(UnitBlockGeometry(tsv=tsv15, has_tsv=True))


class TestMaterialFingerprint:
    def test_deterministic(self, materials):
        assert materials.fingerprint() == MaterialLibrary.default().fingerprint()

    def test_sensitive_to_constants(self, materials, altered_materials):
        assert materials.fingerprint() != altered_materials.fingerprint()

    def test_sensitive_to_roles(self, materials):
        subset = materials.subset(["silicon", "copper", "liner"])
        assert subset.fingerprint() != materials.fingerprint()

    def test_rom_records_fingerprint(self, fast_rom, materials):
        assert fast_rom.material_fingerprint == materials.fingerprint()

    def test_fingerprint_survives_save_load(self, fast_rom, tmp_path):
        path = fast_rom.save(tmp_path / "rom")
        loaded = ReducedOrderModel.load(path)
        assert loaded.material_fingerprint == fast_rom.material_fingerprint

    def test_check_materials_accepts_match(self, fast_rom, materials):
        fast_rom.check_materials(materials)

    def test_check_materials_rejects_mismatch(self, fast_rom, altered_materials):
        with pytest.raises(ValidationError, match="different material library"):
            fast_rom.check_materials(altered_materials)

    def test_legacy_rom_without_fingerprint_passes(self, fast_rom, tmp_path, altered_materials):
        legacy = dataclasses.replace(fast_rom, material_fingerprint=None)
        path = legacy.save(tmp_path / "legacy")
        loaded = ReducedOrderModel.load(path)
        assert loaded.material_fingerprint is None
        loaded.check_materials(altered_materials)  # nothing to compare: no raise


class TestRomCacheKey:
    def test_stable(self, tsv15, tiny_resolution, materials):
        block = UnitBlockGeometry(tsv=tsv15)
        fingerprint = materials.fingerprint()
        assert rom_cache_key(block, tiny_resolution, SCHEME_222, fingerprint) == (
            rom_cache_key(block, tiny_resolution, SCHEME_222, fingerprint)
        )

    def test_sensitive_to_configuration(self, tsv15, tsv10, tiny_resolution, materials, altered_materials):
        block = UnitBlockGeometry(tsv=tsv15)
        fingerprint = materials.fingerprint()
        base = rom_cache_key(block, tiny_resolution, SCHEME_222, fingerprint)
        variants = [
            rom_cache_key(block.as_dummy(), tiny_resolution, SCHEME_222, fingerprint),
            rom_cache_key(
                UnitBlockGeometry(tsv=tsv10), tiny_resolution, SCHEME_222, fingerprint
            ),
            rom_cache_key(
                block, MeshResolution.preset("coarse"), SCHEME_222, fingerprint
            ),
            rom_cache_key(
                block, tiny_resolution, InterpolationScheme((3, 3, 3)), fingerprint
            ),
            rom_cache_key(
                block, tiny_resolution, SCHEME_222, altered_materials.fingerprint()
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1


class TestROMCache:
    def test_miss_then_hit(self, materials, tsv15, tiny_resolution, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        stage = LocalStage(
            materials=materials,
            resolution=tiny_resolution,
            scheme=SCHEME_222,
            cache=cache,
        )
        block = UnitBlockGeometry(tsv=tsv15)
        built = stage.build(block)
        assert (cache.misses, cache.hits) == (1, 0)
        assert len(cache) == 1

        cached = stage.build(block)
        assert (cache.misses, cache.hits) == (1, 1)
        np.testing.assert_array_equal(cached.basis, built.basis)
        np.testing.assert_array_equal(cached.element_stiffness, built.element_stiffness)
        assert cached.material_fingerprint == built.material_fingerprint

    def test_cache_shared_across_simulators(self, materials, tsv15, tmp_path):
        cache_dir = tmp_path / "shared_cache"
        first = MoreStressSimulator(
            tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(2, 2, 2),
            rom_cache=cache_dir,
        )
        first.build_roms()
        assert first.rom_cache.misses == 1

        second = MoreStressSimulator(
            tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(2, 2, 2),
            rom_cache=cache_dir,
        )
        second.build_roms()
        assert second.rom_cache.hits == 1
        assert second.rom_cache.misses == 0

    def test_different_materials_do_not_hit(
        self, materials, altered_materials, tsv15, tiny_resolution, tmp_path
    ):
        cache = ROMCache(tmp_path / "cache")
        block = UnitBlockGeometry(tsv=tsv15)
        LocalStage(
            materials=materials, resolution=tiny_resolution, scheme=SCHEME_222,
            cache=cache,
        ).build(block)
        assert cache.get(block, tiny_resolution, SCHEME_222, altered_materials) is None

    def test_put_requires_fingerprint(self, fast_rom, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        with pytest.raises(ValidationError, match="material fingerprint"):
            cache.put(dataclasses.replace(fast_rom, material_fingerprint=None))

    def test_clear(self, fast_rom, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        cache.put(fast_rom)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_corrupt_bundle_degrades_to_miss(
        self, materials, tsv15, tiny_resolution, fast_rom, tmp_path
    ):
        cache = ROMCache(tmp_path / "cache")
        path = cache.put(fast_rom)
        path.write_bytes(b"not a zip archive")  # e.g. a killed writer's leftovers
        block = UnitBlockGeometry(tsv=tsv15)
        assert cache.get(block, tiny_resolution, SCHEME_222, materials) is None
        assert cache.misses == 1
        # A subsequent put atomically replaces the corrupt bundle and heals it.
        cache.put(fast_rom)
        assert cache.get(block, tiny_resolution, SCHEME_222, materials) is not None

    def test_rejects_file_as_directory(self, tmp_path):
        file_path = tmp_path / "not_a_dir"
        file_path.write_text("")
        with pytest.raises(ValidationError, match="not a directory"):
            ROMCache(file_path)

    def test_from_spec(self, tmp_path):
        assert ROMCache.from_spec(None) is None
        cache = ROMCache(tmp_path)
        assert ROMCache.from_spec(cache) is cache
        coerced = ROMCache.from_spec(tmp_path / "dir")
        assert isinstance(coerced, ROMCache)


def _get(cache, rom, materials):
    return cache.get(rom.block, rom.resolution, rom.scheme, materials)


def _flip_member_byte(path, member):
    """Flip one byte in the middle of a stored member's data, in place."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    assert info.compress_type == zipfile.ZIP_STORED
    with open(path, "r+b") as handle:
        handle.seek(info.header_offset + 26)  # local header: name/extra lengths
        name_length, extra_length = struct.unpack("<HH", handle.read(4))
        data_start = info.header_offset + 30 + name_length + extra_length
        handle.seek(data_start + info.file_size // 2)
        byte = handle.read(1)[0]
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte ^ 0xFF]))


@pytest.fixture()
def counted_digests(monkeypatch):
    """Record every bundle content digest computed while the test runs."""
    calls = []
    original = serialization._arrays_digest

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(serialization, "_arrays_digest", counting)
    return calls


class TestStoredBundles:
    def test_deflated_bundle_still_hits_under_the_same_key(
        self, fast_rom, materials, tmp_path
    ):
        cache = ROMCache(tmp_path / "cache")
        path = cache.put(fast_rom)
        # Rewrite the bundle deflated, as the cache stored it before.
        with zipfile.ZipFile(path) as archive:
            members = [(info.filename, archive.read(info)) for info in archive.infolist()]
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
            for name, data in members:
                archive.writestr(name, data)

        reader = ROMCache(tmp_path / "cache")
        loaded = _get(reader, fast_rom, materials)
        assert (reader.hits, reader.misses, reader.quarantined) == (1, 0, 0)
        np.testing.assert_array_equal(loaded.basis, fast_rom.basis)

    def test_warm_hits_verify_the_bundle_once(
        self, fast_rom, materials, tmp_path, counted_digests
    ):
        cache = ROMCache(tmp_path / "cache")
        cache.put(fast_rom)
        counted_digests.clear()  # the write digests the bundle too
        for _ in range(20):
            assert _get(cache, fast_rom, materials) is not None
        assert cache.hits == 20
        assert len(counted_digests) == 1

        # A rewritten bundle is a new file and must be verified again.
        cache.put(fast_rom)
        counted_digests.clear()
        for _ in range(5):
            assert _get(cache, fast_rom, materials) is not None
        assert len(counted_digests) == 1

    def test_flipped_payload_byte_is_a_quarantined_miss(
        self, fast_rom, materials, tmp_path
    ):
        cache = ROMCache(tmp_path / "cache")
        path = cache.put(fast_rom)
        size = path.stat().st_size
        _flip_member_byte(path, "basis.npy")
        assert path.stat().st_size == size
        assert _get(cache, fast_rom, materials) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
        assert not path.exists()
        assert count_quarantined(cache.directory) == 1

    def test_bit_rot_after_a_verified_hit_is_caught(
        self, fast_rom, materials, tmp_path
    ):
        # A flip that keeps the file's inode, size and mtime also keeps the
        # memoized digest check skipped; the zip CRC-32 still catches it.
        cache = ROMCache(tmp_path / "cache")
        path = cache.put(fast_rom)
        assert _get(cache, fast_rom, materials) is not None
        stat = path.stat()
        _flip_member_byte(path, "basis.npy")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert _get(cache, fast_rom, materials) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 1)
        assert count_quarantined(cache.directory) == 1


def _settle():
    """Wait until a just-written bundle's ctime is old enough to memoize."""
    time.sleep(2 * cache_module._SETTLED_NS / 1e9)


@pytest.fixture()
def counted_loads(monkeypatch):
    """Record the path of every bundle ``ReducedOrderModel.load`` reads."""
    paths = []
    original = rom_model.load_npz_bundle

    def counting(path, *args, **kwargs):
        paths.append(path)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(rom_model, "load_npz_bundle", counting)
    return paths


class TestLoadedROMMemo:
    def test_unchanged_bundle_returns_the_same_rom_without_a_load(
        self, fast_rom, materials, tmp_path, counted_loads
    ):
        cache = ROMCache(tmp_path / "cache")
        cache.put(fast_rom)
        _settle()
        first = _get(cache, fast_rom, materials)
        assert len(counted_loads) == 1
        for _ in range(3):
            assert _get(cache, fast_rom, materials) is first
        assert len(counted_loads) == 1
        assert (cache.hits, cache.misses) == (4, 0)
        assert cache.stats()["hits"] == 4

    def test_memoized_rom_is_read_only(self, fast_rom, materials, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        cache.put(fast_rom)
        _settle()
        rom = _get(cache, fast_rom, materials)
        assert _get(cache, fast_rom, materials) is rom
        for array in (rom.basis, rom.element_stiffness, rom.element_load, rom.mesh.xs):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_rebuilt_put_reloads(self, fast_rom, materials, tmp_path, counted_loads):
        cache = ROMCache(tmp_path / "cache")
        cache.put(fast_rom)
        _settle()
        first = _get(cache, fast_rom, materials)
        cache.put(fast_rom)  # a rebuild: a new file under the same key
        second = _get(cache, fast_rom, materials)
        assert second is not first
        assert len(counted_loads) == 2
        np.testing.assert_array_equal(second.basis, first.basis)

    def test_torn_rewrite_is_quarantined(self, fast_rom, materials, tmp_path):
        from repro import faults

        cache = ROMCache(tmp_path / "cache")
        cache.put(fast_rom)
        _settle()
        assert _get(cache, fast_rom, materials) is not None
        plan = faults.FaultPlan(
            seed=0, rules=({"site": "rom_cache.put", "kind": "torn_write"},)
        )
        with faults.injected_faults(plan):
            cache.put(fast_rom)
        assert _get(cache, fast_rom, materials) is None
        assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 1)

    def test_quarantined_bundle_misses_then_reloads(
        self, fast_rom, materials, tmp_path, counted_loads
    ):
        cache = ROMCache(tmp_path / "cache")
        path = cache.put(fast_rom)
        _settle()
        first = _get(cache, fast_rom, materials)
        serialization.quarantine_file(path, "test")
        assert _get(cache, fast_rom, materials) is None
        cache.put(fast_rom)
        assert _get(cache, fast_rom, materials) is not first
        assert len(counted_loads) == 2

    def test_cap_drops_the_least_recently_used(
        self, fast_rom, materials, tmp_path, counted_loads, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "_MEMO_SIZE", 2)
        cache = ROMCache(tmp_path / "cache")
        roms = [TestLRUEviction._variant(fast_rom, pitch) for pitch in (11.0, 12.0, 13.0)]
        for rom in roms:
            cache.put(rom)
        _settle()
        loaded = [_get(cache, rom, materials) for rom in roms]
        assert len(counted_loads) == 3
        assert _get(cache, roms[2], materials) is loaded[2]
        assert _get(cache, roms[1], materials) is loaded[1]
        assert len(counted_loads) == 3
        assert _get(cache, roms[0], materials) is not loaded[0]  # dropped first
        assert len(counted_loads) == 4

    def test_memo_hit_still_checks_the_library(
        self, fast_rom, materials, altered_materials, tmp_path, counted_loads
    ):
        # A bundle built with one library, filed under another's key.
        cache = ROMCache(tmp_path / "cache")
        built_with = cache.put(fast_rom)
        filed_under = cache.path_for(
            fast_rom.block, fast_rom.resolution, fast_rom.scheme, altered_materials
        )
        built_with.rename(filed_under)
        _settle()
        for _ in range(2):
            with pytest.raises(ValidationError, match="different material library"):
                _get(cache, fast_rom, altered_materials)
        assert len(counted_loads) == 1
        assert cache.hits == 0


class TestMismatchedLibraryRejection:
    def test_load_roms_rejects_mismatched_library(
        self, materials, altered_materials, tsv15, tmp_path
    ):
        builder = MoreStressSimulator(
            tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(2, 2, 2)
        )
        builder.build_roms()
        builder.save_roms(tmp_path / "roms")

        consumer = MoreStressSimulator(
            tsv15, altered_materials, mesh_resolution="tiny", nodes_per_axis=(2, 2, 2)
        )
        with pytest.raises(ValidationError, match="different material library"):
            consumer.load_roms(tmp_path / "roms")

    def test_global_stage_rejects_mismatched_library(
        self, fast_rom, altered_materials, tsv15
    ):
        from repro.geometry.array_layout import BlockKind, TSVArrayLayout
        from repro.rom.global_stage import GlobalStage

        layout = TSVArrayLayout.full(tsv15, rows=1, cols=1)
        stage = GlobalStage({BlockKind.TSV: fast_rom}, altered_materials)
        with pytest.raises(ValidationError, match="different material library"):
            stage.assemble(layout, -250.0)


class TestConcurrentCacheWrites:
    """Concurrent writers must never corrupt entries (atomic rename + lock)."""

    def test_many_threads_storing_same_rom(self, fast_rom, materials, tmp_path):
        import threading

        cache = ROMCache(tmp_path / "cache")
        errors: list[Exception] = []

        def writer():
            try:
                for _ in range(5):
                    cache.put(fast_rom)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(cache) == 1
        loaded = cache.get(
            fast_rom.block, fast_rom.resolution, fast_rom.scheme, materials
        )
        assert loaded is not None
        np.testing.assert_array_equal(loaded.basis, fast_rom.basis)
        # No lockfiles or temporaries left behind.
        leftovers = [p.name for p in (tmp_path / "cache").iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_concurrent_writers_of_distinct_keys(self, materials, tsv15, tsv10, tiny_resolution, tmp_path):
        import threading

        cache = ROMCache(tmp_path / "cache")
        stage = LocalStage(
            materials=materials, resolution=tiny_resolution, scheme=SCHEME_222
        )
        roms = [
            stage.build(UnitBlockGeometry(tsv=tsv15, has_tsv=True)),
            stage.build(UnitBlockGeometry(tsv=tsv10, has_tsv=True)),
        ]
        threads = [
            threading.Thread(target=cache.put, args=(rom,)) for rom in roms for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(cache) == 2
        for rom in roms:
            loaded = cache.get(rom.block, rom.resolution, rom.scheme, materials)
            assert loaded is not None
            np.testing.assert_array_equal(loaded.element_stiffness, rom.element_stiffness)

    def test_stale_lock_is_broken(self, fast_rom, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        key = rom_cache_key(
            fast_rom.block,
            fast_rom.resolution,
            fast_rom.scheme,
            fast_rom.material_fingerprint,
        )
        (tmp_path / "cache").mkdir(parents=True, exist_ok=True)
        stale = tmp_path / "cache" / f".lock-{key}"
        stale.touch()
        old = 10_000.0
        os.utime(stale, (old, old))
        path = cache.put(fast_rom)  # must not dead-wait on the stale lock
        assert path.exists()
        assert not stale.exists()


class TestLRUEviction:
    """Size-capped LRU eviction for long-lived servers."""

    @staticmethod
    def _variant(fast_rom, pitch: float):
        """A ROM with a distinct cache key (different pitch), same payload."""
        from repro.geometry.tsv import TSVGeometry

        block = UnitBlockGeometry(
            tsv=TSVGeometry.paper_default(pitch=pitch), has_tsv=True
        )
        return dataclasses.replace(fast_rom, block=block)

    def test_no_cap_never_evicts(self, fast_rom, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        for pitch in (11.0, 12.0, 13.0):
            cache.put(self._variant(fast_rom, pitch))
        assert len(cache) == 3
        assert cache.evictions == 0
        assert cache.stats()["max_bytes"] is None

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="max_bytes"):
            ROMCache(tmp_path / "cache", max_bytes=0)

    def test_oldest_entry_evicted_first(self, fast_rom, tmp_path):
        probe = ROMCache(tmp_path / "probe")
        size = probe.put(fast_rom).stat().st_size
        cache = ROMCache(tmp_path / "cache", max_bytes=2 * size + size // 2)
        path_a = cache.put(self._variant(fast_rom, 11.0))
        path_b = cache.put(self._variant(fast_rom, 12.0))
        os.utime(path_a, (100.0, 100.0))
        os.utime(path_b, (200.0, 200.0))
        path_c = cache.put(self._variant(fast_rom, 13.0))
        assert not path_a.exists()  # oldest went first
        assert path_b.exists() and path_c.exists()
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert abs(stats["evicted_bytes"] - size) <= 16  # metadata length varies
        assert stats["entries"] == 2
        assert cache.total_bytes() <= cache.max_bytes

    def test_hit_touches_entry_and_protects_it(self, fast_rom, materials, tmp_path):
        probe = ROMCache(tmp_path / "probe")
        size = probe.put(fast_rom).stat().st_size
        cache = ROMCache(tmp_path / "cache", max_bytes=2 * size + size // 2)
        rom_a = self._variant(fast_rom, 11.0)
        path_a = cache.put(rom_a)
        path_b = cache.put(self._variant(fast_rom, 12.0))
        os.utime(path_a, (100.0, 100.0))
        os.utime(path_b, (200.0, 200.0))
        # A hit refreshes the entry's recency, so B is now the LRU victim.
        loaded = cache.get(rom_a.block, rom_a.resolution, rom_a.scheme, materials)
        assert loaded is not None
        cache.put(self._variant(fast_rom, 13.0))
        assert path_a.exists()
        assert not path_b.exists()

    def test_just_written_bundle_survives_a_tiny_cap(self, fast_rom, tmp_path):
        probe = ROMCache(tmp_path / "probe")
        size = probe.put(fast_rom).stat().st_size
        cache = ROMCache(tmp_path / "cache", max_bytes=max(1, size // 2))
        path_a = cache.put(self._variant(fast_rom, 11.0))
        assert path_a.exists()  # cap smaller than one bundle: still serves
        path_b = cache.put(self._variant(fast_rom, 12.0))
        assert path_b.exists()
        assert not path_a.exists()  # but the previous entry is evicted
        assert cache.evictions == 1

    def test_from_spec_applies_cap_to_paths_only(self, tmp_path):
        coerced = ROMCache.from_spec(tmp_path / "dir", max_bytes=4096)
        assert coerced.max_bytes == 4096
        existing = ROMCache(tmp_path / "other")
        assert ROMCache.from_spec(existing, max_bytes=4096) is existing
        assert existing.max_bytes is None  # an instance keeps its own cap

    def test_stats_surface_eviction_counters(self, fast_rom, tmp_path):
        cache = ROMCache(tmp_path / "cache")
        stats = cache.stats()
        for key in ("hits", "misses", "hit_rate", "entries", "bytes",
                    "max_bytes", "evictions", "evicted_bytes"):
            assert key in stats
        assert stats["evictions"] == 0 and stats["evicted_bytes"] == 0
        cache.put(fast_rom)
        assert cache.stats()["bytes"] > 0
