"""Persistent, content-addressed cache of reduced order models.

The one-shot local stage is the expensive half of MORE-Stress, yet its output
depends only on the unit-block *configuration*: geometry, fine-mesh
resolution, interpolation scheme and material constants.  Two runs with the
same configuration rebuild the exact same ROM — so the second run should not
rebuild it at all.  The :class:`ROMCache` makes that reuse automatic and
cross-process: every configuration is content-hashed into a key, and ROMs are
persisted as the standard ``save``/``load`` ``.npz`` bundles under that key.

Wired into :class:`~repro.rom.local_stage.LocalStage` (``cache=`` parameter),
:class:`~repro.rom.workflow.MoreStressSimulator` and :func:`repro.api.run`
(``rom_cache=``), a warm cache turns the local stage into a lookup, which is
where the speedup of parameter sweeps over arrays, thermal loads and package
locations compounds (cf. Jia & Cheng on reusable reduced thermal models).
Each cache instance also keeps the last few ROMs it loaded and verified in
memory, so a long-lived holder of one instance (the job service) pays the
file load once per bundle: while the bundle file is unchanged, a warm ``get``
is a ``stat`` and a dict lookup that returns the same read-only ROM, with the
field samplers it carries (:meth:`ReducedOrderModel.field_sampler`).

Example
-------
The first run builds and stores the ROM; the second, a different array size
of the same technology, skips the local stage entirely:

>>> from repro.api import GeometrySpec, SimulationSpec, run
>>> cache = ROMCache("~/.cache/repro/roms")  # doctest: +SKIP
>>> run(SimulationSpec(geometry=GeometrySpec(rows=50)), rom_cache=cache)  # doctest: +SKIP
>>> run(SimulationSpec(geometry=GeometrySpec(rows=80)), rom_cache=cache)  # doctest: +SKIP
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.geometry.unit_block import UnitBlockGeometry
from repro.materials.library import MaterialLibrary
from repro.mesh.resolution import MeshResolution
from repro.rom.interpolation import InterpolationScheme
from repro.rom.rom_model import ReducedOrderModel
from repro.utils.logging import get_logger
from repro.utils.serialization import quarantine_file
from repro.utils.validation import ValidationError

_logger = get_logger("rom.cache")

#: Loaded ROMs each cache instance keeps in memory.
_MEMO_SIZE = 8
#: A loaded bundle is memoized only once its ctime is this much older than
#: the ``stat`` that fingerprinted it.  File timestamps may advance in clock
#: ticks of up to 10 ms, so a write within the tick of that ``stat`` could
#: keep the ctime the memo compares.
_SETTLED_NS = 20_000_000
#: A hit refreshes the bundle's LRU atime at most this often.  The touch
#: changes the ctime, so each one costs the next gets a reload.
_TOUCH_NS = 1_000_000_000


def _set_read_only(rom: ReducedOrderModel) -> None:
    """Freeze the arrays of a ROM that every holder of the cache shares."""
    mesh = rom.mesh
    for array in (
        rom.basis,
        rom.element_stiffness,
        rom.element_load,
        rom.thermal_coupling,
        mesh.xs,
        mesh.ys,
        mesh.zs,
        mesh.element_tags,
    ):
        array.setflags(write=False)


def rom_cache_key(
    block: UnitBlockGeometry,
    resolution: MeshResolution,
    scheme: InterpolationScheme,
    material_fingerprint: str,
) -> str:
    """Content hash identifying one ROM configuration.

    Covers everything the local stage's output depends on: the block
    geometry, whether it contains a TSV, the fine-mesh resolution, the
    interpolation scheme and the material library fingerprint.
    """
    payload = {
        "tsv": {
            "diameter": block.tsv.diameter,
            "height": block.tsv.height,
            "liner_thickness": block.tsv.liner_thickness,
            "pitch": block.tsv.pitch,
        },
        "has_tsv": block.has_tsv,
        "resolution": {
            "n_core": resolution.n_core,
            "n_liner": resolution.n_liner,
            "n_outer": resolution.n_outer,
            "n_z": resolution.n_z,
            "outer_ratio": resolution.outer_ratio,
            "z_refinement": resolution.z_refinement,
        },
        "nodes_per_axis": list(scheme.nodes_per_axis),
        "materials": material_fingerprint,
    }
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:20]


@dataclass
class ROMCache:
    """Directory-backed cache mapping ROM configurations to saved bundles.

    Attributes
    ----------
    directory:
        Cache directory (created on first write).  Point several processes at
        the same directory to share one cache.
    max_bytes:
        Optional size cap.  When the bundles exceed it after a write, the
        least-recently-used entries are evicted until the cache fits again.
        Recency is the bundle's atime: a write sets it and a hit touches it
        (at most once a second), while mtime changes only when a bundle is
        rewritten.  ``None`` (the default) never evicts.  Eviction is multi-process-safe: a
        concurrent reader of an evicted bundle degrades to a miss and
        rebuilds.  Bundles are stored uncompressed, about 2-5x the size of
        the deflated bundles written before (10.8 MB for a ``medium`` (4,4,4)
        ROM), so a given cap holds that many fewer entries.
    hits, misses, evictions, evicted_bytes, quarantined, put_errors:
        Lookup/eviction/health statistics of this cache instance (a memo hit
        counts as a hit).  Counter updates are serialised by an internal lock so one cache instance can
        back many concurrent readers (the job service shares a single
        process-wide cache across its worker pool); :meth:`stats` takes one
        consistent snapshot of the counters.  ``quarantined`` counts corrupt
        bundles moved to the ``.quarantine/`` sidecar; ``put_errors`` counts
        writes the cache degraded through (e.g. a full disk) — the cache is
        an optimisation, so a failed store never fails the simulation.
    """

    directory: str | Path
    max_bytes: int | None = None
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    evictions: int = field(default=0, init=False)
    evicted_bytes: int = field(default=0, init=False)
    quarantined: int = field(default=0, init=False)
    put_errors: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory).expanduser()
        if self.directory.exists() and not self.directory.is_dir():
            raise ValidationError(
                f"ROM cache path {self.directory} exists but is not a directory"
            )
        if self.max_bytes is not None:
            self.max_bytes = int(self.max_bytes)
            if self.max_bytes <= 0:
                raise ValidationError(
                    f"max_bytes must be positive or None, got {self.max_bytes}"
                )
        self._stats_lock = threading.Lock()
        # Bundle path -> (fingerprint, ROM) of the last verified loads, most
        # recently used last.  Only a load fills it, never ``put``: a torn
        # write then still surfaces on the next read.
        self._memo: OrderedDict[Path, tuple[tuple[int, ...], ReducedOrderModel]] = (
            OrderedDict()
        )
        self._memo_lock = threading.Lock()

    def _record(self, hit: bool) -> None:
        with self._stats_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def stats(self) -> dict[str, float | int | None]:
        """A consistent snapshot of the lookup/eviction statistics."""
        with self._stats_lock:
            hits, misses = self.hits, self.misses
            evictions, evicted_bytes = self.evictions, self.evicted_bytes
            quarantined, put_errors = self.quarantined, self.put_errors
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else 0.0,
            "entries": len(self),
            "bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "evictions": evictions,
            "evicted_bytes": evicted_bytes,
            "quarantined": quarantined,
            "put_errors": put_errors,
        }

    def total_bytes(self) -> int:
        """Total size of the cached bundles on disk."""
        directory = Path(self.directory)
        if not directory.is_dir():
            return 0
        total = 0
        for path in directory.glob("rom_*.npz"):
            try:
                total += path.stat().st_size
            except OSError:
                continue  # concurrently evicted by another process
        return total

    def _bundle_path(self, key: str) -> Path:
        """The single key-to-path mapping shared by all lookups and writes."""
        return Path(self.directory) / f"rom_{key}.npz"

    @contextmanager
    def _write_lock(self, key: str, timeout: float = 30.0, stale_after: float = 300.0):
        """Best-effort per-key lockfile serialising concurrent writers.

        Correctness never depends on the lock — :meth:`put` writes to a
        unique temporary file and atomically renames it into place — but the
        lock keeps concurrent writers of the *same* key from duplicating the
        (expensive) bundle serialisation and from churning the directory.
        A lock older than ``stale_after`` seconds (e.g. left by a killed
        process) is broken; if the lock cannot be acquired within
        ``timeout`` seconds the write proceeds unlocked.
        """
        lock_path = Path(self.directory) / f".lock-{key}"
        deadline = time.monotonic() + timeout
        fd = None
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    continue  # holder just released it; retry immediately
                if age > stale_after:
                    _logger.warning(
                        "ROM cache: breaking stale lock %s (%.0fs old)",
                        lock_path.name,
                        age,
                    )
                    lock_path.unlink(missing_ok=True)
                    continue
                if time.monotonic() >= deadline:
                    _logger.warning(
                        "ROM cache: could not acquire %s within %.0fs; "
                        "writing unlocked (atomic rename keeps this safe)",
                        lock_path.name,
                        timeout,
                    )
                    break
                time.sleep(0.05)
        try:
            yield
        finally:
            if fd is not None:
                os.close(fd)
                lock_path.unlink(missing_ok=True)

    def path_for(
        self,
        block: UnitBlockGeometry,
        resolution: MeshResolution,
        scheme: InterpolationScheme,
        materials: MaterialLibrary,
    ) -> Path:
        """Bundle path a ROM of this configuration is stored at."""
        return self._bundle_path(
            rom_cache_key(block, resolution, scheme, materials.fingerprint())
        )

    def get(
        self,
        block: UnitBlockGeometry,
        resolution: MeshResolution,
        scheme: InterpolationScheme,
        materials: MaterialLibrary,
    ) -> ReducedOrderModel | None:
        """Return the cached ROM for a configuration, or ``None`` on a miss.

        The ROM's arrays are read-only.  While the bundle file keeps its
        inode, size, mtime and ctime, repeated calls return the same ROM
        without reading the file; any rewrite, eviction or quarantine makes
        the next call load and verify the bundle again.
        """
        path = self.path_for(block, resolution, scheme, materials)
        now = time.time_ns()
        try:
            stat = path.stat()
        except OSError:
            with self._memo_lock:
                self._memo.pop(path, None)
            self._record(hit=False)
            return None
        fingerprint = (stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)
        with self._memo_lock:
            # A stale entry is dropped before the reload, so the two copies
            # of the ROM are not held at once.
            entry = self._memo.pop(path, None)
            if entry is not None and entry[0] == fingerprint:
                self._memo[path] = entry  # most recently used last
                rom = entry[1]
            else:
                rom = None
        if rom is None:
            try:
                rom = ReducedOrderModel.load(path)
            except Exception as exc:
                # A corrupt or truncated bundle (e.g. a torn write surfacing
                # after a crash) must degrade to a rebuild, not break every
                # warm run.  The bad bundle is quarantined — not silently
                # shadowed — so operators can see and inspect the corruption.
                _logger.warning(
                    "ROM cache: corrupt bundle %s (%s: %s); quarantining and "
                    "treating as a miss",
                    path.name,
                    type(exc).__name__,
                    exc,
                )
                quarantine_file(path, f"rom cache bundle failed to load: {exc}")
                with self._stats_lock:
                    self.quarantined += 1
                self._record(hit=False)
                return None
            _set_read_only(rom)
            if now - stat.st_ctime_ns >= _SETTLED_NS:
                with self._memo_lock:
                    self._memo[path] = (fingerprint, rom)
                    while len(self._memo) > _MEMO_SIZE:
                        self._memo.popitem(last=False)
        rom.check_materials(materials)
        self._record(hit=True)
        if now - stat.st_atime_ns >= _TOUCH_NS:
            try:
                # LRU touch in atime only: mtime is part of the fingerprint
                # that memoizes the bundle's digest check, so it changes only
                # when the bundle is rewritten.
                os.utime(path, ns=(now, path.stat().st_mtime_ns))
            except OSError:
                pass  # evicted or pruned concurrently; the ROM is already loaded
        _logger.info("ROM cache hit: %s", path.name)
        return rom

    def put(self, rom: ReducedOrderModel) -> Path:
        """Persist a ROM under its configuration key and return the path.

        The bundle write is atomic and fsync'd (tmp file + rename inside
        :func:`~repro.utils.serialization.save_npz_bundle`), so concurrent
        readers sharing the cache directory never see a partially written
        bundle; a per-key lockfile additionally serialises same-key writers
        (e.g. parallel local stages racing to store the same configuration).
        A failed write (full disk, I/O error) degrades to a warning — the
        cache is an optimisation, so the just-built ROM stays usable and the
        simulation proceeds uncached.
        """
        if rom.material_fingerprint is None:
            raise ValidationError(
                "cannot cache a ROM without a material fingerprint; build it "
                "with LocalStage (or set material_fingerprint explicitly)"
            )
        key = rom_cache_key(
            rom.block, rom.resolution, rom.scheme, rom.material_fingerprint
        )
        path = self._bundle_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._write_lock(key):
            try:
                rom.save(path, fault_site="rom_cache.put")
            except OSError as exc:
                with self._stats_lock:
                    self.put_errors += 1
                _logger.warning(
                    "ROM cache: could not store %s (%s); continuing uncached",
                    path.name,
                    exc,
                )
                return path
        _logger.info("ROM cache store: %s", path.name)
        self._evict_over_budget(keep=path)
        return path

    def _evict_over_budget(self, keep: Path) -> None:
        """Evict least-recently-used bundles until the cache fits ``max_bytes``.

        The just-written bundle (``keep``) is never evicted — a cap smaller
        than one bundle still serves the current run.  Unlinking with
        ``missing_ok`` keeps concurrent evictors of a shared directory safe,
        and POSIX semantics keep concurrent *readers* safe: an open bundle
        stays readable, an unopened one degrades to a miss.
        """
        if self.max_bytes is None:
            return
        entries = []
        for path in Path(self.directory).glob("rom_*.npz"):
            if path == keep:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_atime, stat.st_size, path))
        try:
            keep_size = keep.stat().st_size
        except OSError:
            keep_size = 0
        total = keep_size + sum(size for _, size, _ in entries)
        entries.sort()  # least recently used (oldest atime) first
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            with self._stats_lock:
                self.evictions += 1
                self.evicted_bytes += size
            _logger.info(
                "ROM cache evict: %s (%d bytes, cache over %d-byte cap)",
                path.name, size, self.max_bytes,
            )

    def clear(self) -> int:
        """Delete all cached bundles; returns the number of files removed."""
        removed = 0
        with self._memo_lock:
            self._memo.clear()
        directory = Path(self.directory)
        if directory.is_dir():
            for path in directory.glob("rom_*.npz"):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        directory = Path(self.directory)
        if not directory.is_dir():
            return 0
        return sum(1 for _ in directory.glob("rom_*.npz"))

    @classmethod
    def from_spec(
        cls,
        spec: "ROMCache | str | Path | None",
        max_bytes: int | None = None,
    ) -> "ROMCache | None":
        """Coerce a directory path (or pass through a cache / ``None``).

        ``max_bytes`` applies the size cap when coercing a path; an existing
        :class:`ROMCache` instance passes through with its own cap untouched.
        """
        if spec is None or isinstance(spec, ROMCache):
            return spec
        return cls(spec, max_bytes=max_bytes)


__all__ = ["ROMCache", "rom_cache_key"]
