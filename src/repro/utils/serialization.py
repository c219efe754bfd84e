"""Serialization helpers for reduced order models and simulation results.

Reduced order models are the product of the one-shot local stage and are meant
to be computed once per (material, geometry) configuration and reused for
arbitrarily many global-stage solves, possibly in separate processes.  They
are therefore persisted as a ``.npz`` bundle containing all dense arrays plus
a JSON metadata blob.  Plain-JSON documents (spec files, run manifests) go
through :func:`dump_json`/:func:`load_json`.

Durability discipline shared by every writer here:

* **atomic** — bytes land in a unique temporary file that is renamed over the
  destination, so readers never see a half-written artifact;
* **synced** — the temporary file is ``fsync``'d before the rename and the
  parent directory after it (POSIX), so a power loss after the rename cannot
  surface an empty or truncated file;
* **checksummed** — bundles and (opt-in) JSON documents embed a sha256 over
  their logical content, verified on read; a mismatch raises
  :class:`~repro.errors.CorruptArtifactError` so the self-healing layers can
  :func:`quarantine_file` the artifact instead of crashing on it;
* **injectable** — each writer declares a :func:`repro.faults.fault_point`
  site, which is how the chaos harness tears writes deterministically.

Bundles are stored, not deflated: :func:`save_npz_bundle` writes every member
with ``np.savez`` (``ZIP_STORED``) and has no compression option.  Deflate
was the largest single cost of a cold ROM build — on a ``medium`` (4,4,4) ROM
it took 304 ms to write and 53 ms to read, against 13 ms and 8.5 ms stored —
and bought a 2-5x smaller file (5.0 vs 10.8 MB; 0.14 vs 0.67 MB for a
``tiny`` (3,3,3) ROM).  Storage is lossless either way, so the arrays read
back bit-identical, and :func:`load_npz_bundle` still reads older deflated
bundles (``np.load`` inflates them transparently).  Without zlib's checks, a
flipped payload byte is caught by the zip CRC-32 and the sha256 content
digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import uuid
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro import faults
from repro.errors import CorruptArtifactError
from repro.utils.logging import get_logger

_logger = get_logger("utils.serialization")

_META_KEY = "__metadata_json__"

#: Key under which :func:`with_checksum` embeds the content digest.
CHECKSUM_KEY = "__sha256__"

#: Subdirectory corrupt artifacts are moved into, next to the original.
QUARANTINE_DIRNAME = ".quarantine"


# ---------------------------------------------------------------------- #
# atomic, synced writes
# ---------------------------------------------------------------------- #
def fsync_directory(path: str | Path) -> None:
    """``fsync`` a directory so a completed rename survives power loss.

    A no-op on platforms (or filesystems) that refuse to open directories;
    durability degrades to the pre-fsync behaviour there instead of failing
    the write.
    """
    try:
        fd = os.open(Path(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | Path,
    data: bytes,
    *,
    fault_site: str | None = None,
) -> Path:
    """Write ``data`` to ``path`` atomically and durably.

    The bytes go to a unique ``.tmp-*`` sibling which is fsync'd, renamed
    over ``path``, and the parent directory fsync'd — the full
    write-fsync-rename-fsync discipline.  ``fault_site`` names the
    :func:`repro.faults.fault_point` consulted before writing: ``torn_write``
    truncates the payload (the destination ends up corrupt but present, as
    after a power loss), ``crash`` raises *after* the rename
    (rename-then-crash), and the OSError kinds raise before any byte lands.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    directive = faults.fault_point(fault_site) if fault_site else None
    if directive == "torn_write":
        data = data[: max(1, len(data) // 2)]
    temporary = path.parent / f".tmp-{uuid.uuid4().hex}{path.suffix or '.bin'}"
    try:
        with open(temporary, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        fsync_directory(path.parent)
        if directive == "crash":
            raise faults.SimulatedCrashError(
                f"injected crash after renaming {path.name} ({fault_site})"
            )
    finally:
        temporary.unlink(missing_ok=True)
    return path


# ---------------------------------------------------------------------- #
# checksums
# ---------------------------------------------------------------------- #
def _document_digest(document: Mapping[str, Any]) -> str:
    """sha256 over the canonical JSON of ``document`` (checksum key excluded)."""
    stripped = {k: v for k, v in document.items() if k != CHECKSUM_KEY}
    encoded = json.dumps(stripped, sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def with_checksum(document: Mapping[str, Any]) -> dict[str, Any]:
    """Return a copy of ``document`` carrying its content digest."""
    result = dict(document)
    result[CHECKSUM_KEY] = _document_digest(result)
    return result


def verify_checksum(document: Any, *, source: str = "document") -> Any:
    """Verify and strip an embedded digest; pass undigested documents through.

    Raises :class:`CorruptArtifactError` on a mismatch.  Documents without a
    :data:`CHECKSUM_KEY` (legacy artifacts, foreign JSON) are returned as-is
    — verification is opt-in at write time, never a migration burden.
    """
    if not isinstance(document, Mapping) or CHECKSUM_KEY not in document:
        return document
    recorded = document[CHECKSUM_KEY]
    actual = _document_digest(document)
    if recorded != actual:
        raise CorruptArtifactError(
            f"{source}: checksum mismatch (recorded {recorded!r:.12}..., "
            f"computed {actual!r:.12}...)",
            detail={"source": source, "recorded": recorded, "computed": actual},
        )
    return {k: v for k, v in document.items() if k != CHECKSUM_KEY}


def _arrays_digest(
    arrays: Mapping[str, np.ndarray], metadata: Mapping[str, Any]
) -> str:
    """sha256 over the logical content of an ``.npz`` bundle.

    Covers every array's name, dtype, shape and raw bytes plus the metadata
    document (checksum key excluded) — independent of the zip container, so
    recompression cannot invalidate it.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(repr(value.shape).encode("utf-8"))
        # Feed the array's buffer directly — hashing must not copy it.
        digest.update(value.reshape(-1).view(np.uint8).data)
    stripped = {k: v for k, v in metadata.items() if k != CHECKSUM_KEY}
    digest.update(json.dumps(stripped, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# quarantine
# ---------------------------------------------------------------------- #
# repro-lint: disable=REP002 -- quarantine IS the failure handler: injecting a fault into it would only re-enter itself; its os.replace moves an already-corrupt file aside
def quarantine_file(path: str | Path, reason: str) -> Path | None:
    """Move a corrupt artifact into a ``.quarantine/`` sidecar directory.

    The file is renamed (never deleted) to
    ``<parent>/.quarantine/<name>.<token>`` with a ``.reason.json`` sidecar
    recording why, and a structured warning is logged.  Returns the
    quarantined path, or ``None`` when the move itself failed (the original
    is then unlinked as a last resort so a corrupt artifact cannot wedge
    every future read).
    """
    path = Path(path)
    quarantine_dir = path.parent / QUARANTINE_DIRNAME
    token = uuid.uuid4().hex[:8]
    target = quarantine_dir / f"{path.name}.{token}"
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
    except OSError as exc:
        _logger.warning(
            "quarantine failed for %s (%s); deleting instead", path.name, exc
        )
        Path(path).unlink(missing_ok=True)
        return None
    record = {"original": str(path), "reason": reason, "quarantined_as": str(target)}
    try:
        target.with_name(target.name + ".reason.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
    except OSError:
        pass  # the quarantined artifact itself is what matters
    _logger.warning("quarantined artifact: %s", json.dumps(record, sort_keys=True))
    return target


def count_quarantined(directory: str | Path) -> int:
    """Number of quarantined artifacts below ``directory`` (recursive)."""
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    total = 0
    for quarantine_dir in directory.rglob(QUARANTINE_DIRNAME):
        total += sum(
            1
            for entry in quarantine_dir.iterdir()
            if entry.is_file() and not entry.name.endswith(".reason.json")
        )
    return total


# ---------------------------------------------------------------------- #
# JSON documents
# ---------------------------------------------------------------------- #
def dump_json(
    path: str | Path,
    data: Any,
    indent: int = 2,
    *,
    checksum: bool = False,
    fault_site: str = "serialization.dump_json",
) -> Path:
    """Write ``data`` as JSON to ``path`` atomically and durably.

    ``checksum=True`` embeds a sha256 over the document (mappings only) that
    :func:`load_json` verifies on read.
    """
    path = Path(path)
    if checksum and isinstance(data, Mapping):
        data = with_checksum(data)
    payload = (json.dumps(data, indent=indent, sort_keys=True) + "\n").encode("utf-8")
    return atomic_write_bytes(path, payload, fault_site=fault_site)


def load_json(path: str | Path) -> Any:
    """Load a JSON document written by :func:`dump_json` (or any JSON file).

    Documents carrying an embedded checksum are verified (and the checksum
    key stripped); a mismatch raises :class:`CorruptArtifactError`.
    """
    path = Path(path)
    document = json.loads(path.read_text())
    return verify_checksum(document, source=str(path))


# ---------------------------------------------------------------------- #
# npz bundles
# ---------------------------------------------------------------------- #
def save_npz_bundle(
    path: str | Path,
    arrays: Mapping[str, np.ndarray],
    metadata: Mapping[str, Any] | None = None,
    *,
    fault_site: str = "serialization.save_npz",
) -> Path:
    """Save named arrays plus a JSON metadata dictionary into one ``.npz`` file.

    The members are stored uncompressed (``ZIP_STORED``; see the module
    docstring).  The bundle is written atomically (tmp + fsync + rename +
    directory fsync) and carries a sha256 over its logical content inside
    the metadata blob, verified by :func:`load_npz_bundle`.

    Parameters
    ----------
    path:
        Destination file.  A ``.npz`` suffix is appended if missing.
    arrays:
        Mapping from array name to :class:`numpy.ndarray`.  Names must not
        collide with the reserved metadata key.
    metadata:
        JSON-serialisable metadata stored alongside the arrays.
    fault_site:
        Fault-injection site name of this write.

    Returns
    -------
    pathlib.Path
        The path actually written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved for metadata")
    payload = {name: np.asarray(value) for name, value in arrays.items()}
    meta = dict(metadata or {})
    meta[CHECKSUM_KEY] = _arrays_digest(payload, meta)
    meta_json = json.dumps(meta, sort_keys=True)
    payload[_META_KEY] = np.frombuffer(meta_json.encode("utf-8"), dtype=np.uint8)

    path.parent.mkdir(parents=True, exist_ok=True)
    directive = faults.fault_point(fault_site)
    temporary = path.parent / f".tmp-{uuid.uuid4().hex}.npz"
    try:
        with open(temporary, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        if directive == "torn_write":
            size = temporary.stat().st_size
            with open(temporary, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        os.replace(temporary, path)
        fsync_directory(path.parent)
        if directive == "crash":
            raise faults.SimulatedCrashError(
                f"injected crash after renaming {path.name} ({fault_site})"
            )
    finally:
        temporary.unlink(missing_ok=True)
    return path


#: Fingerprints of bundle files whose digest already verified — warm cache
#: reads hit the same immutable files over and over, so re-hashing every
#: read would tax the hot path for nothing.  Any rewrite (including a torn
#: one) changes the fingerprint and forces re-verification.
_VERIFIED_BUNDLES: dict[str, tuple[int, int, int]] = {}
_VERIFIED_BUNDLES_LOCK = threading.Lock()
_VERIFIED_BUNDLES_CAP = 4096


def _bundle_fingerprint(path: Path) -> tuple[int, int, int] | None:
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def load_npz_bundle(
    path: str | Path, *, verify: bool = True
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Load a bundle written by :func:`save_npz_bundle`.

    When the metadata carries a content digest it is verified (``verify=True``,
    the default); a mismatch raises :class:`CorruptArtifactError`.  Bundles
    written before checksums existed load unverified.  Verification is
    memoized per file fingerprint (inode, size, mtime): re-reading an
    unchanged bundle — the warm-cache steady state — skips the digest, while
    any rewrite invalidates the memo and verifies again.

    Returns
    -------
    (arrays, metadata)
        ``arrays`` maps names to arrays, ``metadata`` is the decoded JSON
        dict (checksum key stripped).
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    fingerprint = _bundle_fingerprint(path) if verify else None
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files if name != _META_KEY}
        metadata: dict[str, Any] = {}
        if _META_KEY in data.files:
            raw = bytes(data[_META_KEY].tobytes())
            if raw:
                metadata = json.loads(raw.decode("utf-8"))
    recorded = metadata.pop(CHECKSUM_KEY, None)
    if verify and recorded is not None:
        key = str(path)
        with _VERIFIED_BUNDLES_LOCK:
            already_verified = (
                fingerprint is not None and _VERIFIED_BUNDLES.get(key) == fingerprint
            )
        if not already_verified:
            actual = _arrays_digest(arrays, metadata)
            if recorded != actual:
                raise CorruptArtifactError(
                    f"{path}: bundle checksum mismatch",
                    detail={
                        "path": str(path),
                        "recorded": recorded,
                        "computed": actual,
                    },
                )
            if fingerprint is not None:
                with _VERIFIED_BUNDLES_LOCK:
                    if len(_VERIFIED_BUNDLES) >= _VERIFIED_BUNDLES_CAP:
                        _VERIFIED_BUNDLES.clear()
                    _VERIFIED_BUNDLES[key] = fingerprint
    return arrays, metadata


__all__ = [
    "CHECKSUM_KEY",
    "QUARANTINE_DIRNAME",
    "atomic_write_bytes",
    "count_quarantined",
    "dump_json",
    "fsync_directory",
    "load_json",
    "load_npz_bundle",
    "quarantine_file",
    "save_npz_bundle",
    "verify_checksum",
    "with_checksum",
]
