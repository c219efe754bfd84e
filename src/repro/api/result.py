"""Uniform run results with provenance, persistence and reload.

:func:`repro.api.run` returns a :class:`RunResult`: one :class:`CaseResult`
per load case (the sampled mid-plane von Mises field plus solver/timing
diagnostics) and a provenance manifest recording the spec, its content hash,
the package version and the solver backends actually used.  ``save()``
persists everything to a results directory (``manifest.json`` + one ``.npz``
bundle of stress fields) and ``load()`` reconstructs an equivalent result, so
a run can be archived, shipped and re-inspected without re-solving.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._version import __version__
from repro.api.envelope import unwrap, wrap
from repro.api.spec import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    SimulationSpec,
    SpecError,
)
from repro.postprocess.fields import ArrayField
from repro.postprocess.hotspots import HotspotReport
from repro.utils.serialization import (
    load_json,
    load_npz_bundle,
    dump_json,
    save_npz_bundle,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rom.workflow import SimulationResult

_MANIFEST_NAME = "manifest.json"
_FIELDS_NAME = "fields.npz"
_EXPORT_SUBDIR = "fields"
_HOTSPOTS_NAME = "hotspots.json"


def _safe_name(name: str) -> str:
    """A filesystem-safe version of a case name."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "case"


def _case_stem(index: int, name: str) -> str:
    """File stem of one case's field exports (shared by save/export/load)."""
    return f"case{index}_{_safe_name(name)}"


@dataclass(frozen=True, eq=False)
class CaseResult:
    """Result of one load case of a spec-driven run.

    Attributes
    ----------
    name, delta_t, rows, cols, location:
        The resolved case this result belongs to.
    von_mises:
        Sampled mid-plane von Mises stress over the TSV region, shape
        ``(rows, cols, p, p)`` with ``p`` = ``mesh.points_per_block``.
    group:
        Index of the execution group this case was solved in.  Cases sharing
        a group were solved with **one** assembly + factorisation
        (:meth:`GlobalStage.solve_many`).
    peak_memory_bytes:
        Process peak RSS (``ru_maxrss``) at the end of the case group's
        global stage, in bytes.  It is the process-wide high-water mark, not
        an amount attributable to this case alone.  Manifests and executor
        checkpoints written before this meaning was adopted carry the
        global stage's peak ``tracemalloc`` bytes in the same field.
    solver_method:
        The solver/backed actually used (from :class:`SolveStats`), e.g.
        ``"gmres"`` or ``"direct-batched"``.
    field_data:
        The full volumetric :class:`~repro.postprocess.fields.ArrayField` of
        this case when the spec requested one (:class:`OutputSpec`),
        otherwise ``None``.  Persisted by :meth:`RunResult.save` and
        reloaded by :meth:`RunResult.load`.
    hotspots:
        Per-TSV :class:`~repro.postprocess.hotspots.HotspotReport` when the
        spec's output requested hotspot analytics, otherwise ``None``.
    simulation:
        The live :class:`~repro.rom.workflow.SimulationResult` with full
        reconstruction helpers.  ``None`` on results re-loaded from disk.
    """

    name: str
    delta_t: float
    rows: int
    cols: int
    location: str | None
    von_mises: np.ndarray
    num_global_dofs: int
    local_stage_seconds: float
    global_stage_seconds: float
    peak_memory_bytes: int
    solver_method: str
    group: int
    field_data: ArrayField | None = field(default=None, repr=False)
    hotspots: HotspotReport | None = field(default=None, repr=False)
    simulation: "SimulationResult | None" = field(default=None, repr=False)

    @property
    def peak_von_mises(self) -> float:
        """Largest sampled von Mises stress of this case (MPa)."""
        return float(self.von_mises.max())

    @property
    def mean_von_mises(self) -> float:
        """Mean sampled von Mises stress of this case (MPa)."""
        return float(self.von_mises.mean())

    def summary(self) -> dict[str, Any]:
        """The JSON-compatible manifest entry of this case."""
        return {
            "name": self.name,
            "delta_t": self.delta_t,
            "rows": self.rows,
            "cols": self.cols,
            "location": self.location,
            "group": self.group,
            "num_global_dofs": self.num_global_dofs,
            "local_stage_seconds": self.local_stage_seconds,
            "global_stage_seconds": self.global_stage_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "solver_method": self.solver_method,
            "field_shape": [int(n) for n in self.von_mises.shape],
            "peak_von_mises": self.peak_von_mises,
            "mean_von_mises": self.mean_von_mises,
            "field": None if self.field_data is None else self.field_data.summary(),
            "hotspots": None if self.hotspots is None else self.hotspots.to_dict(),
        }


@dataclass(eq=False)
class RunResult:
    """All case results of one spec-driven run plus its provenance manifest."""

    spec: SimulationSpec
    cases: tuple[CaseResult, ...]
    num_case_groups: int
    materials_overridden: bool = False
    rom_cache_stats: dict[str, int] | None = None
    repro_version: str = __version__
    spec_hash: str = ""

    def __post_init__(self) -> None:
        self.cases = tuple(self.cases)
        if not self.spec_hash:
            self.spec_hash = self.spec.spec_hash()

    # ------------------------------------------------------------------ #
    # lookup helpers
    # ------------------------------------------------------------------ #
    def case(self, name: str) -> CaseResult:
        """Return the case result with the given (resolved) name."""
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(
            f"run has no case named {name!r}; cases: {[c.name for c in self.cases]}"
        )

    @property
    def backends_used(self) -> list[str]:
        """Sorted set of solver methods that actually ran."""
        return sorted({case.solver_method for case in self.cases})

    @property
    def total_global_stage_seconds(self) -> float:
        """Wall-clock global-stage time summed over execution groups."""
        per_group: dict[int, float] = {}
        for case in self.cases:
            per_group[case.group] = case.global_stage_seconds
        return float(sum(per_group.values()))

    @property
    def local_stage_seconds(self) -> float:
        """Wall-clock time of the (shared) one-shot local stage."""
        return max((case.local_stage_seconds for case in self.cases), default=0.0)

    # ------------------------------------------------------------------ #
    # provenance manifest
    # ------------------------------------------------------------------ #
    def manifest(self) -> dict[str, Any]:
        """JSON-compatible provenance record of this run."""
        return {
            "schema_version": SCHEMA_VERSION,
            "repro_version": self.repro_version,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "backends_used": self.backends_used,
            "num_case_groups": self.num_case_groups,
            "materials_overridden": self.materials_overridden,
            "rom_cache": self.rom_cache_stats,
            "totals": {
                "local_stage_seconds": self.local_stage_seconds,
                "global_stage_seconds": self.total_global_stage_seconds,
            },
            "cases": [case.summary() for case in self.cases],
        }

    def envelope(self) -> dict[str, Any]:
        """The manifest wrapped in the versioned response envelope.

        This is the exact document :meth:`save` persists as ``manifest.json``
        and the job service returns from ``/v1/jobs/{id}/result`` — one
        shape for disk, wire and CLI ``--json`` output.
        """
        return wrap("run_result", self.manifest())

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def export_fields(
        self,
        directory: str | Path,
        formats: tuple[str, ...] | None = None,
    ) -> list[Path]:
        """Write the full-field exports of every case carrying a field.

        Parameters
        ----------
        directory:
            Destination directory (created if missing).
        formats:
            Export formats, a subset of ``("vtk", "npz")``.  Defaults to the
            spec's :class:`OutputSpec` formats (or both when the spec has no
            output section).

        Returns
        -------
        list of pathlib.Path
            All files written.  Empty when no case carries a field.  When any
            case carries a hotspot report, a ``hotspots.json`` with the
            complete per-TSV records of every case is written alongside the
            fields (top-K selection is a presentation concern —
            :meth:`HotspotReport.table` — not a persistence one).
        """
        from repro.postprocess.vtk import write_vtk_rectilinear

        directory = Path(directory)
        if formats is None:
            formats = (
                self.spec.output.formats if self.spec.output is not None else ("vtk", "npz")
            )
        unknown = set(formats) - {"vtk", "npz"}
        if unknown:
            raise SpecError(
                f"unknown export formats {sorted(unknown)}; choose from ['npz', 'vtk']"
            )
        written: list[Path] = []
        hotspot_docs: dict[str, Any] = {}
        for index, case in enumerate(self.cases):
            if case.field_data is None:
                continue
            directory.mkdir(parents=True, exist_ok=True)
            stem = _case_stem(index, case.name)
            if "npz" in formats:
                written.append(case.field_data.save(directory / stem))
            if "vtk" in formats:
                written.append(
                    write_vtk_rectilinear(
                        directory / f"{stem}.vtk",
                        case.field_data,
                        title=f"{self.spec.name}/{case.name} delta_t={case.delta_t:g}",
                    )
                )
            if case.hotspots is not None:
                hotspot_docs[case.name] = case.hotspots.to_dict()
        if hotspot_docs:
            written.append(
                dump_json(
                    directory / _HOTSPOTS_NAME,
                    {"spec_hash": self.spec_hash, "cases": hotspot_docs},
                )
            )
        return written

    def save(self, directory: str | Path) -> Path:
        """Persist manifest + stress fields to ``directory``; returns it.

        Cases carrying a full :class:`ArrayField` additionally write their
        exports under ``<directory>/fields/`` — the requested formats plus
        always ``.npz`` (the lossless bundle :meth:`load` reads back).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        dump_json(directory / _MANIFEST_NAME, self.envelope())
        arrays = {
            f"von_mises_{index}": case.von_mises
            for index, case in enumerate(self.cases)
        }
        save_npz_bundle(
            directory / _FIELDS_NAME, arrays, metadata={"spec_hash": self.spec_hash}
        )
        if any(case.field_data is not None for case in self.cases):
            requested = (
                self.spec.output.formats if self.spec.output is not None else ()
            )
            formats = tuple(sorted({*requested, "npz"}))
            self.export_fields(directory / _EXPORT_SUBDIR, formats=formats)
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "RunResult":
        """Reconstruct a :class:`RunResult` written by :meth:`save`.

        Re-loaded case results carry the persisted fields and diagnostics;
        the live ``simulation`` objects are not persisted and read as ``None``.
        """
        directory = Path(directory)
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.exists():
            raise SpecError(f"no {_MANIFEST_NAME} found in {directory}")
        # Envelope-version-3 manifests carry the payload under "data";
        # version-1/2 manifests were written flat and unwrap as themselves.
        manifest = unwrap(
            load_json(manifest_path), expected_kind="run_result", path="manifest"
        )
        version = manifest.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise SpecError(
                f"manifest.schema_version: unsupported version {version!r} "
                f"(this build reads versions {list(SUPPORTED_SCHEMA_VERSIONS)})"
            )
        spec = SimulationSpec.from_dict(manifest["spec"])
        arrays, _ = load_npz_bundle(directory / _FIELDS_NAME)
        cases = []
        for index, entry in enumerate(manifest["cases"]):
            key = f"von_mises_{index}"
            if key not in arrays:
                raise SpecError(f"{_FIELDS_NAME} is missing array {key!r}")
            field_data = None
            if entry.get("field") is not None:
                stem = _case_stem(index, entry["name"])
                bundle = directory / _EXPORT_SUBDIR / f"{stem}.npz"
                if bundle.exists():
                    field_data = ArrayField.load(bundle)
            hotspots = (
                HotspotReport.from_dict(entry["hotspots"])
                if entry.get("hotspots") is not None
                else None
            )
            cases.append(
                CaseResult(
                    name=entry["name"],
                    delta_t=float(entry["delta_t"]),
                    rows=int(entry["rows"]),
                    cols=int(entry["cols"]),
                    location=entry["location"],
                    von_mises=arrays[key],
                    num_global_dofs=int(entry["num_global_dofs"]),
                    local_stage_seconds=float(entry["local_stage_seconds"]),
                    global_stage_seconds=float(entry["global_stage_seconds"]),
                    peak_memory_bytes=int(entry["peak_memory_bytes"]),
                    solver_method=entry["solver_method"],
                    group=int(entry["group"]),
                    field_data=field_data,
                    hotspots=hotspots,
                )
            )
        # Older manifests also carry a record of the dense array backend
        # and per-case records of the removed out-of-core solve; both are
        # ignored.
        return cls(
            spec=spec,
            cases=tuple(cases),
            num_case_groups=int(manifest["num_case_groups"]),
            materials_overridden=bool(manifest["materials_overridden"]),
            rom_cache_stats=manifest.get("rom_cache"),
            repro_version=manifest["repro_version"],
            spec_hash=manifest["spec_hash"],
        )


__all__ = ["CaseResult", "RunResult"]
