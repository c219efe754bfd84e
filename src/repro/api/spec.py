"""Declarative simulation specifications.

A :class:`SimulationSpec` is a frozen, validated, fully serializable
description of one MORE-Stress workload: the TSV technology and array size
(:class:`GeometrySpec`), the material library (:class:`MaterialsSpec`), the
fine-mesh / interpolation fidelity (:class:`MeshSpec`), the solver
configuration (:class:`SolverSpec`), one or many :class:`LoadCase`\\ s, and an
optional sub-modeling context (:class:`SubModelSpec`).

Specs are *data*: ``to_dict``/``from_dict`` and ``to_json``/``from_json`` are
lossless (``from_json(to_json(spec)) == spec``), every document carries a
``schema_version``, and malformed input fails with a :class:`SpecError`
naming the offending field (``"load_cases[2].delta_t: ..."``), never with a
bare ``KeyError`` or a silently ignored key.  The same spec document drives
the Python executor (:func:`repro.api.run`), the CLI (``repro run spec.json``)
and the experiment drivers, so a run description can be stored, diffed,
queued and shipped between processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

# Deprecated alias: SpecError now lives in the unified exception taxonomy
# (repro.errors); importing it from here keeps working.
from repro.errors import SpecError
from repro.fem.backends import BACKEND_ALIASES, backend_names
from repro.fem.solver import SolverOptions
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import (
    ROLE_COPPER,
    ROLE_LINER,
    ROLE_SILICON,
    ROLE_SOLDER,
    ROLE_SUBSTRATE,
    ROLE_UNDERFILL,
    IsotropicMaterial,
    MaterialLibrary,
)
from repro.mesh.resolution import MeshResolution
from repro.rom.interpolation import InterpolationScheme
from repro.utils.units import GPA
from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
)

#: Version of the spec document layout.  Bumped when the layout changes;
#: ``from_dict`` accepts every version in :data:`SUPPORTED_SCHEMA_VERSIONS`
#: and refuses anything else.  Version history:
#:
#: * 1 — initial layout (no ``solver.array_backend``).
#: * 2 — adds ``solver.array_backend``.  Only numpy remains: the field is
#:   written as the constant ``"numpy"``, accepted on input as ``"numpy"``
#:   (or ``"np"``) and otherwise ignored, and any other value is rejected.
#: * 3 — adds ``solver.shard`` (an out-of-core global stage, since removed).
#:   The field is written as the constant ``null``, accepted on input only
#:   as ``null`` and otherwise rejected.
SCHEMA_VERSION = 3

#: Spec document versions this build can read.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Material roles that may be overridden (the roles the meshers tag).
KNOWN_MATERIAL_ROLES = (
    ROLE_SILICON,
    ROLE_COPPER,
    ROLE_LINER,
    ROLE_SUBSTRATE,
    ROLE_UNDERFILL,
    ROLE_SOLDER,
)

#: Named sub-model placements of the chiplet package (paper Fig. 5b);
#: see :meth:`repro.geometry.package.ChipletPackage.paper_locations`.
KNOWN_SUBMODEL_LOCATIONS = ("loc1", "loc2", "loc3", "loc4", "loc5")

_MISSING = object()


# --------------------------------------------------------------------------- #
# parsing helpers
# --------------------------------------------------------------------------- #
def _as_mapping(data: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SpecError(f"{path}: expected an object, got {type(data).__name__}")
    return data


def _reject_unknown(data: Mapping[str, Any], allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"{path}.{unknown[0]}: unknown field (allowed fields: {sorted(allowed)})"
        )


def _get(data: Mapping[str, Any], key: str, path: str, default: Any = _MISSING) -> Any:
    if key in data:
        return data[key]
    if default is _MISSING:
        raise SpecError(f"{path}.{key}: required field is missing")
    return default


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{path}: expected a string, got {value!r}")
    return value


def _optional(value: Any, convert, path: str):
    return None if value is None else convert(value, path)


def _int_triple(value: Any, path: str) -> tuple[int, int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SpecError(f"{path}: expected a list of 3 integers, got {value!r}")
    return tuple(_integer(item, f"{path}[{index}]") for index, item in enumerate(value))


def _construct(cls, kwargs: dict[str, Any], path: str):
    """Build a spec dataclass, re-raising validation errors with the path."""
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except ValidationError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return value


# --------------------------------------------------------------------------- #
# geometry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GeometrySpec:
    """TSV technology and default array size.

    Lengths are micrometres, exactly as in :class:`TSVGeometry`.  ``rows`` and
    ``cols`` give the default array size of the run's load cases; individual
    :class:`LoadCase`\\ s may override them (the reduced order models depend
    only on the technology, not on the array size, so one spec can sweep
    sizes and still build the ROMs once).
    """

    diameter: float = 5.0
    height: float = 50.0
    liner_thickness: float = 0.5
    pitch: float = 15.0
    rows: int = 4
    cols: int | None = None

    def __post_init__(self) -> None:
        check_positive_int("rows", self.rows)
        if self.cols is not None:
            check_positive_int("cols", self.cols)
        # TSVGeometry validates the lengths (including the pitch-fit check).
        self.build_tsv()

    def build_tsv(self) -> TSVGeometry:
        """The :class:`TSVGeometry` this spec describes."""
        return TSVGeometry(
            diameter=self.diameter,
            height=self.height,
            liner_thickness=self.liner_thickness,
            pitch=self.pitch,
        )

    @property
    def resolved_cols(self) -> int:
        """``cols`` with the square-array default applied."""
        return self.rows if self.cols is None else self.cols

    def to_dict(self) -> dict[str, Any]:
        return {
            "diameter": self.diameter,
            "height": self.height,
            "liner_thickness": self.liner_thickness,
            "pitch": self.pitch,
            "rows": self.rows,
            "cols": self.cols,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "geometry") -> "GeometrySpec":
        data = _as_mapping(data, path)
        allowed = [f.name for f in fields(cls)]
        _reject_unknown(data, allowed, path)
        kwargs = {
            key: _number(_get(data, key, path, getattr(cls, key)), f"{path}.{key}")
            for key in ("diameter", "height", "liner_thickness", "pitch")
        }
        kwargs["rows"] = _integer(_get(data, "rows", path, cls.rows), f"{path}.rows")
        kwargs["cols"] = _optional(
            _get(data, "cols", path, None), _integer, f"{path}.cols"
        )
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# materials
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MaterialOverride:
    """Replacement elastic constants for one material role.

    Units are the human-facing ones of ``repro info``: Young's modulus in GPa
    and CTE in ppm/degC (the library stores MPa and 1/degC internally).
    """

    role: str
    young_modulus_gpa: float
    poisson_ratio: float
    cte_ppm: float

    def __post_init__(self) -> None:
        if self.role not in KNOWN_MATERIAL_ROLES:
            raise ValidationError(
                f"role must be one of {sorted(KNOWN_MATERIAL_ROLES)}, got {self.role!r}"
            )
        check_positive("young_modulus_gpa", self.young_modulus_gpa)
        check_in_range("poisson_ratio", self.poisson_ratio, -1.0, 0.5, inclusive=False)
        check_non_negative("cte_ppm", self.cte_ppm)

    def build_material(self) -> IsotropicMaterial:
        """The :class:`IsotropicMaterial` (internal units) this override describes."""
        return IsotropicMaterial(
            name=self.role,
            young_modulus=self.young_modulus_gpa * GPA,
            poisson_ratio=self.poisson_ratio,
            cte=self.cte_ppm * 1e-6,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "role": self.role,
            "young_modulus_gpa": self.young_modulus_gpa,
            "poisson_ratio": self.poisson_ratio,
            "cte_ppm": self.cte_ppm,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "MaterialOverride":
        data = _as_mapping(data, path)
        allowed = [f.name for f in fields(cls)]
        _reject_unknown(data, allowed, path)
        kwargs = {
            "role": _string(_get(data, "role", path), f"{path}.role"),
            "young_modulus_gpa": _number(
                _get(data, "young_modulus_gpa", path), f"{path}.young_modulus_gpa"
            ),
            "poisson_ratio": _number(
                _get(data, "poisson_ratio", path), f"{path}.poisson_ratio"
            ),
            "cte_ppm": _number(_get(data, "cte_ppm", path), f"{path}.cte_ppm"),
        }
        return _construct(cls, kwargs, path)


@dataclass(frozen=True)
class MaterialsSpec:
    """Material library description: a named base plus per-role overrides."""

    base: str = "default"
    overrides: tuple[MaterialOverride, ...] = ()

    def __post_init__(self) -> None:
        if self.base != "default":
            raise ValidationError(
                f"base must be 'default' (the Cu/Si/SiO2 library), got {self.base!r}"
            )
        object.__setattr__(self, "overrides", tuple(self.overrides))
        seen: set[str] = set()
        for override in self.overrides:
            if not isinstance(override, MaterialOverride):
                raise ValidationError(
                    f"overrides entries must be MaterialOverride, got {override!r}"
                )
            if override.role in seen:
                raise ValidationError(f"role {override.role!r} is overridden twice")
            seen.add(override.role)

    def build_library(self) -> MaterialLibrary:
        """Materialize the base library with all overrides applied."""
        library = MaterialLibrary.default()
        for override in self.overrides:
            library.add(override.role, override.build_material())
        return library

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base,
            "overrides": [override.to_dict() for override in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "materials") -> "MaterialsSpec":
        data = _as_mapping(data, path)
        _reject_unknown(data, ["base", "overrides"], path)
        raw_overrides = _get(data, "overrides", path, [])
        if not isinstance(raw_overrides, (list, tuple)):
            raise SpecError(f"{path}.overrides: expected a list, got {raw_overrides!r}")
        overrides = tuple(
            MaterialOverride.from_dict(item, f"{path}.overrides[{index}]")
            for index, item in enumerate(raw_overrides)
        )
        kwargs = {
            "base": _string(_get(data, "base", path, cls.base), f"{path}.base"),
            "overrides": overrides,
        }
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# mesh / interpolation fidelity
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MeshSpec:
    """Fine-mesh resolution, interpolation scheme and sampling grid.

    ``resolution`` is either a preset name (``"tiny"`` .. ``"paper"``) or an
    explicit :class:`MeshResolution`; both serialize losslessly.
    """

    resolution: str | MeshResolution = "coarse"
    nodes_per_axis: tuple[int, int, int] = (4, 4, 4)
    points_per_block: int = 30

    def __post_init__(self) -> None:
        if isinstance(self.resolution, str):
            if self.resolution not in MeshResolution.preset_names():
                raise ValidationError(
                    f"resolution must be one of {MeshResolution.preset_names()} "
                    f"or an explicit resolution object, got {self.resolution!r}"
                )
        elif not isinstance(self.resolution, MeshResolution):
            raise ValidationError(
                f"resolution must be a preset name or a MeshResolution, "
                f"got {self.resolution!r}"
            )
        object.__setattr__(self, "nodes_per_axis", tuple(self.nodes_per_axis))
        if len(self.nodes_per_axis) != 3:
            raise ValidationError(
                f"nodes_per_axis must have 3 entries, got {self.nodes_per_axis!r}"
            )
        for count in self.nodes_per_axis:
            check_positive_int("nodes_per_axis", count, minimum=2)
        check_positive_int("points_per_block", self.points_per_block, minimum=2)

    def build_resolution(self) -> MeshResolution:
        """The :class:`MeshResolution` this spec describes."""
        return MeshResolution.from_spec(self.resolution)

    def build_scheme(self) -> InterpolationScheme:
        """The :class:`InterpolationScheme` this spec describes."""
        return InterpolationScheme(self.nodes_per_axis)

    def to_dict(self) -> dict[str, Any]:
        if isinstance(self.resolution, MeshResolution):
            resolution: Any = {
                "n_core": self.resolution.n_core,
                "n_liner": self.resolution.n_liner,
                "n_outer": self.resolution.n_outer,
                "n_z": self.resolution.n_z,
                "outer_ratio": self.resolution.outer_ratio,
                "z_refinement": self.resolution.z_refinement,
            }
        else:
            resolution = self.resolution
        return {
            "resolution": resolution,
            "nodes_per_axis": list(self.nodes_per_axis),
            "points_per_block": self.points_per_block,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "mesh") -> "MeshSpec":
        data = _as_mapping(data, path)
        _reject_unknown(data, ["resolution", "nodes_per_axis", "points_per_block"], path)
        raw_resolution = _get(data, "resolution", path, cls.resolution)
        if isinstance(raw_resolution, str):
            resolution: str | MeshResolution = raw_resolution
        elif isinstance(raw_resolution, Mapping):
            sub_path = f"{path}.resolution"
            allowed = ("n_core", "n_liner", "n_outer", "n_z", "outer_ratio", "z_refinement")
            _reject_unknown(raw_resolution, allowed, sub_path)
            kwargs = {
                key: _integer(_get(raw_resolution, key, sub_path), f"{sub_path}.{key}")
                for key in ("n_core", "n_liner", "n_outer", "n_z")
            }
            kwargs.update(
                {
                    key: _number(
                        _get(raw_resolution, key, sub_path, getattr(MeshResolution, key)),
                        f"{sub_path}.{key}",
                    )
                    for key in ("outer_ratio", "z_refinement")
                }
            )
            resolution = _construct(MeshResolution, kwargs, sub_path)
        else:
            raise SpecError(
                f"{path}.resolution: expected a preset name or an object, "
                f"got {raw_resolution!r}"
            )
        kwargs = {
            "resolution": resolution,
            "nodes_per_axis": _int_triple(
                _get(data, "nodes_per_axis", path, list(cls.nodes_per_axis)),
                f"{path}.nodes_per_axis",
            ),
            "points_per_block": _integer(
                _get(data, "points_per_block", path, cls.points_per_block),
                f"{path}.points_per_block",
            ),
        }
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# solver
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolverSpec:
    """Global-stage solver configuration plus the local-stage worker count."""

    method: str = "gmres"
    backend: str | None = None
    rtol: float = 1e-9
    max_iterations: int = 5000
    gmres_restart: int = 100
    jobs: int | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            known = sorted({*backend_names(), *BACKEND_ALIASES})
            if self.backend not in known:
                raise ValidationError(
                    f"backend must be one of {known} or null, got {self.backend!r}"
                )
        # SolverOptions validates method/rtol/max_iterations eagerly.
        self.build_options()
        if self.jobs is not None:
            check_positive_int("jobs", self.jobs)

    def build_options(self) -> SolverOptions:
        """The :class:`SolverOptions` this spec describes."""
        return SolverOptions(
            method=self.method,
            backend=self.backend,
            rtol=self.rtol,
            max_iterations=self.max_iterations,
            gmres_restart=self.gmres_restart,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "backend": self.backend,
            "rtol": self.rtol,
            "max_iterations": self.max_iterations,
            "gmres_restart": self.gmres_restart,
            "jobs": self.jobs,
            # Constants: every build computes on numpy, and the out-of-core
            # global stage is gone.  Writing them keeps documents, spec
            # hashes and the benchmark's committed reference spec identical
            # to those of builds that had the fields.
            "array_backend": "numpy",
            "shard": None,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "solver") -> "SolverSpec":
        data = _as_mapping(data, path)
        # The two legacy keys are written as constants (see to_dict): only
        # those values load, and they are ignored.
        _reject_unknown(
            data, [f.name for f in fields(cls)] + ["array_backend", "shard"], path
        )
        legacy = _get(data, "array_backend", path, "numpy")
        if not isinstance(legacy, str) or legacy.strip().lower() not in ("numpy", "np"):
            raise SpecError(
                f"{path}.array_backend: only 'numpy' is supported, got {legacy!r}"
            )
        if _get(data, "shard", path, None) is not None:
            raise SpecError(
                f"{path}.shard: the sharded global stage was removed; the "
                "matrix-free solve covers every array size, so only null "
                "is accepted"
            )
        kwargs = {
            "method": _string(_get(data, "method", path, cls.method), f"{path}.method"),
            "backend": _optional(
                _get(data, "backend", path, None), _string, f"{path}.backend"
            ),
            "rtol": _number(_get(data, "rtol", path, cls.rtol), f"{path}.rtol"),
            "max_iterations": _integer(
                _get(data, "max_iterations", path, cls.max_iterations),
                f"{path}.max_iterations",
            ),
            "gmres_restart": _integer(
                _get(data, "gmres_restart", path, cls.gmres_restart),
                f"{path}.gmres_restart",
            ),
            "jobs": _optional(_get(data, "jobs", path, None), _integer, f"{path}.jobs"),
        }
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# load cases
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoadCase:
    """One simulation case: a thermal load plus optional per-case overrides.

    ``rows``/``cols`` override the spec-level array size (the ROMs are shared
    across sizes); ``location`` places the case at a named package location
    and is only valid when the spec has a :class:`SubModelSpec`.
    """

    name: str = ""
    delta_t: float = -250.0
    rows: int | None = None
    cols: int | None = None
    location: str | None = None

    def __post_init__(self) -> None:
        _check_finite("delta_t", self.delta_t)
        if self.rows is not None:
            check_positive_int("rows", self.rows)
        if self.cols is not None:
            check_positive_int("cols", self.cols)
        if self.location is not None and self.location not in KNOWN_SUBMODEL_LOCATIONS:
            raise ValidationError(
                f"location must be one of {list(KNOWN_SUBMODEL_LOCATIONS)} or null, "
                f"got {self.location!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "delta_t": self.delta_t,
            "rows": self.rows,
            "cols": self.cols,
            "location": self.location,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "LoadCase":
        data = _as_mapping(data, path)
        allowed = [f.name for f in fields(cls)]
        _reject_unknown(data, allowed, path)
        kwargs = {
            "name": _string(_get(data, "name", path, ""), f"{path}.name"),
            "delta_t": _number(
                _get(data, "delta_t", path, cls.delta_t), f"{path}.delta_t"
            ),
            "rows": _optional(_get(data, "rows", path, None), _integer, f"{path}.rows"),
            "cols": _optional(_get(data, "cols", path, None), _integer, f"{path}.cols"),
            "location": _optional(
                _get(data, "location", path, None), _string, f"{path}.location"
            ),
        }
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# sub-modeling
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SubModelSpec:
    """Sub-modeling context: chiplet package, coarse model and dummy padding.

    When present, every load case is solved as a dummy-padded sub-model at a
    named package location (paper §4.4); ``location`` supplies the default
    for cases that do not name one.
    """

    dummy_ring_width: int = 1
    coarse_inplane_cells: int = 18
    package_scale: float = 1.0
    location: str = "loc1"

    def __post_init__(self) -> None:
        check_positive_int("dummy_ring_width", self.dummy_ring_width, minimum=0)
        check_positive_int("coarse_inplane_cells", self.coarse_inplane_cells, minimum=2)
        check_positive("package_scale", self.package_scale)
        if self.location not in KNOWN_SUBMODEL_LOCATIONS:
            raise ValidationError(
                f"location must be one of {list(KNOWN_SUBMODEL_LOCATIONS)}, "
                f"got {self.location!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "dummy_ring_width": self.dummy_ring_width,
            "coarse_inplane_cells": self.coarse_inplane_cells,
            "package_scale": self.package_scale,
            "location": self.location,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "submodel") -> "SubModelSpec":
        data = _as_mapping(data, path)
        allowed = [f.name for f in fields(cls)]
        _reject_unknown(data, allowed, path)
        kwargs = {
            "dummy_ring_width": _integer(
                _get(data, "dummy_ring_width", path, cls.dummy_ring_width),
                f"{path}.dummy_ring_width",
            ),
            "coarse_inplane_cells": _integer(
                _get(data, "coarse_inplane_cells", path, cls.coarse_inplane_cells),
                f"{path}.coarse_inplane_cells",
            ),
            "package_scale": _number(
                _get(data, "package_scale", path, cls.package_scale),
                f"{path}.package_scale",
            ),
            "location": _string(
                _get(data, "location", path, cls.location), f"{path}.location"
            ),
        }
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# outputs
# --------------------------------------------------------------------------- #
#: Field-export formats the post-processing stage can materialize.
KNOWN_OUTPUT_FORMATS = ("vtk", "npz")


@dataclass(frozen=True)
class OutputSpec:
    """Requested post-processing outputs of a run (paper-and-beyond artifacts).

    When present, every load case gets a full-field reconstruction
    (:mod:`repro.postprocess`): a structured grid of displacement, Voigt
    stress and von Mises stress sampled ``points_per_block`` x
    ``points_per_block`` x ``z_planes`` per block, exported in the requested
    ``formats``, plus (optionally) a per-TSV hotspot report.

    ``points_per_block`` defaults to the mesh spec's sampling density;
    ``z_planes`` must be odd so the half-height plane of the paper's error
    metric is one of the sampled planes.
    """

    formats: tuple[str, ...] = ("vtk", "npz")
    points_per_block: int | None = None
    z_planes: int = 5
    hotspots: bool = True
    hotspot_threshold_fraction: float = 0.8
    top_k: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "formats", tuple(self.formats))
        if not self.formats:
            raise ValidationError(
                f"formats must contain at least one of {list(KNOWN_OUTPUT_FORMATS)}"
            )
        seen: set[str] = set()
        for fmt in self.formats:
            if fmt not in KNOWN_OUTPUT_FORMATS:
                raise ValidationError(
                    f"formats entries must be one of {list(KNOWN_OUTPUT_FORMATS)}, "
                    f"got {fmt!r}"
                )
            if fmt in seen:
                raise ValidationError(f"format {fmt!r} is listed twice")
            seen.add(fmt)
        if self.points_per_block is not None:
            check_positive_int("points_per_block", self.points_per_block, minimum=2)
        check_positive_int("z_planes", self.z_planes)
        if self.z_planes % 2 == 0:
            raise ValidationError(
                "z_planes must be odd so the half-height plane is sampled, "
                f"got {self.z_planes}"
            )
        check_in_range(
            "hotspot_threshold_fraction",
            self.hotspot_threshold_fraction,
            0.0,
            1.0,
            inclusive=False,
        )
        check_positive_int("top_k", self.top_k)

    def resolved_points_per_block(self, mesh: "MeshSpec") -> int:
        """``points_per_block`` with the mesh-spec default applied."""
        if self.points_per_block is not None:
            return self.points_per_block
        return mesh.points_per_block

    def to_dict(self) -> dict[str, Any]:
        return {
            "formats": list(self.formats),
            "points_per_block": self.points_per_block,
            "z_planes": self.z_planes,
            "hotspots": self.hotspots,
            "hotspot_threshold_fraction": self.hotspot_threshold_fraction,
            "top_k": self.top_k,
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "output") -> "OutputSpec":
        data = _as_mapping(data, path)
        allowed = [f.name for f in fields(cls)]
        _reject_unknown(data, allowed, path)
        raw_formats = _get(data, "formats", path, list(cls.formats))
        if not isinstance(raw_formats, (list, tuple)):
            raise SpecError(f"{path}.formats: expected a list, got {raw_formats!r}")
        formats = tuple(
            _string(item, f"{path}.formats[{index}]")
            for index, item in enumerate(raw_formats)
        )
        raw_hotspots = _get(data, "hotspots", path, cls.hotspots)
        if not isinstance(raw_hotspots, bool):
            raise SpecError(
                f"{path}.hotspots: expected a boolean, got {raw_hotspots!r}"
            )
        kwargs = {
            "formats": formats,
            "points_per_block": _optional(
                _get(data, "points_per_block", path, None),
                _integer,
                f"{path}.points_per_block",
            ),
            "z_planes": _integer(
                _get(data, "z_planes", path, cls.z_planes), f"{path}.z_planes"
            ),
            "hotspots": raw_hotspots,
            "hotspot_threshold_fraction": _number(
                _get(
                    data,
                    "hotspot_threshold_fraction",
                    path,
                    cls.hotspot_threshold_fraction,
                ),
                f"{path}.hotspot_threshold_fraction",
            ),
            "top_k": _integer(_get(data, "top_k", path, cls.top_k), f"{path}.top_k"),
        }
        return _construct(cls, kwargs, path)


# --------------------------------------------------------------------------- #
# the spec
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResolvedCase:
    """A :class:`LoadCase` with every default filled in by the spec."""

    name: str
    delta_t: float
    rows: int
    cols: int
    location: str | None


@dataclass(frozen=True)
class SimulationSpec:
    """A complete, serializable description of one MORE-Stress run."""

    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    materials: MaterialsSpec = field(default_factory=MaterialsSpec)
    mesh: MeshSpec = field(default_factory=MeshSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    load_cases: tuple[LoadCase, ...] = (LoadCase(),)
    submodel: SubModelSpec | None = None
    output: OutputSpec | None = None
    name: str = "simulation"

    def __post_init__(self) -> None:
        for attr, expected in (
            ("geometry", GeometrySpec),
            ("materials", MaterialsSpec),
            ("mesh", MeshSpec),
            ("solver", SolverSpec),
        ):
            if not isinstance(getattr(self, attr), expected):
                raise ValidationError(
                    f"{attr} must be a {expected.__name__}, got {getattr(self, attr)!r}"
                )
        if self.submodel is not None and not isinstance(self.submodel, SubModelSpec):
            raise ValidationError(
                f"submodel must be a SubModelSpec or None, got {self.submodel!r}"
            )
        if self.output is not None and not isinstance(self.output, OutputSpec):
            raise ValidationError(
                f"output must be an OutputSpec or None, got {self.output!r}"
            )
        object.__setattr__(self, "load_cases", tuple(self.load_cases))
        if not self.load_cases:
            raise ValidationError("load_cases must contain at least one case")
        seen: set[str] = set()
        for index, case in enumerate(self.load_cases):
            if not isinstance(case, LoadCase):
                raise ValidationError(
                    f"load_cases[{index}] must be a LoadCase, got {case!r}"
                )
            if case.location is not None and self.submodel is None:
                raise ValidationError(
                    f"load_cases[{index}].location is set but the spec has no submodel"
                )
            if case.name:
                if case.name in seen:
                    raise ValidationError(
                        f"load_cases[{index}].name {case.name!r} is not unique"
                    )
                seen.add(case.name)
        if self.submodel is not None:
            interposer_thickness = 50.0  # ChipletPackage default (z-independent of scale)
            if abs(self.geometry.height - interposer_thickness) > 1e-9:
                raise ValidationError(
                    "geometry.height must equal the interposer thickness "
                    f"({interposer_thickness}) for sub-modeling, got {self.geometry.height}"
                )

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def resolved_cases(self) -> list[ResolvedCase]:
        """Load cases with names, array sizes and locations fully defaulted."""
        resolved: list[ResolvedCase] = []
        used = {case.name for case in self.load_cases if case.name}
        for index, case in enumerate(self.load_cases):
            name = case.name
            if not name:
                name = f"case{index}"
                suffix = 0
                while name in used:
                    suffix += 1
                    name = f"case{index}_{suffix}"
                used.add(name)
            rows = case.rows if case.rows is not None else self.geometry.rows
            if case.cols is not None:
                cols = case.cols
            elif case.rows is not None:
                cols = case.rows
            else:
                cols = self.geometry.resolved_cols
            location = case.location
            if location is None and self.submodel is not None:
                location = self.submodel.location
            resolved.append(
                ResolvedCase(
                    name=name,
                    delta_t=float(case.delta_t),
                    rows=rows,
                    cols=cols,
                    location=location,
                )
            )
        return resolved

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Lossless plain-data representation (JSON-compatible)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "geometry": self.geometry.to_dict(),
            "materials": self.materials.to_dict(),
            "mesh": self.mesh.to_dict(),
            "solver": self.solver.to_dict(),
            "load_cases": [case.to_dict() for case in self.load_cases],
            "submodel": None if self.submodel is None else self.submodel.to_dict(),
            "output": None if self.output is None else self.output.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Any, path: str = "spec") -> "SimulationSpec":
        """Parse a spec document; errors name the offending field."""
        data = _as_mapping(data, path)
        allowed = [
            "schema_version",
            "name",
            "geometry",
            "materials",
            "mesh",
            "solver",
            "load_cases",
            "submodel",
            "output",
        ]
        _reject_unknown(data, allowed, path)
        version = _get(data, "schema_version", path, SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise SpecError(
                f"{path}.schema_version: unsupported version {version!r} "
                f"(this build reads versions {list(SUPPORTED_SCHEMA_VERSIONS)})"
            )
        raw_cases = _get(data, "load_cases", path, [LoadCase().to_dict()])
        if not isinstance(raw_cases, (list, tuple)):
            raise SpecError(f"{path}.load_cases: expected a list, got {raw_cases!r}")
        load_cases = tuple(
            LoadCase.from_dict(item, f"{path}.load_cases[{index}]")
            for index, item in enumerate(raw_cases)
        )
        raw_submodel = _get(data, "submodel", path, None)
        submodel = (
            None
            if raw_submodel is None
            else SubModelSpec.from_dict(raw_submodel, f"{path}.submodel")
        )
        raw_output = _get(data, "output", path, None)
        output = (
            None
            if raw_output is None
            else OutputSpec.from_dict(raw_output, f"{path}.output")
        )
        kwargs = {
            "name": _string(_get(data, "name", path, "simulation"), f"{path}.name"),
            "geometry": GeometrySpec.from_dict(
                _get(data, "geometry", path, {}), f"{path}.geometry"
            ),
            "materials": MaterialsSpec.from_dict(
                _get(data, "materials", path, {}), f"{path}.materials"
            ),
            "mesh": MeshSpec.from_dict(_get(data, "mesh", path, {}), f"{path}.mesh"),
            "solver": SolverSpec.from_dict(
                _get(data, "solver", path, {}), f"{path}.solver"
            ),
            "load_cases": load_cases,
            "submodel": submodel,
            "output": output,
        }
        return _construct(cls, kwargs, path)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "SimulationSpec":
        """Parse a JSON document produced by :meth:`to_json` (or hand-written)."""
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def spec_hash(self) -> str:
        """Stable content hash of the canonical JSON form (provenance key)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "KNOWN_MATERIAL_ROLES",
    "KNOWN_OUTPUT_FORMATS",
    "KNOWN_SUBMODEL_LOCATIONS",
    "SpecError",
    "GeometrySpec",
    "MaterialOverride",
    "MaterialsSpec",
    "MeshSpec",
    "SolverSpec",
    "LoadCase",
    "SubModelSpec",
    "OutputSpec",
    "ResolvedCase",
    "SimulationSpec",
]
