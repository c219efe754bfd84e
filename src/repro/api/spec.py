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

One codec at the end of this module serves every spec class: a field is
serialized by its annotation (``float`` fields always as floats, tuples as
lists, nested specs as objects); a field without a default is required, and
a missing one takes its default.  The exceptions are data beside the codec:
``_CONSTANT_KEYS`` holds the keys written as constants besides the fields
(``schema_version`` and the retired ``solver.array_backend``,
``solver.backend``, ``solver.shard`` and ``solver.jobs``) with the values
each accepts, and ``_REQUIRED_KEYS`` the four cell counts an explicit
``mesh.resolution`` object must name.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Any, Callable, Mapping, NamedTuple, get_args, get_origin, get_type_hints

from repro.errors import SpecError
from repro.fem.solver import SolverOptions
from repro.geometry.package import ChipletPackage
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
#: * 1 — initial layout.
#: * 2 — adds ``solver.array_backend`` (retired: only numpy remains).
#: * 3 — adds ``solver.shard`` (retired: the out-of-core global stage is gone).
#:
#: Both retired fields are written as constants; see ``_CONSTANT_KEYS``.
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


# --------------------------------------------------------------------------- #
# solver
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolverSpec:
    """Global-stage solver configuration.

    How the run is scheduled is not part of the spec: the local stage
    always builds its independent unit blocks concurrently, and the retired
    ``solver.jobs`` key is written as ``null`` (see ``_CONSTANT_KEYS``), so a
    document that names a worker count hashes like one that does not.
    """

    method: str = "gmres"
    rtol: float = 1e-9
    max_iterations: int = 5000
    gmres_restart: int = 100

    def __post_init__(self) -> None:
        # SolverOptions validates method/rtol/max_iterations eagerly.
        self.build_options()

    def build_options(self) -> SolverOptions:
        """The :class:`SolverOptions` this spec describes."""
        return SolverOptions(
            method=self.method,
            rtol=self.rtol,
            max_iterations=self.max_iterations,
            gmres_restart=self.gmres_restart,
        )


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
            # The package run() builds; its scale is in-plane only.
            package = ChipletPackage.scaled_default(self.submodel.package_scale)
            interposer_thickness = package.interposer_thickness
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
        return _encode(self)

    @classmethod
    def from_dict(cls, data: Any, path: str = "spec") -> "SimulationSpec":
        """Parse a spec document; errors name the offending field."""
        return _decode(cls, data, path)

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


# --------------------------------------------------------------------------- #
# the codec
# --------------------------------------------------------------------------- #
class _Constant(NamedTuple):
    """A document key that is not a field: written as ``value``, checked on input."""

    value: Any
    accepts: Callable[[Any], bool]
    #: Error text for a rejected value; ``{got!r}`` is the value.
    message: str


#: Keys a document carries besides the fields of its class.  A missing key
#: loads; a present one loads only if ``accepts`` its value, and is then
#: dropped.  ``solver.array_backend``, ``solver.backend``, ``solver.shard``
#: and ``solver.jobs`` are retired fields (every build computes on numpy;
#: ``solver.method`` alone picks the sparse solver; the out-of-core global
#: stage is gone; the local stage always builds its blocks concurrently) kept
#: as constants so that documents, spec hashes and the benchmark's committed
#: reference spec stay identical to those of builds that had the fields.  A
#: saved ``solver.jobs`` worker count still loads, and hashes like ``null``.
_CONSTANT_KEYS: dict[type, dict[str, _Constant]] = {
    SimulationSpec: {
        "schema_version": _Constant(
            SCHEMA_VERSION,
            # true == 1 and 3.0 == 3, so check the type before the value.
            lambda value: isinstance(value, int)
            and not isinstance(value, bool)
            and value in SUPPORTED_SCHEMA_VERSIONS,
            "unsupported version {got!r} "
            f"(this build reads versions {list(SUPPORTED_SCHEMA_VERSIONS)})",
        ),
    },
    SolverSpec: {
        "array_backend": _Constant(
            "numpy",
            lambda value: isinstance(value, str) and value.strip().lower() in ("numpy", "np"),
            "only 'numpy' is supported, got {got!r}",
        ),
        "backend": _Constant(
            None,
            lambda value: value is None,
            "the solver backend follows solver.method ('direct', 'cg' or 'gmres'), "
            "so only null is accepted, got {got!r}",
        ),
        "shard": _Constant(
            None,
            lambda value: value is None,
            "the sharded global stage was removed; the matrix-free solve covers "
            "every array size, so only null is accepted",
        ),
        "jobs": _Constant(
            None,
            # true == 1 and 2.0 == 2, so check the type before the value.
            lambda value: value is None
            or (isinstance(value, int) and not isinstance(value, bool) and value >= 1),
            "the local stage always builds its blocks concurrently, so only null "
            "or a positive integer (ignored) is accepted, got {got!r}",
        ),
    },
}

#: Fields a document must carry although the class gives them a default: an
#: explicit resolution object names its cell counts.
_REQUIRED_KEYS: dict[type, tuple[str, ...]] = {
    MeshResolution: ("n_core", "n_liner", "n_outer", "n_z"),
}

#: Scalar annotations: the article-and-noun of the error text, and its plural.
_SCALARS: dict[type, tuple[str, str]] = {
    float: ("a number", "numbers"),
    int: ("an integer", "integers"),
    str: ("a string", "strings"),
    bool: ("a boolean", "booleans"),
}

_Encoder = Callable[[Any], Any] | None  # None: the value is already plain data
_Decoder = Callable[[Any, str], Any]


@functools.cache
def _plan(cls: type) -> tuple[tuple, dict[str, _Constant], list[str]]:
    """How ``cls`` is written and read, built once from its annotations: per field
    ``(name, encoder, decoder, required)``, the constant keys and the allowed keys."""
    hints = get_type_hints(cls)
    required = _REQUIRED_KEYS.get(cls, ())
    plan = tuple(
        (
            f.name,
            *_codec(hints[f.name]),
            f.name in required or (f.default is MISSING and f.default_factory is MISSING),
        )
        for f in fields(cls)
    )
    constants = _CONSTANT_KEYS.get(cls, {})
    return plan, constants, sorted([*(f.name for f in fields(cls)), *constants])


def _encode(obj: Any) -> dict[str, Any]:
    plan, constants, _ = _plan(type(obj))
    document = {key: constant.value for key, constant in constants.items()}
    for name, encode, _, _ in plan:
        value = getattr(obj, name)
        document[name] = value if encode is None else encode(value)
    return document


def _decode(cls: type, data: Any, path: str) -> Any:
    if not isinstance(data, Mapping):
        raise SpecError(f"{path}: expected an object, got {type(data).__name__}")
    plan, constants, allowed = _plan(cls)
    unknown = sorted(set(data).difference(allowed))
    if unknown:
        raise SpecError(f"{path}.{unknown[0]}: unknown field (allowed fields: {allowed})")
    for key, constant in constants.items():
        if key in data and not constant.accepts(data[key]):
            raise SpecError(f"{path}.{key}: " + constant.message.format(got=data[key]))
    kwargs = {}
    for name, _, decode, required in plan:
        if name in data:
            kwargs[name] = decode(data[name], f"{path}.{name}")
        elif required:
            raise SpecError(f"{path}.{name}: required field is missing")
    try:
        return cls(**kwargs)
    except SpecError:
        raise
    except ValidationError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _codec(annotation: Any) -> tuple[_Encoder, _Decoder]:
    """The encoder and decoder of a field annotated ``annotation``."""
    if annotation in _SCALARS:
        accepted = (int, float) if annotation is float else annotation
        noun = _SCALARS[annotation][0]

        def decode_scalar(value: Any, path: str) -> Any:
            # bool is an int subclass; only a bool field takes true/false.
            if isinstance(value, accepted) and (annotation is bool or not isinstance(value, bool)):
                return annotation(value)
            raise SpecError(f"{path}: expected {noun}, got {value!r}")

        return (float if annotation is float else None), decode_scalar
    if is_dataclass(annotation):
        return _encode, functools.partial(_decode, annotation)
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is UnionType and type(None) in args:
        (inner,) = set(args) - {type(None)}
        encode, decode = _codec(inner)
        return (
            None if encode is None else lambda value: None if value is None else encode(value),
            lambda value, path: None if value is None else decode(value, path),
        )
    if origin is UnionType and len(args) == 2 and args[0] is str and is_dataclass(args[1]):
        # A preset name or an explicit object (``MeshSpec.resolution``).
        def decode_named(value: Any, path: str) -> Any:
            if isinstance(value, str):
                return value
            if isinstance(value, Mapping):
                return _decode(args[1], value, path)
            raise SpecError(f"{path}: expected a preset name or an object, got {value!r}")

        return (lambda value: value if isinstance(value, str) else _encode(value)), decode_named
    if origin is tuple and len(set(args) - {Ellipsis}) == 1:
        return _tuple_codec(args)
    raise TypeError(f"the spec codec cannot serialize fields annotated {annotation!r}")


def _tuple_codec(args: tuple[Any, ...]) -> tuple[_Encoder, _Decoder]:
    """Codec of ``tuple[X, ...]`` or of a fixed ``tuple[X, X, X]`` (a JSON list)."""
    length = None if args[-1] is Ellipsis else len(args)
    encode_item, decode_item = _codec(args[0])
    expected = "a list" if length is None else f"a list of {length} {_SCALARS[args[0]][1]}"

    def decode(value: Any, path: str) -> tuple[Any, ...]:
        if not isinstance(value, (list, tuple)) or (length is not None and len(value) != length):
            raise SpecError(f"{path}: expected {expected}, got {value!r}")
        return tuple(decode_item(item, f"{path}[{index}]") for index, item in enumerate(value))

    if encode_item is None:
        return list, decode
    return (lambda value: [encode_item(item) for item in value]), decode


__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "KNOWN_MATERIAL_ROLES",
    "KNOWN_OUTPUT_FORMATS",
    "KNOWN_SUBMODEL_LOCATIONS",
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
