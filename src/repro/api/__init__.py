"""Declarative simulation API: one serializable run description.

``repro.api`` turns a MORE-Stress workload into *data*: a frozen, validated
:class:`SimulationSpec` tree that round-trips losslessly through JSON, an
executor :func:`run` that plans the cheapest execution (shared ROM builds,
factorize-once load batches) and a uniform :class:`RunResult` that persists
stress fields plus a provenance manifest.

>>> from repro.api import SimulationSpec, GeometrySpec, run       # doctest: +SKIP
>>> spec = SimulationSpec(geometry=GeometrySpec(pitch=15.0, rows=4))
>>> result = run(spec)                                            # doctest: +SKIP
>>> result.cases[0].peak_von_mises                                # doctest: +SKIP
"""

from repro.api.executor import execute_cases, run
from repro.api.result import CaseResult, RunResult
from repro.api.spec import (
    KNOWN_MATERIAL_ROLES,
    KNOWN_OUTPUT_FORMATS,
    SCHEMA_VERSION,
    GeometrySpec,
    LoadCase,
    MaterialOverride,
    MaterialsSpec,
    MeshSpec,
    OutputSpec,
    ResolvedCase,
    SimulationSpec,
    SolverSpec,
    SpecError,
    SubModelSpec,
)

__all__ = [
    "SCHEMA_VERSION",
    "KNOWN_MATERIAL_ROLES",
    "KNOWN_OUTPUT_FORMATS",
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
    "CaseResult",
    "RunResult",
    "run",
    "execute_cases",
]
