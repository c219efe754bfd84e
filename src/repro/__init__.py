"""MORE-Stress: model order reduction based thermal stress simulation of TSV arrays.

This package is a from-scratch reproduction of the DATE 2025 paper
"MORE-Stress: Model Order Reduction based Efficient Numerical Algorithm for
Thermal Stress Simulation of TSV Arrays in 2.5D/3D IC".

The public API is organised in subpackages:

``repro.materials``
    Thermo-elastic material models and a small material library.
``repro.geometry``
    TSV, unit-block, array and chiplet-package geometry descriptions.
``repro.mesh``
    Structured/graded hexahedral meshing of unit blocks and full arrays.
``repro.fem``
    The finite element kernel (hex8 thermo-elasticity, assembly, solvers,
    stress recovery and sampling).
``repro.rom``
    The MORE-Stress algorithm itself: one-shot local stage, reduced order
    model, global stage and sub-modeling.
``repro.baselines``
    The reference full FEM solver (the role ANSYS plays in the paper), the
    linear superposition method and the coarse chiplet model.
``repro.analysis``
    Error metrics and result-table reporting.
``repro.experiments``
    Drivers that regenerate the paper's tables and figures.
``repro.api``
    The declarative layer: a serializable :class:`SimulationSpec` run
    description, the planning executor :func:`repro.api.run` and the
    persistable :class:`RunResult`.
``repro.errors``
    The unified error taxonomy: every failure the package raises derives
    from :class:`ReproError` with a stable machine-readable code.
``repro.service``
    Simulation-as-a-service: the queued, deduplicating HTTP job server
    (``repro serve``) and its typed client (``repro submit``).

Quickstart
----------

>>> from repro import GeometrySpec, LoadCase, MeshSpec, SimulationSpec, run
>>> spec = SimulationSpec(
...     geometry=GeometrySpec(diameter=5.0, height=50.0, liner_thickness=0.5,
...                           pitch=15.0, rows=4, cols=4),
...     mesh=MeshSpec(resolution="coarse", nodes_per_axis=(3, 3, 3)),
...     load_cases=(LoadCase(delta_t=-250.0),),
... )
>>> result = run(spec)
>>> result.cases[0].von_mises.shape
(4, 4, 30, 30)
"""

from repro._version import __version__
from repro.materials import IsotropicMaterial, MaterialLibrary, ThermalLoad
from repro.geometry import (
    TSVGeometry,
    UnitBlockGeometry,
    TSVArrayLayout,
    ChipletPackage,
    SubModelLocation,
)
from repro.rom import (
    InterpolationScheme,
    LocalStage,
    ReducedOrderModel,
    ROMCache,
    GlobalStage,
    MoreStressSimulator,
)
from repro.baselines import (
    FullFEMReference,
    LinearSuperpositionMethod,
    CoarseChipletModel,
)
from repro.analysis import normalized_mae, ResultTable
from repro.errors import ReproError, SpecError, ValidationError
from repro.api import (
    GeometrySpec,
    LoadCase,
    MaterialsSpec,
    MeshSpec,
    RunResult,
    SimulationSpec,
    SolverSpec,
    SubModelSpec,
    run,
)

__all__ = [
    "__version__",
    "IsotropicMaterial",
    "MaterialLibrary",
    "ThermalLoad",
    "TSVGeometry",
    "UnitBlockGeometry",
    "TSVArrayLayout",
    "ChipletPackage",
    "SubModelLocation",
    "InterpolationScheme",
    "LocalStage",
    "ReducedOrderModel",
    "ROMCache",
    "GlobalStage",
    "MoreStressSimulator",
    "FullFEMReference",
    "LinearSuperpositionMethod",
    "CoarseChipletModel",
    "normalized_mae",
    "ResultTable",
    "SimulationSpec",
    "GeometrySpec",
    "MaterialsSpec",
    "MeshSpec",
    "SolverSpec",
    "LoadCase",
    "SubModelSpec",
    "RunResult",
    "run",
    "ReproError",
    "SpecError",
    "ValidationError",
]
