"""Finite element kernel: hex8 thermo-elasticity, assembly, solvers and post-processing."""

from repro.fem.element import (
    gauss_points_2x2x2,
    shape_functions,
    shape_function_gradients,
    element_stiffness,
    element_stiffness_batch,
    element_thermal_load,
    element_thermal_load_batch,
    strain_displacement_matrix,
)
from repro.fem.elasticity import ElementMaterialData, material_arrays_for_mesh
from repro.fem.assembly import assemble_stiffness, assemble_thermal_load, element_dof_map
from repro.fem.boundary import DirichletBC, lift_system, reduce_system, SplitSystem, split_system
from repro.fem.solver import LinearSolver, SolverOptions, FactorizedOperator, SolveStats
from repro.fem.backends import BACKENDS, SparseBackend
from repro.fem.fields import FieldEvaluator, von_mises
from repro.fem.sampling import midplane_grid_points, PlaneSampler

__all__ = [
    "gauss_points_2x2x2",
    "shape_functions",
    "shape_function_gradients",
    "element_stiffness",
    "element_stiffness_batch",
    "element_thermal_load",
    "element_thermal_load_batch",
    "strain_displacement_matrix",
    "ElementMaterialData",
    "material_arrays_for_mesh",
    "assemble_stiffness",
    "assemble_thermal_load",
    "element_dof_map",
    "DirichletBC",
    "lift_system",
    "reduce_system",
    "SplitSystem",
    "split_system",
    "LinearSolver",
    "SolverOptions",
    "FactorizedOperator",
    "SolveStats",
    "SparseBackend",
    "BACKENDS",
    "FieldEvaluator",
    "von_mises",
    "midplane_grid_points",
    "PlaneSampler",
]
