"""Convergence study: error versus interpolation node count (paper Table 3, Fig. 6).

A fixed standalone array is solved once with the reference full FEM, and then
with MORE-Stress for an increasing number of Lagrange interpolation nodes
``(2,2,2) … (6,6,6)``.  The study reports, per node count, the number of
element DoFs ``n`` (paper Eq. 16), the one-shot local stage runtime, the
global stage runtime and the normalized MAE — the columns of Table 3 and the
two curves of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import normalized_mae
from repro.analysis.reporting import ResultTable, format_seconds
from repro.api import run as run_spec
from repro.baselines.full_fem import FullFEMReference
from repro.experiments.config import ConvergenceConfig
from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import MaterialLibrary
from repro.rom.interpolation import InterpolationScheme
from repro.utils.logging import get_logger
from repro.utils.parallel import parallel_map

_logger = get_logger("experiments.convergence")


@dataclass
class ConvergenceRecord:
    """One node-count point of the convergence study."""

    nodes_per_axis: tuple[int, int, int]
    num_element_dofs: int
    local_stage_seconds: float
    global_stage_seconds: float
    error: float

    def as_fig6_point(self) -> tuple[int, float, float]:
        """Return the ``(n, error, global runtime)`` triple plotted in Fig. 6."""
        return (self.num_element_dofs, self.error, self.global_stage_seconds)


def run_convergence_study(
    config: ConvergenceConfig | None = None,
    materials: MaterialLibrary | None = None,
    rom_cache=None,
    jobs: int | None = 1,
) -> tuple[list[ConvergenceRecord], float]:
    """Run the convergence study.

    ``rom_cache`` (a :class:`~repro.rom.cache.ROMCache` or directory) lets
    repeat runs reuse the per-node-count ROMs (each node count is a distinct
    cache entry because the interpolation scheme is part of the key).
    ``jobs`` runs the independent node-count cases concurrently (``None`` =
    one worker per CPU); records keep the serial ordering.

    Returns
    -------
    (records, reference_seconds)
        Per-node-count records plus the runtime of the single reference FEM
        solve (the paper quotes the ANSYS time of the same case next to
        Table 3).
    """
    config = config or ConvergenceConfig.small()
    materials = materials or MaterialLibrary.default()
    tsv = TSVGeometry.paper_default(pitch=config.pitch)
    layout = TSVArrayLayout.full(tsv, rows=config.array_size)

    reference = FullFEMReference(materials, resolution=config.mesh_resolution)
    reference_solution = reference.solve_array(layout, config.delta_t)
    reference_vm = reference_solution.von_mises_midplane(config.points_per_block)
    reference_seconds = reference_solution.total_time()

    def run_case(nodes: tuple[int, int, int]) -> ConvergenceRecord:
        _logger.info("convergence: nodes=%s", nodes)
        # Each node count runs through the declarative executor as its own
        # spec (the scheme is part of the ROM fingerprint).
        rom_run = run_spec(
            config.to_spec(nodes_per_axis=nodes),
            materials=materials,
            rom_cache=rom_cache,
        )
        case = rom_run.cases[0]
        return ConvergenceRecord(
            nodes_per_axis=tuple(nodes),
            num_element_dofs=InterpolationScheme(tuple(nodes)).num_element_dofs,
            local_stage_seconds=case.local_stage_seconds,
            global_stage_seconds=case.global_stage_seconds,
            error=normalized_mae(case.von_mises, reference_vm),
        )

    records = parallel_map(run_case, config.node_counts, jobs=jobs)
    return records, reference_seconds


def convergence_table(
    records: list[ConvergenceRecord], reference_seconds: float | None = None
) -> ResultTable:
    """Format convergence records as a Table-3-style text table."""
    title = "Table 3 — convergence with the number of interpolation nodes"
    if reference_seconds is not None:
        title += f" (reference full FEM: {format_seconds(reference_seconds)})"
    table = ResultTable(
        title=title,
        columns=["(nx, ny, nz)", "n", "local stage", "global stage", "error"],
    )
    for record in records:
        table.add_row(
            **{
                "(nx, ny, nz)": str(record.nodes_per_axis),
                "n": record.num_element_dofs,
                "local stage": format_seconds(record.local_stage_seconds),
                "global stage": format_seconds(record.global_stage_seconds),
                "error": f"{100 * record.error:.2f}%",
            }
        )
    return table


def is_monotonically_converging(records: list[ConvergenceRecord], tolerance: float = 1.05) -> bool:
    """Whether the error decreases (within ``tolerance``) as ``n`` grows.

    Used by the tests and the benchmark harness to assert the qualitative
    claim of Fig. 6 without pinning exact error values.
    """
    ordered = sorted(records, key=lambda record: record.num_element_dofs)
    return all(
        later.error <= earlier.error * tolerance
        for earlier, later in zip(ordered, ordered[1:])
    )


__all__ = [
    "ConvergenceRecord",
    "run_convergence_study",
    "convergence_table",
    "is_monotonically_converging",
]
