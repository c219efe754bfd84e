"""Benchmark regenerating paper Table 3 and Figure 6: convergence study.

Table 3 and Fig. 6 sweep the number of Lagrange interpolation nodes from
(2,2,2) to (6,6,6) on a fixed array and report, per node count, the number of
element DoFs ``n`` (Eq. 16), the local and global stage runtimes and the
error.  The qualitative claims checked here are the fast, monotone error
decay with ``n`` and the growth of the runtimes with ``n``.
"""

from __future__ import annotations

import pytest

from repro.api import execute_cases
from repro.experiments.convergence import (
    convergence_table,
    is_monotonically_converging,
    run_convergence_study,
)
from repro.geometry.array_layout import TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.rom.workflow import MoreStressSimulator


@pytest.fixture(scope="module")
def convergence_results(convergence_config, materials):
    """Run the convergence study once and share the records."""
    return run_convergence_study(convergence_config, materials)


class TestTable3AndFig6:
    def test_table3_convergence_study(self, benchmark, convergence_results):
        """Regenerate Table 3 (and the data behind Fig. 6)."""
        records, reference_seconds = convergence_results
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        print()
        print(convergence_table(records, reference_seconds).to_text())

        benchmark.extra_info["reference_fem_s"] = round(reference_seconds, 3)
        for record in records:
            benchmark.extra_info[str(record.nodes_per_axis)] = {
                "n": record.num_element_dofs,
                "local_s": round(record.local_stage_seconds, 3),
                "global_s": round(record.global_stage_seconds, 4),
                "error_%": round(100 * record.error, 3),
            }

        # Paper Eq. 16: the element DoF counts of the sweep.
        expected_n = {(2, 2, 2): 24, (3, 3, 3): 78, (4, 4, 4): 168, (5, 5, 5): 294, (6, 6, 6): 456}
        for record in records:
            if record.nodes_per_axis in expected_n:
                assert record.num_element_dofs == expected_n[record.nodes_per_axis]

        # Fig. 6 top curve: the error decreases (fast) as n grows.
        assert is_monotonically_converging(records)
        ordered = sorted(records, key=lambda r: r.num_element_dofs)
        assert ordered[-1].error < 0.25 * ordered[0].error
        # Fig. 6 bottom curve: the global runtime grows with n.
        assert ordered[-1].global_stage_seconds > ordered[0].global_stage_seconds
        # Every MORE-Stress run is faster than the single reference FEM solve.
        _, reference_seconds = convergence_results
        assert all(r.global_stage_seconds < reference_seconds for r in records)

    def test_fig6_runtime_point_4x4x4(self, benchmark, convergence_config, materials):
        """Benchmark the global-stage runtime at the paper's default (4,4,4)."""
        tsv = TSVGeometry.paper_default(pitch=convergence_config.pitch)
        simulator = MoreStressSimulator(
            tsv,
            materials,
            mesh_resolution=convergence_config.mesh_resolution,
            nodes_per_axis=(4, 4, 4),
        )
        simulator.build_roms()
        result = benchmark(
            lambda: execute_cases(
                simulator,
                TSVArrayLayout.full(tsv, rows=convergence_config.array_size),
                [convergence_config.delta_t],
            )[0]
        )
        benchmark.extra_info["n"] = simulator.scheme.num_element_dofs
        benchmark.extra_info["reduced_dofs"] = result.num_global_dofs
