"""Scaling benchmark: batched global numbering/assembly and the ROM cache.

The paper's Table 1 makes the global stage the whole cost of simulating a new
array; this module tracks the two optimisations that keep that stage scalable:

* ``test_numbering_and_assembly_speedup`` times the global DoF numbering plus
  the COO scatter of a ≥50x50 layout with the vectorized path against the
  original per-block Python loop (kept as ``assemble_reference``).  The two
  produce identical matrices; the sparse-matrix conversion they share is
  excluded so the comparison isolates exactly the code that changed.
* ``test_rom_cache_warm_vs_cold`` shows that a warm :class:`ROMCache` turns
  the one-shot local stage into a single file load.

Scale with ``REPRO_BENCH_SCALE``: ``small`` (default) uses a 50x50 layout,
``medium`` 80x80 and ``paper`` 100x100 — the array size of the paper's
largest Table-1 case.
"""

from __future__ import annotations

import time

import pytest

from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.rom.global_dofs import GlobalDofManager
from repro.rom.global_stage import GlobalStage
from repro.rom.interpolation import InterpolationScheme
from repro.rom.local_stage import LocalStage

_ARRAY_SIZE = {"small": 50, "medium": 80, "paper": 100}
_DELTA_T = -250.0
# (2, 2, 2) keeps the dense per-block blocks small so the comparison exposes
# the per-block Python overhead the vectorization removes; with large n both
# paths converge towards the (shared) memory-bandwidth cost of the dense
# element data.
_SCHEME = InterpolationScheme((2, 2, 2))


@pytest.fixture(scope="module")
def scaling_rom(materials):
    """A fast (tiny-mesh) TSV ROM; the global stage only sees its dense blocks."""
    stage = LocalStage(materials=materials, resolution="tiny", scheme=_SCHEME)
    return stage.build(UnitBlockGeometry(tsv=TSVGeometry.paper_default(pitch=15.0)))


@pytest.fixture(scope="module")
def scaling_layout(bench_scale, scaling_rom):
    size = _ARRAY_SIZE[bench_scale]
    return TSVArrayLayout.full(scaling_rom.block.tsv, rows=size)


class TestGlobalScaling:
    def test_numbering_and_assembly_speedup(
        self, benchmark, scaling_rom, scaling_layout, materials
    ):
        """Vectorized numbering + scatter must beat the loop by >= 5x."""
        stage = GlobalStage({BlockKind.TSV: scaling_rom}, materials)

        def vectorized():
            manager = GlobalDofManager(scaling_layout, _SCHEME)
            return stage.scatter_contributions(manager, scaling_layout, _DELTA_T)

        def loop():
            manager = GlobalDofManager(scaling_layout, _SCHEME, numbering="loop")
            return stage.scatter_contributions_reference(
                manager, scaling_layout, _DELTA_T
            )

        benchmark.pedantic(vectorized, rounds=3, iterations=1, warmup_rounds=1)
        vectorized_seconds = benchmark.stats.stats.min

        start = time.perf_counter()
        loop()
        loop_seconds = time.perf_counter() - start

        size = scaling_layout.rows
        benchmark.extra_info["array"] = f"{size}x{size}"
        benchmark.extra_info["loop_s"] = round(loop_seconds, 4)
        benchmark.extra_info["vectorized_s"] = round(vectorized_seconds, 4)
        benchmark.extra_info["speedup_x"] = round(loop_seconds / vectorized_seconds, 1)
        assert loop_seconds >= 5.0 * vectorized_seconds

    def test_full_assemble_large_array(
        self, benchmark, scaling_rom, scaling_layout, materials
    ):
        """End-to-end assembly (including the CSR conversion) of the big layout."""
        stage = GlobalStage({BlockKind.TSV: scaling_rom}, materials)

        def assemble():
            operator, rhs, manager = stage.assemble(scaling_layout, _DELTA_T)
            return operator.tocsr(), rhs, manager

        matrix, _, manager = benchmark.pedantic(
            assemble,
            rounds=3,
            iterations=1,
            warmup_rounds=1,
        )
        benchmark.extra_info["array"] = f"{scaling_layout.rows}x{scaling_layout.cols}"
        benchmark.extra_info["reduced_dofs"] = manager.num_global_dofs
        benchmark.extra_info["nnz"] = int(matrix.nnz)

    @pytest.mark.smoke
    def test_rom_cache_warm_vs_cold(self, benchmark, materials, rom_cache):
        """A warm ROM cache skips the local stage entirely (file load only)."""
        block = UnitBlockGeometry(tsv=TSVGeometry.paper_default(pitch=10.0))
        stage = LocalStage(
            materials=materials, resolution="tiny", scheme=_SCHEME, cache=rom_cache
        )

        start = time.perf_counter()
        cold_rom = stage.build(block)  # miss unless REPRO_ROM_CACHE_DIR is warm
        cold_seconds = time.perf_counter() - start

        warm_rom = benchmark(lambda: stage.build(block))
        warm_seconds = benchmark.stats.stats.min

        benchmark.extra_info["cold_s"] = round(cold_seconds, 3)
        benchmark.extra_info["warm_s"] = round(warm_seconds, 4)
        benchmark.extra_info["cache_hits"] = rom_cache.hits
        assert rom_cache.hits >= 1
        assert warm_rom.material_fingerprint == cold_rom.material_fingerprint
        # The warm path loads one .npz bundle; the cold path meshes, assembles
        # and solves n+1 local problems.  Only assert the ordering when this
        # run actually built the ROM (a pre-warmed persistent cache makes
        # both sides loads).
        if rom_cache.misses >= 1:
            assert warm_seconds < cold_seconds
