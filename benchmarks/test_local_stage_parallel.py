"""Parallel-scaling benchmark of independent local-stage builds.

Each unit-block build factorises its ``A_ff`` once and solves all of its
local problems in one block back-substitution, so a single build has no
parallel part.  What ``jobs`` parallelises is :meth:`LocalStage.build_many`
over independent blocks — here four of them: TSV and dummy blocks at two
pitches, the ROMs a mixed-pitch layout with sub-modeling needs.

* ``test_parallel_matches_serial_bitwise`` (smoke) proves the parallel
  schedule never changes the numbers — every ROM's basis and projected
  matrices are bit-identical to the serial path;
* ``test_local_stage_parallel_scaling`` times the cold-cache ``build_many``
  serially and with ``jobs=4``, recording both wall-clocks into the
  benchmark JSON trajectory.  The ≥2x speedup assertion only fires on
  machines with at least 4 CPUs; a 2-CPU runner cannot exercise it and
  only records the trajectory.

Scale with ``REPRO_BENCH_SCALE``: ``small`` (default) uses the tiny mesh,
``medium``/``paper`` the coarse mesh with more interpolation nodes.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.rom.local_stage import LocalStage

_RESOLUTION = {"small": "tiny", "medium": "coarse", "paper": "coarse"}
_NODES = {"small": (3, 3, 3), "medium": (4, 4, 4), "paper": (5, 5, 5)}
_JOBS = 4
_PITCHES = (10.0, 15.0)


@pytest.fixture(scope="module")
def parallel_blocks():
    """TSV and dummy unit blocks at two pitches: four independent builds."""
    blocks = []
    for pitch in _PITCHES:
        tsv = UnitBlockGeometry(tsv=TSVGeometry.paper_default(pitch=pitch), has_tsv=True)
        blocks += [tsv, tsv.as_dummy()]
    return blocks


def _stage(bench_scale, materials, jobs: int) -> LocalStage:
    return LocalStage(
        materials=materials,
        resolution=_RESOLUTION[bench_scale],
        scheme=_NODES[bench_scale],
        jobs=jobs,
    )


@pytest.mark.smoke
class TestLocalStageParallel:
    def test_parallel_matches_serial_bitwise(self, bench_scale, materials, parallel_blocks):
        """jobs=N must reproduce the serial ROMs bit for bit."""
        serial = _stage(bench_scale, materials, jobs=1).build_many(parallel_blocks)
        parallel = _stage(bench_scale, materials, jobs=_JOBS).build_many(parallel_blocks)
        assert [rom.block for rom in parallel] == list(parallel_blocks)
        for serial_rom, parallel_rom in zip(serial, parallel):
            assert np.array_equal(serial_rom.basis, parallel_rom.basis)
            assert np.array_equal(serial_rom.element_stiffness, parallel_rom.element_stiffness)
            assert np.array_equal(serial_rom.element_load, parallel_rom.element_load)
            assert np.array_equal(serial_rom.thermal_coupling, parallel_rom.thermal_coupling)

    def test_local_stage_parallel_scaling(
        self, benchmark, bench_scale, materials, parallel_blocks
    ):
        """Cold-cache ``build_many`` of four blocks: serial vs ``--jobs 4``."""
        serial_stage = _stage(bench_scale, materials, jobs=1)
        parallel_stage = _stage(bench_scale, materials, jobs=_JOBS)

        start = time.perf_counter()
        serial_stage.build_many(parallel_blocks)
        serial_seconds = time.perf_counter() - start

        benchmark.pedantic(
            lambda: parallel_stage.build_many(parallel_blocks),
            rounds=2,
            iterations=1,
            warmup_rounds=0,
        )
        parallel_seconds = benchmark.stats.stats.min

        cpus = os.cpu_count() or 1
        benchmark.extra_info["resolution"] = _RESOLUTION[bench_scale]
        benchmark.extra_info["nodes_per_axis"] = list(_NODES[bench_scale])
        benchmark.extra_info["blocks"] = len(parallel_blocks)
        benchmark.extra_info["jobs"] = _JOBS
        benchmark.extra_info["cpus"] = cpus
        benchmark.extra_info["serial_s"] = round(serial_seconds, 4)
        benchmark.extra_info["parallel_s"] = round(parallel_seconds, 4)
        benchmark.extra_info["speedup_x"] = round(
            serial_seconds / max(parallel_seconds, 1e-12), 2
        )
        if cpus >= _JOBS:
            # Only meaningful with >= 4 CPUs, one per independent build; a
            # smaller runner records the trajectory without judging.
            assert parallel_seconds * 2.0 <= serial_seconds
