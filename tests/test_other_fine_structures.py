"""Generality of the pipeline: other fine structures via material-role re-binding.

The paper claims the method applies to any periodic fine structure.  These
tests retarget the unit cell to a copper pillar and a solder micro bump in an
underfill matrix (no code changes, only different geometry parameters and
material bindings) and check the full pipeline still runs and produces
physically ordered results.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import GeometrySpec, LoadCase, MeshSpec, SimulationSpec, run
from repro.geometry.tsv import TSVGeometry
from repro.materials.library import (
    ROLE_COPPER,
    ROLE_LINER,
    ROLE_SILICON,
    ROLE_SOLDER,
    ROLE_UNDERFILL,
    MaterialLibrary,
)

DELTA_T = -250.0


def _midplane(geometry, library, points_per_block):
    """Mid-plane von Mises of a clamped 2x2 array of ``geometry`` in ``library``."""
    spec = SimulationSpec(
        geometry=GeometrySpec(**dataclasses.asdict(geometry), rows=2),
        mesh=MeshSpec(
            resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=points_per_block
        ),
        load_cases=(LoadCase(delta_t=DELTA_T),),
    )
    return run(spec, materials=library).cases[0].von_mises


def _pillar_library() -> MaterialLibrary:
    library = MaterialLibrary.default()
    library.add(ROLE_SILICON, library[ROLE_UNDERFILL].with_name(ROLE_SILICON))
    library.add(ROLE_LINER, library[ROLE_COPPER].with_name(ROLE_LINER))
    return library


def _bump_library() -> MaterialLibrary:
    library = MaterialLibrary.default()
    library.add(ROLE_SILICON, library[ROLE_UNDERFILL].with_name(ROLE_SILICON))
    library.add(ROLE_COPPER, library[ROLE_SOLDER].with_name(ROLE_COPPER))
    library.add(ROLE_LINER, library[ROLE_SOLDER].with_name(ROLE_LINER))
    return library


class TestOtherFineStructures:
    @pytest.mark.parametrize(
        "geometry,library_factory",
        [
            (TSVGeometry(diameter=20.0, height=40.0, liner_thickness=0.5, pitch=50.0), _pillar_library),
            (TSVGeometry(diameter=25.0, height=30.0, liner_thickness=0.5, pitch=60.0), _bump_library),
        ],
        ids=["copper-pillar", "solder-bump"],
    )
    def test_pipeline_runs_for_non_tsv_structures(self, geometry, library_factory):
        vm = _midplane(geometry, library_factory(), points_per_block=8)
        assert vm.shape == (2, 2, 8, 8)
        assert np.all(np.isfinite(vm))
        assert vm.max() > 1.0  # some stress must develop

    def test_soft_matrix_lowers_stress_versus_tsv(self, tsv15, materials):
        """A copper pillar in compliant underfill loads its surroundings far
        less than a TSV in stiff silicon: the mean von Mises stress over the
        unit cell mid-plane must drop (the copper core itself can carry more
        axial stress, so the *peak* is not the discriminating quantity)."""
        vm_tsv = _midplane(tsv15, materials, points_per_block=8)

        pillar_geometry = TSVGeometry(
            diameter=5.0, height=50.0, liner_thickness=0.5, pitch=15.0
        )
        vm_pillar = _midplane(pillar_geometry, _pillar_library(), points_per_block=8)
        assert vm_pillar.mean() < vm_tsv.mean()
