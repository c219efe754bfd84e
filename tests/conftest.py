"""Shared fixtures for the test suite.

Expensive objects (meshes, reduced order models, reference solutions) are
session-scoped so the suite stays fast: they are built once on the smallest
("tiny") mesh preset and reused by many tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package (e.g. straight from
# a source checkout on a machine where editable installs are unavailable).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import execute_cases  # noqa: E402
from repro.baselines.full_fem import FullFEMReference  # noqa: E402
from repro.geometry.array_layout import TSVArrayLayout  # noqa: E402
from repro.geometry.tsv import TSVGeometry  # noqa: E402
from repro.geometry.unit_block import UnitBlockGeometry  # noqa: E402
from repro.materials.library import MaterialLibrary  # noqa: E402
from repro.mesh.block_mesher import mesh_unit_block  # noqa: E402
from repro.mesh.resolution import MeshResolution  # noqa: E402
from repro.rom.interpolation import InterpolationScheme  # noqa: E402
from repro.rom.local_stage import LocalStage  # noqa: E402
from repro.rom.workflow import MoreStressSimulator  # noqa: E402

#: Thermal load used across the tests (the paper's fabrication cool-down).
DELTA_T = -250.0


@pytest.fixture(scope="session")
def materials() -> MaterialLibrary:
    """The default Cu/Si/SiO2 material library."""
    return MaterialLibrary.default()


@pytest.fixture(scope="session")
def tsv15() -> TSVGeometry:
    """Paper TSV at 15 um pitch."""
    return TSVGeometry.paper_default(pitch=15.0)


@pytest.fixture(scope="session")
def tsv10() -> TSVGeometry:
    """Paper TSV at 10 um pitch."""
    return TSVGeometry.paper_default(pitch=10.0)


@pytest.fixture(scope="session")
def tiny_resolution() -> MeshResolution:
    """The smallest mesh preset (used for fast solves)."""
    return MeshResolution.preset("tiny")


@pytest.fixture(scope="session")
def tsv_block(tsv15) -> UnitBlockGeometry:
    """A TSV unit block at 15 um pitch."""
    return UnitBlockGeometry(tsv=tsv15, has_tsv=True)


@pytest.fixture(scope="session")
def dummy_block(tsv15) -> UnitBlockGeometry:
    """A dummy (pure silicon) unit block at 15 um pitch."""
    return UnitBlockGeometry(tsv=tsv15, has_tsv=False)


@pytest.fixture(scope="session")
def tiny_block_mesh(tsv_block, tiny_resolution):
    """Fine mesh of one TSV unit block at tiny resolution."""
    return mesh_unit_block(tsv_block, tiny_resolution)


@pytest.fixture(scope="session")
def scheme_333() -> InterpolationScheme:
    """A small interpolation scheme used for fast ROM tests."""
    return InterpolationScheme((3, 3, 3))


@pytest.fixture(scope="session")
def rom_tsv_tiny(materials, tsv_block, tiny_resolution, scheme_333):
    """ROM of the TSV block (tiny mesh, (3,3,3) nodes)."""
    stage = LocalStage(materials=materials, resolution=tiny_resolution, scheme=scheme_333)
    return stage.build(tsv_block)


@pytest.fixture(scope="session")
def rom_dummy_tiny(materials, dummy_block, tiny_resolution, scheme_333):
    """ROM of the dummy block (tiny mesh, (3,3,3) nodes)."""
    stage = LocalStage(materials=materials, resolution=tiny_resolution, scheme=scheme_333)
    return stage.build(dummy_block)


@pytest.fixture(scope="session")
def simulator_tiny(tsv15, materials) -> MoreStressSimulator:
    """A MORE-Stress simulator on the tiny mesh with (4,4,4) nodes."""
    return MoreStressSimulator(
        tsv15, materials, mesh_resolution="tiny", nodes_per_axis=(4, 4, 4)
    )


@pytest.fixture(scope="session")
def reference_2x2(materials, tsv15):
    """Reference full-FEM solution of a clamped 2x2 array (tiny mesh)."""
    reference = FullFEMReference(materials, resolution="tiny")
    layout = TSVArrayLayout.full(tsv15, rows=2)
    return reference.solve_array(layout, DELTA_T)


@pytest.fixture(scope="session")
def rom_result_2x2(simulator_tiny, tsv15):
    """MORE-Stress solution of the same clamped 2x2 array (tiny mesh)."""
    layout = TSVArrayLayout.full(tsv15, rows=2)
    return execute_cases(simulator_tiny, layout, [DELTA_T])[0]
