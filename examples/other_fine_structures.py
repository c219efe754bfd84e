#!/usr/bin/env python3
"""Applying MORE-Stress to other periodic fine structures.

The paper stresses (§1, §6) that the algorithm is not limited to TSVs: any
periodically repeated fine structure — micro bumps, copper pillars, hybrid
bonding pads — can be reduced the same way, because the reduced order model
only sees a unit block with *some* material distribution inside it.

In this implementation the unit block is parameterised by a cylindrical core
with an optional liner inside a matrix, and the materials are resolved by
*role* through the material library.  Re-binding the roles therefore retargets
the whole pipeline without touching the solver:

* TSV               : copper core + SiO2 liner in a silicon matrix,
* copper pillar     : copper core (no liner) in an underfill/mold matrix,
* solder micro bump : solder core in an underfill matrix.

The example runs one :class:`~repro.api.SimulationSpec` per variant, passing
the re-bound library to :func:`repro.api.run` as its ``materials`` override,
and compares their stress levels under the same fabrication cool-down.

Run with:  python examples/other_fine_structures.py
"""

from __future__ import annotations

from repro import MaterialLibrary, TSVGeometry
from repro.api import GeometrySpec, LoadCase, MeshSpec, SimulationSpec, run
from repro.materials.library import (
    ROLE_COPPER,
    ROLE_LINER,
    ROLE_SILICON,
    ROLE_SOLDER,
    ROLE_UNDERFILL,
)
from repro.utils.logging import enable_console_logging


def tsv_configuration() -> tuple[TSVGeometry, MaterialLibrary, str]:
    """The paper's TSV: Cu core, SiO2 liner, Si matrix."""
    return (
        TSVGeometry(diameter=5.0, height=50.0, liner_thickness=0.5, pitch=15.0),
        MaterialLibrary.default(),
        "TSV (Cu / SiO2 liner / Si)",
    )


def copper_pillar_configuration() -> tuple[TSVGeometry, MaterialLibrary, str]:
    """A copper micro-pillar in underfill (no liner).

    The pillar is described with the same cylindrical unit-cell parameters;
    the liner is made part of the core (same role) and the matrix role is
    re-bound to the underfill material.
    """
    library = MaterialLibrary.default()
    library.add(ROLE_SILICON, library[ROLE_UNDERFILL].with_name(ROLE_SILICON))
    library.add(ROLE_LINER, library[ROLE_COPPER].with_name(ROLE_LINER))
    geometry = TSVGeometry(diameter=20.0, height=40.0, liner_thickness=0.5, pitch=50.0)
    return geometry, library, "Cu pillar in underfill"


def micro_bump_configuration() -> tuple[TSVGeometry, MaterialLibrary, str]:
    """A solder micro bump in underfill."""
    library = MaterialLibrary.default()
    library.add(ROLE_SILICON, library[ROLE_UNDERFILL].with_name(ROLE_SILICON))
    library.add(ROLE_COPPER, library[ROLE_SOLDER].with_name(ROLE_COPPER))
    library.add(ROLE_LINER, library[ROLE_SOLDER].with_name(ROLE_LINER))
    geometry = TSVGeometry(diameter=25.0, height=30.0, liner_thickness=0.5, pitch=60.0)
    return geometry, library, "solder micro bump in underfill"


def main() -> None:
    enable_console_logging()
    print("MORE-Stress applied to three periodic fine structures (6x6 arrays, dT = -250 degC)\n")
    for configure in (tsv_configuration, copper_pillar_configuration, micro_bump_configuration):
        geometry, library, label = configure()
        spec = SimulationSpec(
            name=configure.__name__,
            geometry=GeometrySpec(
                diameter=geometry.diameter,
                height=geometry.height,
                liner_thickness=geometry.liner_thickness,
                pitch=geometry.pitch,
                rows=6,
            ),
            mesh=MeshSpec(resolution="coarse", nodes_per_axis=(4, 4, 4), points_per_block=20),
            load_cases=(LoadCase(delta_t=-250.0),),
        )
        case = run(spec, materials=library).cases[0]
        print(
            f"{label:35s} local {case.local_stage_seconds:6.2f} s | "
            f"global {case.global_stage_seconds:6.3f} s | "
            f"peak von Mises {case.peak_von_mises:7.1f} MPa | "
            f"mean {case.von_mises.mean():6.1f} MPa"
        )
    print(
        "\nThe copper/solder structures in compliant underfill develop markedly lower"
        "\nstress than the TSV in stiff silicon, as expected from the CTE/stiffness mix."
    )


if __name__ == "__main__":
    main()
