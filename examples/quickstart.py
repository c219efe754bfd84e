#!/usr/bin/env python3
"""Quickstart: thermal stress of a small TSV array with MORE-Stress.

This example mirrors the paper's basic use case: define a TSV technology
(diameter, height, liner, pitch), run the one-shot local stage, and then
compute the thermal stress of an array under the fabrication cool-down
(275 degC -> 25 degC) in a fraction of the full-FEM cost.

A run is described as data — a :class:`~repro.api.SimulationSpec` that
round-trips through JSON (``examples/specs/quickstart.json`` is this one) —
and executed by :func:`repro.api.run`.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np

from repro.api import GeometrySpec, LoadCase, MeshSpec, SimulationSpec, run
from repro.materials import ThermalLoad
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()

    # 1. Describe the TSV technology (paper values: d=5um, h=50um, t=0.5um,
    #    p=15um), the ROM configuration and the load: a 4x4 array under the
    #    fabrication cool-down.
    load = ThermalLoad.paper_default()     # 275 degC -> 25 degC, delta_t = -250
    spec = SimulationSpec(
        name="quickstart",
        geometry=GeometrySpec(diameter=5.0, height=50.0, liner_thickness=0.5,
                              pitch=15.0, rows=4),
        mesh=MeshSpec(resolution="coarse",          # unit-block fine mesh fidelity
                      nodes_per_axis=(4, 4, 4),     # Lagrange nodes (paper default)
                      points_per_block=40),         # mid-plane samples per block axis
        load_cases=(LoadCase(name="cooldown", delta_t=load.delta_t),),
    )
    spec = SimulationSpec.from_json(spec.to_json())   # lossless round trip

    with tempfile.TemporaryDirectory() as rom_cache:
        # 2. Run it.  The one-shot local stage builds the unit-block ROM and
        #    stores it in the ROM cache; the global stage solves the array.
        result = run(spec, rom_cache=rom_cache)
        case = result.case("cooldown")
        print(f"spec hash            : {result.spec_hash}")
        print(f"one-shot local stage : {case.local_stage_seconds:.2f} s")
        print(f"global stage         : {case.global_stage_seconds:.3f} s")
        print(f"reduced DoFs solved  : {case.num_global_dofs}")

        # 3. Inspect the mid-plane von Mises stress (the paper's standard output).
        vm = case.von_mises                   # (rows, cols, 40, 40) in MPa
        print(f"max von Mises stress : {vm.max():.1f} MPa")
        print(f"min von Mises stress : {vm.min():.1f} MPa")

        # Stress per block: the corner TSVs see slightly different stress than
        # the centre TSV because the array boundary is free.
        per_block_peak = vm.max(axis=(2, 3))
        with np.printoptions(precision=1, suppress=True):
            print("peak von Mises per TSV block (MPa):")
            print(per_block_peak)

        # 4. Reusing the ROM: a different array size and thermal load is just
        #    another cheap global solve — the ROM cache skips the local stage.
        second = run(
            dataclasses.replace(
                spec,
                geometry=dataclasses.replace(spec.geometry, rows=6, cols=3),
                mesh=dataclasses.replace(spec.mesh, points_per_block=30),
                load_cases=(LoadCase(name="mild", delta_t=-100.0),),
            ),
            rom_cache=rom_cache,
        ).case("mild")
        print(
            f"6x3 array at delta_t=-100 degC: local stage {second.local_stage_seconds:.2f} s, "
            f"global stage {second.global_stage_seconds:.3f} s, "
            f"max von Mises {second.peak_von_mises:.1f} MPa"
        )


if __name__ == "__main__":
    main()
