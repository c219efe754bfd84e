#!/usr/bin/env python3
"""Reusing reduced order models: persistence, the ROM cache and load sweeps.

The one-shot local stage of MORE-Stress only depends on the TSV technology
(materials + geometry + resolution), not on the array being analysed.  This
example shows the three reuse mechanisms layered on top of that fact:

1. explicit ``save_roms``/``load_roms`` bundles (hand the ROM to a separate
   sign-off flow),
2. the content-addressed :class:`ROMCache` — any run pointed at the same
   cache directory skips the local stage automatically, across processes,
   with the material fingerprint guarding against stale reuse,
3. a multi-case :class:`~repro.api.SimulationSpec` — :func:`repro.api.run`
   assembles the array once and solves the eliminated global system for
   every thermal load.

A simulator that holds ROMs loaded from disk solves a layout with
:func:`repro.api.execute_cases`.

Run with:  python examples/rom_reuse_and_persistence.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import MaterialLibrary, MoreStressSimulator, ROMCache, TSVArrayLayout, TSVGeometry
from repro.api import GeometrySpec, LoadCase, MeshSpec, SimulationSpec, execute_cases, run
from repro.utils.logging import enable_console_logging


def main() -> None:
    enable_console_logging()
    tsv = TSVGeometry.paper_default(pitch=10.0)
    materials = MaterialLibrary.default()

    with tempfile.TemporaryDirectory() as tmp:
        rom_dir = Path(tmp) / "tsv_p10_rom"
        cache = ROMCache(Path(tmp) / "rom_cache")

        # --- build & persist (e.g. run once per technology node) -----------
        builder = MoreStressSimulator(
            tsv, materials, mesh_resolution="coarse", rom_cache=cache
        )
        start = time.perf_counter()
        builder.build_roms(include_dummy=True)
        build_seconds = time.perf_counter() - start
        paths = builder.save_roms(rom_dir)
        print(f"local stage: {build_seconds:.2f} s, ROM files: {sorted(p.name for p in paths.values())}")

        # --- reload in a fresh simulator (e.g. a different analysis run) ---
        # load_roms validates the bundles' material fingerprint against this
        # simulator's library: a mismatched library raises instead of
        # silently reconstructing wrong stresses.
        consumer = MoreStressSimulator(tsv, materials, mesh_resolution="coarse")
        consumer.load_roms(rom_dir)

        for rows, delta_t in [(3, -250.0), (5, -250.0), (5, -125.0), (8, -250.0)]:
            layout = TSVArrayLayout.full(tsv, rows=rows)
            result, = execute_cases(consumer, layout, [delta_t])
            vm_max = result.von_mises_midplane(points_per_block=20).max()
            print(
                f"  {rows}x{rows} array, delta_t={delta_t:6.1f} degC: "
                f"global stage {result.global_stage_seconds:.3f} s, "
                f"max von Mises {vm_max:7.1f} MPa"
            )

        # --- the ROM cache + a thermal sweep ---------------------------------
        # Same technology, new run: the cache key (geometry, resolution,
        # interpolation scheme, material fingerprint) hits the bundle stored
        # by `builder`, so no local stage runs here at all.  Stress scales
        # linearly with the thermal load (Eq. 1), and the four cases share
        # one layout, so the global system is assembled once for all loads.
        spec = SimulationSpec(
            name="thermal-sweep",
            geometry=GeometrySpec(pitch=10.0, rows=5),
            mesh=MeshSpec(resolution="coarse", nodes_per_axis=(4, 4, 4), points_per_block=20),
            load_cases=tuple(
                LoadCase(delta_t=delta_t) for delta_t in (-250.0, -200.0, -150.0, -100.0)
            ),
        )
        hits = cache.hits
        sweep = run(spec, rom_cache=cache)
        first = sweep.cases[0]
        print(
            f"warm ROM cache: local stage replaced by a {first.local_stage_seconds:.3f} s "
            f"load ({cache.hits - hits} hit)"
        )
        print(
            f"thermal sweep ({first.solver_method}, shared assembly, "
            f"{first.global_stage_seconds:.3f} s total):"
        )
        for case in sweep.cases:
            print(f"  delta_t={case.delta_t:6.1f} degC -> max von Mises {case.peak_von_mises:7.1f} MPa")


if __name__ == "__main__":
    main()
