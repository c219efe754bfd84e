#!/usr/bin/env python3
"""Declarative runs: describe MORE-Stress workloads as data, not code.

A :class:`repro.api.SimulationSpec` captures everything a run needs —
geometry, materials, mesh fidelity, solver, load cases, optional sub-modeling
context — in one frozen object that round-trips losslessly through JSON.
``repro.api.run()`` plans the cheapest execution: the reduced order models
are built once per spec, and load cases sharing a layout share one assembly
and one eliminated global system, each case then solved on its own with the
spec's solver (``GlobalStage.solve_many``).

The same spec files execute from the command line:

    python -m repro run examples/specs/load_sweep.json
    python -m repro run examples/specs/submodel.json --json manifest.json

Run with:  python examples/declarative_runs.py
"""

from __future__ import annotations

from pathlib import Path

from repro.api import RunResult, SimulationSpec, run

SPECS_DIR = Path(__file__).parent / "specs"


def main() -> None:
    # ----------------------------------------------------------------- #
    # 1. A multi-case load sweep from a JSON file.  Three thermal loads
    #    share the 3x3 layout (one assembly, three GMRES solves) and a
    #    fourth case sweeps the array size with the same ROMs.
    # ----------------------------------------------------------------- #
    spec = SimulationSpec.from_json((SPECS_DIR / "load_sweep.json").read_text())
    result = run(spec)
    print(f"spec {spec.name!r} ({result.spec_hash}):")
    print(f"  {len(result.cases)} cases in {result.num_case_groups} execution groups")
    for case in result.cases:
        print(
            f"  {case.name:12s} {case.rows}x{case.cols} dt={case.delta_t:6.1f}  "
            f"peak={case.peak_von_mises:7.1f} MPa  [{case.solver_method}]"
        )

    # ----------------------------------------------------------------- #
    # 2. Persist the result: the manifest records provenance (spec + hash +
    #    package version + solver backends) and the stress fields reload
    #    without re-solving.
    # ----------------------------------------------------------------- #
    out_dir = Path(__file__).parent / "_declarative_run_output"
    result.save(out_dir)
    reloaded = RunResult.load(out_dir)
    assert reloaded.manifest() == result.manifest()
    print(f"saved + reloaded manifest from {out_dir} (hash {reloaded.spec_hash})")

    # ----------------------------------------------------------------- #
    # 3. A sub-model run from the same machinery: the spec places a TSV
    #    array (with a dummy ring) at named chiplet-package locations; the
    #    executor solves the coarse package model and lifts its
    #    displacements onto the sub-model boundary (paper §4.4).
    # ----------------------------------------------------------------- #
    submodel_spec = SimulationSpec.from_json((SPECS_DIR / "submodel.json").read_text())
    submodel_result = run(submodel_spec)
    print(f"spec {submodel_spec.name!r}:")
    for case in submodel_result.cases:
        print(
            f"  {case.name:12s} at {case.location}  "
            f"peak={case.peak_von_mises:7.1f} MPa"
        )
    centre = submodel_result.case("die-centre").peak_von_mises
    corner = submodel_result.case("die-corner").peak_von_mises
    print(f"die corner vs centre peak stress ratio: {corner / centre:.3f}")


if __name__ == "__main__":
    main()
