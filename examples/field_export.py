#!/usr/bin/env python3
"""Full-field export & hotspot analytics: from a spec to ParaView-ready files.

A :class:`repro.api.OutputSpec` turns any run into a field-producing one: the
executor reconstructs the whole-array displacement / Voigt-stress / von Mises
field block by block (peak memory stays at one block's fine field, however
large the array) and materializes

* a legacy ``.vtk`` rectilinear grid (open it in ParaView/VisIt: the
  ``von_mises`` scalar, the ``displacement`` vector and the six
  ``stress_*`` Voigt components are point data),
* an uncompressed ``.npz`` bundle (``ArrayField.load`` reads it back),
* a per-TSV hotspot report: peak von Mises stress, its 3-D location and the
  keep-out radius where stress exceeds the report threshold.

The same artifacts come out of the CLI:

    python -m repro run spec.json --save results --export-field exports
    python -m repro export results             # from an archived results dir

Run with:  python examples/field_export.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.api import (
    GeometrySpec,
    LoadCase,
    MeshSpec,
    OutputSpec,
    RunResult,
    SimulationSpec,
    run,
)
from repro.postprocess import ArrayField, read_vtk_rectilinear

OUT_DIR = Path(__file__).parent / "_field_export_output"


def main() -> None:
    # ----------------------------------------------------------------- #
    # 1. Describe the run.  The "output" section is all it takes to get
    #    full-field exports; z_planes is odd so the half-height plane of
    #    the paper's error metric is one of the sampled planes.
    # ----------------------------------------------------------------- #
    spec = SimulationSpec(
        name="field-export-demo",
        geometry=GeometrySpec(pitch=15.0, rows=4),
        mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=10),
        load_cases=(LoadCase(name="cooldown", delta_t=-250.0),),
        output=OutputSpec(formats=("vtk", "npz"), z_planes=5),
    )
    result = run(spec)
    case = result.cases[0]
    field = case.field_data
    assert field is not None
    print(f"reconstructed field: {field.shape} points, peak {field.peak_von_mises:.1f} MPa")

    # The volumetric field embeds the paper's mid-plane samples (to
    # round-off: the two grids sum the same operator in another order).
    midplane = case.simulation.von_mises_midplane_flat(spec.mesh.points_per_block)
    assert np.allclose(
        field.midplane_von_mises_flat(), midplane, rtol=0, atol=1e-12 * midplane.max()
    )

    # ----------------------------------------------------------------- #
    # 2. Persist.  save() archives manifest + fields; the exports live
    #    under <dir>/fields/ in every requested format.
    # ----------------------------------------------------------------- #
    result.save(OUT_DIR)
    vtk_path = OUT_DIR / "fields" / "case0_cooldown.vtk"
    npz_path = OUT_DIR / "fields" / "case0_cooldown.npz"
    print(f"saved run to {OUT_DIR} (exports in {OUT_DIR / 'fields'})")

    # ----------------------------------------------------------------- #
    # 3. Validate the exports parse back: shapes, finiteness, losslessness.
    # ----------------------------------------------------------------- #
    parsed = read_vtk_rectilinear(vtk_path)
    assert parsed["dimensions"] == field.shape
    assert np.array_equal(parsed["point_data"]["von_mises"], field.von_mises)
    assert np.array_equal(parsed["point_data"]["displacement"], field.displacement)
    assert all(np.isfinite(data).all() for data in parsed["point_data"].values())
    print(f"vtk export parses back: {sorted(parsed['point_data'])}")

    reloaded_field = ArrayField.load(npz_path)
    assert reloaded_field.shape == field.shape
    assert np.array_equal(reloaded_field.stress, field.stress)
    assert np.isfinite(reloaded_field.stress).all()

    # A full save/load round trip preserves the manifest (field + hotspots).
    reloaded = RunResult.load(OUT_DIR)
    assert reloaded.manifest() == result.manifest()
    print("npz + manifest round trips are lossless")

    # ----------------------------------------------------------------- #
    # 4. Hotspot analytics: which TSVs hurt, where, and how far the
    #    keep-out zone reaches.
    # ----------------------------------------------------------------- #
    report = case.hotspots
    assert report is not None and report.num_tsvs == 16
    print()
    print(report.table(spec.output.top_k).to_text())


if __name__ == "__main__":
    main()
