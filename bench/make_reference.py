"""Make the full-FEM accuracy reference of the ``rom-build-medium`` workload.

Solves the workload's array (2x2 TSVs, pitch 10 um, ``medium`` unit-block
mesh, clamped top and bottom, delta_t = -250 degC) once with the monolithic
``FullFEMReference`` on the same fine mesh the ROM's local stage uses, so the
score measures the ROM's own approximation error.  Writes the mid-plane von
Mises grid with its provenance (spec, DoFs, solver, commit, the ROM's error
against it) to ``bench/reference/rom_build_2x2_medium.npz``.

One-off, never part of a benchmark run: about 12 s and 0.6 GB on a 2-CPU
x86-64 box.  Run from the repository root:

    python bench/make_reference.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from workloads import REFERENCE, ROOT, make_spec


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro import api
    from repro.analysis.metrics import normalized_mae
    from repro.baselines.full_fem import FullFEMReference
    from repro.geometry.array_layout import TSVArrayLayout

    spec = make_spec(2, 10.0, "medium", (4, 4, 4), 20)
    case = spec.load_cases[0]
    layout = TSVArrayLayout.full(spec.geometry.build_tsv(), rows=2, cols=2)
    start = time.perf_counter()
    solution = FullFEMReference(
        spec.materials.build_library(), resolution=spec.mesh.build_resolution()
    ).solve_array(layout, case.delta_t)
    seconds = time.perf_counter() - start
    von_mises = solution.von_mises_midplane(spec.mesh.points_per_block)
    rom_nmae = normalized_mae(api.run(spec).cases[0].von_mises, von_mises)
    provenance = {
        "spec": spec.to_dict(),
        "method": "FullFEMReference",
        "fine_dofs": solution.num_dofs,
        "solver": solution.solver_stats.method,
        "solve_residual_norm": solution.solver_stats.residual_norm,
        "seconds": round(seconds, 1),
        "commit": _commit(),
        "rom_nmae": rom_nmae,
    }
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(
        REFERENCE, von_mises=von_mises, provenance=np.array(json.dumps(provenance))
    )
    print(json.dumps({k: v for k, v in provenance.items() if k != "spec"}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
