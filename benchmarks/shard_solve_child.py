"""Child process of the sharded-scaling benchmark: one solve, one report.

Runs a single global-stage solve in a fresh process so its ``ru_maxrss`` is
the peak RSS of exactly that solve (a same-process comparison is
impossible: the high-water mark never goes back down).  Writes a JSON report
and the nodal displacement vector for the parent benchmark to compare.

Modes:

* ``monolithic`` — the lifted, assembled system factorised by SuperLU;
* ``matrix-free`` — GMRES on the matrix-free global operator;
* ``sharded`` — the overlapping-Schwarz sharded solve.

Usage (invoked by ``benchmarks/test_global_scaling.py``)::

    PYTHONPATH=src python benchmarks/shard_solve_child.py \
        --size 100 --mode sharded --grid 4 4 --overlap 2 \
        --cache /path/to/rom_cache --report out.json --displacement out.npz
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.fem.solver import SolverOptions  # noqa: E402
from repro.geometry.array_layout import BlockKind, TSVArrayLayout  # noqa: E402
from repro.geometry.tsv import TSVGeometry  # noqa: E402
from repro.geometry.unit_block import UnitBlockGeometry  # noqa: E402
from repro.materials.library import MaterialLibrary  # noqa: E402
from repro.rom.cache import ROMCache  # noqa: E402
from repro.rom.global_stage import GlobalStage  # noqa: E402
from repro.rom.interpolation import InterpolationScheme  # noqa: E402
from repro.rom.local_stage import LocalStage  # noqa: E402
from repro.rom.shard import solve_sharded  # noqa: E402

# (2, 2, 3) is the smallest scheme that solves under the clamped BC: with
# nz=2 every node sits on the top or bottom face and the solution is zero.
_SCHEME = InterpolationScheme((2, 2, 3))
_DELTA_T = -250.0
_POINTS_PER_BLOCK = 4


def _peak_rss_bytes() -> int:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("monolithic", "matrix-free", "sharded"), required=True
    )
    parser.add_argument("--grid", type=int, nargs=2, default=(2, 2))
    parser.add_argument("--overlap", type=int, default=2)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--displacement", required=True)
    args = parser.parse_args()

    materials = MaterialLibrary.default()
    cache = ROMCache(args.cache)
    local = LocalStage(
        materials=materials, resolution="tiny", scheme=_SCHEME, cache=cache
    )
    start = time.perf_counter()
    rom = local.build(UnitBlockGeometry(tsv=TSVGeometry.paper_default(pitch=15.0)))
    local_seconds = time.perf_counter() - start

    method = "gmres" if args.mode == "matrix-free" else "direct"
    stage = GlobalStage(
        {BlockKind.TSV: rom},
        materials,
        solver_options=SolverOptions(method=method, rtol=1e-9),
    )
    layout = TSVArrayLayout.full(rom.block.tsv, rows=args.size)

    start = time.perf_counter()
    if args.mode != "sharded":
        solution = stage.solve(layout, delta_t=_DELTA_T)
        shard_stats = None
    else:
        solution, stats = solve_sharded(
            stage, layout, _DELTA_T, grid=tuple(args.grid), overlap=args.overlap
        )
        shard_stats = stats.to_dict()
    solve_seconds = time.perf_counter() - start

    max_von_mises = float(solution.max_von_mises(_POINTS_PER_BLOCK))
    np.savez_compressed(args.displacement, u=solution.nodal_displacement)
    report = {
        "mode": args.mode,
        "size": args.size,
        "num_global_dofs": int(solution.manager.num_global_dofs),
        "solve_seconds": round(solve_seconds, 4),
        "local_stage_seconds": round(local_seconds, 4),
        "cache_hit": cache.hits >= 1,
        "peak_rss_bytes": _peak_rss_bytes(),
        "max_von_mises": max_von_mises,
        "solver_method": solution.solver_stats.method,
        "shard": shard_stats,
    }
    Path(args.report).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
