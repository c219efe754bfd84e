"""Compare two sets of benchmark runs, workload by workload.

    python bench/compare.py A/ B/

``A/`` and ``B/`` hold the ``--out`` JSON files of untraced ``run.py`` runs,
one file per run (traced runs are skipped).  For every (workload, end-to-end
metric) the script prints both medians with their quartiles, the change of
B against A as a share of A's median, and a verdict judged against the bound
``BENCHMARK.json`` fixes for the metric:

* ``ok``: B is no worse than A by more than the bound;
* ``regressed``: B is worse than A by more than the bound;
* ``unresolved``: the run-to-run spread (quartile distance over median) of
  either set is wider than the bound, so the sets cannot be told apart --
  unless every run of B reads better than every run of A, which is ``ok``,
  or every run of B reads worse than every run of A and B's median is worse
  by more than the bound, which is ``regressed``.

Exits 1 when any pairing regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run]}`` of a directory of runs."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        if document.get("trace"):
            continue
        for workload, summary in document["workloads"].items():
            for metric, value in summary["e2e"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool):
    """``(change, spread, verdict)`` of set ``b`` against set ``a``."""
    quartiles_a, quartiles_b = _quartiles(a), _quartiles(b)
    spread = max(
        (quartiles_a[2] - quartiles_a[0]) / quartiles_a[1],
        (quartiles_b[2] - quartiles_b[0]) / quartiles_b[1],
    )
    change = (quartiles_b[1] - quartiles_a[1]) / quartiles_a[1]
    worse_by = change if lower_is_better else -change
    if spread > bound:
        better = max(b) < min(a) if lower_is_better else min(b) > max(a)
        worse = min(b) > max(a) if lower_is_better else max(b) < min(a)
        if worse and worse_by > bound:
            return change, spread, "regressed"
        return change, spread, "ok" if better else "unresolved"
    return change, spread, "regressed" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    set_a, set_b = (load_runs(Path(directory)) for directory in argv)
    print(
        f"{'workload':22} {'metric':12} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    regressed = False
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        for name, metric in metrics.items():
            a, b = set_a.get((workload, name)), set_b.get((workload, name))
            if not a or not b:
                print(f"{workload:22} {name:12} {'(missing in a set)':>30}")
                continue
            change, spread, result = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            regressed |= result == "regressed"
            cells = []
            for values in (a, b):
                q1, median, q3 = _quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(
                f"{workload:22} {name:12} {cells[0]:>30} {cells[1]:>30} "
                f"{change:+8.1%} {spread:7.1%} {metric['bound']:6.0%}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
