"""Benchmark of the MORE-Stress engine: end-to-end and per-layer metrics.

Run from the repository root::

    python bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace 0|1] [--out FILE]

Each workload is measured in ``CHILDREN`` child processes run one after
another (``bench/workloads.py``); each child sets the workload up, measures it
for ``S / CHILDREN`` seconds and checks every output.  ``setup_s`` is the
median of the children's set-up times, so set-up is measured several times
per run.  ``run_s`` is the median over timed samples of the seconds per
operation: wall seconds, except on ``service-2x2``, where they are the CPU
seconds of server and clients per job.  Both are scaled to a reference host
speed by a probe timed around each sample (``workloads.at_reference_speed``);
the raw wall times are printed as ``wall_setup_s`` and ``wall_s``.  Untraced runs report the
end-to-end metrics; ``--trace 1`` runs alternate traced and untraced children
and report the per-layer metrics of the traced ones (and the tracing overhead
against the untraced one).

The script prints one ``workload metric value unit`` line per metric and, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  It exits 1 when a correctness check fails and 2 when the
benchmark could not run at all (then without the JSON line).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYER_UNITS
from workloads import LINEARITY_RTOL, WORKLOADS, at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Children per workload and run; ``setup_s`` is their median.
CHILDREN = 3
SMOKE_CHILDREN = 2
SMOKE_SECONDS = 1.0
#: Every child must be done this long after the run started.
RUN_BUDGET_SECONDS = 170.0

#: End-to-end metrics, with their units.
E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
#: Reported alongside, not gated: raw wall times and rates follow the host's
#: speed, a zero never changes, and the NMAE is fixed by the correctness check.
INFO_UNITS = {
    "wall_setup_s": "s",
    "wall_s": "s",
    "tail_s": "s",
    "ops_per_s": "1/s",
    "probe_s": "s",
    "failed_frac": "fraction",
    "nmae_vs_fem": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


def _tail(values: list[float]) -> float:
    """The highest value with ten samples above it; the upper quartile below 40."""
    if len(values) >= 40:
        return values[-11]
    if len(values) >= 2:
        return statistics.quantiles(values, n=4)[2]
    return values[0]


def _run_s(samples: list[dict]) -> list[float]:
    """Sorted seconds per operation of timed samples, at the reference speed."""
    return sorted(
        at_reference_speed(sample["seconds"] / sample["ops"], sample["probe_s"])
        for sample in samples
    )


def _run_child(command: list[str], deadline: float) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    # A session of its own, so a timeout can stop the child and anything it
    # started (the job server) together.
    child = subprocess.Popen(command, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise BenchError(f"workload child exited with code {code}: {' '.join(command)}")


def measure(name, seed, seconds, trace, smoke, work: Path, deadline: float) -> list[dict]:
    """Run the children of one workload; returns their results."""
    children = SMOKE_CHILDREN if smoke else CHILDREN
    results = []
    for index in range(children):
        child_work = work / f"{name}-{index}"
        child_work.mkdir(parents=True)
        out = child_work / "result.json"
        traced = trace and index % 2 == 0
        command = [
            sys.executable,
            str(BENCH / "workloads.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", repr(seconds / children),
            "--trace", "1" if traced else "0",
            "--work", str(child_work),
            "--out", str(out),
            *(["--smoke"] if smoke else []),
            "--t0", repr(time.time()),
        ]
        _run_child(command, deadline)
        results.append(json.loads(out.read_text()))
    return results


def summarize(results: list[dict]) -> dict:
    """Metrics and checks of one workload from its children's results."""
    ops = [op for result in results for op in result["ops"]]
    failed = sum(not op["ok"] for op in ops)
    checks = [check for result in results for check in result["checks"]]
    signatures: dict = {}
    for op in ops:
        if op["ok"]:
            signatures.setdefault(op["input"], []).append(op["signature"])
    checks.append({
        "name": "equal inputs give bit-identical outputs (traced and untraced)",
        "ok": all(all(s == group[0] for s in group) for group in signatures.values()),
    })
    ratios = [op["ratio"] for op in ops if op.get("ratio") is not None]
    if ratios:
        checks.append({
            "name": f"peak/|dT| equal across jobs within {LINEARITY_RTOL:g}",
            "ok": max(ratios) - min(ratios) <= LINEARITY_RTOL * max(ratios),
        })

    untraced = [result for result in results if not result["traced"]]
    samples = [sample for result in untraced for sample in result["samples"]]
    times = sorted(op["seconds"] for result in untraced for op in result["ops"] if op["ok"])
    e2e, info = {}, {"failed_frac": failed / len(ops), "samples": len(samples)}
    if samples:
        run_s = _run_s(samples)
        # A child's set-up is scaled by the median wall-time probe of its own
        # samples.
        setup_s = [
            at_reference_speed(
                result["setup_s"],
                statistics.median(sample["wall_probe_s"] for sample in result["samples"]),
            )
            for result in untraced
            if result["samples"]
        ]
        e2e = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(run_s),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in untraced),
        }
        info["run_s_quartiles"] = statistics.quantiles(run_s, n=4) if len(run_s) >= 2 else run_s
        info["wall_setup_s"] = statistics.median(result["setup_s"] for result in untraced)
        info["wall_s"] = statistics.median(times)
        info["tail_s"] = _tail(times)
        info["ops_per_s"] = len(times) / sum(result["loop_s"] for result in untraced)
        info["probe_s"] = statistics.median(sample["wall_probe_s"] for sample in samples)
    nmae = [op["nmae_vs_fem"] for op in ops if "nmae_vs_fem" in op]
    if nmae:
        info["nmae_vs_fem"] = statistics.median(nmae)

    layer = {}
    traced = [result for result in results if result["traced"]]
    traced_ops = [op for result in traced for op in result["ops"] if op["ok"]]
    if traced_ops and samples:
        for metric in LAYER_UNITS:
            values = [op["layer"].get(metric, 0) for op in traced_ops]
            layer[metric] = statistics.median(values)
        traced_samples = [sample for result in traced for sample in result["samples"]]
        layer["trace.overhead_frac"] = (
            statistics.median(_run_s(traced_samples)) / e2e["run_s"] - 1.0
        )
    return {
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0 and all(check["ok"] for check in checks),
        "checks": checks,
        "e2e": e2e,
        "layer": layer,
        "info": info,
        "errors": sorted({op["error"] for op in ops if op.get("error")}),
    }


def main(argv: list[str] | None = None) -> int:
    defaults = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed of every random input")
    # The command BENCHMARK.json describes is run as
    # `--workload W --seed N --seconds <run_seconds> --trace 0|1`.
    parser.add_argument(
        "--seconds", type=float, default=defaults["run_seconds"],
        help="measuring time per workload (ignored with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced children instead",
    )
    parser.add_argument("--out", help="also write the full results as JSON here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes and short runs for the smoke test; numbers are not comparable",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    deadline = time.monotonic() + RUN_BUDGET_SECONDS * len(names)
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    summaries = {}
    try:
        # Inside the checkout: the benchmark writes nowhere else.
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as work:
            for name in names:
                results = measure(
                    name, args.seed, seconds, bool(args.trace), args.smoke, Path(work), deadline
                )
                summaries[name] = summarize(results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The last line carries the metrics BENCHMARK.json lists; per-layer
    # times that are 0 on some workload (a layer it never enters) are only
    # printed, since a time that never changes reads as a fake.
    listed = {entry["name"] for entry in defaults["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    for name, summary in summaries.items():
        reported = summary["layer"] if args.trace else summary["e2e"]
        units = LAYER_UNITS if args.trace else E2E_UNITS
        for metric, value in reported.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
            if metric in listed:
                label = metric if len(names) == 1 else f"{name}:{metric}"
                metrics[label] = {"value": value, "unit": units[metric]}
        for metric, value in summary["info"].items():
            if metric in INFO_UNITS:
                print(f"{name} {metric} {value:.6g} {INFO_UNITS[metric]}")
        for check in summary["checks"]:
            if not check["ok"]:
                print(f"{name}: check failed: {check['name']}", file=sys.stderr)
        for error in summary["errors"]:
            print(f"{name}: failed operation: {error}", file=sys.stderr)
    if args.out:
        document = {
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "workloads": summaries,
            "units": {**E2E_UNITS, **INFO_UNITS, **LAYER_UNITS},
        }
        Path(args.out).write_text(json.dumps(document, indent=1))
    correct = all(summary["correct"] for summary in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(summary["attempted"] for summary in summaries.values()),
        "failed": sum(summary["failed"] for summary in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
