"""The benchmark's workloads, each measured in a child process of ``run.py``.

``python bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
--t0 T --work DIR --out FILE [--smoke]`` sets one workload up, measures it
for ``S`` seconds, checks every output and writes one JSON result to
``FILE``.  ``run.py`` starts several such children per workload and
aggregates them; a child of its own per workload makes ``ru_maxrss`` an
honest high-water mark of that workload alone.

The children call only the program's public entry points: ``repro.api.run``,
``RunResult.save``, ``ArrayField.load``, ``python -m repro serve`` and
``ServiceClient``.  Every input is made from ``--seed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference" / "rom_build_2x2_medium.npz"

#: Tolerances of the correctness checks.
PEAK_RTOL = 1e-6
LINEARITY_RTOL = 1e-8
NMAE_SLACK = 1e-4

#: Iterations of the speed probe, a fixed pure-Python loop.
PROBE_LOOP = 200_000
#: Probe time that defines a reference second.  The benchmark's hosts change
#: speed by up to 60% within seconds, so a timed sample is scaled by this over
#: the probe time measured right before and after it (see ``at_reference_speed``).
PROBE_REFERENCE_S = 0.012
#: Length of one timed phase of the service's closed loop.
PHASE_SECONDS = 1.0


def speed_probe() -> tuple[float, float]:
    """Wall and CPU seconds the fixed probe loop takes now: the host's current speed."""
    wall, cpu = time.perf_counter(), time.thread_time()
    total = 0
    for k in range(PROBE_LOOP):
        total += k * k
    return time.perf_counter() - wall, time.thread_time() - cpu


def _mean_probe(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    return (before[0] + after[0]) / 2, (before[1] + after[1]) / 2


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` and all its threads so far."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s


def _mib(kib: int) -> float:
    return kib / 1024.0


def make_spec(rows, pitch, resolution, nodes, points, delta_ts=(-250.0,), output=None):
    from repro.api import GeometrySpec, LoadCase, MeshSpec, OutputSpec, SimulationSpec

    return SimulationSpec(
        geometry=GeometrySpec(pitch=pitch, rows=rows),
        mesh=MeshSpec(resolution=resolution, nodes_per_axis=nodes, points_per_block=points),
        load_cases=tuple(
            LoadCase(name=f"case{index}", delta_t=delta_t)
            for index, delta_t in enumerate(delta_ts)
        ),
        output=None if output is None else OutputSpec(**output),
    )


def _seeded_delta_t(seed: int, index: int) -> float:
    """A thermal load in [-250, -50] degC, fixed by ``(seed, index)``."""
    return random.Random(f"{seed}:{index}").uniform(-250.0, -50.0)


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def _linear(ratios: list[float]) -> bool:
    return (max(ratios) - min(ratios)) <= LINEARITY_RTOL * max(ratios)


class Workload:
    """One workload: ``setup``, then repeated ``op`` calls, then ``teardown``.

    ``op`` returns a dict with ``seconds`` (timed part only), ``ok``,
    ``error``, ``signature`` (outputs that must be bit-identical for equal
    ``input``), ``input`` and optional ``layer`` values.
    """

    #: Sizes per mode; ``smoke`` keeps the smoke test fast.
    sizes: dict = {}

    def __init__(self, size: str, seed: int, work: Path, tracer) -> None:
        self.config = self.sizes[size]
        self.seed = seed
        self.work = work
        self.tracer = tracer

    def setup(self) -> None:
        """Everything before the first timed sample but :meth:`warm_up`."""

    def warm_up(self) -> None:
        """One untimed operation: fills the ROM cache, imports lazy modules
        and lets the allocator reach its steady state (the first large
        allocations of a process page-fault; later ones reuse the heap)."""
        self.op(-1)

    def teardown(self) -> dict:
        """Undo :meth:`setup`; returns extra result fields."""
        return {}

    def measure(self, seconds: float) -> tuple[list[dict], list[dict], float]:
        """Run ops back to back for ``seconds``; at least one op runs.

        Returns the ops, the timed samples (one per successful op, with the
        wall-time speed probe around it) and the loop's wall time.
        """
        if self.tracer is not None:
            self.tracer.install("program")
        ops: list[dict] = []
        samples: list[dict] = []
        probe = speed_probe()
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            index = len(ops)
            try:
                if self.tracer is None:
                    op = self.op(index)
                else:
                    with self.tracer.span("bench.op", key=index):
                        op = self.op(index)
            except Exception as exc:  # an op failure is counted, not fatal
                op = {"seconds": None, "ok": False, "error": repr(exc)}
            op.setdefault("key", index)
            ops.append(op)
            after = speed_probe()
            if op["ok"]:
                wall_probe_s = _mean_probe(probe, after)[0]
                samples.append({
                    "seconds": op["seconds"],
                    "ops": 1,
                    "probe_s": wall_probe_s,
                    "wall_probe_s": wall_probe_s,
                })
            probe = after
        return ops, samples, time.perf_counter() - start

    def op(self, index: int) -> dict:
        raise NotImplementedError


class GlobalArray(Workload):
    """A clamped array with a warm ROM cache: the global stage does the work."""

    name = "global-40x40"
    sizes = {
        "full": {"rows": 40, "dofs": 54249, "peak": 533.6189173399025},
        "smoke": {"rows": 3, "dofs": 414, "peak": 540.3999266651485},
    }

    def setup(self) -> None:
        from repro import api

        self.api = api
        self.cache = self.work / "rom_cache"
        self.spec = make_spec(self.config["rows"], 15.0, "tiny", (3, 3, 3), 10)

    def op(self, index: int) -> dict:
        start = time.perf_counter()
        case = self.api.run(self.spec, rom_cache=self.cache).cases[0]
        seconds = time.perf_counter() - start
        ok = case.num_global_dofs == self.config["dofs"] and _close(
            case.peak_von_mises, self.config["peak"], PEAK_RTOL
        )
        return {
            "seconds": seconds,
            "ok": ok,
            "error": None if ok else f"dofs {case.num_global_dofs}, peak {case.peak_von_mises!r}",
            "signature": [case.num_global_dofs, case.peak_von_mises],
            "input": "fixed",
        }


class ROMBuild(Workload):
    """A cold run per sample: the one-shot local stage does the work.

    Also the accuracy workload: the mid-plane von Mises stress is scored
    against the committed full-FEM reference of the same configuration.
    """

    name = "rom-build-medium"
    sizes = {
        "full": {
            "resolution": "medium",
            "dofs": 492,
            "peak": 590.7628967743011,
            "reference": True,
        },
        "smoke": {"resolution": "tiny", "dofs": 492, "peak": 731.1745581508709},
    }

    def setup(self) -> None:
        import numpy as np

        from repro import api
        from repro.analysis.metrics import normalized_mae

        self.api = api
        self.normalized_mae = normalized_mae
        self.spec = make_spec(2, 10.0, self.config["resolution"], (4, 4, 4), 20)
        self.reference = None
        if self.config.get("reference"):
            with np.load(REFERENCE) as bundle:
                self.reference = bundle["von_mises"]
                provenance = json.loads(str(bundle["provenance"]))
            if provenance["spec"] != self.spec.to_dict():
                raise RuntimeError(f"{REFERENCE.name} was made for another spec")
            self.nmae_bound = provenance["rom_nmae"] + NMAE_SLACK

    def op(self, index: int) -> dict:
        cache = self.work / f"rom_cache_{index}"
        start = time.perf_counter()
        case = self.api.run(self.spec, rom_cache=cache).cases[0]
        seconds = time.perf_counter() - start
        shutil.rmtree(cache, ignore_errors=True)
        errors = []
        if case.num_global_dofs != self.config["dofs"]:
            errors.append(f"dofs {case.num_global_dofs}")
        if not _close(case.peak_von_mises, self.config["peak"], PEAK_RTOL):
            errors.append(f"peak {case.peak_von_mises!r}")
        op = {
            "seconds": seconds,
            "signature": [case.num_global_dofs, case.peak_von_mises],
            "input": "fixed",
        }
        if self.reference is not None:
            nmae = self.normalized_mae(case.von_mises, self.reference)
            if not nmae <= self.nmae_bound:
                errors.append(f"nmae_vs_fem {nmae!r} > {self.nmae_bound!r}")
            op["nmae_vs_fem"] = nmae
            op["signature"].append(nmae)
        op["ok"] = not errors
        op["error"] = "; ".join(errors) or None
        return op


class SweepExport(Workload):
    """A load sweep with full-field export: post-processing does the work."""

    name = "sweep-export-8x8"
    sizes = {
        "full": {"rows": 8, "dofs": 2409, "ratio": 2.136956073337849},
        "smoke": {"rows": 2, "dofs": 213, "ratio": 2.174564112721477},
    }
    output = {
        "formats": ("vtk", "npz"),
        "points_per_block": 10,
        "z_planes": 3,
        "hotspots": True,
    }

    def setup(self) -> None:
        from repro import api
        from repro.postprocess.fields import ArrayField

        self.api = api
        self.array_field = ArrayField
        self.cache = self.work / "rom_cache"
        self.delta_ts = [_seeded_delta_t(self.seed, index) for index in range(4)]
        rows = self.config["rows"]
        self.spec = make_spec(rows, 15.0, "tiny", (3, 3, 3), 10, self.delta_ts, self.output)
        self.field_shape = (rows * 10, rows * 10, 3)

    def op(self, index: int) -> dict:
        out = self.work / f"out_{index}"
        start = time.perf_counter()
        result = self.api.run(self.spec, rom_cache=self.cache)
        result.save(out)
        seconds = time.perf_counter() - start
        errors = []
        dofs = {case.num_global_dofs for case in result.cases}
        if dofs != {self.config["dofs"]}:
            errors.append(f"dofs {sorted(dofs)}")
        peaks = [case.peak_von_mises for case in result.cases]
        ratios = [peak / abs(delta_t) for peak, delta_t in zip(peaks, self.delta_ts)]
        if not _linear(ratios) or not _close(ratios[0], self.config["ratio"], PEAK_RTOL):
            errors.append(f"peak/|dT| {ratios!r}")
        exports = sorted((out / "fields").glob("*.npz"))
        if len(exports) != len(self.delta_ts):
            errors.append(f"{len(exports)} npz exports")
        for path in exports:
            shape = self.array_field.load(path).shape
            if shape != self.field_shape:
                errors.append(f"{path.name} shape {shape}")
        shutil.rmtree(out)
        return {
            "seconds": seconds,
            "ok": not errors,
            "error": "; ".join(errors) or None,
            "signature": [sorted(dofs), peaks],
            "input": "fixed",
        }


class Service(Workload):
    """A closed loop of two clients against the job service.

    Each job is a distinct 2x2 spec (its own seeded thermal load, so the
    service never deduplicates), so the service's per-job bookkeeping
    dominates.  The server runs in a child process; when traced it is started
    through ``bench/serve.py``, which records the server-side spans.
    """

    name = "service-2x2"
    sizes = {
        "full": {"ratio": 2.174564112721477},
        "smoke": {"ratio": 2.174564112721477},
    }
    clients = 2
    poll_seconds = 0.02

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.client_class = ServiceClient
        random.seed(self.seed)  # the client's poll jitter
        # Children get the default SIGINT handler (not an inherited "ignore"),
        # so the server shuts down cleanly on SIGINT.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        self.spans_path = self.work / "server_spans.json"
        # One worker whatever the host's CPU count (two crash; see README).
        serve = [
            "serve", "--store", str(self.work / "store"), "--port", "0", "--workers", "1", "--json",
        ]
        if self.tracer is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(BENCH / "serve.py"), str(self.spans_path), *serve]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        lines = []
        for line in self.server.stdout:
            lines.append(line)
            if line.rstrip() == "}":
                break
        self.url = json.loads("".join(lines))["data"]["url"]

    def warm_up(self) -> None:
        """The first, cold job fills the server's ROM cache."""
        client = self.client_class(self.url)
        spec, _ = self._job_spec(-1)
        record = client.wait(client.submit(spec)["id"], timeout=120)
        if record["state"] != "done":
            raise RuntimeError(f"warm-up job ended {record['state']}: {record.get('error')}")

    def _job_spec(self, index: int):
        delta_t = -250.0 if index < 0 else _seeded_delta_t(self.seed, index)
        return make_spec(2, 15.0, "tiny", (3, 3, 3), 10, (delta_t,)), delta_t

    def measure(self, seconds: float) -> tuple[list[dict], list[dict], float]:
        """Run the closed loop in phases of ``PHASE_SECONDS``.

        A sample is one phase: the CPU seconds the server and the clients
        spent in it over the jobs done in it.  That covers the work of every
        step of a job (HTTP on both sides, record writes, the run, the result
        save, polling) but not time spent waiting: for fsync, for a CPU, or
        in a poll's sleep.  On a shared host those waits follow the
        neighbours' load, not the program.  The sample is scaled by the CPU
        time of the speed probe, which runs between phases, when no job is
        in flight.
        """
        if self.tracer is not None:
            self.tracer.install("client")
        ops: list[dict] = []
        samples: list[dict] = []
        lock = threading.Lock()
        counter = itertools.count()
        probe = speed_probe()
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            phase_start = time.perf_counter()
            phase_end = min(phase_start + PHASE_SECONDS, start + seconds)
            phase: list[dict] = []

            def client_loop(end: float = phase_end, phase: list = phase) -> None:
                client = self.client_class(self.url)
                while True:  # at least one job per client and phase
                    with lock:
                        index = next(counter)
                    op = self._job(client, index)
                    with lock:
                        phase.append(op)
                    if time.perf_counter() >= end:
                        return

            cpu_start = self._cpu_seconds()
            threads = [threading.Thread(target=client_loop) for _ in range(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            cpu_s = self._cpu_seconds() - cpu_start
            after = speed_probe()
            done = sum(op["ok"] for op in phase)
            if done:
                wall_probe_s, cpu_probe_s = _mean_probe(probe, after)
                samples.append({
                    "seconds": cpu_s,
                    "ops": done,
                    "probe_s": cpu_probe_s,
                    "wall_probe_s": wall_probe_s,
                })
            probe = after
            ops += phase
        return ops, samples, time.perf_counter() - start

    def _cpu_seconds(self) -> float:
        """CPU seconds of the server and of this process (the clients) so far."""
        return process_cpu_seconds(self.server.pid) + time.process_time()

    def _job(self, client, index: int) -> dict:
        spec, delta_t = self._job_spec(index)
        start = time.perf_counter()
        try:
            if self.tracer is None:
                job_id = client.submit(spec)["id"]
            else:
                with self.tracer.span("service.submit") as span:
                    job_id = client.submit(spec)["id"]
                    span[1] = job_id
            record = client.wait(job_id, timeout=120, poll_seconds=self.poll_seconds)
        except Exception as exc:  # a failed job is counted, not fatal
            return {"key": f"op{index}", "seconds": None, "ok": False, "error": repr(exc)}
        seconds = time.perf_counter() - start
        summary = record.get("result_summary") or {}
        peak = summary.get("peak_von_mises")
        ok = record["state"] == "done" and peak is not None
        ratio = peak / abs(delta_t) if ok else None
        if ok and not _close(ratio, self.config["ratio"], PEAK_RTOL):
            ok = False
        return {
            "key": job_id,
            # Submit to done, as the client sees it.
            "seconds": seconds if ok else None,
            "ok": ok,
            "error": None if ok else f"state {record['state']}, peak {peak!r}",
            "signature": [peak],
            "input": str(index),
            "ratio": ratio,
            "layer": {
                "service.queue_wait_s": record["started_at"] - record["created_at"],
                "service.exec_s": record["finished_at"] - record["started_at"],
                "service.retries": record["attempts"] - 1,
            } if ok else {},
        }

    def teardown(self) -> dict:
        self.server.send_signal(signal.SIGINT)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        extra = {
            # The server is this process's only child, so the children's
            # high-water mark is the server's.
            "peak_rss_mb": _mib(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        }
        if self.tracer is not None:
            document = json.loads(self.spans_path.read_text())
            extra["server_spans"] = document["spans"]
            extra["server_restored"] = document["restored"]
        return extra


WORKLOADS = {cls.name: cls for cls in (GlobalArray, ROMBuild, SweepExport, Service)}


def run_child(args: argparse.Namespace) -> dict:
    """Set up, measure and check one workload; returns the child's result."""
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer, layer_values

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](
        "smoke" if args.smoke else "full", args.seed, Path(args.work), tracer
    )
    checks = []
    try:
        workload.setup()
        workload.warm_up()
        setup_s = time.time() - args.t0
        try:
            ops, samples, loop_s = workload.measure(args.seconds)
        finally:
            if tracer is not None:
                checks.append({"name": "wrappers removed", "ok": tracer.uninstall()})
    finally:
        extra = workload.teardown()
    result = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "loop_s": loop_s,
        "peak_rss_mb": extra.pop("peak_rss_mb", None)
        or _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "ops": ops,
        "samples": samples,
        "checks": checks,
    }
    if tracer is not None:
        values = layer_values(tracer.export())
        if "server_spans" in extra:
            checks.append({"name": "server wrappers removed", "ok": extra["server_restored"]})
            for key, row in layer_values(extra["server_spans"]).items():
                merged = values.setdefault(key, dict.fromkeys(row, 0))
                for metric, value in row.items():
                    merged[metric] += value
        for op in ops:
            if op["ok"]:
                op["layer"] = {**values.get(op["key"], {}), **op.get("layer", {})}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="spawn time (time.time())")
    parser.add_argument("--work", required=True, help="scratch directory of this child")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--smoke", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    result = run_child(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
