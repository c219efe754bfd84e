"""In-memory span recorder for the benchmark's traced runs.

A traced run wraps the program's public entry points where the consuming
module looks them up (``repro.rom.local_stage.assemble_stiffness``, not
``repro.fem.assembly.assemble_stiffness``), records one span per call
(name, key, start, end, parent, counters) and writes nothing until the run
ends.  The program itself is never edited; :meth:`Tracer.uninstall` puts
every original object back.

A span's *key* ties it to one timed operation: the benchmark opens a root
span per sample (key = sample id) and the job service's per-job entry point
opens one per job (key = job id).  Children inherit their parent's key, also
across the thread pools of :func:`repro.utils.parallel.parallel_map`, whose
consumer-side names are wrapped to carry the parent span into the workers.

Per-layer metrics are computed per key from the spans' *self* time (a span's
interval minus the union of its children's) or *total* time, taking the
union over all spans of a metric so that spans running concurrently on the
worker pool count wall time once.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import weakref
from pathlib import Path

#: Per-layer metrics derived from spans: name -> (unit, span names, reduction).
#: ``"self"``/``"total"`` reduce span time; ``("sum"|"max", counter)`` reduce
#: a counter recorded at the span.
SPAN_METRICS: dict[str, tuple[str, tuple[str, ...], object]] = {
    "local.mesh_s": ("s", ("local.mesh",), "self"),
    "local.assembly_s": ("s", ("local.assembly",), "self"),
    "local.interpolation_s": ("s", ("local.interpolation",), "self"),
    "local.factorize_s": ("s", ("local.factorize",), "self"),
    "local.backsolve_s": ("s", ("local.backsolve",), "self"),
    "local.self_s": ("s", ("local.build",), "self"),
    "local.rhs": ("count", ("local.backsolve",), ("sum", "rhs")),
    "local.fine_dofs": ("count", ("local.mesh",), ("max", "fine_dofs")),
    "rom_cache.get_s": ("s", ("rom_cache.get",), "self"),
    "rom_cache.put_s": ("s", ("rom_cache.put",), "self"),
    "rom_cache.hits": ("count", ("rom_cache.get",), ("sum", "hits")),
    "rom_cache.misses": ("count", ("rom_cache.get",), ("sum", "misses")),
    "rom_cache.put_bytes": ("bytes", ("rom_cache.put",), ("sum", "bytes")),
    "global.numbering_s": ("s", ("global.numbering",), "self"),
    "global.assembly_s": ("s", ("global.assembly",), "self"),
    "global.bc_s": ("s", ("global.bc",), "self"),
    "global.factorize_s": ("s", ("global.factorize",), "self"),
    "global.solve_s": ("s", ("global.solve",), "self"),
    "global.dofs": ("count", ("global.numbering",), ("max", "dofs")),
    "global.nnz": ("count", ("global.solve", "global.factorize"), ("max", "nnz")),
    "global.iterations": ("count", ("global.solve",), ("sum", "iterations")),
    "global.true_rel_residual": (
        "fraction", ("global.solve",), ("max", "true_rel_residual")
    ),
    "post.midplane_s": ("s", ("post.midplane",), "self"),
    "post.reconstruct_s": ("s", ("post.reconstruct",), "self"),
    "post.hotspots_s": ("s", ("post.hotspots",), "self"),
    "post.vtk_s": ("s", ("post.vtk",), "self"),
    "post.npz_s": ("s", ("post.npz",), "self"),
    "post.manifest_s": ("s", ("post.manifest",), "self"),
    "post.bytes_written": (
        "bytes", ("post.vtk", "post.npz", "post.manifest"), ("sum", "bytes")
    ),
    "api.self_s": ("s", ("api.run", "service.run"), "self"),
    "service.submit_s": ("s", ("service.submit",), "total"),
    "service.polls_per_job": ("count", ("service.poll",), ("sum", "polls")),
    "service.persist_s": ("s", ("service.persist",), "self"),
    "service.result_save_s": ("s", ("service.result_save",), "total"),
    "service.run_s": ("s", ("service.run",), "total"),
}

#: Per-layer metrics read from the job service's job records, per job.
RECORD_METRICS = {
    "service.queue_wait_s": "s",
    "service.exec_s": "s",
    "service.retries": "count",
}

#: Every per-layer metric the benchmark reports, with its unit.
LAYER_UNITS = {
    **{name: spec[0] for name, spec in SPAN_METRICS.items()},
    **RECORD_METRICS,
    "trace.overhead_frac": "fraction",
}


def _file_bytes(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _has_ancestor(record, name: str) -> bool:
    while record is not None:
        if record[0] == name:
            return True
        record = record[4]
    return False


class Tracer:
    """Records spans around wrapped entry points; see the module docstring."""

    def __init__(self) -> None:
        # A span is [name, key, start, end, parent span, counters].
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # Global factorizations, so the batched back-substitution's true
        # residual can be computed from the operator the wrapper sees.
        self._factorized = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of the calling thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, key=None) -> list:
        parent = self.current()
        if key is None and parent is not None:
            key = parent[1]
        record = [name, key, time.perf_counter(), None, parent, {}]
        self.spans.append(record)
        self._stack().append(record)
        return record

    def close(self, record: list) -> None:
        record[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, key=None):
        """Record one span around the ``with`` body; yields the span record."""
        record = self.open(name, key)
        try:
            yield record
        finally:
            self.close(record)

    def export(self) -> list[dict]:
        """Closed spans as plain dicts with integer ids (JSON-serializable)."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        return [
            {
                "id": ids[id(record)],
                "name": record[0],
                "key": record[1],
                "start": record[2],
                "end": record[3],
                "parent": None if record[4] is None else ids.get(id(record[4])),
                "counters": record[5],
            }
            for record in self.spans
            if record[3] is not None
        ]

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, fn, name, key_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(tracer.current()) if callable(name) else name
            key = key_of(args) if key_of is not None else None
            record = tracer.open(span_name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if after is not None:
                # Counter bookkeeping runs in its own span so no layer's self
                # time absorbs it.
                with tracer.span("trace.bookkeeping"):
                    after(record, args, result)
            return result

        return traced

    def _carry_parent(self, parallel_map):
        tracer = self

        @functools.wraps(parallel_map)
        def traced_map(fn, items, *args, **kwargs):
            parent = tracer.current()

            def task(item):
                stack = tracer._stack()
                saved = list(stack)
                stack[:] = [] if parent is None else [parent]
                try:
                    return fn(item)
                finally:
                    stack[:] = saved

            return parallel_map(task, items, *args, **kwargs)

        return traced_map

    def _patch(self, owner, attr: str, replacement_of) -> None:
        """Replace ``owner.attr`` by ``replacement_of(original)``."""
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement_of(raw.__func__))
        else:
            replacement = replacement_of(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self, side: str) -> "Tracer":
        """Wrap the entry points of one side.

        ``"program"`` wraps the layers of a run, ``"server"`` adds the job
        service's per-job entry point and record writes, and ``"client"``
        wraps only the job-service client's status poll.
        """
        for owner, attr, name, key_of, after in _targets(self, side):
            self._patch(
                owner,
                attr,
                lambda fn, n=name, k=key_of, a=after: self._wrap(fn, n, k, a),
            )
        if side != "client":
            from repro.postprocess import fields
            from repro.rom import local_stage

            for module in (local_stage, fields):
                self._patch(module, "parallel_map", self._carry_parent)
        return self

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all originals are back."""
        restored = list(self._patches)
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        return all(owner.__dict__[attr] is raw for owner, attr, raw in restored)


def _targets(tracer: Tracer, side: str):
    """``(owner, attr, span name, key_of, after)`` of every wrapped entry point."""
    import numpy as np

    def count(name, value):
        def after(record, args, result):
            record[5][name] = value(args, result)

        return after

    if side == "client":
        from repro.service.client import ServiceClient

        poll = count("polls", lambda args, _: 1)
        return [(ServiceClient, "job", "service.poll", lambda args: args[1], poll)]

    import repro.api
    from repro.api import executor, result
    from repro.fem import backends, solver
    from repro.postprocess import fields, vtk
    from repro.rom import cache, global_dofs, global_stage, interpolation, local_stage

    def under_local(kind_local, kind_global):
        return lambda parent: (
            kind_local if _has_ancestor(parent, "local.build") else kind_global
        )

    def factorize_done(record, args, operator):
        if record[0] == "global.factorize":
            record[5]["nnz"] = int(args[1].nnz)
            tracer._factorized[operator] = args[1]

    def backsolve_done(record, args, solution):
        rhs = np.asarray(args[1])
        if record[0] == "local.backsolve":
            record[5]["rhs"] = 1 if rhs.ndim == 1 else int(rhs.shape[1])
            return
        matrix = tracer._factorized.get(args[0])
        if matrix is not None:
            residual = np.linalg.norm(matrix @ solution - rhs, axis=0)
            scale = np.maximum(np.linalg.norm(rhs, axis=0), 1e-300)
            record[5]["true_rel_residual"] = float(np.max(residual / scale))

    def linear_solve_done(record, args, solution):
        linear_solver, matrix, rhs = args[0], args[1], np.ravel(args[2])
        stats = linear_solver.last_stats
        record[5]["nnz"] = int(matrix.nnz)
        record[5]["iterations"] = int(stats.iterations) if stats is not None else 0
        record[5]["true_rel_residual"] = float(
            np.linalg.norm(matrix @ solution - rhs) / max(np.linalg.norm(rhs), 1e-300)
        )

    def cache_get_done(record, args, rom):
        record[5]["hits" if rom is not None else "misses"] = 1

    bytes_of_result = count("bytes", lambda args, path: _file_bytes(path))
    stage = global_stage.GlobalStage
    targets = [
        (
            repro.api,
            "run",
            lambda parent: (
                "service.run" if _has_ancestor(parent, "service.job") else "api.run"
            ),
            None,
            None,
        ),
        (local_stage.LocalStage, "build", "local.build", None, None),
        (
            local_stage,
            "mesh_unit_block",
            "local.mesh",
            None,
            count("fine_dofs", lambda args, mesh: int(mesh.num_dofs)),
        ),
        (local_stage, "material_arrays_for_mesh", "local.mesh", None, None),
        (local_stage, "assemble_stiffness", "local.assembly", None, None),
        (local_stage, "assemble_thermal_load", "local.assembly", None, None),
        (local_stage, "split_system", "local.interpolation", None, None),
        (
            interpolation.InterpolationScheme,
            "boundary_interpolation_matrix",
            "local.interpolation",
            None,
            None,
        ),
        (
            backends.SparseBackend,
            "factorize",
            under_local("local.factorize", "global.factorize"),
            None,
            factorize_done,
        ),
        (
            backends.FactorizedOperator,
            "solve",
            under_local("local.backsolve", "global.solve"),
            None,
            backsolve_done,
        ),
        (cache.ROMCache, "get", "rom_cache.get", None, cache_get_done),
        (cache.ROMCache, "put", "rom_cache.put", None, bytes_of_result),
        (
            global_dofs.GlobalDofManager,
            "__init__",
            "global.numbering",
            None,
            count("dofs", lambda args, _: int(args[0].num_global_dofs)),
        ),
        (stage, "assemble", "global.assembly", None, None),
        (stage, "clamped_top_bottom_bc", "global.bc", None, None),
        (global_stage, "lift_system", "global.bc", None, None),
        (stage, "solve_many", "global.solve", None, None),
        (solver.LinearSolver, "solve", "global.solve", None, linear_solve_done),
        (global_stage.GlobalSolution, "von_mises_midplane", "post.midplane", None, None),
        (executor, "reconstruct_array_field", "post.reconstruct", None, None),
        (executor, "analyze_hotspots", "post.hotspots", None, None),
        (vtk, "write_vtk_rectilinear", "post.vtk", None, bytes_of_result),
        (result, "save_npz_bundle", "post.npz", None, bytes_of_result),
        (fields, "save_npz_bundle", "post.npz", None, bytes_of_result),
        (result, "dump_json", "post.manifest", None, bytes_of_result),
    ]
    if side == "server":
        from repro.service import jobs, pool

        targets += [
            (pool.WorkerPool, "_run_job", "service.job", lambda args: args[1], None),
            (result.RunResult, "save", "service.result_save", None, None),
            (jobs, "dump_json", "service.persist", lambda args: Path(args[0]).stem, None),
        ]
    return targets


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
def _merge(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _subtract(start: float, end: float, covered: list[tuple[float, float]]):
    pieces, cursor = [], start
    for c_start, c_end in covered:
        if c_end <= cursor or c_start >= end:
            continue
        if c_start > cursor:
            pieces.append((cursor, c_start))
        cursor = max(cursor, c_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def layer_values(spans: list[dict]) -> dict:
    """Per-key values of every :data:`SPAN_METRICS` metric.

    Returns ``{key: {metric: value}}`` over the keys the spans carry; a
    metric whose spans are absent under a key is 0 there.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    by_key: dict = {}
    for span in spans:
        if span["key"] is not None:
            by_key.setdefault(span["key"], {}).setdefault(span["name"], []).append(span)

    values: dict = {}
    for key, named in by_key.items():
        row = {}
        for metric, (_, names, how) in SPAN_METRICS.items():
            members = [span for name in names for span in named.get(name, ())]
            if how in ("self", "total"):
                intervals = []
                for span in members:
                    if how == "total":
                        intervals.append((span["start"], span["end"]))
                    else:
                        covered = _merge(children.get(span["id"], []))
                        intervals += _subtract(span["start"], span["end"], covered)
                row[metric] = sum(end - start for start, end in _merge(intervals))
            else:
                reduce, counter = how
                found = [span["counters"][counter] for span in members
                         if counter in span["counters"]]
                row[metric] = sum(found) if reduce == "sum" else max(found, default=0)
        values[key] = row
    return values
