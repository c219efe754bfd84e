"""Command-line interface.

The CLI exposes the most common workflows without writing Python:

``python -m repro info``
    Print the package configuration (material library, mesh presets,
    interpolation defaults).
``python -m repro simulate --rows 8 --pitch 15 --delta-t -250``
    One-shot MORE-Stress simulation of a standalone array; prints the peak
    mid-plane von Mises stress and stage timings.
``python -m repro spec --rows 8 --pitch 15 -o run.json``
    Emit the declarative :class:`~repro.api.SimulationSpec` JSON the same
    flags describe (edit it, add load cases, check it into a repo...).
``python -m repro run run.json``
    Execute a spec file end to end — array runs, multi-load sweeps and
    sub-model runs all go through the same executor.
``python -m repro export results/``
    Materialize full-field ``.vtk``/``.npz`` exports and the per-TSV hotspot
    report from a saved results directory (``simulate``/``run`` accept
    ``--export-field DIR`` to produce the same artifacts inline).
``python -m repro table1|table2|table3 --preset small``
    Regenerate the paper's tables (see EXPERIMENTS.md) and print them as text.
``python -m repro serve --store service-data``
    Run the HTTP job server: queued, deduplicating simulation-as-a-service
    over one warm ROM cache (see :mod:`repro.service`).
``python -m repro submit run.json --url http://127.0.0.1:8642``
    Submit a spec file to a running server, wait, and print the summary.
``python -m repro chaos --scenario torn-write --seed 7``
    Run one (or ``--scenario all``) seeded fault-injection scenario against
    an in-process server and check the reliability invariants — no lost or
    duplicated jobs, no temp orphans, quarantine accounting, result parity
    with a fault-free run (see :mod:`repro.chaos`).

Every command accepts ``--json`` to emit the versioned response envelope
(:mod:`repro.api.envelope`) on stdout instead of the human-readable text —
the same document shape the service API returns — so shell pipelines and the
HTTP surface read identically.  ``simulate``/``run`` keep their historical
``--json PATH`` meaning (write the flat provenance manifest to a file).

Every command is a thin shell over the public API (``repro.api`` for runs,
``repro.experiments`` for the tables, ``repro.service`` for the server), so
everything the CLI does is equally accessible — and scriptable — from Python.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from repro._version import __version__
from repro.api import (
    KNOWN_OUTPUT_FORMATS,
    MaterialOverride,
    MaterialsSpec,
    GeometrySpec,
    LoadCase,
    MeshSpec,
    OutputSpec,
    RunResult,
    SimulationSpec,
    run as run_simulation_spec,
)
from repro.api.envelope import wrap
from repro.errors import ReproError, SpecError, error_envelope
from repro.lint import (
    Baseline,
    DEFAULT_BASELINE_NAME,
    LintUsageError,
    Project as LintProject,
    all_rules as all_lint_rules,
    run_lint,
    write_registry as write_fault_site_registry,
)
from repro.experiments.config import ConvergenceConfig, Scenario1Config, Scenario2Config
from repro.experiments.convergence import convergence_table, run_convergence_study
from repro.experiments.scenario1 import run_scenario1, scenario1_table
from repro.experiments.scenario2 import run_scenario2, scenario2_table
from repro.materials.library import MaterialLibrary
from repro.mesh.resolution import MeshResolution
from repro.rom.interpolation import InterpolationScheme
from repro.service.protocol import DEFAULT_PORT
from repro.utils.logging import enable_console_logging
from repro.utils.serialization import atomic_write_bytes, dump_json
from repro.utils.validation import ValidationError, check_positive_int

_TABLE_COMMANDS = ("table1", "table2", "table3")
_TABLE_CONFIGS = {
    "table1": Scenario1Config,
    "table2": Scenario2Config,
    "table3": ConvergenceConfig,
}


def _parse_material_override(text: str) -> MaterialOverride:
    """Parse a ``role:E,nu,cte`` override (E in GPa, cte in ppm/degC)."""
    role, sep, values = text.partition(":")
    parts = values.split(",") if sep else []
    if not sep or len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected ROLE:E,NU,CTE (E in GPa, CTE in ppm/degC), got {text!r}"
        )
    try:
        numbers = [float(part) for part in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"material constants must be numbers, got {values!r}"
        ) from exc
    try:
        return MaterialOverride(
            role=role.strip(),
            young_modulus_gpa=numbers[0],
            poisson_ratio=numbers[1],
            cte_ppm=numbers[2],
        )
    except ValidationError as exc:  # surface the message as a usage error
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_json_envelope_argument(parser: argparse.ArgumentParser, what: str) -> None:
    """The uniform ``--json [PATH]`` flag: envelope to stdout (or PATH)."""
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        default=None,
        dest="json_path",
        help=(
            f"emit {what} as the versioned response envelope on stdout "
            "(or to PATH), suppressing the text output"
        ),
    )


def _emit_envelope(document: dict, json_path: str) -> None:
    """Write a response envelope to stdout (``-``) or a file path."""
    if json_path == "-":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        dump_json(json_path, document)


def _table_envelope(table: Any) -> dict:
    """The ``kind="table"`` envelope of a ResultTable."""
    return wrap(
        "table",
        {"title": table.title, "columns": list(table.columns), "rows": table.rows},
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``simulate`` and ``spec`` (they describe the same run)."""
    parser.add_argument("--rows", type=int, default=4, help="array rows (default 4)")
    parser.add_argument("--cols", type=int, default=None, help="array columns (default: rows)")
    parser.add_argument("--pitch", type=float, default=15.0, help="TSV pitch in um")
    parser.add_argument("--diameter", type=float, default=5.0, help="TSV diameter in um")
    parser.add_argument("--height", type=float, default=50.0, help="TSV height in um")
    parser.add_argument(
        "--liner", type=float, default=0.5, help="liner thickness in um"
    )
    parser.add_argument(
        "--delta-t", type=float, default=-250.0, help="thermal load in degC (default -250)"
    )
    parser.add_argument(
        "--resolution",
        default="coarse",
        choices=MeshResolution.preset_names(),
        help="unit-block mesh preset",
    )
    parser.add_argument(
        "--nodes", type=int, default=4, help="interpolation nodes per axis (default 4)"
    )
    parser.add_argument(
        "--points-per-block", type=int, default=30, help="mid-plane sample grid per block"
    )
    parser.add_argument(
        "--material",
        action="append",
        default=[],
        type=_parse_material_override,
        metavar="ROLE:E,NU,CTE",
        help=(
            "override one material role (repeatable): Young's modulus in GPa, "
            "Poisson ratio, CTE in ppm/degC — e.g. --material copper:120,0.34,16.5"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MORE-Stress: model order reduction for TSV thermal stress (DATE 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--verbose", action="store_true", help="enable progress logging to stderr"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="print configuration defaults")

    simulate = subparsers.add_parser(
        "simulate", help="simulate a standalone TSV array with MORE-Stress"
    )
    _add_spec_arguments(simulate)
    simulate.add_argument(
        "--rom-cache",
        metavar="DIR",
        default=None,
        help=(
            "persistent ROM cache directory; repeat runs with the same "
            "geometry/resolution/materials skip the local stage entirely"
        ),
    )
    simulate.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        default=None,
        dest="json_path",
        help=(
            "bare --json: print the versioned result envelope on stdout "
            "(suppresses the text summary); --json PATH: also write the flat "
            "provenance manifest to PATH"
        ),
    )
    simulate.add_argument(
        "--export-field",
        metavar="DIR",
        default=None,
        dest="export_field",
        help=(
            "reconstruct the full volumetric stress field, write .vtk/.npz "
            "exports plus the hotspot report to DIR and print the top hotspots"
        ),
    )

    spec = subparsers.add_parser(
        "spec",
        help="emit the declarative SimulationSpec JSON these flags describe",
    )
    _add_spec_arguments(spec)
    spec.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        default=None,
        help="write the spec to a file instead of stdout",
    )
    spec.add_argument(
        "--export-field",
        action="store_true",
        dest="export_field",
        help="include a full-field 'output' section (vtk+npz+hotspots) in the template",
    )

    run = subparsers.add_parser(
        "run", help="execute a SimulationSpec JSON file (array/sweep/submodel)"
    )
    run.add_argument("spec_path", metavar="SPEC.json", help="spec file to execute")
    run.add_argument(
        "--rom-cache",
        metavar="DIR",
        default=None,
        help="persistent ROM cache directory shared across runs",
    )
    run.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        default=None,
        dest="json_path",
        help=(
            "bare --json: print the versioned result envelope on stdout "
            "(suppresses the text summary); --json PATH: also write the flat "
            "provenance manifest to PATH"
        ),
    )
    run.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="persist the full RunResult (manifest + stress fields) to a directory",
    )
    run.add_argument(
        "--export-field",
        metavar="DIR",
        default=None,
        dest="export_field",
        help=(
            "force full-field outputs (adding a default 'output' section if "
            "the spec has none) and write the exports + hotspot report to DIR"
        ),
    )

    export = subparsers.add_parser(
        "export",
        help="export full-field .vtk/.npz + hotspot report from a saved results directory",
    )
    export.add_argument(
        "results_dir",
        metavar="RESULTS_DIR",
        help="directory written by 'run --save' (or RunResult.save())",
    )
    export.add_argument(
        "-o",
        "--output",
        metavar="DIR",
        default=None,
        help="destination directory (default: RESULTS_DIR/fields)",
    )
    export.add_argument(
        "--format",
        action="append",
        default=None,
        dest="formats",
        choices=sorted(KNOWN_OUTPUT_FORMATS),
        help="export format (repeatable; default: the spec's formats, else both)",
    )
    export.add_argument(
        "--rom-cache",
        metavar="DIR",
        default=None,
        help="persistent ROM cache directory (used only if the run must be re-solved)",
    )
    _add_json_envelope_argument(export, "the export summary + hotspot tables")

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP job server (queued, deduplicating simulation-as-a-service)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default="service-data",
        help=(
            "service state directory holding the persistent job queue, saved "
            "results and the shared ROM cache (default: service-data)"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral port (default {DEFAULT_PORT})",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="concurrent jobs (default: half the CPUs)",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=256,
        metavar="N",
        help="reject new submissions beyond N queued jobs with HTTP 429 (default 256)",
    )
    serve.add_argument(
        "--rom-cache",
        metavar="DIR",
        default=None,
        help="shared ROM cache directory (default: STORE/rom_cache)",
    )
    serve.add_argument(
        "--rom-cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        dest="rom_cache_max_bytes",
        help=(
            "LRU size cap of the shared ROM cache; least-recently-used "
            "bundles are evicted past it (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock timeout (default: none)",
    )
    serve.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "watchdog threshold: re-queue a job whose worker heartbeat is "
            "older than SECONDS (default: no watchdog)"
        ),
    )
    serve.add_argument(
        "--fault-plan",
        metavar="PLAN",
        default=None,
        dest="fault_plan",
        help=(
            "fault-injection plan: a JSON file path or inline JSON object "
            "(testing only; the REPRO_FAULT_PLAN environment variable is "
            "honored when this flag is absent)"
        ),
    )
    _add_json_envelope_argument(serve, "the startup announcement (url, store, workers)")

    chaos = subparsers.add_parser(
        "chaos",
        help="run seeded fault-injection scenarios and check service invariants",
    )
    chaos.add_argument(
        "--scenario",
        default="all",
        metavar="NAME",
        help="scenario name, or 'all' (default) for every registered scenario",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="fault-plan RNG seed (default 0)"
    )
    chaos.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "state directory for the chaos run (default: a fresh temporary "
            "directory, removed when the scenario passes)"
        ),
    )
    chaos.add_argument(
        "--stall-timeout",
        type=float,
        default=1.5,
        metavar="SECONDS",
        help="watchdog threshold used by the scenarios (default 1.5)",
    )
    _add_json_envelope_argument(chaos, "the per-scenario chaos reports")

    submit = subparsers.add_parser(
        "submit", help="submit a SimulationSpec JSON file to a running job server"
    )
    submit.add_argument("spec_path", metavar="SPEC.json", help="spec file to submit")
    submit.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"server base URL (default http://127.0.0.1:{DEFAULT_PORT})",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="queue the job and return immediately instead of waiting for the result",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="client-side wait budget for job completion (default 600)",
    )
    submit.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-side per-job wall-clock timeout for this submission",
    )
    submit.add_argument(
        "--fields",
        metavar="PATH",
        default=None,
        help="download the finished job's fields.npz bundle to PATH",
    )
    _add_json_envelope_argument(
        submit, "the result envelope (or the job record with --no-wait)"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repro.lint invariant analyzer (see docs/INVARIANTS.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=(
            "files or directories to analyze "
            "(default: src/repro under the current directory)"
        ),
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        default=None,
        help="run only this rule id (repeatable, e.g. --rule REP001)",
    )
    lint.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "baseline file of grandfathered findings (default: "
            f"{DEFAULT_BASELINE_NAME} in the current directory, when present)"
        ),
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="do not apply the default baseline file",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    lint.add_argument(
        "--write-registry",
        metavar="DIR",
        default=None,
        help=(
            "regenerate the fault-site registry (fault_sites.json + "
            "fault_sites.md) into DIR and exit"
        ),
    )
    _add_json_envelope_argument(lint, "the lint report")

    for name, help_text in (
        ("table1", "regenerate Table 1 (standalone arrays)"),
        ("table2", "regenerate Table 2 (sub-modeling)"),
        ("table3", "regenerate Table 3 / Fig. 6 (convergence)"),
    ):
        table = subparsers.add_parser(name, help=help_text)
        table.add_argument(
            "--preset",
            default="small",
            choices=("small", "medium", "paper"),
            help=(
                "experiment scale: 'small' (minutes), 'medium' (overnight, "
                "where defined) or 'paper' (the paper's full configuration)"
            ),
        )
        table.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help=(
                "workers for the independent experiment cases (default: one "
                "per CPU); results are identical to --jobs 1"
            ),
        )
        _add_json_envelope_argument(table, "the table (title, columns, rows)")

    return parser


def _command_info() -> int:
    library = MaterialLibrary.default()
    print(f"repro {__version__} — MORE-Stress reproduction")
    print("\nmaterial library (role: E [GPa], nu, CTE [ppm/degC]):")
    for role in library.roles():
        material = library[role]
        print(
            f"  {role:10s}  E={material.young_modulus / 1e3:7.1f}  "
            f"nu={material.poisson_ratio:.2f}  alpha={material.cte * 1e6:.1f}"
        )
    print("\nmesh presets (cells per unit block / DoFs per block):")
    for name in MeshResolution.preset_names():
        resolution = MeshResolution.preset(name)
        print(
            f"  {name:7s}  {resolution.inplane_cells}x{resolution.inplane_cells}"
            f"x{resolution.n_z} cells  ({resolution.dofs_per_block} DoFs)"
        )
    print("\ninterpolation schemes (nodes per axis -> element DoFs n, Eq. 16):")
    for nodes in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (6, 6, 6)):
        print(f"  {nodes}  ->  n = {InterpolationScheme(nodes).num_element_dofs}")
    return 0


def _spec_from_args(args: argparse.Namespace) -> SimulationSpec:
    """Build the SimulationSpec the ``simulate``/``spec`` flags describe.

    Raises :class:`ValidationError` (caught by the commands, exit code 2)
    for an out-of-range flag, and its :class:`SpecError` subclass for
    mistakes spanning several flags, e.g. the same role overridden twice.
    """
    roles = [override.role for override in args.material]
    duplicate = next((role for role in roles if roles.count(role) > 1), None)
    if duplicate is not None:
        raise SpecError(f"--material: role {duplicate!r} is overridden twice")
    # A truthy --export-field (a directory for simulate/run, a flag for spec)
    # requests the full-field output section.
    output = OutputSpec() if getattr(args, "export_field", None) else None
    return SimulationSpec(
        name="cli-simulate",
        geometry=GeometrySpec(
            diameter=args.diameter,
            height=args.height,
            liner_thickness=args.liner,
            pitch=args.pitch,
            rows=args.rows,
            cols=args.cols,
        ),
        materials=MaterialsSpec(overrides=tuple(args.material)),
        mesh=MeshSpec(
            resolution=args.resolution,
            nodes_per_axis=(args.nodes, args.nodes, args.nodes),
            points_per_block=args.points_per_block,
        ),
        load_cases=(LoadCase(name="cli", delta_t=args.delta_t),),
        output=output,
    )


def _print_run_summary(result: RunResult, verbose_cache: bool = True) -> None:
    for case in result.cases:
        vm = case.von_mises
        rows, cols = vm.shape[:2]
        where = f" at {case.location}" if case.location else ""
        print(f"case {case.name:14s}: {rows}x{cols} TSVs{where}, delta_t={case.delta_t:g} degC")
        print(f"  global stage    : {case.global_stage_seconds:.3f} s ({case.solver_method})")
        print(f"  reduced DoFs    : {case.num_global_dofs}")
        print(f"  peak von Mises  : {vm.max():.1f} MPa")
    print(f"local stage       : {result.local_stage_seconds:.2f} s (shared)")
    print(f"execution groups  : {result.num_case_groups} (one assembly each)")
    if verbose_cache and result.rom_cache_stats is not None:
        stats = result.rom_cache_stats
        print(f"rom cache         : {stats['hits']} hit(s), {stats['misses']} miss(es)")


def _export_and_report(
    result: RunResult, directory: str | Path, formats=None, quiet: bool = False
) -> dict:
    """Write field exports + hotspot report; print (unless quiet) and
    return the ``kind="export"`` envelope payload."""
    written = result.export_fields(directory, formats=formats)
    top_k = result.spec.output.top_k if result.spec.output is not None else 10
    hotspots = {}
    for case in result.cases:
        if case.hotspots is not None:
            table = case.hotspots.table(top_k)
            hotspots[case.name] = {
                "title": table.title,
                "columns": list(table.columns),
                "rows": table.rows,
            }
    if not quiet:
        for path in written:
            print(f"export            : {path}")
        for case in result.cases:
            if case.hotspots is not None:
                print()
                print(case.hotspots.table(top_k).to_text())
    return {
        "spec_hash": result.spec_hash,
        "output_dir": str(Path(directory)),
        "files": [str(path) for path in written],
        "hotspots": hotspots,
    }


def _finish_run(result: RunResult, args: argparse.Namespace, save: str | None = None) -> None:
    """The outputs ``simulate`` and ``run`` write after their text summary.

    ``--json PATH`` writes the flat provenance manifest, ``save`` persists
    the full result, ``--export-field DIR`` writes the field exports and
    the hotspot report, and a bare ``--json`` prints the result envelope
    (the command printed no summary then).
    """
    json_mode = args.json_path == "-"
    if args.json_path and not json_mode:
        # Historical behaviour: --json PATH writes the *flat* manifest file.
        dump_json(args.json_path, result.manifest())
        print(f"manifest          : {args.json_path}")
    if save:
        result.save(save)
        if not json_mode:
            print(f"full result       : {save}")
    if args.export_field:
        _export_and_report(result, args.export_field, quiet=json_mode)
    if json_mode:
        _emit_envelope(result.envelope(), "-")


def _command_simulate(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_simulation_spec(spec, rom_cache=args.rom_cache)
    if args.json_path != "-":
        case = result.cases[0]
        vm = case.von_mises
        rows, cols = vm.shape[:2]
        local_note = "one-shot"
        if result.rom_cache_stats is not None:
            stats = result.rom_cache_stats
            local_note = f"rom cache: {stats['hits']} hit(s), {stats['misses']} miss(es)"
        print(f"array             : {rows}x{cols} TSVs at pitch {args.pitch:g} um")
        print(f"thermal load      : {args.delta_t:g} degC")
        print(f"local stage       : {case.local_stage_seconds:.2f} s ({local_note})")
        print(f"global stage      : {case.global_stage_seconds:.3f} s")
        print(f"reduced DoFs      : {case.num_global_dofs}")
        print(f"peak von Mises    : {vm.max():.1f} MPa")
        print(f"mean von Mises    : {vm.mean():.1f} MPa")
    _finish_run(result, args)
    return 0


def _command_spec(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = spec.to_json(indent=2)
    if args.output:
        # Specs are durable artifacts (checked into repos, fed to `repro
        # run`): write them with the same crash-safe discipline as results.
        atomic_write_bytes(
            Path(args.output),
            (document + "\n").encode("utf-8"),
            fault_site="cli.spec.write",
        )
        print(f"spec written to {args.output}", file=sys.stderr)
    else:
        print(document)
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    root = Path.cwd()
    try:
        if args.list_rules:
            rules = all_lint_rules()
            if args.json_path:
                payload = {
                    "rules": [
                        {
                            "id": rule.id,
                            "name": rule.name,
                            "severity": rule.severity,
                            "description": rule.description,
                        }
                        for rule in rules
                    ]
                }
                _emit_envelope(wrap("lint", payload), args.json_path)
            else:
                for rule in rules:
                    print(f"{rule.id}  {rule.severity:7s} {rule.name}")
                    print(f"       {rule.description}")
            return 0
        paths = [Path(p) for p in args.paths] or None
        if args.write_registry:
            lint_paths = paths if paths is not None else [root / "src" / "repro"]
            for target in lint_paths:
                resolved = target if target.is_absolute() else root / target
                if not resolved.exists():
                    raise LintUsageError(f"lint target does not exist: {resolved}")
            project = LintProject.from_paths(root, lint_paths)
            for written in write_fault_site_registry(project, args.write_registry):
                print(f"wrote {written}", file=sys.stderr)
            return 0
        baseline = None
        if args.baseline:
            baseline = Baseline.load(Path(args.baseline))
        elif not args.no_baseline:
            default_baseline = root / DEFAULT_BASELINE_NAME
            if default_baseline.is_file():
                baseline = Baseline.load(default_baseline)
        report = run_lint(root, paths, rule_ids=args.rules, baseline=baseline)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_path:
        _emit_envelope(wrap("lint", report.to_payload()), args.json_path)
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _check_output_directories(directories: dict[str, str | None]) -> None:
    """Reject output paths that would only fail once the run has started."""
    for flag, directory in directories.items():
        if directory and Path(directory).exists() and not Path(directory).is_dir():
            raise ValidationError(f"{flag} {directory} exists and is not a directory")


def _command_run(args: argparse.Namespace) -> int:
    path = Path(args.spec_path)
    if not path.is_file():
        print(f"error: spec file {path} does not exist", file=sys.stderr)
        return 2
    try:
        spec = SimulationSpec.from_json(path.read_text())
        _check_output_directories({"--save": args.save, "--export-field": args.export_field})
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.export_field and spec.output is None:
        spec = dataclasses.replace(spec, output=OutputSpec())
    result = run_simulation_spec(spec, rom_cache=args.rom_cache)
    if args.json_path != "-":
        print(f"spec              : {spec.name} ({result.spec_hash})")
        _print_run_summary(result)
    _finish_run(result, args, save=args.save)
    return 0


def _command_export(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    try:
        _check_output_directories({"--output": args.output})
        result = RunResult.load(results_dir)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not any(case.field_data is not None for case in result.cases):
        # The saved run predates full-field outputs (or requested none):
        # re-execute its spec with field outputs enabled.  The manifest holds
        # the complete spec, so the re-run reproduces the same cases.
        archived_hash = result.spec_hash
        spec = result.spec
        if spec.output is None:
            spec = dataclasses.replace(spec, output=OutputSpec())
        print(
            "saved results carry no full fields; re-solving the archived spec "
            f"{spec.name!r} with field outputs enabled"
        )
        result = run_simulation_spec(spec, rom_cache=args.rom_cache)
        # The output section only adds post-processing — the solve is the
        # archived one — so the exports stay stamped with the archive's hash
        # and remain joinable to its manifest.
        result.spec_hash = archived_hash
    formats = tuple(args.formats) if args.formats else None
    out_dir = Path(args.output) if args.output else results_dir / "fields"
    document = _export_and_report(
        result, out_dir, formats=formats, quiet=args.json_path == "-"
    )
    if args.json_path:
        _emit_envelope(wrap("export", document), args.json_path)
    return 0


def _command_table(
    name: str,
    preset: str = "small",
    jobs: int | None = None,
    json_path: str | None = None,
) -> int:
    try:
        if jobs is not None:
            check_positive_int("jobs", jobs)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config_cls = _TABLE_CONFIGS[name]
    factory = getattr(config_cls, preset, None)
    if factory is None:
        print(
            f"error: {name} ({config_cls.__name__}) has no {preset!r} preset; "
            "available: small, paper"
            + (", medium" if hasattr(config_cls, "medium") else ""),
            file=sys.stderr,
        )
        return 2
    config = factory()
    if name == "table1":
        table = scenario1_table(run_scenario1(config, jobs=jobs))
    elif name == "table2":
        table = scenario2_table(run_scenario2(config, jobs=jobs))
    else:
        records, reference_seconds = run_convergence_study(config, jobs=jobs)
        table = convergence_table(records, reference_seconds)
    if json_path:
        _emit_envelope(_table_envelope(table), json_path)
    if json_path != "-":
        print(table.to_text())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.service import JobServer

    if args.fault_plan:
        value = args.fault_plan.strip()
        if value.startswith("{"):
            fault_plan = faults.FaultPlan.from_json(value)
        else:
            fault_plan = faults.FaultPlan.from_file(value)
    else:
        fault_plan = faults.FaultPlan.from_env()
    if fault_plan is not None:
        print(
            f"warning: fault injection active ({len(fault_plan.rules)} rule(s), "
            f"seed {fault_plan.seed}) — testing only",
            file=sys.stderr,
        )
    server = JobServer(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queued=args.max_queued,
        rom_cache=args.rom_cache,
        rom_cache_max_bytes=args.rom_cache_max_bytes,
        default_timeout_seconds=args.job_timeout,
        stall_timeout_seconds=args.stall_timeout,
        fault_plan=fault_plan,
    )
    server.start()
    document = wrap(
        "serve",
        {
            "url": server.url,
            "store": str(server.store.directory),
            "workers": server.pool.workers,
            "max_queued": args.max_queued,
        },
    )
    if args.json_path:
        _emit_envelope(document, args.json_path)
    if args.json_path != "-":
        print(f"serving           : {server.url}")
        print(f"store             : {server.store.directory}")
        print(f"workers           : {server.pool.workers}")
        print("press Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        if args.json_path != "-":
            print("\nshutting down")
    finally:
        server.stop()
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from repro import chaos

    if args.scenario == "all":
        names = sorted(chaos.SCENARIOS)
    elif args.scenario in chaos.SCENARIOS:
        names = [args.scenario]
    else:
        print(
            f"error: unknown scenario {args.scenario!r}; choose from "
            f"{sorted(chaos.SCENARIOS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    json_mode = args.json_path == "-"
    reports = []
    for name in names:
        store_dir = None
        if args.store:
            store_dir = Path(args.store) / name
        report = chaos.run_scenario(
            name,
            seed=args.seed,
            store_dir=store_dir,
            stall_timeout_seconds=args.stall_timeout,
        )
        reports.append(report)
        if not json_mode:
            status = "ok" if report.ok else "FAIL"
            print(
                f"{name:18s}: {status}  "
                f"({len(report.acknowledged)} job(s), "
                f"{len(report.fired)} fault(s) fired, "
                f"{report.elapsed_seconds:.1f}s)"
            )
            for violation in report.violations:
                print(f"  violation: {violation}")
    failed = [report for report in reports if not report.ok]
    if args.json_path:
        document = wrap(
            "chaos",
            {
                "seed": args.seed,
                "ok": not failed,
                "scenarios": [report.to_dict() for report in reports],
            },
        )
        _emit_envelope(document, args.json_path)
    if not json_mode:
        print(
            f"{len(reports) - len(failed)}/{len(reports)} scenario(s) passed"
        )
    return 1 if failed else 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    path = Path(args.spec_path)
    if not path.is_file():
        print(f"error: spec file {path} does not exist", file=sys.stderr)
        return 2
    try:
        spec = SimulationSpec.from_json(path.read_text())
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json_mode = args.json_path == "-"
    client = ServiceClient(args.url)
    try:
        record = client.submit(spec, timeout_seconds=args.job_timeout)
        if not json_mode:
            note = " (deduplicated)" if record.get("deduplicated") else ""
            print(f"job               : {record['id']}{note}")
            print(f"state             : {record['state']}")
        if args.no_wait:
            if args.json_path:
                _emit_envelope(wrap("job", {"job": record}), args.json_path)
            return 0
        record = client.wait(record["id"], timeout=args.timeout)
        if record["state"] != "done":
            error = record.get("error") or {}
            print(
                f"error: job {record['id']} {record['state']}: "
                f"{error.get('message', 'no error recorded')}",
                file=sys.stderr,
            )
            if args.json_path:
                _emit_envelope(wrap("job", {"job": record}), args.json_path)
            return 1
        envelope = client.result(record["id"])
        if not json_mode:
            manifest = envelope["data"]
            spec_name = (manifest.get("spec") or {}).get("name", spec.name)
            print(f"spec              : {spec_name} ({manifest['spec_hash']})")
            for case in manifest["cases"]:
                print(
                    f"case {case['name']:14s}: {case['rows']}x{case['cols']} TSVs, "
                    f"peak von Mises {case['peak_von_mises']:.1f} MPa "
                    f"({case['global_stage_seconds']:.3f} s global)"
                )
        if args.fields:
            destination = client.fetch_fields(record["id"], args.fields)
            if not json_mode:
                print(f"fields            : {destination}")
        if args.json_path:
            _emit_envelope(envelope, args.json_path)
        return 0
    except ReproError as exc:
        if json_mode:
            print(json.dumps(error_envelope(exc), indent=2, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro``.  Returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        enable_console_logging()
    if args.command == "info":
        return _command_info()
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "spec":
        return _command_spec(args)
    if args.command == "run":
        return _command_run(args)
    if args.command == "export":
        return _command_export(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "chaos":
        return _command_chaos(args)
    if args.command == "lint":
        return _command_lint(args)
    if args.command in _TABLE_COMMANDS:
        return _command_table(
            args.command,
            preset=args.preset,
            jobs=args.jobs,
            json_path=args.json_path,
        )
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
