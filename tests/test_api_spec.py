"""Tests for the declarative spec layer (repro.api.spec).

Covers lossless serialization round trips (example-based and property-based)
and the failure modes: every malformed document must fail with a
:class:`SpecError` whose message names the offending field.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    GeometrySpec,
    LoadCase,
    MaterialOverride,
    MaterialsSpec,
    MeshSpec,
    OutputSpec,
    SCHEMA_VERSION,
    SimulationSpec,
    SolverSpec,
    SpecError,
    SubModelSpec,
)
from repro.geometry.package import ChipletPackage
from repro.mesh.resolution import MeshResolution
from repro.utils.validation import ValidationError

DEFAULT_SETTINGS = settings(max_examples=25, deadline=None)


def array_spec() -> SimulationSpec:
    return SimulationSpec(
        name="array",
        geometry=GeometrySpec(pitch=12.0, rows=3, cols=2),
        materials=MaterialsSpec(
            overrides=(
                MaterialOverride(
                    role="copper", young_modulus_gpa=120.0, poisson_ratio=0.34, cte_ppm=16.5
                ),
            )
        ),
        mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=7),
        solver=SolverSpec(method="direct"),
        load_cases=(LoadCase(name="cooldown", delta_t=-250.0),),
    )


def sweep_spec() -> SimulationSpec:
    return SimulationSpec(
        name="sweep",
        geometry=GeometrySpec(pitch=15.0, rows=2),
        mesh=MeshSpec(
            resolution=MeshResolution(n_core=2, n_liner=1, n_outer=2, n_z=3),
            nodes_per_axis=(3, 3, 3),
            points_per_block=5,
        ),
        load_cases=tuple(
            LoadCase(name=f"dt{i}", delta_t=-50.0 * (i + 1)) for i in range(4)
        ),
    )


def submodel_spec() -> SimulationSpec:
    return SimulationSpec(
        name="submodel",
        geometry=GeometrySpec(pitch=15.0, rows=2),
        mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5),
        load_cases=(
            LoadCase(name="centre", delta_t=-250.0, location="loc1"),
            LoadCase(name="corner", delta_t=-250.0, location="loc3"),
        ),
        submodel=SubModelSpec(dummy_ring_width=1, coarse_inplane_cells=10),
    )


def output_spec() -> SimulationSpec:
    return SimulationSpec(
        name="with-output",
        geometry=GeometrySpec(pitch=15.0, rows=2),
        mesh=MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5),
        load_cases=(LoadCase(name="cooldown", delta_t=-250.0),),
        output=OutputSpec(
            formats=("npz",),
            points_per_block=4,
            z_planes=3,
            hotspots=True,
            hotspot_threshold_fraction=0.6,
            top_k=3,
        ),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [array_spec, sweep_spec, submodel_spec, output_spec])
    def test_json_round_trip_is_lossless(self, factory):
        spec = factory()
        assert SimulationSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("factory", [array_spec, sweep_spec, submodel_spec, output_spec])
    def test_dict_round_trip_is_lossless(self, factory):
        spec = factory()
        assert SimulationSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("factory", [array_spec, sweep_spec, submodel_spec, output_spec])
    def test_spec_hash_stable_across_round_trip(self, factory):
        spec = factory()
        assert SimulationSpec.from_json(spec.to_json()).spec_hash() == spec.spec_hash()

    def test_int_valued_floats_hash_like_their_json_round_trip(self):
        # A spec built in Python with ``pitch=12`` equals its JSON round trip
        # (which holds 12.0), so it must hash equal too: saved runs and
        # service jobs are keyed by the hash.
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=12, rows=2),
            mesh=MeshSpec(resolution=MeshResolution(outer_ratio=1, z_refinement=2)),
            load_cases=(LoadCase(delta_t=-100),),
            submodel=SubModelSpec(package_scale=1),
        )
        restored = SimulationSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()
        assert type(spec.to_dict()["geometry"]["pitch"]) is float
        assert (
            SimulationSpec(geometry=GeometrySpec(pitch=12, rows=2)).spec_hash()
            == "8696bf2a98be2399b9ea"
        )

    def test_document_carries_schema_version(self):
        data = array_spec().to_dict()
        assert data["schema_version"] == SCHEMA_VERSION

    def test_terse_document_fills_defaults(self):
        spec = SimulationSpec.from_dict({"geometry": {"rows": 2}})
        assert spec.geometry.rows == 2
        assert spec.mesh.resolution == "coarse"
        assert len(spec.load_cases) == 1

    @DEFAULT_SETTINGS
    @given(
        pitch=st.floats(min_value=10.0, max_value=40.0),
        diameter=st.floats(min_value=2.0, max_value=6.0),
        rows=st.integers(min_value=1, max_value=50),
        nodes=st.integers(min_value=2, max_value=6),
        delta_ts=st.lists(
            st.floats(min_value=-400.0, max_value=400.0), min_size=1, max_size=5
        ),
    )
    def test_property_round_trip(self, pitch, diameter, rows, nodes, delta_ts):
        spec = SimulationSpec(
            geometry=GeometrySpec(pitch=pitch, diameter=diameter, rows=rows),
            mesh=MeshSpec(nodes_per_axis=(nodes, nodes, nodes)),
            load_cases=tuple(
                LoadCase(name=f"c{i}", delta_t=dt) for i, dt in enumerate(delta_ts)
            ),
        )
        restored = SimulationSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_resolved_cases_terminate_on_colliding_explicit_names(self):
        # regression: unnamed case whose default names are all taken must
        # still resolve (and terminate) with a fresh unique name
        spec = SimulationSpec(
            geometry=GeometrySpec(rows=2),
            load_cases=(
                LoadCase(delta_t=-10.0),
                LoadCase(name="case0", delta_t=-20.0),
                LoadCase(name="case0_1", delta_t=-30.0),
            ),
        )
        names = [case.name for case in spec.resolved_cases()]
        assert len(set(names)) == 3
        assert names[1:] == ["case0", "case0_1"]

    def test_resolved_cases_fill_names_sizes_locations(self):
        spec = SimulationSpec(
            geometry=GeometrySpec(rows=3),
            load_cases=(LoadCase(delta_t=-100.0), LoadCase(delta_t=-50.0, rows=5)),
        )
        resolved = spec.resolved_cases()
        assert [case.name for case in resolved] == ["case0", "case1"]
        assert (resolved[0].rows, resolved[0].cols) == (3, 3)
        assert (resolved[1].rows, resolved[1].cols) == (5, 5)
        sub = submodel_spec()
        assert [case.location for case in sub.resolved_cases()] == ["loc1", "loc3"]


class TestFailureModesNameTheField:
    @pytest.mark.parametrize(
        "document, field",
        [
            ({"geometry": {"pitch": -3.0}}, "pitch"),
            ({"geometry": {"warp": 1.0}}, "geometry.warp"),
            ({"mesh": {"resolution": "galactic"}}, "resolution"),
            ({"mesh": {"nodes_per_axis": [4, 4]}}, "mesh.nodes_per_axis"),
            ({"solver": {"method": "quantum"}}, "method"),
            ({"solver": {"jobs": 0}}, "jobs"),
            ({"load_cases": [{"delta_t": "cold"}]}, "load_cases[0].delta_t"),
            ({"load_cases": [{"rows": -1}]}, "rows"),
            ({"load_cases": [{"name": "a"}, {"name": "a"}]}, "load_cases[1].name"),
            ({"submodel": {"dummy_ring_width": -1}}, "dummy_ring_width"),
            ({"submodel": {"location": "loc9"}}, "location"),
            (
                {
                    "submodel": {},
                    "load_cases": [{"location": "centre"}],
                },
                "location",
            ),
            ({"materials": {"base": "exotic"}}, "base"),
            (
                {
                    "materials": {
                        "overrides": [
                            {
                                "role": "kryptonite",
                                "young_modulus_gpa": 1.0,
                                "poisson_ratio": 0.3,
                                "cte_ppm": 1.0,
                            }
                        ]
                    }
                },
                "role",
            ),
            (
                {
                    "materials": {
                        "overrides": [
                            {
                                "role": "copper",
                                "young_modulus_gpa": 100.0,
                                "poisson_ratio": 0.7,
                                "cte_ppm": 1.0,
                            }
                        ]
                    }
                },
                "poisson_ratio",
            ),
            ({"solver": {"rtol": float("nan")}}, "spec.solver"),
            ({"solver": {"gmres_restart": 0}}, "gmres_restart"),
            ({"solver": {"gmres_restart": -1}}, "gmres_restart"),
            ({"solver": {"shard": {"grid": [2, 2]}}}, "spec.solver.shard"),
        ],
    )
    def test_bad_value_names_field(self, document, field):
        with pytest.raises(SpecError) as excinfo:
            SimulationSpec.from_dict(document)
        assert field in str(excinfo.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="spec.turbo"):
            SimulationSpec.from_dict({"turbo": True})

    def test_unknown_schema_version(self):
        with pytest.raises(SpecError, match="schema_version"):
            SimulationSpec.from_dict({"schema_version": 99})

    def test_invalid_json_document(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            SimulationSpec.from_json("{not json")

    def test_location_without_submodel_rejected(self):
        with pytest.raises(ValidationError, match=r"load_cases\[0\].location"):
            SimulationSpec(
                geometry=GeometrySpec(rows=2),
                load_cases=(LoadCase(location="loc1"),),
            )

    def test_empty_load_cases_rejected(self):
        with pytest.raises(ValidationError, match="load_cases"):
            SimulationSpec(geometry=GeometrySpec(rows=2), load_cases=())

    def test_submodel_height_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="geometry.height"):
            SimulationSpec(
                geometry=GeometrySpec(rows=2, height=40.0),
                submodel=SubModelSpec(),
            )

    def test_submodel_height_must_match_the_package_interposer(self, monkeypatch):
        """The check reads the interposer of the package ``run`` builds."""
        # Scaling the package is in-plane only: the interposer stays 50 um.
        SimulationSpec(
            geometry=GeometrySpec(rows=2, height=50.0),
            submodel=SubModelSpec(package_scale=2.0),
        )
        with pytest.raises(
            ValidationError, match=r"interposer thickness \(50.0\) for sub-modeling, got 80.0"
        ):
            SimulationSpec(
                geometry=GeometrySpec(rows=2, height=80.0),
                submodel=SubModelSpec(package_scale=2.0),
            )
        thick = ChipletPackage(interposer_thickness=80.0)
        monkeypatch.setattr(
            ChipletPackage, "scaled_default", classmethod(lambda cls, scale=1.0: thick)
        )
        SimulationSpec(geometry=GeometrySpec(rows=2, height=80.0), submodel=SubModelSpec())
        with pytest.raises(ValidationError, match=r"interposer thickness \(80.0\)"):
            SimulationSpec(geometry=GeometrySpec(rows=2, height=50.0), submodel=SubModelSpec())

    def test_duplicate_material_override_rejected(self):
        with pytest.raises(ValidationError, match="copper"):
            MaterialsSpec(
                overrides=(
                    MaterialOverride("copper", 100.0, 0.3, 17.0),
                    MaterialOverride("copper", 90.0, 0.3, 17.0),
                )
            )

    def test_load_cases_must_be_list(self):
        with pytest.raises(SpecError, match="load_cases"):
            SimulationSpec.from_dict({"load_cases": {"delta_t": -1.0}})


class TestBuildHelpers:
    def test_materials_spec_builds_overridden_library(self):
        spec = array_spec()
        library = spec.materials.build_library()
        assert library["copper"].young_modulus == pytest.approx(120.0e3)
        assert library["copper"].cte == pytest.approx(16.5e-6)
        # untouched roles keep their defaults
        assert library["silicon"].young_modulus == pytest.approx(130.0e3)

    def test_mesh_spec_builds_resolution_and_scheme(self):
        spec = sweep_spec()
        resolution = spec.mesh.build_resolution()
        assert resolution.n_core == 2
        assert spec.mesh.build_scheme().nodes_per_axis == (3, 3, 3)

    def test_solver_spec_builds_options(self):
        options = array_spec().solver.build_options()
        assert options.method == "direct"

    def test_geometry_spec_builds_tsv(self):
        tsv = array_spec().geometry.build_tsv()
        assert tsv.pitch == 12.0

    def test_canonical_json_is_deterministic(self):
        spec = sweep_spec()
        assert spec.to_json() == spec.to_json()
        parsed = json.loads(spec.to_json())
        assert parsed["name"] == "sweep"


class TestOutputSpec:
    def test_defaults(self):
        output = OutputSpec()
        assert output.formats == ("vtk", "npz")
        assert output.z_planes % 2 == 1
        assert output.hotspots is True

    def test_points_per_block_defaults_to_mesh(self):
        spec = output_spec()
        assert spec.output.resolved_points_per_block(spec.mesh) == 4
        assert OutputSpec().resolved_points_per_block(spec.mesh) == 5

    def test_documents_without_output_parse(self):
        # Pre-output documents (and terse ones) must keep parsing: the field
        # is optional and defaults to null.
        spec = SimulationSpec.from_dict({"geometry": {"rows": 2}})
        assert spec.output is None
        assert spec.to_dict()["output"] is None

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"output": {"formats": []}}, "formats"),
            ({"output": {"formats": ["stl"]}}, "formats"),
            ({"output": {"formats": ["vtk", "vtk"]}}, "vtk"),
            ({"output": {"formats": "vtk"}}, "output.formats"),
            ({"output": {"z_planes": 4}}, "z_planes"),
            ({"output": {"z_planes": 0}}, "z_planes"),
            ({"output": {"points_per_block": 1}}, "points_per_block"),
            ({"output": {"hotspot_threshold_fraction": 1.5}}, "hotspot_threshold_fraction"),
            ({"output": {"top_k": 0}}, "top_k"),
            ({"output": {"hotspots": "yes"}}, "output.hotspots"),
            ({"output": {"paraview": True}}, "output.paraview"),
        ],
    )
    def test_bad_output_documents_name_the_field(self, document, field):
        with pytest.raises(SpecError, match=field):
            SimulationSpec.from_dict(document)

    def test_even_z_planes_rejected_eagerly(self):
        with pytest.raises(ValidationError, match="odd"):
            OutputSpec(z_planes=2)

    def test_output_must_be_output_spec(self):
        with pytest.raises(ValidationError, match="OutputSpec"):
            SimulationSpec(output="vtk")


_OVERRIDE = {"role": "copper", "young_modulus_gpa": 100.0, "poisson_ratio": 0.3, "cte_ppm": 17.0}
_RESOLUTION = {"n_core": 2, "n_liner": 1, "n_outer": 2, "n_z": 3}


def _override(drop: str | None = None, **changes) -> dict:
    entry = {key: value for key, value in _OVERRIDE.items() if key != drop}
    return {"materials": {"overrides": [{**entry, **changes}]}}


def _resolution(drop: str | None = None, **changes) -> dict:
    entry = {key: value for key, value in _RESOLUTION.items() if key != drop}
    return {"mesh": {"resolution": {**entry, **changes}}}


def _error(document) -> str:
    with pytest.raises(SpecError) as excinfo:
        SimulationSpec.from_dict(document)
    return str(excinfo.value)


class TestSpecErrorTextIsPinned:
    """Exact ``SpecError`` text of malformed documents and exact spec hashes.

    Saved runs and service jobs are keyed by ``spec_hash``, and
    users read the error text, so both must survive any rewrite of the codec.
    """

    @pytest.mark.parametrize(
        "document, message",
        [
            pytest.param([], "spec: expected an object, got list", id="spec-not-object"),
            pytest.param({"name": 3}, "spec.name: expected a string, got 3", id="spec.name-type"),
            pytest.param(
                {"name": None}, "spec.name: expected a string, got None", id="spec.name-null"
            ),
            pytest.param(
                {"turbo": True},
                "spec.turbo: unknown field (allowed fields: ['geometry', 'load_cases', "
                "'materials', 'mesh', 'name', 'output', 'schema_version', 'solver', "
                "'submodel'])",
                id="spec.unknown",
            ),
            pytest.param(
                {"schema_version": "3"},
                "spec.schema_version: unsupported version '3' "
                "(this build reads versions [1, 2, 3])",
                id="spec.schema_version-string",
            ),
            pytest.param(
                {"geometry": []},
                "spec.geometry: expected an object, got list",
                id="spec.geometry-not-object",
            ),
            pytest.param(
                {"geometry": None},
                "spec.geometry: expected an object, got NoneType",
                id="spec.geometry-null",
            ),
            pytest.param(
                {"load_cases": None},
                "spec.load_cases: expected a list, got None",
                id="spec.load_cases-null",
            ),
            pytest.param(
                {"load_cases": [3]},
                "spec.load_cases[0]: expected an object, got int",
                id="spec.load_cases-item-not-object",
            ),
            pytest.param(
                {"submodel": "loc1"},
                "spec.submodel: expected an object, got str",
                id="spec.submodel-not-object",
            ),
            pytest.param(
                {"output": True},
                "spec.output: expected an object, got bool",
                id="spec.output-not-object",
            ),
            pytest.param(
                {"geometry": {"pitch": "wide"}},
                "spec.geometry.pitch: expected a number, got 'wide'",
                id="geometry.pitch-type",
            ),
            pytest.param(
                {"geometry": {"pitch": None}},
                "spec.geometry.pitch: expected a number, got None",
                id="geometry.pitch-null",
            ),
            pytest.param(
                {"geometry": {"rows": 2.5}},
                "spec.geometry.rows: expected an integer, got 2.5",
                id="geometry.rows-float",
            ),
            pytest.param(
                {"geometry": {"rows": True}},
                "spec.geometry.rows: expected an integer, got True",
                id="geometry.rows-bool",
            ),
            pytest.param(
                {"geometry": {"cols": "x"}},
                "spec.geometry.cols: expected an integer, got 'x'",
                id="geometry.cols-type",
            ),
            pytest.param(
                {"geometry": {"warp": 1.0}},
                "spec.geometry.warp: unknown field (allowed fields: ['cols', 'diameter', "
                "'height', 'liner_thickness', 'pitch', 'rows'])",
                id="geometry.unknown",
            ),
            pytest.param(
                {"materials": {"base": 1}},
                "spec.materials.base: expected a string, got 1",
                id="materials.base-type",
            ),
            pytest.param(
                {"materials": {"overrides": {}}},
                "spec.materials.overrides: expected a list, got {}",
                id="materials.overrides-not-list",
            ),
            pytest.param(
                {"materials": {"overrides": None}},
                "spec.materials.overrides: expected a list, got None",
                id="materials.overrides-null",
            ),
            pytest.param(
                {"materials": {"extra": 1}},
                "spec.materials.extra: unknown field (allowed fields: ['base', 'overrides'])",
                id="materials.unknown",
            ),
            pytest.param(
                {"materials": {"overrides": [1]}},
                "spec.materials.overrides[0]: expected an object, got int",
                id="override-not-object",
            ),
            pytest.param(
                _override(role=3),
                "spec.materials.overrides[0].role: expected a string, got 3",
                id="override.role-type",
            ),
            pytest.param(
                _override(young_modulus_gpa="hard"),
                "spec.materials.overrides[0].young_modulus_gpa: expected a number, got 'hard'",
                id="override.young_modulus_gpa-type",
            ),
            pytest.param(
                _override(drop="young_modulus_gpa"),
                "spec.materials.overrides[0].young_modulus_gpa: required field is missing",
                id="override.young_modulus_gpa-missing",
            ),
            pytest.param(
                _override(cte_ppm=False),
                "spec.materials.overrides[0].cte_ppm: expected a number, got False",
                id="override.cte_ppm-bool",
            ),
            pytest.param(
                _override(colour="red"),
                "spec.materials.overrides[0].colour: unknown field (allowed fields: "
                "['cte_ppm', 'poisson_ratio', 'role', 'young_modulus_gpa'])",
                id="override.unknown",
            ),
            pytest.param(
                {"mesh": {"resolution": 5}},
                "spec.mesh.resolution: expected a preset name or an object, got 5",
                id="mesh.resolution-type",
            ),
            pytest.param(
                {"mesh": {"resolution": None}},
                "spec.mesh.resolution: expected a preset name or an object, got None",
                id="mesh.resolution-null",
            ),
            pytest.param(
                {"mesh": {"nodes_per_axis": "444"}},
                "spec.mesh.nodes_per_axis: expected a list of 3 integers, got '444'",
                id="mesh.nodes_per_axis-type",
            ),
            pytest.param(
                {"mesh": {"nodes_per_axis": [4, 4]}},
                "spec.mesh.nodes_per_axis: expected a list of 3 integers, got [4, 4]",
                id="mesh.nodes_per_axis-length",
            ),
            pytest.param(
                {"mesh": {"nodes_per_axis": [4, "4", 4]}},
                "spec.mesh.nodes_per_axis[1]: expected an integer, got '4'",
                id="mesh.nodes_per_axis-item",
            ),
            pytest.param(
                {"mesh": {"points_per_block": "30"}},
                "spec.mesh.points_per_block: expected an integer, got '30'",
                id="mesh.points_per_block-type",
            ),
            pytest.param(
                {"mesh": {"refine": True}},
                "spec.mesh.refine: unknown field (allowed fields: ['nodes_per_axis', "
                "'points_per_block', 'resolution'])",
                id="mesh.unknown",
            ),
            pytest.param(
                _resolution(n_core=2.0),
                "spec.mesh.resolution.n_core: expected an integer, got 2.0",
                id="resolution.n_core-float",
            ),
            pytest.param(
                _resolution(drop="n_liner"),
                "spec.mesh.resolution.n_liner: required field is missing",
                id="resolution.n_liner-missing",
            ),
            pytest.param(
                _resolution(outer_ratio="x"),
                "spec.mesh.resolution.outer_ratio: expected a number, got 'x'",
                id="resolution.outer_ratio-type",
            ),
            pytest.param(
                _resolution(n_core=0),
                "spec.mesh.resolution: n_core must be >= 1, got 0",
                id="resolution.n_core-invalid",
            ),
            pytest.param(
                _resolution(n_shell=1),
                "spec.mesh.resolution.n_shell: unknown field (allowed fields: ['n_core', "
                "'n_liner', 'n_outer', 'n_z', 'outer_ratio', 'z_refinement'])",
                id="resolution.unknown",
            ),
            pytest.param(
                {"solver": {"method": 1}},
                "spec.solver.method: expected a string, got 1",
                id="solver.method-type",
            ),
            pytest.param(
                {"solver": {"method": None}},
                "spec.solver.method: expected a string, got None",
                id="solver.method-null",
            ),
            pytest.param(
                {"solver": {"backend": 2}},
                "spec.solver.backend: the solver backend follows solver.method "
                "('direct', 'cg' or 'gmres'), so only null is accepted, got 2",
                id="solver.backend-type",
            ),
            pytest.param(
                {"solver": {"rtol": "tight"}},
                "spec.solver.rtol: expected a number, got 'tight'",
                id="solver.rtol-type",
            ),
            pytest.param(
                {"solver": {"max_iterations": 1.5}},
                "spec.solver.max_iterations: expected an integer, got 1.5",
                id="solver.max_iterations-float",
            ),
            pytest.param(
                {"solver": {"gmres_restart": True}},
                "spec.solver.gmres_restart: expected an integer, got True",
                id="solver.gmres_restart-bool",
            ),
            pytest.param(
                {"solver": {"jobs": "2"}},
                "spec.solver.jobs: the local stage always builds its blocks concurrently, "
                "so only null or a positive integer (ignored) is accepted, got '2'",
                id="solver.jobs-type",
            ),
            pytest.param(
                {"solver": {"preconditioner": "ilu"}},
                "spec.solver.preconditioner: unknown field (allowed fields: ['array_backend', "
                "'backend', 'gmres_restart', 'jobs', 'max_iterations', 'method', 'rtol', "
                "'shard'])",
                id="solver.unknown",
            ),
            pytest.param(
                {"solver": {"array_backend": "cupy"}},
                "spec.solver.array_backend: only 'numpy' is supported, got 'cupy'",
                id="solver.array_backend-cupy",
            ),
            pytest.param(
                {"solver": {"array_backend": 1}},
                "spec.solver.array_backend: only 'numpy' is supported, got 1",
                id="solver.array_backend-int",
            ),
            pytest.param(
                {"solver": {"shard": 1}},
                "spec.solver.shard: the sharded global stage was removed; the matrix-free "
                "solve covers every array size, so only null is accepted",
                id="solver.shard-int",
            ),
            pytest.param(
                {"load_cases": [{"name": 1}]},
                "spec.load_cases[0].name: expected a string, got 1",
                id="load_case.name-type",
            ),
            pytest.param(
                {"load_cases": [{"delta_t": "cold"}]},
                "spec.load_cases[0].delta_t: expected a number, got 'cold'",
                id="load_case.delta_t-type",
            ),
            pytest.param(
                {"load_cases": [{"rows": "2"}]},
                "spec.load_cases[0].rows: expected an integer, got '2'",
                id="load_case.rows-type",
            ),
            pytest.param(
                {"load_cases": [{}, {"cols": 2.0}]},
                "spec.load_cases[1].cols: expected an integer, got 2.0",
                id="load_case.cols-float",
            ),
            pytest.param(
                {"submodel": {}, "load_cases": [{"location": 3}]},
                "spec.load_cases[0].location: expected a string, got 3",
                id="load_case.location-type",
            ),
            pytest.param(
                {"load_cases": [{}, {"weight": 1}]},
                "spec.load_cases[1].weight: unknown field (allowed fields: ['cols', "
                "'delta_t', 'location', 'name', 'rows'])",
                id="load_case.unknown",
            ),
            pytest.param(
                {"submodel": {"dummy_ring_width": 1.0}},
                "spec.submodel.dummy_ring_width: expected an integer, got 1.0",
                id="submodel.dummy_ring_width-float",
            ),
            pytest.param(
                {"submodel": {"coarse_inplane_cells": "x"}},
                "spec.submodel.coarse_inplane_cells: expected an integer, got 'x'",
                id="submodel.coarse_inplane_cells-type",
            ),
            pytest.param(
                {"submodel": {"package_scale": "big"}},
                "spec.submodel.package_scale: expected a number, got 'big'",
                id="submodel.package_scale-type",
            ),
            pytest.param(
                {"submodel": {"location": 5}},
                "spec.submodel.location: expected a string, got 5",
                id="submodel.location-type",
            ),
            pytest.param(
                {"submodel": {"ring": 1}},
                "spec.submodel.ring: unknown field (allowed fields: ['coarse_inplane_cells', "
                "'dummy_ring_width', 'location', 'package_scale'])",
                id="submodel.unknown",
            ),
            pytest.param(
                {"output": {"formats": "vtk"}},
                "spec.output.formats: expected a list, got 'vtk'",
                id="output.formats-type",
            ),
            pytest.param(
                {"output": {"formats": [1]}},
                "spec.output.formats[0]: expected a string, got 1",
                id="output.formats-item",
            ),
            pytest.param(
                {"output": {"points_per_block": "x"}},
                "spec.output.points_per_block: expected an integer, got 'x'",
                id="output.points_per_block-type",
            ),
            pytest.param(
                {"output": {"z_planes": 5.0}},
                "spec.output.z_planes: expected an integer, got 5.0",
                id="output.z_planes-float",
            ),
            pytest.param(
                {"output": {"hotspots": "yes"}},
                "spec.output.hotspots: expected a boolean, got 'yes'",
                id="output.hotspots-type",
            ),
            pytest.param(
                {"output": {"hotspots": None}},
                "spec.output.hotspots: expected a boolean, got None",
                id="output.hotspots-null",
            ),
            pytest.param(
                {"output": {"hotspot_threshold_fraction": "x"}},
                "spec.output.hotspot_threshold_fraction: expected a number, got 'x'",
                id="output.hotspot_threshold_fraction-type",
            ),
            pytest.param(
                {"output": {"top_k": None}},
                "spec.output.top_k: expected an integer, got None",
                id="output.top_k-null",
            ),
            pytest.param(
                {"output": {"paraview": True}},
                "spec.output.paraview: unknown field (allowed fields: ['formats', "
                "'hotspot_threshold_fraction', 'hotspots', 'points_per_block', 'top_k', "
                "'z_planes'])",
                id="output.unknown",
            ),
            pytest.param(
                {"schema_version": True},
                "spec.schema_version: unsupported version True "
                "(this build reads versions [1, 2, 3])",
                id="spec.schema_version-bool",
            ),
            pytest.param(
                {"schema_version": 1.0},
                "spec.schema_version: unsupported version 1.0 "
                "(this build reads versions [1, 2, 3])",
                id="spec.schema_version-float1",
            ),
            pytest.param(
                {"schema_version": 2.0},
                "spec.schema_version: unsupported version 2.0 "
                "(this build reads versions [1, 2, 3])",
                id="spec.schema_version-float2",
            ),
            pytest.param(
                {"schema_version": 3.0},
                "spec.schema_version: unsupported version 3.0 "
                "(this build reads versions [1, 2, 3])",
                id="spec.schema_version-float3",
            ),
            pytest.param(
                {"solver": {"backend": "direct-splu"}},
                "spec.solver.backend: the solver backend follows solver.method "
                "('direct', 'cg' or 'gmres'), so only null is accepted, got 'direct-splu'",
                id="solver.backend-direct-splu",
            ),
            pytest.param(
                {"solver": {"backend": "cholmod"}},
                "spec.solver.backend: the solver backend follows solver.method "
                "('direct', 'cg' or 'gmres'), so only null is accepted, got 'cholmod'",
                id="solver.backend-cholmod",
            ),
        ],
    )
    def test_error_text(self, document, message):
        assert _error(document) == message

    def test_retired_backend_key_loads_null_or_missing(self):
        document = SimulationSpec().to_dict()
        assert document["solver"]["backend"] is None
        del document["solver"]["backend"]
        assert SimulationSpec.from_dict(document).spec_hash() == "6a067486eeebb4ddd598"

    def test_retired_jobs_key_loads_and_hashes_like_null(self):
        # Saved runs and job records that name a worker count still load, and
        # join the runs that do not: the schedule never changes the results.
        document = SimulationSpec().to_dict()
        assert document["solver"]["jobs"] is None
        with_count = copy.deepcopy(document)
        with_count["solver"]["jobs"] = 2
        without_key = copy.deepcopy(document)
        del without_key["solver"]["jobs"]
        specs = [SimulationSpec.from_dict(d) for d in (document, with_count, without_key)]
        assert specs[1] == specs[0] == specs[2]
        assert {spec.spec_hash() for spec in specs} == {"6a067486eeebb4ddd598"}
        assert specs[1].to_dict()["solver"]["jobs"] is None

    @pytest.mark.parametrize("value", [0, -1, "2", True, 2.0])
    def test_retired_jobs_key_rejects_anything_but_a_positive_int(self, value):
        with pytest.raises(SpecError) as excinfo:
            SimulationSpec.from_dict({"solver": {"jobs": value}})
        assert str(excinfo.value).startswith("spec.solver.jobs: ")

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("load_sweep.json", "72b93fd14aca8c83c3f1"),
            ("quickstart.json", "55e8bd3623f0ed6d6a95"),
            ("submodel.json", "fa1fa36c9962a4e81dca"),
        ],
    )
    def test_example_spec_hashes(self, name, expected):
        path = Path(__file__).resolve().parents[1] / "examples" / "specs" / name
        assert SimulationSpec.from_json(path.read_text()).spec_hash() == expected

    def test_default_spec_hash(self):
        assert SimulationSpec().spec_hash() == "6a067486eeebb4ddd598"
