"""Tests for the declarative spec layer (repro.api.spec).

Covers lossless serialization round trips (example-based and property-based)
and the failure modes: every malformed document must fail with a
:class:`SpecError` whose message names the offending field.
"""

import json

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
        solver=SolverSpec(backend="direct-splu", jobs=2),
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
        assert options.backend == "direct-splu"

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
