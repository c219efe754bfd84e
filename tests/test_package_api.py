"""Tests of the top-level package API surface."""

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_classes_importable_from_top_level(self):
        assert repro.TSVGeometry is not None
        assert repro.MoreStressSimulator is not None
        assert repro.FullFEMReference is not None
        assert repro.LinearSuperpositionMethod is not None
        assert callable(repro.normalized_mae)

    def test_quickstart_pattern(self):
        """The README / docstring quickstart must stay valid."""
        spec = repro.SimulationSpec(
            geometry=repro.GeometrySpec(
                diameter=5.0, height=50.0, liner_thickness=0.5, pitch=15.0, rows=2, cols=2
            ),
            mesh=repro.MeshSpec(resolution="tiny", nodes_per_axis=(3, 3, 3), points_per_block=5),
            load_cases=(repro.LoadCase(delta_t=-250.0),),
        )
        result = repro.run(spec)
        assert result.cases[0].von_mises.shape == (2, 2, 5, 5)
