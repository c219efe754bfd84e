"""Unit tests for the structured hexahedral mesh."""

import numpy as np
import pytest

from repro.fem.assembly import assemble_stiffness
from repro.fem.boundary import DirichletBC, split_system
from repro.geometry.tsv import TSVGeometry
from repro.geometry.unit_block import UnitBlockGeometry
from repro.mesh.block_mesher import mesh_unit_block
from repro.mesh.structured import BOUNDARY_FACES, StructuredHexMesh
from repro.utils.validation import ValidationError


@pytest.fixture
def small_mesh():
    """A 3x2x1-cell mesh with two material tags."""
    xs = np.array([0.0, 1.0, 2.5, 4.0])
    ys = np.array([0.0, 2.0, 3.0])
    zs = np.array([0.0, 5.0])
    tags = np.array([0, 1, 0, 0, 1, 0])
    return StructuredHexMesh(
        xs=xs, ys=ys, zs=zs, element_tags=tags, tag_roles={0: "silicon", 1: "copper"}
    )


class TestMeshSizes:
    def test_counts(self, small_mesh):
        assert small_mesh.cells == (3, 2, 1)
        assert small_mesh.num_elements == 6
        assert small_mesh.num_nodes == 4 * 3 * 2
        assert small_mesh.num_dofs == 72

    def test_bounding_box(self, small_mesh):
        assert small_mesh.bounding_box == ((0.0, 4.0), (0.0, 3.0), (0.0, 5.0))

    def test_volume(self, small_mesh):
        assert small_mesh.total_volume() == pytest.approx(4.0 * 3.0 * 5.0)


class TestMeshValidation:
    def test_non_monotone_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            StructuredHexMesh(
                xs=np.array([0.0, 2.0, 1.0]),
                ys=np.array([0.0, 1.0]),
                zs=np.array([0.0, 1.0]),
                element_tags=np.zeros(2, dtype=int),
                tag_roles={0: "silicon"},
            )

    def test_wrong_tag_count_rejected(self):
        with pytest.raises(ValidationError):
            StructuredHexMesh(
                xs=np.array([0.0, 1.0]),
                ys=np.array([0.0, 1.0]),
                zs=np.array([0.0, 1.0]),
                element_tags=np.zeros(5, dtype=int),
                tag_roles={0: "silicon"},
            )

    def test_unmapped_tag_rejected(self):
        with pytest.raises(ValidationError):
            StructuredHexMesh(
                xs=np.array([0.0, 1.0]),
                ys=np.array([0.0, 1.0]),
                zs=np.array([0.0, 1.0]),
                element_tags=np.array([7]),
                tag_roles={0: "silicon"},
            )


class TestConnectivity:
    def test_node_coordinates_ordering(self, small_mesh):
        coords = small_mesh.node_coordinates()
        assert coords.shape == (24, 3)
        # x varies fastest
        np.testing.assert_allclose(coords[0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(coords[1], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(coords[4], [0.0, 2.0, 0.0])
        np.testing.assert_allclose(coords[12], [0.0, 0.0, 5.0])

    def test_connectivity_shape_and_first_element(self, small_mesh):
        conn = small_mesh.element_connectivity()
        assert conn.shape == (6, 8)
        # First element corners: nodes (0,0,0),(1,0,0),(1,1,0),(0,1,0) + top plane
        np.testing.assert_array_equal(conn[0], [0, 1, 5, 4, 12, 13, 17, 16])

    def test_element_sizes_and_centroids(self, small_mesh):
        sizes = small_mesh.element_sizes()
        centroids = small_mesh.element_centroids()
        assert sizes.shape == (6, 3)
        np.testing.assert_allclose(sizes[0], [1.0, 2.0, 5.0])
        np.testing.assert_allclose(sizes[1], [1.5, 2.0, 5.0])
        np.testing.assert_allclose(centroids[0], [0.5, 1.0, 2.5])

    def test_element_volumes_sum(self, small_mesh):
        assert small_mesh.element_volumes().sum() == pytest.approx(60.0)

    def test_element_roles(self, small_mesh):
        roles = small_mesh.element_roles()
        assert roles[0] == "silicon"
        assert roles[1] == "copper"

    def test_element_grid_indices_roundtrip(self, small_mesh):
        ids = np.arange(small_mesh.num_elements)
        grid = small_mesh.element_grid_indices(ids)
        recovered = small_mesh.element_index(grid[:, 0], grid[:, 1], grid[:, 2])
        np.testing.assert_array_equal(recovered, ids)


class TestBoundaryQueries:
    def test_face_node_counts(self, small_mesh):
        nnx, nny, nnz = small_mesh.node_grid_shape
        assert small_mesh.boundary_node_ids("x-").size == nny * nnz
        assert small_mesh.boundary_node_ids("z+").size == nnx * nny

    def test_all_boundary_nodes(self, small_mesh):
        # 4x3x2 grid: every node is on the boundary (only 2 planes in z).
        assert small_mesh.all_boundary_node_ids().size == small_mesh.num_nodes

    def test_invalid_face_rejected(self, small_mesh):
        with pytest.raises(ValueError):
            small_mesh.boundary_node_ids("w+")

    def test_nodes_on_plane(self, small_mesh):
        nodes = small_mesh.nodes_on_plane(axis=0, value=2.5)
        coords = small_mesh.node_coordinates()[nodes]
        np.testing.assert_allclose(coords[:, 0], 2.5)
        assert small_mesh.nodes_on_plane(axis=0, value=99.0).size == 0

    def test_dof_ids(self, small_mesh):
        dofs = small_mesh.dof_ids(np.array([2]), components=(0, 2))
        np.testing.assert_array_equal(dofs, [6, 8])

    def test_boundary_faces_constant(self):
        assert set(BOUNDARY_FACES) == {"x-", "x+", "y-", "y+", "z-", "z+"}


class TestPointLocation:
    def test_locate_interior_point(self, small_mesh):
        element_ids, local = small_mesh.locate_points(np.array([[0.5, 1.0, 2.5]]))
        assert element_ids[0] == 0
        np.testing.assert_allclose(local[0], [0.0, 0.0, 0.0], atol=1e-12)

    def test_locate_point_in_second_element(self, small_mesh):
        element_ids, local = small_mesh.locate_points(np.array([[2.4, 0.1, 0.1]]))
        assert element_ids[0] == 1

    def test_points_outside_clamped(self, small_mesh):
        element_ids, local = small_mesh.locate_points(np.array([[-1.0, -1.0, -1.0]]))
        assert element_ids[0] == 0
        assert np.all(local[0] == -1.0)

    def test_contains_points(self, small_mesh):
        mask = small_mesh.contains_points(np.array([[1.0, 1.0, 1.0], [10.0, 0.0, 0.0]]))
        assert mask.tolist() == [True, False]

    def test_invalid_points_shape(self, small_mesh):
        with pytest.raises(ValidationError):
            small_mesh.locate_points(np.zeros((3, 2)))


class TestTransforms:
    def test_translation(self, small_mesh):
        moved = small_mesh.translated((10.0, 20.0, 30.0))
        assert moved.bounding_box[0] == (10.0, 14.0)
        assert moved.bounding_box[2] == (30.0, 35.0)
        # original unchanged
        assert small_mesh.bounding_box[0] == (0.0, 4.0)

    def test_summary_mentions_sizes(self, small_mesh):
        text = small_mesh.summary()
        assert "3x2x1" in text and "dofs" in text


def _free_nodes(mesh):
    return np.setdiff1d(np.arange(mesh.num_nodes), mesh.all_boundary_node_ids())


def _grid_indices(mesh, node_ids):
    nnx, nny, _ = mesh.node_grid_shape
    return np.stack([node_ids % nnx, (node_ids // nnx) % nny, node_ids // (nnx * nny)], 1)


class TestNestedDissection:
    @pytest.mark.parametrize("resolution", ["tiny", "coarse", "medium"])
    @pytest.mark.parametrize("has_tsv", [True, False])
    def test_every_free_node_exactly_once(self, resolution, has_tsv):
        block = UnitBlockGeometry(tsv=TSVGeometry.paper_default(), has_tsv=has_tsv)
        mesh = mesh_unit_block(block, resolution)
        free = _free_nodes(mesh)
        order = mesh.nested_dissection(free)
        assert order.shape == free.shape
        assert np.array_equal(np.sort(order), free)

    def test_top_level_separator_decouples_the_halves(self, materials, tsv_block):
        mesh = mesh_unit_block(tsv_block, "coarse")
        free = _free_nodes(mesh)
        grid = _grid_indices(mesh, free)
        low, high = grid.min(axis=0), grid.max(axis=0)
        axis = int(np.argmax(high - low))
        plane = grid[:, axis]
        middle = (low[axis] + high[axis]) // 2
        left, right = free[plane < middle], free[plane > middle]
        separator = free[plane == middle]

        order = mesh.nested_dissection(free)
        assert set(order[: left.size]) == set(left)
        assert set(order[left.size : left.size + right.size]) == set(right)
        assert np.array_equal(order[-separator.size :], separator)

        stiffness = assemble_stiffness(mesh, materials)
        boundary_dofs = mesh.dof_ids(mesh.all_boundary_node_ids())
        split = split_system(stiffness, DirichletBC.fixed(boundary_dofs))
        position = {node: i for i, node in enumerate(split.free_dofs[::3] // 3)}

        def free_dof_positions(nodes):
            rows = np.array([position[node] for node in nodes])
            return (3 * rows[:, None] + np.arange(3)).ravel()

        coupling = split.a_ff[free_dof_positions(left)][:, free_dof_positions(right)]
        assert left.size > 0 and right.size > 0
        assert coupling.nnz == 0

    def test_small_and_empty_sets_keep_their_order(self, small_mesh):
        nodes = np.array([5, 1, 3])
        assert np.array_equal(small_mesh.nested_dissection(nodes), nodes)
        assert small_mesh.nested_dissection(np.array([], dtype=np.int64)).size == 0

    def test_separators_follow_the_halves_they_split(self, small_mesh):
        # 4x3x2 nodes, longest span along x (indices 0..3): the middle
        # plane ix == 1 comes last, after ix == 0 and ix in {2, 3}.
        order = small_mesh.nested_dissection(np.arange(small_mesh.num_nodes))
        ix = _grid_indices(small_mesh, order)[:, 0]
        assert np.array_equal(np.sort(order), np.arange(small_mesh.num_nodes))
        assert set(ix[:6]) == {0}
        assert set(ix[6:18]) == {2, 3}
        assert set(ix[18:]) == {1}
