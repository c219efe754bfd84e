"""Reference oracles for the batched kernels and the vectorized global stage.

These are the loops the package used before its hot paths were batched:

* the per-element hex8 kernels and the per-group fine-mesh assembly (one
  4-operand ``einsum`` per ``(dx, dy, dz, material)`` group),
* the per-node dict numbering of the global interpolation nodes and the
  per-block scatter of the global stage's abstract element matrices, and
* the full-width block product of the matrix-free global operator, which
  multiplies every DoF of every block, eliminated ones included.

They are kept here, outside ``src/``, only so tests and benchmarks can
assert that the batched paths reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import _element_groups, element_dof_map
from repro.fem.elasticity import material_arrays_for_mesh
from repro.fem.element import (
    gauss_points_2x2x2,
    shape_function_gradients,
    strain_displacement_matrix,
)


def _b_matrices(element_size):
    dx, dy, dz = (float(s) for s in element_size)
    pts, weights = gauss_points_2x2x2()
    grad = shape_function_gradients(pts, np.array([dx, dy, dz], dtype=np.float64))
    return strain_displacement_matrix(grad), weights, dx * dy * dz / 8.0


def oracle_element_stiffness(element_size, d_matrix):
    """The 24x24 stiffness of one box, as one 4-operand ``einsum``."""
    b, weights, det_j = _b_matrices(element_size)
    d = np.asarray(d_matrix, dtype=np.float64)
    bt = np.transpose(b, (0, 2, 1))
    ke = np.einsum("gai,ij,gbj,g->ab", bt, d, bt, weights)
    ke = ke * det_j
    return 0.5 * (ke + np.transpose(ke, (1, 0)))


def oracle_element_thermal_load(element_size, d_matrix, thermal_strain):
    """The 24-entry thermal load of one box."""
    b, weights, det_j = _b_matrices(element_size)
    stress_like = np.matmul(
        np.asarray(d_matrix, dtype=np.float64), np.asarray(thermal_strain, dtype=np.float64)
    )
    fe = np.einsum("gij,i,g->j", b, stress_like, weights)
    return fe * det_j


def oracle_assemble_stiffness(mesh, materials, material_data=None, chunk_size=20_000):
    """Global stiffness with one kernel call per element group."""
    if material_data is None:
        material_data = material_arrays_for_mesh(mesh, materials)
    group_of_element, group_sizes, group_tag_index = _element_groups(mesh, material_data)

    num_groups = group_sizes.shape[0]
    ke_per_group = np.empty((num_groups, 24, 24), dtype=np.float64)
    for group in range(num_groups):
        d_matrix = material_data.d_matrices[group_tag_index[group]]
        ke_per_group[group] = oracle_element_stiffness(tuple(group_sizes[group]), d_matrix)

    dof_map = element_dof_map(mesh.element_connectivity())
    ndofs = mesh.num_dofs
    matrix = sp.csr_matrix((ndofs, ndofs), dtype=float)
    num_elements = mesh.num_elements
    for start in range(0, num_elements, chunk_size):
        stop = min(start + chunk_size, num_elements)
        dofs = dof_map[start:stop]
        ke = ke_per_group[group_of_element[start:stop]]
        rows = np.repeat(dofs, 24, axis=1).ravel()
        cols = np.tile(dofs, (1, 24)).ravel()
        data = ke.reshape(stop - start, -1).ravel()
        chunk = sp.coo_matrix((data, (rows, cols)), shape=(ndofs, ndofs))
        matrix = matrix + chunk.tocsr()
    matrix.sum_duplicates()
    return matrix


def oracle_assemble_thermal_load(mesh, materials, material_data=None):
    """Global unit thermal load with one kernel call per element group."""
    if material_data is None:
        material_data = material_arrays_for_mesh(mesh, materials)
    group_of_element, group_sizes, group_tag_index = _element_groups(mesh, material_data)
    thermal_strain_unit = material_data.thermal_strain_unit()

    num_groups = group_sizes.shape[0]
    fe_per_group = np.empty((num_groups, 24), dtype=np.float64)
    for group in range(num_groups):
        tag_index = int(group_tag_index[group])
        fe_per_group[group] = oracle_element_thermal_load(
            tuple(group_sizes[group]),
            material_data.d_matrices[tag_index],
            thermal_strain_unit[tag_index],
        )

    dof_map = element_dof_map(mesh.element_connectivity())
    load = np.zeros(mesh.num_dofs, dtype=float)
    np.add.at(load, dof_map.ravel(), fe_per_group[group_of_element].ravel())
    return load


def oracle_global_numbering(layout, scheme):
    """Per-node dict numbering of a layout's global interpolation nodes.

    Returns ``(node_keys, block_node_ids)``: the ``(i, j, k)`` grid key of
    every global node in id order, shape ``(N, 3)``, and the global node ids
    of every block's surface nodes, shape ``(rows, cols, ns)``.  Ids follow
    first appearance over the blocks in row-major order.
    """
    nx, ny, _ = scheme.nodes_per_axis
    surface_indices = scheme.surface_node_indices()
    node_index = {}
    block_node_ids = np.empty(
        (layout.rows, layout.cols, surface_indices.shape[0]), dtype=np.int64
    )
    for row in range(layout.rows):
        for col in range(layout.cols):
            keys_i = surface_indices[:, 0] + col * (nx - 1)
            keys_j = surface_indices[:, 1] + row * (ny - 1)
            keys_k = surface_indices[:, 2]
            for local, key in enumerate(zip(keys_i, keys_j, keys_k)):
                key = (int(key[0]), int(key[1]), int(key[2]))
                if key not in node_index:
                    node_index[key] = len(node_index)
                block_node_ids[row, col, local] = node_index[key]
    node_keys = np.asarray(list(node_index.keys()), dtype=np.int64)
    return node_keys, block_node_ids


def oracle_global_scatter(roms, layout, block_node_ids, delta_t):
    """Per-block COO triplets ``(rows, cols, data)`` and load vector ``rhs``.

    ``roms`` maps each block kind of ``layout`` to its reduced order model.
    The triplets come in row-major block order, block 0's ``n x n`` entries
    first; the load is accumulated block by block with ``np.add.at``.
    """
    n = next(iter(roms.values())).scheme.num_element_dofs
    num_dofs = 3 * (int(block_node_ids.max()) + 1)
    element_rhs = {kind: rom.element_rhs(delta_t) for kind, rom in roms.items()}
    rows_list, cols_list, data_list = [], [], []
    rhs = np.zeros(num_dofs, dtype=float)
    for row, col, kind in layout.iter_blocks():
        nodes = block_node_ids[row, col]
        dofs = (3 * nodes[:, None] + np.arange(3)).ravel()
        rows_list.append(np.repeat(dofs, n))
        cols_list.append(np.tile(dofs, n))
        data_list.append(roms[kind].element_stiffness.ravel())
        np.add.at(rhs, dofs, element_rhs[kind])
    return (
        np.concatenate(rows_list),
        np.concatenate(cols_list),
        np.concatenate(data_list),
        rhs,
    )


def oracle_global_assemble(roms, layout, delta_t):
    """Assembled CSR global stiffness, load vector and node keys, by the loops above."""
    scheme = next(iter(roms.values())).scheme
    node_keys, block_node_ids = oracle_global_numbering(layout, scheme)
    rows, cols, data, rhs = oracle_global_scatter(roms, layout, block_node_ids, delta_t)
    num_dofs = 3 * node_keys.shape[0]
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(num_dofs, num_dofs)).tocsr()
    matrix.sum_duplicates()
    return matrix, rhs, node_keys


def oracle_block_matvec(element_stiffness, codes, dofs, x):
    """``K @ x`` over every DoF of every block: the full-width block product.

    Gathers ``x`` at all ``n`` DoFs of each block, multiplies each kind's
    blocks by its whole ``n x n`` element matrix (kinds in code order) and
    sums the products into the global DoFs with one ``np.bincount``.
    """
    codes = np.asarray(codes)
    dofs = np.asarray(dofs)
    x = np.asarray(x, dtype=float)
    present = [code for code in range(len(element_stiffness)) if np.any(codes == code)]
    index = [dofs[codes == code] for code in present]
    products = [
        (x[block_dofs] @ element_stiffness[code].T).ravel()
        for code, block_dofs in zip(present, index)
    ]
    return np.bincount(
        np.concatenate([block_dofs.ravel() for block_dofs in index]),
        weights=np.concatenate(products),
        minlength=int(dofs.max()) + 1,
    )
