"""Vectorised assembly of the global stiffness matrix and thermal load vector.

Assembly exploits the tensor-product structure of the meshes: the element
stiffness matrix of an axis-aligned hex8 element depends only on its box size
and its material, so elements are grouped by ``(dx, dy, dz, material tag)``.
One call of the batched kernels in :mod:`repro.fem.element` then evaluates the
matrices (and load vectors) of all groups together, with no Python loop over
groups.  Scatter into the sparse global matrix is chunked to bound peak memory
on multi-million-DoF reference meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.element import element_stiffness_batch, element_thermal_load_batch
from repro.fem.elasticity import ElementMaterialData, material_arrays_for_mesh
from repro.materials.library import MaterialLibrary
from repro.mesh.structured import StructuredHexMesh

#: Number of elements scattered into the sparse matrix per chunk.
_DEFAULT_CHUNK = 20_000


def element_dof_map(connectivity: np.ndarray) -> np.ndarray:
    """Expand node connectivity into DoF connectivity.

    Parameters
    ----------
    connectivity:
        Node ids per element, shape ``(num_elements, 8)``.

    Returns
    -------
    numpy.ndarray
        DoF ids per element, shape ``(num_elements, 24)``, node-major ordering
        (``u0x, u0y, u0z, u1x, ...``) matching the element kernels.
    """
    connectivity = np.asarray(connectivity, dtype=np.int64)
    dofs = np.empty((connectivity.shape[0], 24), dtype=np.int64)
    for corner in range(8):
        base = 3 * connectivity[:, corner]
        dofs[:, 3 * corner + 0] = base
        dofs[:, 3 * corner + 1] = base + 1
        dofs[:, 3 * corner + 2] = base + 2
    return dofs


def _element_groups(
    mesh: StructuredHexMesh, material_data: ElementMaterialData
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group elements by (dx, dy, dz, material tag).

    Returns
    -------
    (group_of_element, group_sizes, group_tag_index)
        ``group_of_element`` maps each element to its group id;
        ``group_sizes`` holds the representative box size per group
        (shape ``(num_groups, 3)``); ``group_tag_index`` the material tag index
        per group.
    """
    sizes = mesh.element_sizes()
    keys = np.column_stack(
        [sizes, material_data.tag_index_of_element.astype(float)]
    )
    _, first_index, group_of_element = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    group_sizes = sizes[first_index]
    group_tag_index = material_data.tag_index_of_element[first_index]
    return group_of_element, group_sizes, group_tag_index


def assemble_stiffness(
    mesh: StructuredHexMesh,
    materials: MaterialLibrary,
    material_data: ElementMaterialData | None = None,
    chunk_size: int = _DEFAULT_CHUNK,
) -> sp.csr_matrix:
    """Assemble the global stiffness matrix of a mesh (paper Eq. 4 / Eq. 6).

    Parameters
    ----------
    mesh:
        The tagged structured mesh.
    materials:
        Material library resolving the mesh's roles.
    material_data:
        Optional pre-resolved material arrays (avoids recomputation when the
        load vector is assembled for the same mesh).
    chunk_size:
        Number of elements scattered per chunk (memory/time trade-off).

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric positive semi-definite stiffness matrix of shape
        ``(num_dofs, num_dofs)``.
    """
    if material_data is None:
        material_data = material_arrays_for_mesh(mesh, materials)
    group_of_element, group_sizes, group_tag_index = _element_groups(mesh, material_data)
    ke_per_group = element_stiffness_batch(
        group_sizes, group_tag_index, material_data.d_matrices
    )

    connectivity = mesh.element_connectivity()
    dof_map = element_dof_map(connectivity)
    ndofs = mesh.num_dofs

    matrix = sp.csr_matrix((ndofs, ndofs), dtype=float)
    num_elements = mesh.num_elements
    chunk_size = max(1, int(chunk_size))
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


def assemble_thermal_load(
    mesh: StructuredHexMesh,
    materials: MaterialLibrary,
    material_data: ElementMaterialData | None = None,
) -> np.ndarray:
    """Assemble the global thermal load vector for a unit temperature change.

    The physical load vector for a thermal load ``delta_t`` is
    ``delta_t * assemble_thermal_load(...)`` (paper Eq. 11 keeps ``delta_t``
    as an explicit scalar factor, which we follow).

    Returns
    -------
    numpy.ndarray
        Load vector of shape ``(num_dofs,)``.
    """
    if material_data is None:
        material_data = material_arrays_for_mesh(mesh, materials)
    group_of_element, group_sizes, group_tag_index = _element_groups(mesh, material_data)
    fe_per_group = element_thermal_load_batch(
        group_sizes,
        group_tag_index,
        material_data.d_matrices,
        material_data.thermal_strain_unit(),
    )

    connectivity = mesh.element_connectivity()
    dof_map = element_dof_map(connectivity)
    load = np.zeros(mesh.num_dofs, dtype=float)
    np.add.at(load, dof_map.ravel(), fe_per_group[group_of_element].ravel())
    return load


__all__ = ["assemble_stiffness", "assemble_thermal_load", "element_dof_map"]
