"""Field evaluation and stress recovery.

After a displacement solution is available (from the reference FEM or from
the reconstructed ROM solution), this module evaluates displacement, strain,
stress and von Mises stress at arbitrary points of the mesh, following the
constitutive law of the paper (Eq. 1):

.. math::

    \\sigma = \\lambda\\,\\mathrm{tr}(\\epsilon) I + 2\\mu\\,\\epsilon
              - \\alpha (3\\lambda + 2\\mu) \\Delta T\\, I
"""

from __future__ import annotations

import numpy as np

from repro.fem.assembly import element_dof_map
from repro.fem.elasticity import ElementMaterialData, material_arrays_for_mesh
from repro.fem.element import shape_function_gradients, shape_functions
from repro.materials.library import MaterialLibrary
from repro.mesh.structured import StructuredHexMesh
from repro.utils.validation import ValidationError


def von_mises(stress_voigt: np.ndarray) -> np.ndarray:
    """Von Mises equivalent stress from Voigt stress vectors.

    Parameters
    ----------
    stress_voigt:
        Array of shape ``(..., 6)`` with components
        ``(sxx, syy, szz, syz, sxz, sxy)``.

    Returns
    -------
    numpy.ndarray
        Von Mises stress, shape ``(...,)``.
    """
    stress = np.asarray(stress_voigt, dtype=np.float64)
    if stress.shape[-1] != 6:
        raise ValidationError(f"stress must have 6 components, got {tuple(stress.shape)}")
    sxx, syy, szz = stress[..., 0], stress[..., 1], stress[..., 2]
    syz, sxz, sxy = stress[..., 3], stress[..., 4], stress[..., 5]
    return np.asarray(
        np.sqrt(
            0.5 * ((sxx - syy) ** 2 + (syy - szz) ** 2 + (szz - sxx) ** 2)
            + 3.0 * (sxy**2 + syz**2 + sxz**2)
        )
    )


class FieldEvaluator:
    """Evaluates displacement and stress fields of a solved mesh.

    Parameters
    ----------
    mesh:
        The mesh the displacement vector refers to.
    materials:
        Material library used in the solve (needed for stress recovery).
    material_data:
        Optional pre-resolved material arrays.
    """

    def __init__(
        self,
        mesh: StructuredHexMesh,
        materials: MaterialLibrary,
        material_data: ElementMaterialData | None = None,
    ):
        self.mesh = mesh
        self.materials = materials
        self.material_data = material_data or material_arrays_for_mesh(mesh, materials)
        self._connectivity = mesh.element_connectivity()
        self._dof_map = element_dof_map(self._connectivity)
        self._sizes = mesh.element_sizes()

    # ------------------------------------------------------------------ #
    # displacement
    # ------------------------------------------------------------------ #
    def displacement_at(self, points: np.ndarray, displacement: np.ndarray) -> np.ndarray:
        """Interpolate the displacement vector field at arbitrary points.

        Parameters
        ----------
        points:
            Array of shape ``(n, 3)`` in mesh coordinates.
        displacement:
            Global displacement vector of length ``mesh.num_dofs``.

        Returns
        -------
        numpy.ndarray
            Displacements of shape ``(n, 3)``.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        displacement = self._check_displacement(displacement)
        element_ids, local = self.mesh.locate_points(points)
        n_values = shape_functions(local)  # (n, 8)
        element_dofs = self._dof_map[element_ids]  # (n, 24)
        u_elements = displacement[element_dofs].reshape(points.shape[0], 8, 3)
        return np.einsum("pa,pac->pc", n_values, np.asarray(u_elements, dtype=np.float64))

    # ------------------------------------------------------------------ #
    # strain / stress
    # ------------------------------------------------------------------ #
    def strain_at(self, points: np.ndarray, displacement: np.ndarray) -> np.ndarray:
        """Evaluate the Voigt strain (engineering shear) at arbitrary points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        displacement = self._check_displacement(displacement)
        element_ids, local = self.mesh.locate_points(points)
        grads = shape_function_gradients(local, self._sizes[element_ids])  # (n, 8, 3)
        element_dofs = self._dof_map[element_ids]
        u_elements = np.asarray(
            displacement[element_dofs].reshape(points.shape[0], 8, 3), dtype=np.float64
        )

        strain = np.zeros((points.shape[0], 6), dtype=np.float64)
        strain[:, 0] = np.einsum("pa,pa->p", grads[:, :, 0], u_elements[:, :, 0])
        strain[:, 1] = np.einsum("pa,pa->p", grads[:, :, 1], u_elements[:, :, 1])
        strain[:, 2] = np.einsum("pa,pa->p", grads[:, :, 2], u_elements[:, :, 2])
        strain[:, 3] = np.einsum("pa,pa->p", grads[:, :, 2], u_elements[:, :, 1]) + np.einsum(
            "pa,pa->p", grads[:, :, 1], u_elements[:, :, 2]
        )
        strain[:, 4] = np.einsum("pa,pa->p", grads[:, :, 2], u_elements[:, :, 0]) + np.einsum(
            "pa,pa->p", grads[:, :, 0], u_elements[:, :, 2]
        )
        strain[:, 5] = np.einsum("pa,pa->p", grads[:, :, 1], u_elements[:, :, 0]) + np.einsum(
            "pa,pa->p", grads[:, :, 0], u_elements[:, :, 1]
        )
        return strain

    def stress_at(
        self, points: np.ndarray, displacement: np.ndarray, delta_t: float = 0.0
    ) -> np.ndarray:
        """Evaluate the Voigt stress at arbitrary points (paper Eq. 1).

        ``delta_t`` is the thermal load the displacement solution corresponds
        to; the thermal eigenstrain of the element material is subtracted
        before applying Hooke's law.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        strain = np.asarray(self.strain_at(points, displacement), dtype=np.float64)
        element_ids, _ = self.mesh.locate_points(points)
        tag_index = self.material_data.tag_index_of_element[element_ids]
        lam = np.asarray(self.material_data.lame_lambda[tag_index], dtype=np.float64)
        mu = np.asarray(self.material_data.lame_mu[tag_index], dtype=np.float64)
        cte = np.asarray(self.material_data.cte[tag_index], dtype=np.float64)

        trace = strain[:, 0] + strain[:, 1] + strain[:, 2]
        thermal = cte * float(delta_t) * (3.0 * lam + 2.0 * mu)
        stress = np.zeros_like(strain)
        stress[:, 0] = lam * trace + 2.0 * mu * strain[:, 0] - thermal
        stress[:, 1] = lam * trace + 2.0 * mu * strain[:, 1] - thermal
        stress[:, 2] = lam * trace + 2.0 * mu * strain[:, 2] - thermal
        stress[:, 3] = mu * strain[:, 3]
        stress[:, 4] = mu * strain[:, 4]
        stress[:, 5] = mu * strain[:, 5]
        return stress

    def von_mises_at(
        self, points: np.ndarray, displacement: np.ndarray, delta_t: float = 0.0
    ) -> np.ndarray:
        """Evaluate the von Mises stress at arbitrary points."""
        return von_mises(self.stress_at(points, displacement, delta_t))

    def stress_at_centroids(
        self, displacement: np.ndarray, delta_t: float = 0.0
    ) -> np.ndarray:
        """Evaluate the stress at every element centroid, shape ``(num_elements, 6)``."""
        return self.stress_at(self.mesh.element_centroids(), displacement, delta_t)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check_displacement(self, displacement: np.ndarray) -> np.ndarray:
        displacement = np.asarray(displacement, dtype=float).ravel()
        if displacement.size != self.mesh.num_dofs:
            raise ValidationError(
                f"displacement has {displacement.size} entries, "
                f"expected {self.mesh.num_dofs}"
            )
        return displacement


__all__ = ["FieldEvaluator", "von_mises"]
