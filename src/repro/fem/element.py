"""Trilinear hexahedral (hex8) element kernels.

The meshes in this package are axis-aligned tensor-product grids, so every
element is a rectangular box of size ``(dx, dy, dz)``.  The isoparametric map
is then diagonal, which keeps the element integration exact and fast while the
formulation below (shape functions, B matrices, 2x2x2 Gauss quadrature)
remains the standard hex8 formulation found in FEM texts (Larson & Bengzon,
the paper's reference [17]).

The kernels are batched: :func:`element_stiffness_batch` and
:func:`element_thermal_load_batch` take the box sizes and material indices
of ``G`` element groups and evaluate their Gauss-point B matrices and element
matrices with one ``einsum`` per fixed-size slice of groups (``_GROUP_SLICE``),
which bounds the temporaries on large meshes.  :func:`element_stiffness` and
:func:`element_thermal_load` are one-row calls of them.  Box sizes must be
finite and positive; anything else raises
:class:`~repro.errors.ValidationError` instead of yielding a NaN or indefinite
matrix.

Voigt ordering used throughout: ``(xx, yy, zz, yz, xz, xy)`` with engineering
shear strains.

Dtype policy: every kernel converts its inputs to ``np.float64`` on entry,
so callers cannot silently drift the element math to float32 regardless of
what they pass in.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ValidationError

#: Element groups evaluated per einsum by the batch kernels.  A slice holds two
#: ``(slice, 8, 6, 24)`` float64 temporaries (about 0.3 MB each at 32 groups),
#: so memory stays bounded however many groups a full-FEM reference mesh has.
#: Slices of 16 to 256 groups run equally fast; slices above 32 raised the
#: process peak RSS of a cold 2x2 ``tiny`` run by about 0.7 MiB.
_GROUP_SLICE = 32

#: Local corner coordinates of the hex8 reference element, shape (8, 3).
HEX8_LOCAL_CORNERS = np.array(
    [
        (-1.0, -1.0, -1.0),
        (+1.0, -1.0, -1.0),
        (+1.0, +1.0, -1.0),
        (-1.0, +1.0, -1.0),
        (-1.0, -1.0, +1.0),
        (+1.0, -1.0, +1.0),
        (+1.0, +1.0, +1.0),
        (-1.0, +1.0, +1.0),
    ]
)


def gauss_points_2x2x2():
    """Return the 2x2x2 Gauss points and weights on ``[-1, 1]^3``.

    Returns
    -------
    (points, weights)
        ``points`` has shape ``(8, 3)``, ``weights`` shape ``(8,)`` (all 1.0).
    """
    g = 1.0 / math.sqrt(3.0)
    pts = np.array(
        [(sx * g, sy * g, sz * g) for sz in (-1, 1) for sy in (-1, 1) for sx in (-1, 1)],
        dtype=np.float64,
    )
    return pts, np.ones(8, dtype=np.float64)


def shape_functions(local_points):
    """Evaluate the 8 trilinear shape functions at local points.

    Parameters
    ----------
    local_points:
        Array of shape ``(n, 3)`` with coordinates in ``[-1, 1]^3``.

    Returns
    -------
    Shape ``(n, 8)``; row ``p`` holds ``N_a(xi_p)`` for the 8 corners.
    """
    pts = np.atleast_2d(np.asarray(local_points, dtype=np.float64))
    xi, eta, zeta = pts[:, 0:1], pts[:, 1:2], pts[:, 2:3]
    corners = HEX8_LOCAL_CORNERS
    return (
        (1.0 + xi * corners[:, 0])
        * (1.0 + eta * corners[:, 1])
        * (1.0 + zeta * corners[:, 2])
        / 8.0
    )


def shape_function_gradients(local_points, element_size):
    """Gradients of the shape functions with respect to *physical* coordinates.

    Parameters
    ----------
    local_points:
        Array of shape ``(n, 3)`` of local coordinates in ``[-1, 1]^3``.
    element_size:
        Either a single ``(dx, dy, dz)`` triple or an array of shape ``(n, 3)``
        giving the box size of the element containing each point.

    Returns
    -------
    Shape ``(n, 8, 3)``; entry ``[p, a, c]`` is ``dN_a/dx_c`` at point p.
    """
    pts = np.atleast_2d(np.asarray(local_points, dtype=np.float64))
    sizes = np.asarray(element_size, dtype=np.float64)
    if sizes.ndim == 1:
        sizes = np.broadcast_to(sizes, (pts.shape[0], 3))
    xi, eta, zeta = pts[:, 0:1], pts[:, 1:2], pts[:, 2:3]
    corners = HEX8_LOCAL_CORNERS
    cx, cy, cz = corners[:, 0], corners[:, 1], corners[:, 2]
    # Derivatives with respect to the local coordinates.
    dn_dxi = cx * (1.0 + eta * cy) * (1.0 + zeta * cz) / 8.0
    dn_deta = (1.0 + xi * cx) * cy * (1.0 + zeta * cz) / 8.0
    dn_dzeta = (1.0 + xi * cx) * (1.0 + eta * cy) * cz / 8.0
    grad = np.stack([dn_dxi, dn_deta, dn_dzeta], axis=2)
    # Chain rule for the axis-aligned map x = x0 + (xi + 1) * dx / 2.
    jacobian_inv = 2.0 / sizes  # shape (n, 3)
    return grad * jacobian_inv[:, None, :]


def strain_displacement_matrix(grad):
    """Assemble B matrices from shape-function gradients.

    Parameters
    ----------
    grad:
        Gradients of shape ``(n, 8, 3)`` as returned by
        :func:`shape_function_gradients`.

    Returns
    -------
    B matrices of shape ``(n, 6, 24)`` mapping the 24 element displacement
    DoFs (node-major: ``u0x, u0y, u0z, u1x, ...``) to Voigt strains.
    """
    grad = np.asarray(grad, dtype=np.float64)
    n = grad.shape[0]
    b = np.zeros((n, 6, 24), dtype=np.float64)
    dx = grad[:, :, 0]
    dy = grad[:, :, 1]
    dz = grad[:, :, 2]
    cols = np.arange(8, dtype=np.int64) * 3
    b[:, 0, cols + 0] = dx
    b[:, 1, cols + 1] = dy
    b[:, 2, cols + 2] = dz
    # gamma_yz = du_y/dz + du_z/dy
    b[:, 3, cols + 1] = dz
    b[:, 3, cols + 2] = dy
    # gamma_xz = du_x/dz + du_z/dx
    b[:, 4, cols + 0] = dz
    b[:, 4, cols + 2] = dx
    # gamma_xy = du_x/dy + du_y/dx
    b[:, 5, cols + 0] = dy
    b[:, 5, cols + 1] = dx
    return b


def _checked_groups(sizes, tag_index) -> tuple[np.ndarray, np.ndarray]:
    """Validate a batch: float64 ``(G, 3)`` finite positive sizes, ``(G,)`` tags."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.ndim != 2 or sizes.shape[1] != 3:
        raise ValidationError(f"element sizes must have shape (G, 3), got {sizes.shape}")
    bad = ~np.all(np.isfinite(sizes) & (sizes > 0.0), axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValidationError(
            f"element size row {row} must be finite and > 0, got {tuple(sizes[row].tolist())}"
        )
    tag_index = np.asarray(tag_index, dtype=np.intp)
    if tag_index.shape != (sizes.shape[0],):
        raise ValidationError(
            f"tag_index must have shape ({sizes.shape[0]},), got {tag_index.shape}"
        )
    return sizes, tag_index


def _gauss_point_slices(sizes: np.ndarray):
    """Yield ``(part, det_j, b)`` for consecutive slices of at most ``_GROUP_SLICE`` boxes.

    ``part`` is the slice into ``sizes``, ``det_j`` the Jacobian determinant
    per box and ``b`` the B matrices at the 8 Gauss points, shape
    ``(len(box), 8, 6, 24)``.
    """
    pts, _ = gauss_points_2x2x2()
    for start in range(0, sizes.shape[0], _GROUP_SLICE):
        part = slice(start, start + _GROUP_SLICE)
        box = sizes[part]
        grad = shape_function_gradients(np.tile(pts, (len(box), 1)), np.repeat(box, 8, axis=0))
        b = strain_displacement_matrix(grad).reshape(len(box), 8, 6, 24)
        yield part, box[:, 0] * box[:, 1] * box[:, 2] / 8.0, b


def element_stiffness_batch(sizes, tag_index, d_matrices) -> np.ndarray:
    """Stiffness matrices of many axis-aligned hex8 elements at once.

    Parameters
    ----------
    sizes:
        Box dimensions ``(dx, dy, dz)`` per element group, shape ``(G, 3)``;
        every entry must be finite and > 0.
    tag_index:
        Index into ``d_matrices`` per group, shape ``(G,)``.
    d_matrices:
        6x6 elasticity matrices, shape ``(T, 6, 6)``.

    Returns
    -------
    Symmetric element stiffness matrices, shape ``(G, 24, 24)``, float64.

    Raises
    ------
    ValidationError
        If a size is zero, negative or not finite (the message names the
        first bad row), or if the array shapes disagree.
    """
    sizes, tag_index = _checked_groups(sizes, tag_index)
    d_matrices = np.asarray(d_matrices, dtype=np.float64)
    _, weights = gauss_points_2x2x2()
    ke = np.empty((sizes.shape[0], 24, 24), dtype=np.float64)
    for part, det_j, b in _gauss_point_slices(sizes):
        db = np.einsum("gij,gqjb->gqib", d_matrices[tag_index[part]], b)
        block = np.einsum("gqia,gqib,q->gab", b, db, weights) * det_j[:, None, None]
        # Enforce exact symmetry against round-off.
        ke[part] = 0.5 * (block + np.transpose(block, (0, 2, 1)))
    return ke


def element_thermal_load_batch(sizes, tag_index, d_matrices, thermal_strains) -> np.ndarray:
    """Thermal load vectors of many axis-aligned hex8 elements at once.

    The load corresponds to the right-hand side of the weak form (paper Eq. 5)
    for the given thermal strains (normally evaluated at ``delta_t = 1`` so the
    caller can scale by the actual thermal load).

    Parameters
    ----------
    sizes, tag_index, d_matrices:
        As for :func:`element_stiffness_batch`.
    thermal_strains:
        Voigt thermal strain per material, shape ``(T, 6)``, indexed like
        ``d_matrices``.

    Returns
    -------
    Element load vectors, shape ``(G, 24)``, float64.
    """
    sizes, tag_index = _checked_groups(sizes, tag_index)
    d_matrices = np.asarray(d_matrices, dtype=np.float64)
    thermal_strains = np.asarray(thermal_strains, dtype=np.float64)
    stress_like = np.matmul(d_matrices, thermal_strains[:, :, None])[:, :, 0]
    _, weights = gauss_points_2x2x2()
    fe = np.empty((sizes.shape[0], 24), dtype=np.float64)
    for part, det_j, b in _gauss_point_slices(sizes):
        fe[part] = (
            np.einsum("gqij,gi,q->gj", b, stress_like[tag_index[part]], weights)
            * det_j[:, None]
        )
    return fe


def element_stiffness(element_size: tuple[float, float, float], d_matrix):
    """Compute the 24x24 stiffness matrix of an axis-aligned hex8 element.

    A one-row call of :func:`element_stiffness_batch`.

    Parameters
    ----------
    element_size:
        Box dimensions ``(dx, dy, dz)``, each finite and > 0.
    d_matrix:
        6x6 elasticity matrix of the element material.

    Returns
    -------
    Symmetric element stiffness matrix of shape ``(24, 24)`` at ``np.float64``.
    """
    return element_stiffness_batch(
        np.reshape(element_size, (1, 3)), [0], np.asarray(d_matrix)[None]
    )[0]


def element_thermal_load(
    element_size: tuple[float, float, float],
    d_matrix,
    thermal_strain,
):
    """Compute the 24-entry thermal load vector of an axis-aligned hex8 element.

    A one-row call of :func:`element_thermal_load_batch`.

    Parameters
    ----------
    element_size:
        Box dimensions ``(dx, dy, dz)``, each finite and > 0.
    d_matrix:
        6x6 elasticity matrix.
    thermal_strain:
        Voigt thermal strain vector (6,).

    Returns
    -------
    Element load vector of shape ``(24,)`` at ``np.float64``.
    """
    return element_thermal_load_batch(
        np.reshape(element_size, (1, 3)),
        [0],
        np.asarray(d_matrix)[None],
        np.asarray(thermal_strain)[None],
    )[0]


__all__ = [
    "HEX8_LOCAL_CORNERS",
    "gauss_points_2x2x2",
    "shape_functions",
    "shape_function_gradients",
    "strain_displacement_matrix",
    "element_stiffness",
    "element_stiffness_batch",
    "element_thermal_load",
    "element_thermal_load_batch",
]
