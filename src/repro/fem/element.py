"""Trilinear hexahedral (hex8) element kernels.

The meshes in this package are axis-aligned tensor-product grids, so every
element is a rectangular box of size ``(dx, dy, dz)``.  The isoparametric map
is then diagonal, which keeps the element integration exact and fast while the
formulation below (shape functions, B matrices, 2x2x2 Gauss quadrature)
remains the standard hex8 formulation found in FEM texts (Larson & Bengzon,
the paper's reference [17]).

Voigt ordering used throughout: ``(xx, yy, zz, yz, xz, xy)`` with engineering
shear strains.

Dtype policy: every kernel converts its inputs to float64 on entry, so
callers cannot silently drift the element math to float32 regardless of
what they pass in.
"""

from __future__ import annotations

import math

import numpy as np

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
        dtype=float,
    )
    return pts, np.ones(8, dtype=float)


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
    pts = np.atleast_2d(np.asarray(local_points, dtype=float))
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
    pts = np.atleast_2d(np.asarray(local_points, dtype=float))
    sizes = np.asarray(element_size, dtype=float)
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
    grad = np.asarray(grad, dtype=float)
    n = grad.shape[0]
    b = np.zeros((n, 6, 24), dtype=float)
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


def element_stiffness(element_size: tuple[float, float, float], d_matrix):
    """Compute the 24x24 stiffness matrix of an axis-aligned hex8 element.

    Parameters
    ----------
    element_size:
        Box dimensions ``(dx, dy, dz)``.
    d_matrix:
        6x6 elasticity matrix of the element material.

    Returns
    -------
    Symmetric element stiffness matrix of shape ``(24, 24)`` (float64).
    """
    dx, dy, dz = (float(s) for s in element_size)
    det_j = dx * dy * dz / 8.0
    pts, weights = gauss_points_2x2x2()
    grad = shape_function_gradients(pts, np.array([dx, dy, dz], dtype=float))
    b = strain_displacement_matrix(grad)
    d = np.asarray(d_matrix, dtype=float)
    bt = np.transpose(b, (0, 2, 1))
    ke = np.einsum("gai,ij,gbj,g->ab", bt, d, bt, weights)
    ke = ke * det_j
    # Enforce exact symmetry against round-off.
    return 0.5 * (ke + np.transpose(ke, (1, 0)))


def element_thermal_load(
    element_size: tuple[float, float, float],
    d_matrix,
    thermal_strain,
):
    """Compute the 24-entry thermal load vector of an axis-aligned hex8 element.

    The load corresponds to the right-hand side of the weak form (paper Eq. 5)
    for the given thermal strain (normally evaluated at ``delta_t = 1`` so the
    caller can scale by the actual thermal load).

    Parameters
    ----------
    element_size:
        Box dimensions ``(dx, dy, dz)``.
    d_matrix:
        6x6 elasticity matrix.
    thermal_strain:
        Voigt thermal strain vector (6,).

    Returns
    -------
    Element load vector of shape ``(24,)`` (float64).
    """
    dx, dy, dz = (float(s) for s in element_size)
    det_j = dx * dy * dz / 8.0
    pts, weights = gauss_points_2x2x2()
    grad = shape_function_gradients(pts, np.array([dx, dy, dz], dtype=float))
    b = strain_displacement_matrix(grad)
    stress_like = np.matmul(
        np.asarray(d_matrix, dtype=float), np.asarray(thermal_strain, dtype=float)
    )
    fe = np.einsum("gij,i,g->j", b, stress_like, weights)
    return fe * det_j


__all__ = [
    "HEX8_LOCAL_CORNERS",
    "gauss_points_2x2x2",
    "shape_functions",
    "shape_function_gradients",
    "strain_displacement_matrix",
    "element_stiffness",
    "element_thermal_load",
]
