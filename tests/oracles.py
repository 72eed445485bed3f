"""Oracles that the tests compare the package's closed forms with: the
operator box applied directly, and the matrix Q(A)."""

import numpy as np

from spectra_bochner import boxop, geometry as geom, hypersurface as hyp


def laplacian_box(m):
    return boxop.BoxOperator(phi=geom.metric_field(m), manifold=m)


def schouten_box(m):
    return boxop.BoxOperator(phi=geom.schouten_tensor_field(m), manifold=m)


def apply(box, f, p):
    """box(f)(p) = tr(phi Hess f) in the orthonormal frame, at a point or
    at each point of a (P, n) stack."""
    geo = geom.point_geometry(box.chart, p)
    _, _, fij = geom.scalar_jets(geo, f, 2)
    phi_ij = geom.tensor_jets(geo, box.phi, 0)[0]
    return np.sum(phi_ij * fij, axis=(-2, -1))


def q_polynomial(sd, kappa):
    """Q(A) = 2A^3 - 3H A^2 + (2H^2 - |A|^2 - kappa(n-2)) A + kappa(2n-3) H I.

    A may carry leading batch axes (..., n, n); kappa is then a scalar or an
    array over those axes.
    """
    A = np.asarray(sd.A if isinstance(sd, hyp.ShapeData) else sd, dtype=float)
    n = A.shape[-1]
    H = np.trace(A, axis1=-2, axis2=-1)[..., None, None]
    normA2 = np.sum(A * A, axis=(-2, -1))[..., None, None]
    kappa = np.asarray(kappa, dtype=float)[..., None, None]
    A2 = A @ A
    return (2.0 * A2 @ A - 3.0 * H * A2
            + (2.0 * H ** 2 - normA2 - kappa * (n - 2.0)) * A
            + kappa * (2.0 * n - 3.0) * H * np.eye(n))
