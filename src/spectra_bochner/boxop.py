"""The operator box(f) = sum_ij phi_ij f_ij and its Bochner-type identity.

A BoxOperator pairs a symmetric phi with its manifold.  All pointwise
evaluations happen in the deterministic orthonormal frame of the geometry
module; the two divergence-form groups of the identity are expanded by the
product rule, so the evaluation needs third derivatives of f and second
covariant derivatives of phi, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import geometry as geom
from .errors import NotPositiveDefinite


@dataclass(frozen=True)
class BoxOperator:
    phi: geom.Field
    manifold: geom.ChartManifold

    @property
    def chart(self):
        return self.manifold.chart()


@dataclass(frozen=True)
class BochnerResidual:
    """Term-by-term evaluation of the generalized Bochner identity; lhs,
    the rhs terms and the residual are (P,) arrays for a stack of P points."""

    c: float
    lhs: float
    rhs_terms: Dict[str, float]
    residual: float


def divergence_form_defect(box, f, p):
    """|box(f) - (div(phi grad f) - <div phi, grad f>)| at a point p (n,)
    or at each point of a (P, n) stack.

    The divergence of the composite vector field phi(grad f) is taken by
    central differences of the composite (step geometry.DEFAULT_FD_STEP), so
    the two routes are independent.
    """
    chart = box.chart
    geo = geom.point_geometry(chart, p)

    def vec(q):  # coordinate components of phi(grad f) at the points q
        g_inv = np.linalg.inv(geom.metric_jets(chart, q, 0)[0])
        _, df = f.partials(q, 1)
        ph = box.phi.partials(q, 0)[0]
        return (g_inv @ ph @ g_inv @ df[..., None])[..., 0]

    dV = geom.fd_derivative(vec, geo.p, geom.DEFAULT_FD_STEP)
    div_composite = (np.trace(dV, axis1=-2, axis2=-1)
                     + np.einsum("...aab,...b->...", geo.Gamma, vec(geo.p)))

    _, fi, fij = geom.scalar_jets(geo, f, 2)
    (phi_ij,), (dphi,) = geom.tensor_jets(geo, [box.phi], 1)
    boxf = np.sum(phi_ij * fij, axis=(-2, -1))
    divphi = np.einsum("...ijj->...i", dphi)
    return np.abs(boxf - (div_composite
                          - np.einsum("...i,...i->...", divphi, fi)))


def bochner_residual(m, phis, f, p, cvals):
    """Evaluate every term of the generalized Bochner identity on the
    manifold m at p, for each phi in ``phis`` and each value of c in
    ``cvals``; returns one list per phi of one BochnerResidual per c.

    ``p`` is a point (n,) or a stack (P, n); every field of a
    BochnerResidual is then a float or a (P,) array.  The geometry, the
    jets of f and the curvature are evaluated once, for the whole stack and
    every phi; the phi are stacked on one leading axis, so their jets and
    the contractions of the identity take one pass for all of them.  The
    identity holds for every real c: its two c-terms, ``c_trace_hessian``
    and the c part of ``divergence_difference``, are the same contraction
    c * sum phi_mmij f_i f_j with opposite signs, so the residuals
    |lhs - sum(rhs)| of different c differ by rounding only.  Requires
    third partials of f and second partials of each phi.
    """
    geo = geom.point_geometry(m.chart(), p)
    _, fi, fij, f3 = geom.scalar_jets(geo, f, 3)
    ric = geom.curvature_at(m, geo).ricci
    ph, p3, p4 = geom.tensor_jets(geo, phis, 2)
    # the Hessian of |grad f|^2, expanded by Leibniz, copied to the stacked
    # shape: a broadcast operand moves the last bit of lhs
    u_jk = np.broadcast_to(2.0 * (np.einsum("...ij,...ik->...jk", fij, fij)
                                  + np.einsum("...i,...ijk->...jk", fi, f3)),
                           ph.shape).copy()
    # lhs: 0.5 box(|grad f|^2)
    lhs = 0.5 * np.einsum("...jk,...jk->...", ph, u_jk)
    grad_lap = np.einsum("...iik->...k", f3)
    grad_box = (np.einsum("...ijk,...ij->...k", p3, fij)
                + np.einsum("...ij,...ijk->...k", ph, f3))
    p3_skew = p3 - np.swapaxes(p3, -1, -2)

    trace_c = np.einsum("...mmij,...i,...j->...", p4, fi, fi)
    div_ikkj = np.einsum("...i,...j,...ikkj->...", fi, fi, p4)
    div_kkij = np.einsum("...i,...j,...kkij->...", fi, fi, p4)
    # the c-terms are filled in per c below; the key order fixes the
    # order of the rhs sum
    terms = {
        "grad_f_grad_boxf": np.einsum("...k,...k->...", fi, grad_box),
        "phi_gradf_grad_lapf": np.einsum("...kj,...j,...k->...",
                                         ph, fi, grad_lap),
        "hessian_square": 2.0 * np.einsum("...ij,...jk,...ki->...",
                                          ph, fij, fij),
        "curvature": 2.0 * np.einsum("...i,...j,...im,...mj->...",
                                     fi, fi, ph, ric),
        "c_trace_hessian": None,
        "laplacian_phi": -np.einsum("...i,...j,...ijkk->...", fi, fi, p4),
        "divergence_difference": None,
        # div-form group 1: sum_k ( f_i f_j (phi_jik - phi_jki) )_k
        "divform_codazzi": (
            np.einsum("...ik,...j,...jik->...", fij, fi, p3_skew)
            + np.einsum("...i,...jk,...jik->...", fi, fij, p3_skew)
            + np.einsum("...i,...j,...jikk->...", fi, fi, p4)
            - np.einsum("...i,...j,...jkik->...", fi, fi, p4)),
        # div-form group 2: -sum_k ( f_j phi_ij f_ik )_k
        "divform_flux": -(np.einsum("...jk,...ij,...ik->...", fij, ph, fij)
                          + np.einsum("...j,...ijk,...ik->...", fi, p3, fij)
                          + np.einsum("...j,...ij,...ikk->...", fi, ph, f3)),
    }
    out = [[] for _ in phis]
    for c in cvals:
        terms_c = dict(terms, c_trace_hessian=c * trace_c,
                       divergence_difference=div_ikkj - c * div_kkij)
        rhs = sum(terms_c.values())
        residual = abs(lhs - rhs)
        for k, rs in enumerate(out):
            rs.append(BochnerResidual(
                c=float(c), lhs=lhs[k], residual=residual[k],
                rhs_terms={t: v[k] for t, v in terms_c.items()}))
    return out


def hessian_trace_defect(box, f, p):
    """sum phi_ij f_jk f_ki - (box f)^2 / tr(phi) at a point p (n,) or at
    each point of a (P, n) stack; nonnegative when phi > 0.  Names the
    first point where phi is not positive definite."""
    geo = geom.point_geometry(box.chart, p)
    _, _, fij = geom.scalar_jets(geo, f, 2)
    (ph,), = geom.tensor_jets(geo, [box.phi], 0)
    w = np.ravel(np.linalg.eigvalsh(ph)[..., 0])
    if (w <= 0.0).any():
        k = np.argmax(w <= 0.0)
        raise NotPositiveDefinite("phi not positive definite at %r (min eig %g)"
                                  % (geom._point(p, k), w[k]))
    quad = np.einsum("...ij,...jk,...ki->...", ph, fij, fij)
    boxf = np.sum(ph * fij, axis=(-2, -1))
    return quad - boxf ** 2 / np.trace(ph, axis1=-2, axis2=-1)
