"""Immersed hypersurfaces in space forms.

Fundamental forms, shape operator A, mean curvature H (trace convention,
H = sum of principal curvatures), Newton transformation P1 = H I - A and
the pinching constants (alpha, a, sigma) of ellipsoids, sigma sampled from
a closed-form Hessian of H and alpha, a in closed form.

Flat ambient (kappa = 0) immersions map a chart into R^{n+1}; positively
curved ambients (kappa > 0) are realized inside the round sphere of radius
1/sqrt(kappa) in R^{n+2}, with the second fundamental form read off from
ambient second derivatives (the normal is tangent to the sphere, so the cone
direction drops out automatically).  kappa < 0 is supported analytically for
umbilic data only and has no chart realization here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import geometry as geom
from .errors import ConfigError, DegenerateImmersion


# ---------------------------------------------------------------------------
# immersion charts

@dataclass(frozen=True)
class ImmersionChart:
    """Stereographic chart of S^n composed with an ambient affine map.

    u -> ambient @ x(u) + offset, where x(u) in R^{n+1} is the unit sphere
    projected from its north pole and ``ambient`` is a constant (m, n+1)
    matrix.
    """

    ambient: np.ndarray
    offset: Optional[np.ndarray] = None

    def jets(self, U):
        """Closed-form jets at U (..., n): X (..., m), the first derivatives
        J (..., n, m) and the second derivatives H2 (..., n, n, m), partial
        directions first."""
        X, J, H2 = _unit_sphere_chart_jets(U)
        B = self.ambient.T
        X = X @ B
        if self.offset is not None:
            X = X + self.offset
        return X, J @ B, H2 @ B


@dataclass(frozen=True)
class ImmersedHypersurface:
    n: int
    kappa: float
    chart: ImmersionChart
    orient: float          # +1 or -1: turns the chart's normal to H > 0
    name: str = ""

    @property
    def semiaxes(self):
        """Semiaxes of an axis-aligned ellipsoid in R^3, a sphere included:
        the surfaces that discretize can mesh.  None for any other."""
        B = self.chart.ambient
        if self.chart.offset is None and B.shape == (3, 3) \
                and not np.any(B - np.diag(np.diag(B))):
            return tuple(np.diag(B).tolist())
        return None

    def sample_points(self, count, rng):
        """The points U (count, n) of the chart's unit disk, the surface's
        southern half, each in a uniform direction at radius sqrt(r), r
        uniform on [0.02, 1), from one draw of the radii and one of the
        directions."""
        r = rng.uniform(0.02, 1.0, size=count)
        v = rng.normal(size=(count, self.n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return np.sqrt(r)[:, None] * v


def generalized_cross(vectors):
    """Vector orthogonal to m-1 given vectors in R^m (cofactor expansion).

    ``vectors`` is (..., m-1, m); the result is (..., m).
    """
    M = np.asarray(vectors, dtype=float)
    m = M.shape[-1]
    cols = np.arange(m)
    return np.stack([(-1.0) ** i * np.linalg.det(M[..., cols != i])
                     for i in range(m)], axis=-1)


# ---------------------------------------------------------------------------
# shape data

@dataclass(frozen=True)
class ShapeData:
    """Shape data at a chart point; a stack of points adds a leading axis."""

    A: np.ndarray          # symmetric shape operator in the orthonormal frame
    H: np.ndarray          # tr A (unnormalized mean curvature)
    P1: np.ndarray         # H I - A
    S2: np.ndarray         # sum_{i<j} h_i h_j = (H^2 - |A|^2)/2
    g: np.ndarray          # induced coordinate metric
    frame: np.ndarray      # orthonormal frame (columns, coordinates)
    h: np.ndarray          # second fundamental form, coordinate components
    point: np.ndarray      # ambient position


def shape_at(hs, u):
    """Shape operator data at a chart point u (n,) or a stack u (P, n)."""
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, hs.n)
    X, J, H2 = hs.chart.jets(U)
    g = J @ np.swapaxes(J, -1, -2)
    w = np.linalg.eigvalsh(g)
    bad = w[:, 0] <= 1e-12 * np.maximum(1.0, w[:, -1])
    if bad.any():
        raise DegenerateImmersion("induced metric singular at %r"
                                  % (U[np.argmax(bad)],))
    if hs.kappa > 0.0:
        X1 = X / np.linalg.norm(X, axis=-1)[:, None]
        span = np.concatenate([J, X1[:, None, :]], axis=1)
    else:
        span = J
    nu = generalized_cross(span)
    nn = np.linalg.norm(nu, axis=-1)
    if (nn == 0.0).any():
        raise DegenerateImmersion("immersion not regular at %r"
                                  % (U[np.argmax(nn == 0.0)],))
    nu = hs.orient * nu / nn[:, None]
    h = np.einsum("pabm,pm->pab", H2, nu)
    E = geom.orthonormal_frame(g)
    A = np.swapaxes(E, -1, -2) @ h @ E
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    H = np.trace(A, axis1=-2, axis2=-1)
    fields = dict(A=A, H=H, P1=H[:, None, None] * np.eye(hs.n) - A,
                  S2=0.5 * (H ** 2 - np.sum(A * A, axis=(-2, -1))),
                  g=g, frame=E, h=h, point=X)
    lead = u.shape[:-1]
    return ShapeData(**{k: v.reshape(lead + v.shape[1:])
                        for k, v in fields.items()})


# ---------------------------------------------------------------------------
# induced-metric chart views

def induced_metric_manifold(hs):
    """ChartManifold carrying the pullback metric g(u) = J J^T of the
    chart."""
    chart = hs.chart

    def jets(u, order):  # d_c g_ab = H2_ca . J_b + J_a . H2_cb
        _, J, H2 = chart.jets(u)
        out = [J @ np.swapaxes(J, -1, -2)]
        if order >= 1:
            HJ = H2 @ np.swapaxes(J, -1, -2)[..., None, :, :]
            out.append(HJ + np.swapaxes(HJ, -1, -2))
        return out

    g = geom.Field(jets, rank=2, name="induced")
    c = geom.Chart(lo=np.full(hs.n, -1.0), hi=np.full(hs.n, 1.0), metric=g)
    return geom.ChartManifold(dim=hs.n, charts=(c,),
                              atlas_kind=geom.ATLAS_CHART_PATCH,
                              name=(hs.name or "surface") + "-induced")


def newton1_field(hs):
    """P1 as a coordinate (0,2) tensor field on the chart: H g_ab - h_ab."""

    def jets(u, order):
        sd = shape_at(hs, u)
        return [sd.H[..., None, None] * sd.g - sd.h]

    return geom.Field(jets, rank=2, name="newton1")


# ---------------------------------------------------------------------------
# pinching constants

@dataclass(frozen=True)
class PinchingConstants:
    alpha: float
    a: float
    sigma: float
    constant_H: bool


SIGMA_POINTS = 400


def pinching_constants(semiaxes, seed):
    """(alpha, a, sigma) of the ellipsoid with these semiaxes, for the
    eigenvalue-bound hypotheses.

    The principal curvatures range over [s_min/s_max^2, s_max/s_min^2],
    s_min and s_max the shortest and longest semiaxes, with both ends
    attained at vertices, so alpha = s_min/s_max^2 and a = (s_max/s_min)^3.
    H is constant only on a sphere, where sigma = 0.  Otherwise sigma is
    the max of tr(Hess H | v-perp) = Delta H - min eigenvalue of Hess H
    over the six vertices and SIGMA_POINTS normal draws seeded by
    ``seed``, put on the unit sphere and scaled by the semiaxes: a
    sampled value, which can fall below the true maximum.
    """
    d = _positive(*semiaxes)
    lo, hi = float(np.min(d)), float(np.max(d))
    constant_H = lo == hi
    sigma = 0.0
    if not constant_H:
        v = np.random.default_rng(seed).normal(size=(SIGMA_POINTS, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        points = np.concatenate([np.diag(d), -np.diag(d), v * d])
        w = np.linalg.eigvalsh(ellipsoid_mean_curvature_hessian(points, d))
        sigma = float(np.max(np.sum(w, axis=-1) - w[:, 0]))
    return PinchingConstants(alpha=lo / hi ** 2, a=(hi / lo) ** 3,
                             sigma=sigma, constant_H=constant_H)


# ---------------------------------------------------------------------------
# builders

def _unit_sphere_chart_jets(U):
    """Jets of the stereographic parametrization of S^n in R^{n+1} from the
    north pole at the points U (..., n): X (..., n+1), J (..., n, n+1),
    H2 (..., n, n, n+1).

    u = 0 maps to the south pole and |u| = 1 to the equator.  The first n
    coordinates are u w(|u|^2) and the last is 1 - w(|u|^2), with
    w(s) = 2/(1+s).
    """
    U = np.asarray(U, dtype=float)
    eye = np.eye(U.shape[-1])
    q = 1.0 + np.sum(U * U, axis=-1)[..., None, None]
    w = [2.0 / q, -2.0 / q ** 2, 4.0 / q ** 3]   # d^k w / ds^k
    uu = U[..., :, None] * U[..., None, :]
    # derivatives of F(u) = w(|u|^2): dF (..., n, 1), d2F (..., n, n)
    dF = 2.0 * w[1] * U[..., :, None]
    d2F = 4.0 * w[2] * uu + 2.0 * w[1] * eye
    X = np.concatenate([U * w[0][..., 0], 1.0 - w[0][..., 0]], axis=-1)
    # d_c (u_a w) = delta_ca w + u_a d_c w;  the last coordinate: -d_c w
    J = np.concatenate([eye * w[0] + dF * U[..., None, :], -dF], axis=-1)
    # d_c d_d (u_a w) = delta_ca d_d w + delta_da d_c w + u_a d_cd w
    dFe = dF[..., None, :, :] * eye[:, None, :]
    H2 = np.concatenate([dFe + np.swapaxes(dFe, -3, -2)
                         + d2F[..., None] * U[..., None, None, :],
                         -d2F[..., None]], axis=-1)
    return X, J, H2


def _positive(*values):
    """The semiaxes or radius as a float array; ConfigError unless all > 0."""
    d = np.array(values, dtype=float)
    if not np.all(d > 0.0):
        raise ConfigError("semiaxes and radii must be positive, got %s"
                          % ", ".join("%g" % v for v in d))
    return d


def _orient_for_positive_H(n, kappa, chart, name):
    hs = ImmersedHypersurface(n=n, kappa=kappa, chart=chart, orient=1.0,
                              name=name)
    return replace(hs, orient=1.0 if shape_at(hs, np.full(n, 0.1)).H > 0
                   else -1.0)


def sphere_surface(r=1.0, n=2):
    """Round n-sphere of radius r in R^{n+1} (A = I/r with inward normal)."""
    chart = ImmersionChart(ambient=_positive(r) * np.eye(n + 1))
    return _orient_for_positive_H(n, 0.0, chart, "sphere:r=%g" % r)


def ellipsoid_surface(a1=1.0, a2=1.0, c=1.1):
    """Ellipsoid x^2/a1^2 + y^2/a2^2 + z^2/c^2 = 1 in R^3."""
    chart = ImmersionChart(ambient=np.diag(_positive(a1, a2, c)))
    return _orient_for_positive_H(2, 0.0, chart,
                                  "ellipsoid:%g,%g,%g" % (a1, a2, c))


def geodesic_sphere_surface(kappa=1.0, alpha=1.0, n=2):
    """Umbilic geodesic sphere with A = alpha I inside the round sphere
    of curvature kappa > 0 (realized in R^{n+2})."""
    if kappa <= 0.0:
        raise ConfigError("geodesic-sphere charts require kappa > 0")
    rk = math.sqrt(kappa)
    theta = math.atan2(rk, alpha)  # cot(theta) = alpha / sqrt(kappa)
    st, ct = math.sin(theta), math.cos(theta)

    ambient = np.vstack([st / rk * np.eye(n + 1), np.zeros(n + 1)])
    offset = np.zeros(n + 2)
    offset[-1] = ct / rk
    return _orient_for_positive_H(
        n, kappa, ImmersionChart(ambient=ambient, offset=offset),
        "geodesic-sphere:kappa=%g,alpha=%g" % (kappa, alpha))


SURFACE_GRAMMAR = {
    "sphere": (0, {"r": geom.spec_float}, sphere_surface),
    "ellipsoid": (3, {}, ellipsoid_surface),
    "geodesic-sphere": (0, {"kappa": geom.spec_float,
                            "alpha": geom.spec_float},
                        geodesic_sphere_surface),
}


def parse_surface(spec):
    """Build the surface of a spec: 'sphere:r=', 'ellipsoid:a,b,c' or
    'geodesic-sphere:kappa=,alpha='."""
    return geom.parse_spec(spec, SURFACE_GRAMMAR, "surface")


def ellipsoid_shape_operator(point, semiaxes):
    """Closed-form shape operator of an ellipsoid at an ambient point.

    Returns (A3, nu, B): the symmetric 3x3 operator acting on the tangent
    plane (zero on the normal), the outward-pointing unit normal flipped to
    the H > 0 convention, and a 3x2 orthonormal tangent basis.  ``point``
    may be a (..., 3) stack; the outputs then carry the same leading axes.
    """
    p = np.asarray(point, dtype=float)
    d = np.asarray(semiaxes, dtype=float)
    grad = p / d ** 2
    nrm = np.linalg.norm(grad, axis=-1)[..., None]
    nu = grad / nrm
    P = np.eye(3) - nu[..., :, None] * nu[..., None, :]
    A3 = P @ np.diag(1.0 / d ** 2) @ P / nrm[..., None]
    # orthonormal tangent basis, deterministic
    k = np.argmin(np.abs(nu), axis=-1)[..., None]
    t1 = (np.arange(3) == k).astype(float)
    t1 = t1 - np.sum(t1 * nu, axis=-1, keepdims=True) * nu
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    t2 = np.cross(nu, t1)
    B = np.stack([t1, t2], axis=-1)
    return A3, nu, B


def ellipsoid_mean_curvature_hessian(point, semiaxes):
    """Closed-form intrinsic Hessian of H at ambient points of an ellipsoid.

    With e = 1/d^2, s = sum e_i^2 x_i^2 and q = sum e_i^3 x_i^2, the
    function H~ = sum(e) s^(-1/2) - q s^(-3/2) equals H on the surface, and
    Hess H = B^T (D^2 H~ - <grad H~, nu> A3) B in the tangent basis B of
    ``ellipsoid_shape_operator``.  ``point`` is (..., 3); the result is
    (..., 2, 2).
    """
    x = np.asarray(point, dtype=float)
    e = 1.0 / np.asarray(semiaxes, dtype=float) ** 2
    T = np.sum(e)
    s, q = (np.sum(e ** k * x * x, axis=-1)[..., None, None] for k in (2, 3))
    gs, gq = (2.0 * e ** k * x for k in (2, 3))   # grad s and grad q
    # partials of H~ in (s, q); H~ is linear in q
    f_s, f_q = (1.5 * q / s - 0.5 * T) / s ** 1.5, -1.0 / s ** 1.5
    f_ss, f_sq = (0.75 * T - 3.75 * q / s) / s ** 2.5, 1.5 / s ** 2.5
    gsq = gs[..., :, None] * gq[..., None, :]
    D2 = (f_ss * gs[..., :, None] * gs[..., None, :]
          + f_sq * (gsq + np.swapaxes(gsq, -1, -2))
          + f_s * np.diag(2.0 * e ** 2) + f_q * np.diag(2.0 * e ** 3))
    A3, nu, B = ellipsoid_shape_operator(x, semiaxes)
    dn = np.sum((f_s[..., 0] * gs + f_q[..., 0] * gq) * nu, axis=-1)
    return np.swapaxes(B, -1, -2) @ (D2 - dn[..., None, None] * A3) @ B
