"""Immersed hypersurfaces in space forms.

Fundamental forms, shape operator A, mean curvature H (trace convention,
H = sum of principal curvatures), Newton transformation P1 = H I - A and
the pinching constants (alpha, a, sigma) of ellipsoids in any dimension,
sigma sampled from a closed-form Hessian of H and alpha, a in closed form.

Each chart is the stereographic chart of S^n under an ambient affine map,
with closed-form jets to third order, so the induced metric and P1 have
closed-form partials (to orders 2 and 1).  Flat ambient (kappa = 0)
immersions map into R^{n+1}; kappa > 0 ambients are realized inside the
round sphere of radius 1/sqrt(kappa) in R^{n+2}, where the normal is
tangent to the sphere, so the cone direction drops out of h.  kappa < 0 is
supported analytically for umbilic data only, with no chart realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geom
from .errors import ConfigError, DegenerateImmersion


# ---------------------------------------------------------------------------
# immersion charts

@dataclass(frozen=True)
class ImmersionChart:
    """Stereographic chart of S^n composed with an ambient affine map.

    u -> ambient @ x(u) + offset, where x(u) in R^{n+1} is the unit sphere
    projected from its north pole (``geometry.stereographic_jets``) and
    ``ambient`` is a constant (m, n+1) matrix.
    """

    ambient: np.ndarray
    offset: float | np.ndarray = 0.0

    def jets(self, U, order):
        """Closed-form partials X, J, H2, H3 of orders 0..order (at most 3)
        at U (..., n): derivative axes first, e.g. H2 (..., n, n, m)."""
        X, *d = [j @ self.ambient.T for j in geom.stereographic_jets(U, order)]
        return [X + self.offset, *d]


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
        if not np.any(self.chart.offset) and B.shape == (3, 3) \
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
    """Shape data at a chart point; a stack of points adds leading axes."""

    A: np.ndarray          # symmetric shape operator in the orthonormal frame
    H: np.ndarray          # tr A (unnormalized mean curvature)
    P1: np.ndarray         # H I - A
    S2: np.ndarray         # sum_{i<j} h_i h_j = (H^2 - |A|^2)/2
    g: np.ndarray          # induced coordinate metric
    frame: np.ndarray      # orthonormal frame (columns, coordinates)
    h: np.ndarray          # second fundamental form, coordinate components
    nu: np.ndarray         # unit normal, turned to H > 0 (ambient)
    point: np.ndarray      # ambient position


def shape_at(hs, u):
    """Shape operator data at a chart point u (n,) or a stack u (..., n)."""
    return _shape(hs, u, 2)[0]


def _shape(hs, u, order):
    """(ShapeData, the chart's jets of orders 0..order >= 2) at u."""
    u = np.asarray(u, dtype=float)
    X, J, H2, *_ = jets = hs.chart.jets(u, order)
    g = J @ np.swapaxes(J, -1, -2)
    w = np.linalg.eigvalsh(g)
    bad = np.ravel(w[..., 0] <= 1e-12 * np.maximum(1.0, w[..., -1]))
    if bad.any():
        raise DegenerateImmersion("induced metric singular at %r"
                                  % (u.reshape(-1, hs.n)[np.argmax(bad)],))
    span = J
    if hs.kappa > 0.0:
        X1 = X / np.linalg.norm(X, axis=-1, keepdims=True)
        span = np.concatenate([J, X1[..., None, :]], axis=-2)
    nu = generalized_cross(span)
    nn = np.linalg.norm(nu, axis=-1, keepdims=True)
    if (nn == 0.0).any():
        raise DegenerateImmersion("immersion not regular at %r" % (
            u.reshape(-1, hs.n)[np.argmax(np.ravel(nn == 0.0))],))
    nu = hs.orient * nu / nn
    h = np.einsum("...abm,...m->...ab", H2, nu)
    E = geom.orthonormal_frame(g)
    A = np.swapaxes(E, -1, -2) @ h @ E
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    H = np.trace(A, axis1=-2, axis2=-1)
    return ShapeData(A=A, H=H, P1=H[..., None, None] * np.eye(hs.n) - A,
                     S2=0.5 * (H ** 2 - np.sum(A * A, axis=(-2, -1))),
                     g=g, frame=E, h=h, nu=nu, point=X), jets


# ---------------------------------------------------------------------------
# induced-metric chart views

def induced_metric_manifold(hs):
    """ChartManifold carrying the pullback metric g = J J^T of the chart,
    with its partials in closed form from the chart's jets:
    d_c g_ab = H2_ca . J_b + J_a . H2_cb and d_dc g_ab = T_dcab + T_dcba,
    T_dcab = H3_dca . J_b + H2_ca . H2_db."""
    chart = hs.chart

    def jets(u, order):
        _, J, *H = chart.jets(u, min(order, 2) + 1)
        Jt = np.swapaxes(J, -1, -2)
        out = [J @ Jt]
        if order >= 1:   # HJ[c, a, b] = H2_ca . J_b
            HJ = H[0] @ Jt[..., None, :, :]
            out.append(HJ + np.swapaxes(HJ, -1, -2))
        if order >= 2:
            T = (H[1] @ Jt[..., None, None, :, :] + H[0][..., None, :, :, :]
                 @ np.swapaxes(H[0], -1, -2)[..., :, None, :, :])
            out.append(T + np.swapaxes(T, -1, -2))
        return out

    g = geom.Field(jets, rank=2, name="induced")
    c = geom.Chart(lo=np.full(hs.n, -1.0), hi=np.full(hs.n, 1.0), metric=g)
    return geom.ChartManifold(dim=hs.n, charts=(c,),
                              atlas_kind=geom.ATLAS_CHART_PATCH,
                              name=(hs.name or "surface") + "-induced")


def newton1_field(hs):
    """P1 = H g - h as a coordinate (0,2) tensor field on the chart, with
    d_c P1 = d_c H g + H d_c g - d_c h in closed form.  The Weingarten
    equation d_c nu = -h_cd g^de J_e (for kappa > 0 too: nu is tangent to
    the ambient sphere) gives d_c h_ab = H3_cab . nu - h_cd g^de H2_ab . J_e,
    and d_c H = g^ab d_c h_ab - (g^-1 h g^-1)^ab d_c g_ab."""

    def jets(u, order):
        sd, (_, J, H2, *H3) = _shape(hs, u, 3 if order else 2)
        out = [sd.H[..., None, None] * sd.g - sd.h]
        if order >= 1:
            g_inv = np.linalg.inv(sd.g)
            S = sd.h @ g_inv                   # S[c, e] = h_cd g^de
            HJ = H2 @ np.swapaxes(J, -1, -2)[..., None, :, :]
            dg = HJ + np.swapaxes(HJ, -1, -2)
            dh = (np.einsum("...cabm,...m->...cab", H3[0], sd.nu)
                  - np.einsum("...ce,...abe->...cab", S, HJ))
            dH = (np.einsum("...ab,...cab->...c", g_inv, dh)
                  - np.einsum("...ab,...cab->...c", g_inv @ S, dg))
            out.append(dH[..., :, None, None] * sd.g[..., None, :, :]
                       + sd.H[..., None, None, None] * dg - dh)
        return out

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
    over the 2(n+1) vertices and SIGMA_POINTS normal draws seeded by
    ``seed``, put on the unit sphere and scaled by the semiaxes: a
    sampled value, which can fall below the true maximum.
    """
    d = _positive(*semiaxes)
    lo, hi = float(np.min(d)), float(np.max(d))
    constant_H = lo == hi
    sigma = 0.0
    if not constant_H:
        v = np.random.default_rng(seed).normal(size=(SIGMA_POINTS, len(d)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        points = np.concatenate([np.diag(d), -np.diag(d), v * d])
        w = np.linalg.eigvalsh(ellipsoid_mean_curvature_hessian(points, d))
        sigma = float(np.max(np.sum(w, axis=-1) - w[:, 0]))
    return PinchingConstants(alpha=lo / hi ** 2, a=(hi / lo) ** 3,
                             sigma=sigma, constant_H=constant_H)


# ---------------------------------------------------------------------------
# builders

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
    """Closed-form shape operator of an ellipsoid in R^{n+1} at an ambient
    point.

    Returns (A3, nu, B): the symmetric (n+1)x(n+1) operator acting on the
    tangent space (zero on the normal), the outward-pointing unit normal
    flipped to the H > 0 convention, and an (n+1)xn orthonormal tangent
    basis, the first n columns of the Householder reflection that maps nu
    to the last axis (up to sign).  ``point`` may be a (..., n+1) stack;
    the outputs then carry the same leading axes.
    """
    p = np.asarray(point, dtype=float)
    d = np.asarray(semiaxes, dtype=float)
    eye = np.eye(len(d))
    grad = p / d ** 2
    nrm = np.linalg.norm(grad, axis=-1)[..., None]
    nu = grad / nrm
    P = eye - nu[..., :, None] * nu[..., None, :]
    A3 = P @ np.diag(1.0 / d ** 2) @ P / nrm[..., None]
    # I - v v'/(1 + |nu_last|), v = nu + sign(nu_last) e_last: nu -> -+e_last
    v = nu + np.where(nu[..., -1:] < 0.0, -1.0, 1.0) * eye[-1]
    B = eye[:, :-1] - (v[..., :, None] * v[..., None, :-1]
                       / (1.0 + np.abs(nu[..., -1]))[..., None, None])
    return A3, nu, B


def ellipsoid_mean_curvature_hessian(point, semiaxes):
    """Closed-form intrinsic Hessian of H at ambient points of an ellipsoid.

    With e = 1/d^2, s = sum e_i^2 x_i^2 and q = sum e_i^3 x_i^2, the
    function H~ = sum(e) s^(-1/2) - q s^(-3/2) equals H on the surface, and
    Hess H = B^T (D^2 H~ - <grad H~, nu> A3) B in the tangent basis B of
    ``ellipsoid_shape_operator``.  ``point`` is (..., n+1); the result is
    (..., n, n).
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
