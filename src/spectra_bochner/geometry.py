"""Chart-based intrinsic Riemannian geometry.

Metric jets, Christoffel symbols, curvature (Riemann, Ricci and scalar
curvature; the Ricci and Schouten tensor fields) and covariant derivatives
of scalar functions and symmetric 2-tensors, all evaluated pointwise in a
deterministic orthonormal frame.  The pointwise functions take one chart
point (n,) or a stack of points (..., n), by one code path, and return
arrays after the same leading axes.

Index conventions (fixed once, used everywhere):

* Riemann components satisfy ``R_ijkl = K (d_ik d_jl - d_il d_jk)`` on a
  constant-curvature space, so that ``ric_ij = sum_k R_ikjk`` and the round
  sphere has positive sectional curvature ``K(u, v) = R(u, v, u, v) / area^2``.
* Covariant derivatives put the derivative direction LAST:
  ``phi_ijk = (nabla_{e_k} phi)(e_i, e_j)`` and
  ``phi_ijkl = (nabla_{e_l} nabla_{e_k} phi)(e_i, e_j)``; hence the divergence
  of a symmetric tensor is ``sum_j phi_ijj``.
* Orthonormal frames come from Gram-Schmidt on the coordinate basis in fixed
  order, so all indexed quantities are reproducible.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigError, NonPositiveMetric, NonSymmetricCoefficient,
                     SchoutenUndefined)

DEFAULT_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# finite differences

def fd_derivative(fn, p, step):
    """Central-difference derivative of an array-valued function of points.

    ``p`` is a point (n,) or a stack (..., n), and ``fn`` maps a stack of
    points to the stack of its values; the 2n shifted copies of ``p`` go to
    ``fn`` in one call.  Returns an array of shape p.shape[:-1] + (n,) +
    shape(value); the axis after the point axes is the partial derivative
    direction.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    shifts = step * np.array([1.0, -1.0])[:, None, None] * np.eye(n)
    shifts = shifts.reshape((2, n) + (1,) * (p.ndim - 1) + (n,))
    vals = np.asarray(fn(p + shifts), dtype=float)
    return np.moveaxis((vals[0] - vals[1]) / (2.0 * step), 0, p.ndim - 1)


# ---------------------------------------------------------------------------
# fields

@dataclass(frozen=True)
class Field:
    """Smooth scalar (rank 0) or symmetric 2-tensor (rank 2) field on a chart.

    ``jets(p, order)`` maps chart points p (..., n) to the list of the
    plain partial derivatives of orders 0..k, for some k <= order, and
    computes only those.  The order-j entry has the j derivative axes
    FIRST after the point axes (jets[1][..., c, a, b] = d_c phi_ab).
    ``partials`` fills in every order above k; covariant derivatives with
    the paper-facing last-index convention are produced by
    ``scalar_jets`` and ``tensor_jets``.
    """

    jets: Callable[[np.ndarray, int], list]
    rank: int = 0
    fd_step: float = DEFAULT_FD_STEP
    name: str = "custom"

    def comp(self, p):
        """The values at the points p, as ``jets`` gives them."""
        return self.jets(p, 0)[0]

    def partials(self, p, order):
        """(value, d, d2[, d3]) up to ``order`` at a point or a stack.

        Values that ignore the point axes are broadcast over them, and a
        scalar's single-point value is a float.  Each order above the
        callback's own is a central difference of the order below, with
        step ``fd_step``, or at least 1e-4 for the highest order the
        identities take (a scalar's third partials, a tensor's second).
        A rank-2 value that is not symmetric raises
        NonSymmetricCoefficient naming the first such point.
        """
        p = np.asarray(p, dtype=float)
        n = p.shape[-1]

        def fit(v, q, k):
            return np.broadcast_to(np.asarray(v, dtype=float),
                                   q.shape[:-1] + (n,) * (self.rank + k))

        out = [fit(v, p, k) for k, v in enumerate(self.jets(p, order))]
        top = len(out) - 1
        last = 3 if self.rank == 0 else 2
        fn = lambda q: fit(self.jets(q, top)[top], q, top)
        for k in range(top + 1, order + 1):
            step = self.fd_step if k < last else max(self.fd_step, 1e-4)
            fn = functools.partial(fd_derivative, fn, step=step)
            out.append(fn(p))
        if self.rank == 0:
            out[0] = out[0][()]
        else:
            m = out[0]
            scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
            asym = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1))
            bad = np.ravel(asym > 1e-12 * scale)
            if bad.any():
                raise NonSymmetricCoefficient(
                    "tensor field components are not symmetric at %r"
                    % (_point(p, np.argmax(bad)),))
        return tuple(out)


def _point(p, k):
    """Point k of the stack p (..., n), counted in C order."""
    p = np.asarray(p, dtype=float)
    return p.reshape(-1, p.shape[-1])[k]


# ---------------------------------------------------------------------------
# charts and manifolds

ATLAS_PERIODIC_BOX = "PeriodicBox"
ATLAS_ANALYTIC_SPHERE = "AnalyticSphere"
# one coordinate patch of a larger manifold (e.g. a chart of an immersed
# hypersurface), sampled like a periodic box: uniformly in [lo, hi]
ATLAS_CHART_PATCH = "ChartPatch"


@dataclass(frozen=True)
class Chart:
    """Rectangular coordinate chart carrying the metric as a tensor field."""

    lo: np.ndarray
    hi: np.ndarray
    metric: Field

    @property
    def dim(self):
        return len(self.lo)


@dataclass(frozen=True)
class ChartManifold:
    """Compact manifold realized through one or more analytic charts."""

    dim: int
    charts: Sequence[Chart]
    atlas_kind: str
    constant_curvature: Optional[float] = None  # set for AnalyticSphere
    name: str = ""

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("manifold dimension must be >= 2")

    def chart(self):
        return self.charts[0]

    def sample_points(self, count, rng):
        """Draw count >= 1 points covering the manifold (chart 0) or patch."""
        if count < 1:
            raise ConfigError("sample count must be at least 1, got %r"
                              % count)
        c = self.chart()
        if self.atlas_kind in (ATLAS_PERIODIC_BOX, ATLAS_CHART_PATCH):
            return rng.uniform(c.lo, c.hi, size=(count, self.dim))
        if self.atlas_kind == ATLAS_ANALYTIC_SPHERE:
            # Uniform ambient directions mapped through stereographic
            # projection; the cap near the missing pole is excluded.
            pts = []
            while len(pts) < count:
                u = rng.normal(size=self.dim + 1)
                u /= np.linalg.norm(u)
                if u[-1] > 0.8:
                    continue
                pts.append(u[:-1] / (1.0 - u[-1]))
            return np.reshape(pts, (count, self.dim))
        raise ConfigError("no sampling strategy for atlas kind %r" % self.atlas_kind)


# ---------------------------------------------------------------------------
# pointwise metric machinery

def metric_jets(chart, p, order=2):
    """(g, dg[, d2g]) at the points p; names the first point where g is
    not positive definite."""
    g, *rest = chart.metric.partials(p, order)
    w = np.ravel(np.linalg.eigvalsh(g)[..., 0])
    if (w <= 0.0).any():
        k = np.argmax(w <= 0.0)
        raise NonPositiveMetric("metric not positive definite at %r (min eig %g)"
                                % (_point(p, k), w[k]))
    return (g, *rest)


def orthonormal_frame(g):
    """Gram-Schmidt of the coordinate basis w.r.t. g, deterministic order.

    g may be a (..., n, n) stack.  Returns E with columns the frame vectors:
    E.T @ g @ E = I.
    """
    g = np.asarray(g, dtype=float)
    E = np.zeros(g.shape)
    for i in range(g.shape[-1]):
        v = np.zeros(g.shape[:-1])
        v[..., i] = 1.0
        for j in range(i):
            v = v - (E[..., None, :, j] @ g @ v[..., None])[..., 0] * E[..., j]
        E[..., i] = v / np.sqrt(v[..., None, :] @ g @ v[..., None])[..., 0]
    return E


def _to_frame(T, E):
    """Frame components T_ij.. = sum T_ab.. E_ai E_bj .. of the trailing
    coordinate axes of T, for frames E (..., n, n).

    One axis is rotated per step (a matrix product with E, after which the
    new frame axis moves to the front), so a rank-r tensor costs r products
    of n^r work each instead of one n^(2r) sum.
    """
    lead, n = E.shape[:-2], E.shape[-1]
    L, r = len(lead), T.ndim - len(lead)
    front = tuple(range(L)) + (L + r - 1,) + tuple(range(L, L + r - 1))
    for _ in range(r):
        T = (T.reshape(lead + (n ** (r - 1), n)) @ E).reshape(
            T.shape).transpose(front)
    return T


def _lowered(dg):
    """low[..., d, a, b] = 0.5 (d_a g_db + d_b g_da - d_d g_ab) over the
    last three axes of dg (dg[..., c, a, b] = d_c g_ab)."""
    t = dg.swapaxes(-3, -2)   # t[d, a, b] = d_a g_db
    return 0.5 * (t + t.swapaxes(-2, -1) - dg)


def christoffel(g_inv, dg):
    """Gamma[..., c, a, b] = 0.5 g^{cd} (d_a g_db + d_b g_da - d_d g_ab)."""
    return np.einsum("...cd,...dab->...cab", g_inv, _lowered(dg))


def christoffel_derivative(g, g_inv, dg, d2g):
    """dGamma[..., e, c, a, b] = d_e Gamma^c_ab."""
    dg_inv = -np.einsum("...cm,...emn,...nd->...ecd", g_inv, dg, g_inv)
    return (np.einsum("...ecd,...dab->...ecab", dg_inv, _lowered(dg))
            + np.einsum("...cd,...edab->...ecab", g_inv, _lowered(d2g)))


def riemann_lowered(g, Gamma, dGamma):
    """Coordinate Riemann components in the package convention.

    R[..., a, b, c, d] with constant-curvature model K (g_ac g_bd - g_ad g_bc);
    contraction g^{bd} R[a, b, c, d] ... is handled by callers in frame form.
    """
    # R^e_{cab} of the Levi-Civita connection
    Rup = (np.einsum("...aebc->...ecab", dGamma)
           - np.einsum("...beac->...ecab", dGamma)
           + np.einsum("...eaf,...fbc->...ecab", Gamma, Gamma)
           - np.einsum("...ebf,...fac->...ecab", Gamma, Gamma))
    Rstd = np.einsum("...de,...ecab->...abcd", g, Rup)
    # Sign fixed so the round sphere gives R[a,b,c,d] ~ K (g_ac g_bd - g_ad g_bc)
    return -Rstd


@dataclass(frozen=True)
class PointGeometry:
    """Metric data at a chart point or a stack of points, shared by every
    jet and curvature query there: g, the orthonormal frame (columns), the
    Christoffel symbols Gamma[c, a, b] and their derivatives
    dGamma[e, c, a, b] = d_e Gamma^c_ab, each after the point axes of p."""

    p: np.ndarray
    g: np.ndarray
    frame: np.ndarray
    Gamma: np.ndarray
    dGamma: np.ndarray


def point_geometry(chart, p):
    """Build the geometry of ``chart`` at ``p`` (n,) or (..., n) from one
    metric jet."""
    p = np.asarray(p, dtype=float)
    g, dg, d2g = metric_jets(chart, p, 2)
    g_inv = np.linalg.inv(g)
    return PointGeometry(p=p, g=g, frame=orthonormal_frame(g),
                         Gamma=christoffel(g_inv, dg),
                         dGamma=christoffel_derivative(g, g_inv, dg, d2g))


# ---------------------------------------------------------------------------
# curvature bundle

@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data in the deterministic orthonormal frame, at one point
    or, with leading point axes on every field, at a stack of points."""

    g: np.ndarray                  # coordinate metric at the point
    frame: np.ndarray              # columns = frame vectors (coordinates)
    riemann: np.ndarray            # frame R_ijkl
    ricci: np.ndarray              # frame ric_ij
    scalar: np.ndarray             # R = tr ric


def curvature_at(m, geo):
    """Curvature bundle of m at the point(s) of ``geo``."""
    n = m.dim
    g, E = geo.g, geo.frame
    if m.atlas_kind == ATLAS_ANALYTIC_SPHERE:
        K = m.constant_curvature
        d = np.eye(n)
        Rf = K * (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d))
        Rf = np.broadcast_to(Rf, g.shape[:-2] + Rf.shape)
    else:
        Rf = _to_frame(riemann_lowered(g, geo.Gamma, geo.dGamma), E)
    ric = np.einsum("...ikjk->...ij", Rf)
    return CurvatureBundle(g=g, frame=E, riemann=Rf, ricci=ric,
                           scalar=np.trace(ric, axis1=-2, axis2=-1))


# ---------------------------------------------------------------------------
# covariant jets of fields

def scalar_jets(geo, f, order=2):
    """Frame covariant derivatives of f at the point(s) of ``geo``.

    Returns (value, f_i, f_ij[, f_ijk]), each after the point axes; the
    LAST frame index is the outermost covariant-derivative direction.
    """
    parts = f.partials(geo.p, order)
    Gamma, E = geo.Gamma, geo.frame
    val, df = parts[0], parts[1]
    out = [val, _to_frame(df, E)]
    if order >= 2:
        d2f = parts[2]
        H = d2f - np.einsum("...cab,...c->...ab", Gamma, df)
        out.append(_to_frame(H, E))
    if order >= 3:
        d3f = parts[3]
        dH = (d3f - np.einsum("...ecab,...c->...eab", geo.dGamma, df)
              - np.einsum("...cab,...ec->...eab", Gamma, d2f))
        T3 = (dH - np.einsum("...cea,...cb->...eab", Gamma, H)
              - np.einsum("...ceb,...ac->...eab", Gamma, H))
        out.append(_to_frame(np.einsum("...cab->...abc", T3), E))
    return tuple(out)


def tensor_jets(geo, phis, order=1):
    """Frame covariant derivatives of the symmetric 2-tensor fields
    ``phis`` (a list) at the point(s) of ``geo``.

    Returns (phi_ij[, phi_ijk[, phi_ijkl]]), each with one leading axis
    over ``phis`` and then the point axes; derivative indices come last,
    with phi_ijkl = (nabla_l nabla_k phi)(e_i, e_j).  Each field's partials
    are taken (and checked symmetric) on their own; the Christoffel
    corrections and the frame rotation then run once on their stack.
    """
    parts = [np.stack(d) for d in zip(*(phi.partials(geo.p, order)
                                        for phi in phis))]
    Gamma, E = geo.Gamma, geo.frame
    # _to_frame takes the frame's leading axes for the tensor's
    E = np.broadcast_to(E, (len(phis),) + E.shape)
    ph = parts[0]
    out = [_to_frame(ph, E)]
    if order >= 1:
        dph = parts[1]
        T1 = (dph - np.einsum("...eca,...eb->...cab", Gamma, ph)
              - np.einsum("...ecb,...ae->...cab", Gamma, ph))
        out.append(_to_frame(np.einsum("...cab->...abc", T1), E))
    if order >= 2:
        d2ph = parts[2]
        dGamma = geo.dGamma
        dT1 = (d2ph
               - np.einsum("...deca,...eb->...dcab", dGamma, ph)
               - np.einsum("...eca,...deb->...dcab", Gamma, dph)
               - np.einsum("...decb,...ae->...dcab", dGamma, ph)
               - np.einsum("...ecb,...dae->...dcab", Gamma, dph))
        T2 = (dT1
              - np.einsum("...edc,...eab->...dcab", Gamma, T1)
              - np.einsum("...eda,...ceb->...dcab", Gamma, T1)
              - np.einsum("...edb,...cae->...dcab", Gamma, T1))
        out.append(_to_frame(np.einsum("...dcab->...abcd", T2), E))
    return tuple(out)


def tensor_divergence(geo, phi):
    """(div phi)_i = sum_j phi_ijj in the orthonormal frame."""
    _, (T1,) = tensor_jets(geo, [phi], 1)
    return np.einsum("...ijj->...i", T1)


# ---------------------------------------------------------------------------
# curvature extremum sampling

# random planes per sample point of min_sectional
SECTIONAL_PLANES = 8


def min_sectional(m, points=200, seed=42):
    """Sampled lower bound K0 of the sectional curvature: the least frame
    R_ijij and R(u, v, u, v) over SECTIONAL_PLANES orthonormal pairs per
    point, the QR factors of one normal draw after the points."""
    if m.atlas_kind == ATLAS_ANALYTIC_SPHERE:
        return float(m.constant_curvature)
    rng = np.random.default_rng(seed)
    pts = m.sample_points(points, rng)
    n = m.dim
    Rf = curvature_at(m, point_geometry(m.chart(), pts)).riemann
    i, j = np.triu_indices(n, 1)
    Q, _ = np.linalg.qr(rng.normal(size=(len(pts), SECTIONAL_PLANES, n, 2)))
    u, v = Q[..., 0], Q[..., 1]
    sampled = np.einsum("pijkl,psi,psj,psk,psl->ps", Rf, u, v, u, v)
    return float(min(np.min(Rf[:, i, j, i, j]), np.min(sampled)))


def min_ricci(m, points=200, seed=42):
    """Sampled lower bound L0 of the Ricci curvature (least eigenvalue)."""
    if m.atlas_kind == ATLAS_ANALYTIC_SPHERE:
        return float((m.dim - 1) * m.constant_curvature)
    rng = np.random.default_rng(seed)
    pts = m.sample_points(points, rng)
    ric = curvature_at(m, point_geometry(m.chart(), pts)).ricci
    return float(np.min(np.linalg.eigvalsh(ric)[:, 0]))


# ---------------------------------------------------------------------------
# derived tensor fields

def metric_field(m):
    return m.chart().metric


def _coordinate_ricci(b):
    """Coordinate components of the frame Ricci tensor of a bundle."""
    Einv = np.linalg.inv(b.frame)
    return np.swapaxes(Einv, -1, -2) @ b.ricci @ Einv


def _curvature_field(m, name, fd_step, sphere_coef, of_bundle):
    """The symmetric tensor field ``of_bundle(b)`` of the curvature bundle
    b: on the analytic sphere ``sphere_coef(n, K)`` times the metric, on
    any other manifold read off the bundle at each point (partials by FD
    of the components)."""
    if m.atlas_kind == ATLAS_ANALYTIC_SPHERE:
        return scale_tensor_field(metric_field(m),
                                  sphere_coef(m.dim, m.constant_curvature),
                                  name=name)
    chart = m.chart()
    return Field(lambda p, order: [of_bundle(curvature_at(
        m, point_geometry(chart, p)))], rank=2, fd_step=fd_step, name=name)


def ricci_tensor_field(m, fd_step=1e-4):
    """Ricci as a coordinate tensor field."""
    return _curvature_field(m, "ricci", fd_step, lambda n, K: (n - 1) * K,
                            _coordinate_ricci)


def scale_tensor_field(phi, c, name=None):
    c = float(c)
    return Field(lambda p, order: [c * np.asarray(v, dtype=float)
                                   for v in phi.jets(p, order)],
                 rank=phi.rank, fd_step=phi.fd_step, name=name or phi.name)


def schouten_tensor_field(m, fd_step=1e-4, formal=False):
    """S = ric - R/(2(n-1)) g; requires n >= 3 unless formal=True."""
    n = m.dim
    if n < 3 and not formal:
        raise SchoutenUndefined("Schouten tensor needs n >= 3")
    return _curvature_field(
        m, "schouten", fd_step, lambda n, K: (n - 2) / 2.0 * K,
        lambda b: (_coordinate_ricci(b)
                   - (b.scalar / (2.0 * (n - 1)))[..., None, None] * b.g))


def divergence_identity_suite(m, samples=20, seed=7, fd_step=1e-4):
    """Pointwise defects of the contracted Bianchi identities at sampled
    points, read off one order-1 jet of the Ricci field (div P1 is checked
    in the hypersurface module):

    * item 1, div(ric - c g) = div ric = 0 for constant R (any constant c,
      as nabla g = 0);
    * item 2, div((R/2) g - ric) = grad R / 2 - div ric = 0, the Einstein
      tensor, with grad R = sum_i ric_iik since the trace commutes with
      nabla;
    * item 5, div S = (n-2)/(2(n-1)) grad R for the Schouten field S of the
      Bochner suites (formal when n == 2), from S's own jet.

    Returns a JSON-friendly dict of max defects with hypothesis flags.
    """
    rng = np.random.default_rng(seed)
    pts = m.sample_points(samples, rng)
    n = m.dim
    geo = point_geometry(m.chart(), pts)
    (ric,), (T1,) = tensor_jets(geo, [ricci_tensor_field(m, fd_step)], 1)
    Rs = np.trace(ric, axis1=-2, axis2=-1)
    gradR = np.einsum("...iik->...k", T1)
    div_ric = np.einsum("...ijj->...i", T1)

    r_spread = float(np.max(Rs) - np.min(Rs))
    r_scale = max(1.0, float(np.max(np.abs(Rs))))
    r_constant = r_spread <= 1e-6 * r_scale

    report = {"manifold": m.name or m.atlas_kind, "n": n,
              "R_constant": bool(r_constant), "R_spread": r_spread}
    if r_constant:
        report["item1_div_ric_minus_cI"] = float(np.max(np.abs(div_ric)))
    else:
        report["item1_div_ric_minus_cI"] = None
        report["item1_flag"] = "R_not_constant"
    report["item2_div_einstein"] = float(
        np.max(np.abs(0.5 * gradR - div_ric)))
    S = schouten_tensor_field(m, fd_step, formal=True)
    coef = (n - 2) / (2.0 * (n - 1))
    report["item5_div_schouten"] = float(
        np.max(np.abs(tensor_divergence(geo, S) - coef * gradR)))
    return report


# ---------------------------------------------------------------------------
# built-in manifolds

def _const_metric_field(n):
    jets = [np.eye(n), np.zeros((n, n, n)), np.zeros((n, n, n, n))]
    return Field(lambda p, order: jets[:order + 1], rank=2, name="flat")


def flat_torus(n=2, lengths=None):
    lengths = np.full(n, 2.0 * np.pi) if lengths is None else np.asarray(lengths, float)
    chart = Chart(lo=np.zeros(n), hi=lengths, metric=_const_metric_field(n))
    return ChartManifold(dim=n, charts=(chart,), atlas_kind=ATLAS_PERIODIC_BOX,
                         name="torus%d" % n)


def perturbed_torus(n=2, eps=0.1, L=2.0 * np.pi):
    """g = (1 + eps sin(2 pi x1 / L)) * delta on the L-periodic box [0, L)^n."""
    k = 2.0 * np.pi / L   # exactly 1.0 for the default period

    eye = np.eye(n)

    def jets(p, order):
        x = k * p[..., 0]
        out = [(1.0 + eps * np.sin(x))[..., None, None] * eye]
        if order >= 1:
            d = np.zeros(p.shape[:-1] + (n, n, n))
            d1 = eps * k * np.cos(x)
            d[..., 0, :, :] = d1[..., None, None] * eye
            out.append(d)
        if order >= 2:
            d = np.zeros(p.shape[:-1] + (n, n, n, n))
            d2 = -eps * k ** 2 * np.sin(x)
            d[..., 0, 0, :, :] = d2[..., None, None] * eye
            out.append(d)
        return out

    g = Field(jets, rank=2, name="perturbed")
    chart = Chart(lo=np.zeros(n), hi=np.full(n, float(L)), metric=g)
    return ChartManifold(dim=n, charts=(chart,), atlas_kind=ATLAS_PERIODIC_BOX,
                         name="perturbed-torus%d" % n)


def _radial_scalar_jets(wd, x, order):
    """Partials of orders 0..order (at most 3) of F(x) = w(|x|^2) at the
    points x (..., n), w's s-derivatives as ``_inv_power_derivs`` pairs."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.shape[-1])
    q = 1.0 + np.einsum("...a,...a->...", x, x)
    w = [c / q ** p for c, p in wd[:order + 1]]
    xx = x[..., :, None] * x[..., None, :]
    out = [w[0]]
    if order >= 1:
        out.append(2.0 * w[1][..., None] * x)
    if order >= 2:
        out.append(4.0 * w[2][..., None, None] * xx
                   + 2.0 * w[1][..., None, None] * eye)
    if order >= 3:   # T[a, b, c] = delta_ab x_c; S[a, b, c] = T[a, c, b]
        T = eye[:, :, None] * x[..., None, None, :]
        S = T.swapaxes(-1, -2)
        out.append(8.0 * w[3][..., None, None, None]
                   * (xx[..., None] * x[..., None, None, :])
                   + 4.0 * w[2][..., None, None, None]
                   * (T + S + S.swapaxes(-2, -3)))
    return out


def _inv_power_derivs(coef, power):
    """[(c_k, p_k)], k = 0..3: d^k/ds^k coef/(1+s)^power = c_k/(1+s)^p_k."""
    out = [(coef, power)]
    for k in range(3):
        out.append((out[-1][0] * -(power + k), power + k + 1))
    return out


def round_sphere(n=4, K=1.0):
    """Round n-sphere of constant curvature K, stereographic chart.

    Metric g = (4/K) / (1 + |x|^2)^2 * delta.  Closed-form curvature is used
    for all curvature queries (the chart never needs finite differences).
    """
    wd = _inv_power_derivs(4.0 / K, 2.0)
    eye = np.eye(n)
    g = Field(lambda p, order: [v[..., None, None] * eye for v in
                                _radial_scalar_jets(wd, p, order)],
              rank=2, name="sphere-metric")
    chart = Chart(lo=np.full(n, -np.inf), hi=np.full(n, np.inf), metric=g)
    return ChartManifold(dim=n, charts=(chart,), atlas_kind=ATLAS_ANALYTIC_SPHERE,
                         constant_curvature=float(K), name="sphere%d" % n)


def stereographic_jets(U, order):
    """Partials of orders 0..order (at most 3) of the stereographic chart
    x(u) = (2u, |u|^2 - 1) / (1 + |u|^2) of the unit n-sphere in R^{n+1}
    (from the north pole: u = 0 is the south pole, |u| = 1 the equator) at
    the points U (..., n), derivative axes first and the ambient axis last:
    (..., n, n, n+1) at order 2.  As x = e + w(|u|^2) v, w(s) = 2/(1+s),
    v = (u, -1) and e the last axis, each partial is a Leibniz sum of w's
    jets and d_c v = E_c, row c of E = [I | 0]."""
    U = np.asarray(U, dtype=float)
    n = U.shape[-1]
    E = np.eye(n, n + 1)
    v = np.concatenate([U, np.full(U.shape[:-1] + (1,), -1.0)], axis=-1)
    w = _radial_scalar_jets(_inv_power_derivs(2.0, 1.0), U, order)
    out = [w[0][..., None] * v]
    out[0][..., n] += 1.0
    if order >= 1:
        out.append(E * w[0][..., None, None]
                   + w[1][..., :, None] * v[..., None, :])
    if order >= 2:   # T[c, d] = E_c d_d w
        T = E[:, None, :] * w[1][..., None, :, None]
        out.append(T + T.swapaxes(-2, -3)
                   + w[2][..., None] * v[..., None, None, :])
    if order >= 3:   # T[c, d, e] = E_c d_de w; S[c, d, e] = T[d, c, e]
        T = E[:, None, None, :] * w[2][..., None, :, :, None]
        S = T.swapaxes(-3, -4)
        out.append(T + S + S.swapaxes(-2, -3)
                   + w[3][..., None] * v[..., None, None, None, :])
    return out


def sphere_coordinate_field(m, axis):
    """Restriction of the ambient coordinate X_axis, axis in 0..m.dim, to
    the sphere chart: component ``axis`` of ``stereographic_jets``.

    These are the first nonconstant eigenfunctions: Delta X = -n K X.
    """
    if not 0 <= axis <= m.dim:
        raise ConfigError("sphere coordinate axis must be in 0..%d, got %r"
                          % (m.dim, axis))
    return Field(lambda p, order: [d[..., axis]
                                   for d in stereographic_jets(p, order)])


def trig_field(wavevec, phase=0.0):
    """cos(k . x + phase) with closed-form partials of all orders."""
    k = np.asarray(wavevec, dtype=float)
    kpow = [1.0, k, np.outer(k, k), np.einsum("a,b,c->abc", k, k, k)]

    def jets(p, order):
        arg = np.asarray(p, dtype=float) @ k + phase
        return [np.multiply.outer(np.cos(arg + j * np.pi / 2.0), kj)
                for j, kj in enumerate(kpow[:order + 1])]

    return Field(jets)


def random_spd_trig_tensor(n, seed=0):
    """Random smooth SPD tensor field: constant SPD part plus entrywise waves.

    The constant part dominates the oscillation so positivity holds globally.
    Entry ab oscillates along an integer wave vector (the upper triangle's,
    mirrored), so the field is 2 pi-periodic in every coordinate.
    """
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(n, n))
    C = L @ L.T + n * np.eye(n)
    amp = 0.2 * rng.uniform(0.2, 1.0, size=(n, n))
    amp = 0.5 * (amp + amp.T)
    kvec = rng.integers(1, 3, size=(n, n, n)).astype(float)
    upper = np.triu(np.ones((n, n), dtype=bool))[:, :, None]
    kvec = np.where(upper, kvec, kvec.transpose(1, 0, 2))
    ph = rng.uniform(0, 2 * np.pi, size=(n, n))
    ph = 0.5 * (ph + ph.T)

    def jets(p, order):
        arg = np.einsum("abc,...c->...ab", kvec, np.asarray(p, float)) + ph
        out = [C + amp * np.cos(arg)]
        if order >= 1:
            out.append(np.einsum("...ab,abc->...cab",
                                 amp * np.cos(arg + np.pi / 2.0), kvec))
        if order >= 2:
            out.append(np.einsum("...ab,abc,abd->...dcab",
                                 amp * np.cos(arg + np.pi), kvec, kvec))
        return out

    return Field(jets, rank=2, name="random-spd")


# ---------------------------------------------------------------------------
# spec-string parsing

def spec_float(val):
    """A finite float from a spec value."""
    if not math.isfinite(x := float(val)):
        raise ValueError("%r is not a finite number" % val)
    return x


def parse_spec(spec, grammar, what):
    """Build what a spec string 'head:v1,v2,key=value' names.

    ``grammar`` maps a regular expression for the head to (count, keys,
    build).  build gets the head's groups, ``count`` positional
    ``spec_float``s and the keys as keywords, each value through its
    converter in ``keys``.  Whitespace is ignored.  Anything else, or a
    ValueError from a converter or build, raises ConfigError naming the
    spec.
    """
    head, _, rest = "".join(spec.split()).partition(":")
    for pattern, (count, keys, build) in grammar.items():
        if match := re.fullmatch(pattern, head):
            break
    else:
        raise ConfigError("unknown %s spec %r" % (what, spec))
    values, opts = [], {}
    try:
        for item in rest.split(",") if rest else []:
            key, eq, val = item.partition("=")
            if not eq:
                values.append(spec_float(item))
            elif key in keys and key not in opts:
                opts[key] = keys[key](val)
            else:
                raise ValueError("unknown or repeated key %r" % key)
        if len(values) != count:
            raise ValueError("%d positional values, expected %d"
                             % (len(values), count))
        return build(*match.groups(), *values, **opts)
    except (ValueError, ZeroDivisionError, ConfigError) as exc:
        raise ConfigError("bad %s spec %r: %s" % (what, spec, exc)) from exc


def _spec_torus(n, L=2.0 * np.pi, perturb=None, eps=None):
    n = int(n)
    if perturb == "sin":
        return perturbed_torus(n=n, eps=0.1 if eps is None else eps, L=L)
    if perturb is not None or eps is not None:
        raise ValueError("perturb takes sin only, and eps needs perturb=sin")
    return flat_torus(n=n, lengths=np.full(n, L))


MANIFOLD_GRAMMAR = {
    r"torus(\d+)": (0, {"L": spec_float, "perturb": str, "eps": spec_float},
                    _spec_torus),
    "sphere": (0, {"n": int, "K": spec_float},
               lambda n=2, K=1.0: round_sphere(n=n, K=K)),
}


def parse_manifold(spec):
    """Build the manifold of a spec: 'torusN:L=,perturb=sin,eps=' (the flat
    N-torus of period L, or with perturb=sin the conformally perturbed one)
    or 'sphere:n=,K=' (the round n-sphere of curvature K)."""
    return parse_spec(spec, MANIFOLD_GRAMMAR, "manifold")
