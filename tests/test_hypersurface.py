import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectra_bochner import geometry as geom, hypersurface as hyp
from spectra_bochner.errors import ConfigError, DegenerateImmersion

from oracles import q_polynomial


def gauss_intrinsic(hs, u):
    """Intrinsic curvature bundle from the Gauss equation (independent
    route to the chart curvature).

    Frame components: R_ijkl = kappa (d_ik d_jl - d_il d_jk)
    + A_ik A_jl - A_il A_jk (umbilic A = alpha I gives constant curvature
    kappa + alpha^2).
    """
    sd = hyp.shape_at(hs, u)
    n = hs.n
    d = np.eye(n)
    A = sd.A
    Rf = (hs.kappa * (np.einsum("ik,jl->ijkl", d, d)
                      - np.einsum("il,jk->ijkl", d, d))
          + np.einsum("ik,jl->ijkl", A, A) - np.einsum("il,jk->ijkl", A, A))
    ric = np.einsum("ikjk->ij", Rf)
    return geom.CurvatureBundle(g=sd.g, frame=sd.frame, riemann=Rf,
                                ricci=ric, scalar=np.trace(ric))


def both_hemispheres(count, rng):
    """Chart points in uniform directions at radii uniform on [0, 3): the
    unit disk maps to the southern half of the surface, the rest of the
    plane to the northern half."""
    v = rng.normal(size=(count, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return rng.uniform(0.0, 3.0, size=count)[:, None] * v


class TestShapeOperator:
    @pytest.mark.parametrize("r", [1.0, 2.0, 0.5])
    def test_round_sphere_umbilic(self, r):
        hs = hyp.sphere_surface(r=r)
        for u in ([0.3, -0.4], [1.8, -2.4]):   # south and north
            sd = hyp.shape_at(hs, np.array(u))
            assert np.allclose(sd.A, np.eye(2) / r, atol=1e-9)
            assert sd.H == pytest.approx(2.0 / r, abs=1e-9)
            assert np.allclose(sd.P1, np.eye(2) / r, atol=1e-9)
            assert sd.S2 == pytest.approx(1.0 / r ** 2, abs=1e-9)

    def test_ellipsoid_pole_curvatures(self):
        e = hyp.ellipsoid_surface(1.0, 1.0, 1.1)
        sd = hyp.shape_at(e, np.zeros(2))  # maps to (0, 0, -c)
        assert np.allclose(sd.point, [0.0, 0.0, -1.1], atol=1e-12)
        # both principal curvatures c / a^2 at the pole of a spheroid
        assert np.allclose(np.linalg.eigvalsh(sd.A), [1.1, 1.1], atol=1e-9)

    def test_ellipsoid_matches_closed_form_everywhere(self):
        ax = [1.0, 1.3, 0.8]
        e = hyp.ellipsoid_surface(*ax)
        U = both_hemispheres(25, np.random.default_rng(6))
        assert np.ptp(np.sign(hyp.shape_at(e, U).point[:, 2])) == 2.0
        for u in U:
            sd = hyp.shape_at(e, u)
            A3, nu, B = hyp.ellipsoid_shape_operator(sd.point, ax)
            lam = np.sort(np.linalg.eigvalsh(B.T @ A3 @ B))
            assert np.allclose(np.linalg.eigvalsh(sd.A), lam, atol=1e-7)
            # points satisfy the implicit equation
            q = sd.point / np.asarray(ax)
            assert float(q @ q) == pytest.approx(1.0, abs=1e-12)

    def test_geodesic_sphere_umbilic_in_curved_ambient(self):
        gs = hyp.geodesic_sphere_surface(kappa=1.0, alpha=2.0)
        sd = hyp.shape_at(gs, np.array([0.2, 0.6]))
        assert np.allclose(sd.A, 2.0 * np.eye(2), atol=1e-9)
        assert np.linalg.norm(sd.point) == pytest.approx(1.0, abs=1e-12)


class TestStackedShape:
    @pytest.mark.parametrize("spec,semiaxes", [
        ("sphere:r=2", (2.0, 2.0, 2.0)),
        ("ellipsoid:1,1.3,0.8", (1.0, 1.3, 0.8)),
        ("geodesic-sphere:kappa=1,alpha=2", None)])
    def test_stack_matches_points(self, spec, semiaxes):
        hs = hyp.parse_surface(spec)
        U = both_hemispheres(50, np.random.default_rng(17))
        sd = hyp.shape_at(hs, U)
        for k, u in enumerate(U):
            one = hyp.shape_at(hs, u)
            for f in fields(sd):
                stacked, single = getattr(sd, f.name), getattr(one, f.name)
                assert stacked.shape[1:] == np.shape(single)
                assert np.max(np.abs(stacked[k] - single)) <= 1e-12
        if semiaxes is None:  # umbilic, A = alpha I
            assert np.allclose(sd.A, 2.0 * np.eye(2), atol=1e-9)
            return
        A3, _, B = hyp.ellipsoid_shape_operator(sd.point, semiaxes)
        lam = np.linalg.eigvalsh(np.swapaxes(B, -1, -2) @ A3 @ B)
        assert np.allclose(np.linalg.eigvalsh(sd.A), lam, atol=1e-7)

    def test_singular_metric_names_first_bad_point(self):
        # the unit sphere flattened onto z = 0 folds along |u| = 1
        chart = hyp.ImmersionChart(ambient=np.diag([1.0, 1.0, 0.0]))
        hs = hyp.ImmersedHypersurface(n=2, kappa=0.0, chart=chart, orient=1.0)
        U = np.array([[0.3, 0.1], [1.0, 0.0], [0.0, 1.0]])
        hyp.shape_at(hs, U[0])
        with pytest.raises(DegenerateImmersion,
                           match=re.escape(repr(U[1]))):
            hyp.shape_at(hs, U)


class TestGaussEquation:
    def test_unit_sphere_intrinsic_curvature(self):
        hs = hyp.sphere_surface(r=1.0)
        cb = gauss_intrinsic(hs, np.array([0.3, -0.4]))
        assert cb.scalar == pytest.approx(2.0, abs=1e-9)

    def test_geodesic_sphere_curvature_is_kappa_plus_alpha2(self):
        gs = hyp.geodesic_sphere_surface(kappa=1.0, alpha=2.0)
        cb = gauss_intrinsic(gs, np.array([0.2, 0.6]))
        assert cb.scalar == pytest.approx(2.0 * (1.0 + 4.0), abs=1e-9)

    def test_cross_validate_against_chart_curvature(self):
        hs = hyp.sphere_surface(r=1.0)
        man = hyp.induced_metric_manifold(hs)
        u = np.array([0.3, -0.4])
        cb_gauss = gauss_intrinsic(hs, u)
        cb_chart = geom.curvature_at(man,
                                     geom.point_geometry(man.chart(), u))
        assert cb_gauss.scalar == pytest.approx(cb_chart.scalar, abs=1e-4)


class TestQPolynomial:
    @given(st.integers(min_value=2, max_value=6),
           st.floats(min_value=0.2, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_umbilic_closed_form(self, n, alpha, kappa):
        # Q(alpha I) = 2 (n-1)^2 alpha (alpha^2 + kappa) I
        Q = q_polynomial(alpha * np.eye(n), kappa)
        expect = 2.0 * (n - 1) ** 2 * alpha * (alpha ** 2 + kappa)
        assert np.allclose(Q, expect * np.eye(n), atol=1e-8 * max(1, abs(expect)))

    def test_accepts_shape_data(self):
        hs = hyp.sphere_surface(r=1.0)
        sd = hyp.shape_at(hs, np.array([0.1, 0.2]))
        Q = q_polynomial(sd, 0.0)
        assert np.allclose(Q, 2.0 * np.eye(2), atol=1e-8)


def principal_sweep(semiaxes, m=200):
    """Ambient points of a (theta, phi) grid over the ellipsoid whose
    angles include 0, pi/2, pi and 3 pi/2, so all six vertices are on it."""
    t = np.linspace(0.0, np.pi, m + 1)
    f = np.linspace(0.0, 2.0 * np.pi, 2 * m, endpoint=False)
    T, F = np.meshgrid(t, f, indexing="ij")
    x = np.stack([np.sin(T) * np.cos(F), np.sin(T) * np.sin(F), np.cos(T)],
                 axis=-1).reshape(-1, 3)
    return x * np.asarray(semiaxes)


def chart_hessian_of_H(hs, U):
    """Frame Hessian of H on a chart by the finite-difference route: H from
    ``shape_at`` as a value-only field, differentiated by ``scalar_jets``
    over the induced metric."""
    H = geom.Field(lambda u, order: [hyp.shape_at(hs, u).H])
    geo = geom.point_geometry(hyp.induced_metric_manifold(hs).chart(), U)
    return geom.scalar_jets(geo, H, 2)[2]


def tr_minus_min(hess):
    w = np.linalg.eigvalsh(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    return np.sum(w, axis=-1) - w[..., 0]


class TestPinchingConstants:
    def test_sphere(self):
        pc = hyp.pinching_constants((1.0, 1.0, 1.0), 42)
        assert pc.constant_H and pc.sigma == 0.0
        assert pc.alpha == 1.0 and pc.a == 1.0

    def test_constants_pinned(self):
        # alpha = 1/c^2 and a = c^3 in closed form; sigma of the spheroid
        # peaks on the equator, a vertex, at (c^2 - 1)(c^2 + 3)/c^6
        pc = hyp.pinching_constants((1.0, 1.0, 1.1), 42)
        assert not pc.constant_H
        assert pc.alpha == pytest.approx(1.0 / 1.21, rel=1e-15, abs=0.0)
        assert pc.a == pytest.approx(1.331, rel=1e-15, abs=0.0)
        assert pc.sigma == pytest.approx(0.21 * 4.21 / 1.1 ** 6, rel=1e-14,
                                         abs=0.0)

    @pytest.mark.parametrize("ax", [(1.0, 1.3, 0.8), (1.2, 1.0, 0.9),
                                    (1.0, 1.0, 1.1)])
    def test_alpha_a_are_principal_extremes(self, ax):
        # a dense vertex-and-umbilic sweep of the closed-form shape operator
        A3, _, B = hyp.ellipsoid_shape_operator(principal_sweep(ax), ax)
        lam = np.linalg.eigvalsh(np.swapaxes(B, -1, -2) @ A3 @ B)
        lo, hi = float(np.min(lam)), float(np.max(lam))
        pc = hyp.pinching_constants(ax, 42)
        assert pc.alpha == pytest.approx(lo, rel=1e-13, abs=0.0)
        assert pc.a == pytest.approx(hi / lo, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c", [1.02, 1.05, 1.1])
    def test_sigma_meridian_sweep(self, c):
        # the prolate closed form; it is negative for c < 1, where sigma is
        # not this formula, so oblate spheroids are not checked here
        t = np.linspace(0.0, np.pi, 4001)
        x = np.stack([np.sin(t), np.zeros_like(t), c * np.cos(t)], axis=-1)
        hess = hyp.ellipsoid_mean_curvature_hessian(x, (1.0, 1.0, c))
        expect = (c * c - 1.0) * (c * c + 3.0) / c ** 6
        assert float(np.max(tr_minus_min(hess))) == pytest.approx(
            expect, rel=1e-13, abs=0.0)
        assert hyp.pinching_constants((1.0, 1.0, c), 42).sigma == pytest.approx(
            expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("spec", ["ellipsoid:1,1,1.1",
                                      "ellipsoid:1,1.3,0.8",
                                      "ellipsoid:1.2,1,0.9"])
    def test_hessian_matches_chart_finite_differences(self, spec):
        hs = hyp.parse_surface(spec)
        U = hs.sample_points(10, np.random.default_rng(42))
        fd = tr_minus_min(chart_hessian_of_H(hs, U))
        closed = tr_minus_min(hyp.ellipsoid_mean_curvature_hessian(
            hyp.shape_at(hs, U).point, hs.semiaxes))
        scale = float(np.max(closed))
        assert np.max(np.abs(fd - closed)) <= 1e-5 * scale
        assert np.max(fd) == pytest.approx(scale, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("ax", [(1.0, 1.0, 0.0), (1.0, 1.0, -1.1),
                                    (-1.0, -1.0, -1.0)])
    def test_nonpositive_semiaxes_rejected(self, ax):
        with pytest.raises(ConfigError, match="must be positive"):
            hyp.pinching_constants(ax, 42)


class TestSamplePoints:
    @pytest.mark.parametrize("spec", ["sphere:r=2", "ellipsoid:1,1.3,0.8",
                                      "geodesic-sphere:kappa=1,alpha=2"])
    @pytest.mark.parametrize("count", [1, 7, 400])
    def test_charts_alternate_and_radii_in_range(self, spec, count):
        hs = hyp.parse_surface(spec)
        U = hs.sample_points(count, np.random.default_rng(5))
        assert U.shape == (count, hs.n)
        r = np.linalg.norm(U, axis=1)
        assert np.all(r >= np.sqrt(0.02) * (1.0 - 1e-15))
        assert np.all(r < 1.0)


class TestFieldsOnCharts:
    def test_div_p1_vanishes_on_space_form_umbilics(self):
        for name in ("sphere:r=1", "geodesic-sphere:kappa=1,alpha=2"):
            hs = hyp.parse_surface(name)
            man = hyp.induced_metric_manifold(hs)
            P1 = hyp.newton1_field(hs)
            geo = geom.point_geometry(man.chart(), np.array([0.3, -0.4]))
            d = geom.tensor_divergence(geo, P1)
            assert np.max(np.abs(d)) < 1e-8

    def test_induced_metric_manifold_is_sampled(self):
        # the induced chart is sampled in its box; the unit sphere has ric = g
        man = hyp.induced_metric_manifold(hyp.sphere_surface(1.0))
        ric = geom.min_ricci(man, points=4)
        assert ric == pytest.approx(1.0, abs=1e-4)

    def test_newton1_field_is_metric_on_unit_sphere(self):
        hs = hyp.sphere_surface(1.0)
        P1 = hyp.newton1_field(hs)
        g = hyp.induced_metric_manifold(hs).chart().metric
        u = np.array([0.25, 0.6])
        assert np.allclose(P1.comp(u), g.comp(u), atol=1e-10)


class TestParsing:
    def test_specs(self):
        assert hyp.parse_surface("sphere:r=2").name == "sphere:r=2"
        assert hyp.parse_surface("ellipsoid:1,1,1.1").name.startswith("ellip")
        gs = hyp.parse_surface("geodesic-sphere:kappa=1,alpha=2")
        assert gs.kappa == 1.0

    @pytest.mark.parametrize("bad", ["cube:1", "ellipsoid:1,2",
                                     "sphere:r=abc",
                                     "geodesic-sphere:kappa=-1,alpha=2",
                                     "sphere:radius=2", "ellipsoid:1,1",
                                     "ellipsoid:1,x,1", "ellipsoid:1,1,1,2",
                                     "geodesic-sphere:k=3", "sphere:r=nan",
                                     "sphere:2", "ellipsoid:1,1,0",
                                     "ellipsoid:1,1,-1.1", "sphere:r=0",
                                     "sphere:r=-1"])
    def test_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            hyp.parse_surface(bad)

    def test_semiaxes(self):
        assert hyp.parse_surface("sphere:r=2").semiaxes == (2.0, 2.0, 2.0)
        assert hyp.parse_surface("ellipsoid:1, 2,3").semiaxes == (1.0, 2.0,
                                                                  3.0)
        gs = hyp.parse_surface("geodesic-sphere:kappa=1,alpha=2")
        assert gs.semiaxes is None

    def test_generalized_cross(self):
        v = hyp.generalized_cross([[1, 0, 0], [0, 1, 0]])
        assert np.allclose(v, [0, 0, 1])
        w = hyp.generalized_cross([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert abs(abs(w[3]) - 1.0) < 1e-12 and np.allclose(w[:3], 0)
