import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectra_bochner import geometry as geom, hypersurface as hyp
from spectra_bochner.errors import ConfigError, DegenerateImmersion, NotConvex

from oracles import q_polynomial


def gauss_intrinsic(hs, u, chart_idx=0):
    """Intrinsic curvature bundle from the Gauss equation (independent
    route to the chart curvature).

    Frame components: R_ijkl = kappa (d_ik d_jl - d_il d_jk)
    + A_ik A_jl - A_il A_jk (umbilic A = alpha I gives constant curvature
    kappa + alpha^2).
    """
    sd = hyp.shape_at(hs, u, chart_idx)
    n = hs.n
    d = np.eye(n)
    A = sd.A
    Rf = (hs.kappa * (np.einsum("ik,jl->ijkl", d, d)
                      - np.einsum("il,jk->ijkl", d, d))
          + np.einsum("ik,jl->ijkl", A, A) - np.einsum("il,jk->ijkl", A, A))
    ric = np.einsum("ikjk->ij", Rf)
    return geom.CurvatureBundle(g=sd.g, frame=sd.frame, riemann=Rf,
                                ricci=ric, scalar=np.trace(ric))


class TestShapeOperator:
    @pytest.mark.parametrize("r", [1.0, 2.0, 0.5])
    def test_round_sphere_umbilic(self, r):
        hs = hyp.sphere_surface(r=r)
        for ci in (0, 1):
            sd = hyp.shape_at(hs, np.array([0.3, -0.4]), ci)
            assert np.allclose(sd.A, np.eye(2) / r, atol=1e-9)
            assert sd.H == pytest.approx(2.0 / r, abs=1e-9)
            assert np.allclose(sd.P1, np.eye(2) / r, atol=1e-9)
            assert sd.S2 == pytest.approx(1.0 / r ** 2, abs=1e-9)

    def test_flip_normal_negates(self):
        hs = hyp.sphere_surface(r=1.0)
        sd = hyp.shape_at(hs.flipped(), np.array([0.2, 0.1]))
        assert sd.H == pytest.approx(-2.0, abs=1e-9)

    def test_ellipsoid_pole_curvatures(self):
        e = hyp.ellipsoid_surface(1.0, 1.0, 1.1)
        sd = hyp.shape_at(e, np.zeros(2), 1)  # maps to (0, 0, +c)
        assert np.allclose(sd.point, [0.0, 0.0, 1.1], atol=1e-12)
        # both principal curvatures c / a^2 at the pole of a spheroid
        assert np.allclose(sd.principal, [1.1, 1.1], atol=1e-9)

    def test_ellipsoid_matches_closed_form_everywhere(self):
        ax = [1.0, 1.3, 0.8]
        e = hyp.ellipsoid_surface(*ax)
        rng = np.random.default_rng(6)
        for ci, u in zip(*e.sample_points(25, rng)):
            sd = hyp.shape_at(e, u, ci)
            A3, nu, B = hyp.ellipsoid_shape_operator(sd.point, ax)
            lam = np.sort(np.linalg.eigvalsh(B.T @ A3 @ B))
            assert np.allclose(sd.principal, lam, atol=1e-7)
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
        cis, pts = hs.sample_points(50, np.random.default_rng(17))
        for ci in (0, 1):
            U = pts[cis == ci]
            assert U.shape == (25, 2)
            sd = hyp.shape_at(hs, U, ci)
            for k, u in enumerate(U):
                one = hyp.shape_at(hs, u, ci)
                for f in fields(sd):
                    stacked, single = getattr(sd, f.name), getattr(one, f.name)
                    assert stacked.shape[1:] == np.shape(single)
                    assert np.max(np.abs(stacked[k] - single)) <= 1e-12
            if semiaxes is None:  # umbilic, A = alpha I
                assert np.allclose(sd.A, 2.0 * np.eye(2), atol=1e-9)
                continue
            A3, _, B = hyp.ellipsoid_shape_operator(sd.point, semiaxes)
            lam = np.linalg.eigvalsh(np.swapaxes(B, -1, -2) @ A3 @ B)
            assert np.allclose(sd.principal, lam, atol=1e-7)

    def test_singular_metric_names_first_bad_point(self):
        # the unit sphere flattened onto z = 0 folds along |u| = 1
        chart = hyp.ImmersionChart(pole=1.0, ambient=np.diag([1.0, 1.0, 0.0]))
        hs = hyp.ImmersedHypersurface(n=2, kappa=0.0, charts=(chart,),
                                      orient_signs=(1.0,))
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
        man = hyp.induced_metric_manifold(hs, 0)
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


class TestPinchingConstants:
    def test_sphere(self):
        pc = hyp.pinching_constants(hyp.sphere_surface(1.0),
                                    geom.SamplePlan(points=40))
        assert pc.constant_H and pc.sigma == 0.0
        assert pc.alpha == pytest.approx(1.0, abs=1e-8)
        assert pc.a == pytest.approx(1.0, abs=1e-8)

    def test_ellipsoid(self):
        pc = hyp.pinching_constants(hyp.ellipsoid_surface(1.0, 1.0, 1.1),
                                    geom.SamplePlan(points=120))
        assert not pc.constant_H
        # principal curvatures of the spheroid range over [a/c^2, c/a^2];
        # sampled min sits slightly above the true equatorial minimum
        assert 1.0 / 1.1 ** 2 - 1e-9 <= pc.alpha < 0.84
        assert pc.a * pc.alpha <= 1.1 + 1e-9
        assert pc.sigma > 0.0

    def test_nonconvex_rejected(self):
        # inward-oriented sphere has negative principal curvatures
        hs = hyp.sphere_surface(1.0).flipped()
        with pytest.raises(NotConvex):
            hyp.pinching_constants(hs, geom.SamplePlan(points=10))

    def test_nonconvex_names_first_sample(self):
        # only chart 1 is inward, so sample 1 is the first offending one
        hs = hyp.sphere_surface(1.0)
        hs = replace(hs, orient_signs=(hs.orient_signs[0],
                                       -hs.orient_signs[1]))
        plan = geom.SamplePlan(points=10, seed=3)
        _, U = hs.sample_points(10, np.random.default_rng(3))
        first = U[1]
        with pytest.raises(NotConvex, match=re.escape(repr(first))):
            hyp.pinching_constants(hs, plan)

    def test_constants_pinned(self):
        # the constants of the whole-array sample stream of seed 42; sigma
        # is a nested finite difference of H and is held to 1e-6
        pc = hyp.pinching_constants(hyp.ellipsoid_surface(1.0, 1.0, 1.1),
                                    geom.SamplePlan(points=400, seed=42))
        assert pc.alpha == pytest.approx(
            float.fromhex("0x1.a7245d0e87415p-1"), rel=1e-14, abs=0.0)
        assert pc.a == pytest.approx(
            float.fromhex("0x1.511a440b3c38ep+0"), rel=1e-14, abs=0.0)
        assert pc.sigma == pytest.approx(
            float.fromhex("0x1.fefe4f0ddc88ap-2"), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("spec", ["ellipsoid:1,1,1.1",
                                      "ellipsoid:1,1.3,0.8"])
    def test_constants_match_point_by_point_pass(self, spec):
        # the batched pass against one shape_at call per sample point of
        # the same stream, whatever that stream is
        hs = hyp.parse_surface(spec)
        plan = geom.SamplePlan(points=400, seed=42)
        pc = hyp.pinching_constants(hs, plan)
        cis, U = hs.sample_points(plan.points,
                                  np.random.default_rng(plan.seed))
        lam = np.array([hyp.shape_at(hs, u, ci).principal
                        for ci, u in zip(cis, U)])
        alpha = float(np.min(lam[:, 0]))
        assert pc.alpha == pytest.approx(alpha, rel=1e-14, abs=0.0)
        assert pc.a == pytest.approx(float(np.max(lam[:, -1])) / alpha,
                                     rel=1e-14, abs=0.0)


class TestSamplePoints:
    @pytest.mark.parametrize("spec", ["sphere:r=2", "ellipsoid:1,1.3,0.8",
                                      "geodesic-sphere:kappa=1,alpha=2"])
    @pytest.mark.parametrize("count", [1, 7, 400])
    def test_charts_alternate_and_radii_in_range(self, spec, count):
        hs = hyp.parse_surface(spec)
        cis, U = hs.sample_points(count, np.random.default_rng(5))
        assert cis.shape == (count,) and U.shape == (count, hs.n)
        assert np.array_equal(cis, np.arange(count) % len(hs.charts))
        r = np.linalg.norm(U, axis=1)
        assert np.all(r >= np.sqrt(0.02) * (1.0 - 1e-15))
        assert np.all(r < 1.0)


class TestFieldsOnCharts:
    def test_div_p1_vanishes_on_space_form_umbilics(self):
        for name in ("sphere:r=1", "geodesic-sphere:kappa=1,alpha=2"):
            hs = hyp.parse_surface(name)
            man = hyp.induced_metric_manifold(hs, 0)
            P1 = hyp.newton1_field(hs, 0)
            geo = geom.point_geometry(man.chart(), np.array([0.3, -0.4]))
            d = geom.tensor_divergence(geo, P1)
            assert np.max(np.abs(d)) < 1e-8

    def test_induced_metric_manifold_is_sampled(self):
        # the induced chart is sampled in its box; the unit sphere has ric = g
        man = hyp.induced_metric_manifold(hyp.sphere_surface(1.0))
        ric = geom.min_ricci(man, geom.SamplePlan(points=4))
        assert ric == pytest.approx(1.0, abs=1e-4)

    def test_newton1_field_is_metric_on_unit_sphere(self):
        hs = hyp.sphere_surface(1.0)
        P1 = hyp.newton1_field(hs, 0)
        g = hyp.induced_metric_manifold(hs, 0).chart().metric
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
                                     "sphere:2"])
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
