import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectra_bochner import geometry as geom, hypersurface as hyp
from spectra_bochner.errors import (ConfigError, NonPositiveMetric,
                                    SchoutenUndefined)


def frame_riemann_constant_curvature(n, K):
    d = np.eye(n)
    return K * (np.einsum("ik,jl->ijkl", d, d)
                - np.einsum("il,jk->ijkl", d, d))


class TestCurvature:
    def test_flat_torus_curvature_vanishes(self):
        m = geom.flat_torus(2)
        cb = geom.curvature_at(
            m, geom.point_geometry(m.chart(), np.array([0.3, 1.1])))
        assert np.max(np.abs(cb.riemann)) < 1e-12
        assert abs(cb.scalar) < 1e-12

    @pytest.mark.parametrize("n,K", [(2, 1.0), (3, 1.0), (4, 2.0), (5, 0.5)])
    def test_round_sphere_frame_components(self, n, K):
        m = geom.round_sphere(n, K)
        p = np.full(n, 0.21)
        cb = geom.curvature_at(m, geom.point_geometry(m.chart(), p))
        assert np.allclose(cb.riemann,
                           frame_riemann_constant_curvature(n, K), atol=1e-10)
        assert np.allclose(cb.ricci, (n - 1) * K * np.eye(n), atol=1e-10)
        assert abs(cb.scalar - n * (n - 1) * K) < 1e-9

    def test_sphere_chart_curvature_matches_closed_form(self):
        # the generic coordinate route must agree with the constant-curvature
        # fast path
        n, K = 3, 2.0
        m = geom.round_sphere(n, K)
        p = np.array([0.4, -0.2, 0.7])
        chart = m.chart()
        geo = geom.point_geometry(chart, p)
        Riem = geom.riemann_lowered(geo.g, geo.Gamma, geo.dGamma)
        E = geo.frame
        Rf = np.einsum("abcd,ai,bj,ck,dl->ijkl", Riem, E, E, E, E)
        assert np.allclose(Rf, frame_riemann_constant_curvature(n, K),
                           atol=1e-8)

    def test_sectional_positive_on_sphere(self):
        # K(u, v) = R(u, v, u, v) / area^2 in frame components
        m = geom.round_sphere(4, 1.0)
        cb = geom.curvature_at(
            m, geom.point_geometry(m.chart(), np.full(4, 0.1)))
        Einv = np.linalg.inv(cb.frame)
        u = Einv @ np.array([1.0, 0.2, 0.0, 0.0])
        v = Einv @ np.array([0.0, 1.0, -0.3, 0.0])
        num = np.einsum("ijkl,i,j,k,l->", cb.riemann, u, v, u, v)
        assert abs(num / ((u @ u) * (v @ v) - (u @ v) ** 2) - 1.0) < 1e-10

    def test_weyl_vanishes_on_sphere(self):
        # the generic coordinate route on the sphere's chart: its Riemann,
        # Ricci and scalar curvature leave no Weyl part
        n, s = 4, geom.round_sphere(4, 1.0)
        m = geom.ChartManifold(dim=n, charts=s.charts,
                               atlas_kind=geom.ATLAS_CHART_PATCH)
        cb = geom.curvature_at(
            m, geom.point_geometry(m.chart(), np.full(n, 0.3)))
        S = cb.ricci - cb.scalar / (2.0 * (n - 1)) * np.eye(n)
        d = np.eye(n)
        W = cb.riemann - (np.einsum("ik,jl->ijkl", S, d)
                          - np.einsum("il,jk->ijkl", S, d)
                          + np.einsum("jl,ik->ijkl", S, d)
                          - np.einsum("jk,il->ijkl", S, d)) / (n - 2.0)
        assert np.max(np.abs(cb.riemann)) > 0.1
        assert np.max(np.abs(W)) < 1e-8

    def test_min_sectional_and_ricci_on_sphere(self):
        m = geom.round_sphere(4, 2.0)
        assert geom.min_sectional(m) == pytest.approx(2.0, abs=1e-12)
        assert geom.min_ricci(m) == pytest.approx(6.0, abs=1e-12)

    def test_min_sectional_matches_per_plane_loop(self):
        # oracle: the same draws, one QR and one contraction per plane
        m, points, seed = geom.perturbed_torus(3), 50, 5
        rng = np.random.default_rng(seed)
        pts = m.sample_points(points, rng)
        Rf = geom.curvature_at(m, geom.point_geometry(m.chart(), pts)).riemann
        G = rng.normal(size=(points, geom.SECTIONAL_PLANES, 3, 2))
        planes = []
        for R, gs in zip(Rf, G):
            for g in gs:
                q, _ = np.linalg.qr(g)
                planes.append(np.einsum("ijkl,i,j,k,l->", R,
                                        q[:, 0], q[:, 1], q[:, 0], q[:, 1]))
        axis = min(R[i, j, i, j] for R in Rf for i in range(3)
                   for j in range(i + 1, 3))
        got = geom.min_sectional(m, points, seed)
        assert got == pytest.approx(min(axis, min(planes)), abs=1e-12)
        assert got <= axis


class TestJets:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_to_frame_matches_einsum(self, rank):
        # oracle: one multi-operand einsum, e.g. "abcd,ai,bj,ck,dl->ijkl"
        rng = np.random.default_rng(rank)
        T = rng.normal(size=(3,) + (4,) * rank)
        E = rng.normal(size=(3, 4, 4))
        src, dst = "abcd"[:rank], "ijkl"[:rank]
        spec = ",".join(["p" + src] + ["p" + a + i for a, i in zip(src, dst)])
        oracle = np.einsum(spec + "->p" + dst, T, *[E] * rank)
        tol = 1e-12 * np.max(np.abs(oracle))
        assert np.max(np.abs(geom._to_frame(T, E) - oracle)) <= tol
        assert np.max(np.abs(geom._to_frame(T[1], E[1]) - oracle[1])) <= tol

    def test_orthonormal_frame(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            L = rng.standard_normal((n, n))
            g = L @ L.T + n * np.eye(n)
            E = geom.orthonormal_frame(g)
            assert np.allclose(E.T @ g @ E, np.eye(n), atol=1e-12)

    def test_commutation_rule_on_sphere(self):
        # third covariant derivatives: f_ijk - f_ikj = sum_m f_m R_mijk
        m = geom.round_sphere(3, 1.0)
        chart = m.chart()
        f = geom.sphere_coordinate_field(m, 0)
        p = np.array([0.4, -0.1, 0.25])
        geo = geom.point_geometry(chart, p)
        _, fi, _, fijk = geom.scalar_jets(geo, f, 3)
        Rf = geom.curvature_at(m, geo).riemann
        lhs = fijk - fijk.transpose(0, 2, 1)
        rhs = np.einsum("m,mijk->ijk", fi, Rf)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_third_derivative_fd_oracle(self):
        # independent route: FD covariant derivative of the Hessian tensor
        m = geom.round_sphere(2, 1.0)
        chart = m.chart()
        f = geom.sphere_coordinate_field(m, 1)
        p = np.array([0.3, -0.45])

        def hess_coord(q):
            parts = f.partials(q, 2)
            g, dg = geom.metric_jets(chart, q, 1)
            Gamma = geom.christoffel(np.linalg.inv(g), dg)
            return parts[2] - np.einsum("...cab,...c->...ab", Gamma, parts[1])

        h = 1e-5
        g, dg = geom.metric_jets(chart, p, 1)
        Gamma = geom.christoffel(np.linalg.inv(g), dg)
        dH = geom.fd_derivative(hess_coord, p, h)  # dH[e, a, b]
        H = hess_coord(p)
        covH = (dH
                - np.einsum("cae,cb->eab", Gamma, H)
                - np.einsum("cbe,ac->eab", Gamma, H)).transpose(1, 2, 0)
        E = geom.orthonormal_frame(g)
        oracle = np.einsum("abc,ai,bj,ck->ijk", covH, E, E, E)
        _, _, _, fijk = geom.scalar_jets(geom.point_geometry(chart, p), f, 3)
        assert np.max(np.abs(fijk - oracle)) < 1e-8

    def test_tensor_jets_metric_is_parallel(self):
        m = geom.round_sphere(3, 1.0)
        chart = m.chart()
        p = np.array([0.2, 0.5, -0.3])
        (ph,), (p3,) = geom.tensor_jets(geom.point_geometry(chart, p),
                                        [chart.metric], 1)
        assert np.allclose(ph, np.eye(3), atol=1e-12)
        assert np.max(np.abs(p3)) < 1e-10

    def test_trig_field_partials_match_fd(self):
        f = geom.trig_field(np.array([1.0, 2.0]), phase=0.3)
        p = np.array([0.7, -0.2])
        val, g1, h1, t1 = f.partials(p, 3)
        g_fd = geom.fd_derivative(f.comp, p, 1e-6)
        assert np.allclose(g1, g_fd, atol=1e-8)
        h_fd = geom.fd_derivative(lambda q: f.partials(q, 1)[1], p, 1e-6)
        assert np.allclose(h1, h_fd, atol=1e-7)

    def test_radial_jets_match_fd(self):
        wd = geom._inv_power_derivs(3.0, 2.0)
        x = np.array([0.4, -0.6, 0.1])
        val, g1, h1, t1 = geom._radial_scalar_jets(wd, x, 3)
        fn = lambda q: wd[0](np.sum(q * q, axis=-1))
        assert np.allclose(g1, geom.fd_derivative(fn, x, 1e-6), atol=1e-8)


class TestDivergenceIdentities:
    def test_flat_torus_all_zero(self):
        rep = geom.divergence_identity_suite(geom.flat_torus(2), samples=5)
        assert rep["item1_div_ric_minus_cI"] == 0.0
        assert rep["item2_div_einstein"] == 0.0
        assert rep["item5_div_schouten"] == 0.0

    def test_sphere_defects_tiny(self):
        rep = geom.divergence_identity_suite(geom.round_sphere(4, 1.0),
                                             samples=8)
        assert rep["R_constant"]
        assert rep["item1_div_ric_minus_cI"] < 1e-10
        assert rep["item2_div_einstein"] < 1e-10
        assert rep["item5_div_schouten"] < 1e-10

    def test_perturbed_torus_skips_item1(self):
        rep = geom.divergence_identity_suite(geom.perturbed_torus(2),
                                             samples=6)
        assert not rep["R_constant"]
        assert rep["item1_div_ric_minus_cI"] is None
        assert rep["item1_flag"] == "R_not_constant"
        assert rep["item2_div_einstein"] < 1e-10

    def test_perturbed_torus3_bianchi(self):
        rep = geom.divergence_identity_suite(geom.perturbed_torus(3),
                                             samples=4, fd_step=1e-3)
        assert rep["item2_div_einstein"] < 1e-7
        assert rep["item5_div_schouten"] < 1e-7

    def test_one_ricci_jet_and_one_schouten_jet(self, monkeypatch):
        # the Ricci and the Schouten field each take one curvature bundle
        # at the sample points and one on their shifted copies
        shapes = []
        curvature_at = geom.curvature_at

        def counted(m, geo):
            shapes.append(geo.p.shape)
            return curvature_at(m, geo)

        monkeypatch.setattr(geom, "curvature_at", counted)
        rep = geom.divergence_identity_suite(geom.perturbed_torus(3),
                                             samples=20)
        assert sorted(shapes) == [(2, 3, 20, 3)] * 2 + [(20, 3)] * 2
        assert {"R_constant", "R_spread", "item1_div_ric_minus_cI",
                "item1_flag", "item2_div_einstein",
                "item5_div_schouten"} <= set(rep)


class TestFieldsAndErrors:
    def test_schouten_undefined_in_dim2(self):
        with pytest.raises(SchoutenUndefined):
            geom.schouten_tensor_field(geom.flat_torus(2))

    def test_nonpositive_metric_raises(self):
        bad = geom.Field(lambda p, order: [-np.eye(2)], rank=2)
        chart = geom.Chart(lo=np.zeros(2), hi=np.ones(2), metric=bad)
        with pytest.raises(NonPositiveMetric):
            geom.metric_jets(chart, np.array([0.5, 0.5]), 0)

    def test_nonpositive_metric_names_first_bad_point(self):
        # g = (x1 - 0.5) I: negative at the last two points of the stack
        bad = geom.Field(lambda p, order: [
            (p[..., 0] - 0.5)[..., None, None] * np.eye(2)], rank=2)
        chart = geom.Chart(lo=np.zeros(2), hi=np.ones(2), metric=bad)
        pts = np.array([[0.9, 0.1], [0.7, 0.2], [0.25, 0.3], [0.1, 0.4]])
        with pytest.raises(NonPositiveMetric,
                           match=r"0\.25, 0\.3.*min eig -0\.25"):
            geom.point_geometry(chart, pts)

    def test_parse_manifold(self):
        m = geom.parse_manifold("torus2:L=6.283185307179586")
        assert m.dim == 2 and m.atlas_kind == geom.ATLAS_PERIODIC_BOX
        s = geom.parse_manifold("sphere:n=4,K=1")
        assert s.dim == 4 and s.constant_curvature == 1.0
        with pytest.raises(ConfigError):
            geom.parse_manifold("klein-bottle:x=1")

    @pytest.mark.parametrize("bad", [
        "torus2:L=3,perturb=cos", "torus2:Lx=3", "torus2:L",
        "torus2:eps=0.2", "torus2:L=3,L=4", "torus:L=3", "sphere:n=1",
        "sphere:n=4.5", "sphere:K=inf"])
    def test_parse_manifold_rejects(self, bad):
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            geom.parse_manifold(bad)

    def test_perturbed_torus_period(self):
        m = geom.parse_manifold("torus2:L=3,perturb=sin,eps=0.2")
        c = m.chart()
        assert np.array_equal(c.hi, [3.0, 3.0])
        # conformal factor 1 + eps sin(2 pi x1 / L): peak at x1 = L/4
        assert c.metric.comp(np.array([0.75, 0.4]))[0, 0] == pytest.approx(1.2)
        p = np.array([0.3, 1.1])
        for order, got in enumerate(c.metric.partials(p, 2)):
            shifted = c.metric.partials(p + [3.0, 0.0], 2)[order]
            assert np.allclose(got, shifted, atol=1e-12)
        _, d, d2 = c.metric.jets(p, 2)
        d_fd = geom.fd_derivative(c.metric.comp, p, 1e-6)
        assert np.allclose(d, d_fd, atol=1e-8)
        d2_fd = geom.fd_derivative(lambda q: c.metric.jets(q, 1)[1], p, 1e-6)
        assert np.allclose(d2, d2_fd, atol=1e-8)
        # the default period is 2 pi, as the spec without L
        q = geom.parse_manifold("torus3:perturb=sin").chart()
        assert np.array_equal(q.hi, np.full(3, 2 * np.pi))
        assert q.metric.comp(p[[0, 1, 1]])[0, 0] == 1.0 + 0.1 * np.sin(0.3)

    def test_random_spd_tensor_is_spd_and_analytic(self):
        phi = geom.random_spd_trig_tensor(3, seed=11)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(0, 2 * np.pi, size=3)
            w = np.linalg.eigvalsh(phi.comp(p))
            assert w[0] > 0
            d_fd = geom.fd_derivative(phi.comp, p, 1e-6)
            # jets convention: [c, a, b] = d_c phi_ab
            assert np.allclose(phi.jets(p, 1)[1], d_fd, atol=1e-7)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_spd_tensor_is_periodic(self, n):
        # a field on the 2 pi-torus: phi and its partials repeat under
        # p -> p + 2 pi e_k
        p = np.random.default_rng(n).uniform(0, 2 * np.pi, size=(5, n))
        for seed in range(5):
            phi = geom.random_spd_trig_tensor(n, seed=seed)
            for k in range(n):
                shifted = phi.partials(p + 2 * np.pi * np.eye(n)[k], 2)
                for got, want in zip(shifted, phi.partials(p, 2)):
                    assert np.max(np.abs(got - want)) < 1e-12

    @given(st.integers(min_value=2, max_value=5), st.integers())
    @settings(max_examples=20, deadline=None)
    def test_christoffel_symmetric_lower(self, n, seed):
        rng = np.random.default_rng(abs(seed) % 2 ** 32)
        phi = geom.random_spd_trig_tensor(n, seed=abs(seed) % 1000)
        p = rng.uniform(0, 2 * np.pi, size=n)
        g, dg = phi.jets(p, 1)
        Gamma = geom.christoffel(np.linalg.inv(g), dg)
        assert np.allclose(Gamma, Gamma.transpose(0, 2, 1), atol=1e-12)

    def test_sample_points_shapes(self):
        rng = np.random.default_rng(0)
        m = geom.flat_torus(3)
        pts = m.sample_points(7, rng)
        assert pts.shape == (7, 3)
        s = geom.round_sphere(2, 1.0)
        pts = s.sample_points(11, rng)
        assert pts.shape == (11, 2)


def _builtin_fields():
    """Every kind of field the package builds, by name, with the dimension
    of its chart."""
    t3, s4 = geom.perturbed_torus(3), geom.round_sphere(4, 1.0)
    hs = hyp.ellipsoid_surface(1.2, 1.0, 0.9)
    spd = geom.random_spd_trig_tensor(3, seed=4)
    fields = {
        "flat": (geom.flat_torus(3).chart().metric, 3),
        "perturbed": (t3.chart().metric, 3),
        "sphere-metric": (s4.chart().metric, 4),
        "sphere-coordinate": (geom.sphere_coordinate_field(s4, 1), 4),
        "sphere-height": (geom.sphere_coordinate_field(s4, 4), 4),
        "trig": (geom.trig_field([1.0, 2.0, 1.0], phase=0.3), 3),
        "random-spd": (spd, 3),
        "induced": (hyp.induced_metric_manifold(hs).chart().metric, 2),
        "newton1": (hyp.newton1_field(hs), 2),
        "scaled": (geom.scale_tensor_field(spd, -0.7), 3),
    }
    for m in (t3, s4):
        for build in (geom.ricci_tensor_field, geom.schouten_tensor_field):
            fields["%s-%s" % (build.__name__, m.name)] = (build(m), m.dim)
    return fields


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFieldProtocol:
    @pytest.mark.parametrize("name", sorted(_builtin_fields()))
    def test_one_call_gives_every_lower_order(self, name):
        # jets(p, k)[j] == jets(p, j)[j] bit for bit, so one call at the
        # highest order serves every lower order
        f, n = _builtin_fields()[name]
        rng = np.random.default_rng(1)
        for p in (0.4 * rng.uniform(-1, 1, size=n),
                  0.4 * rng.uniform(-1, 1, size=(2, 3, n))):
            jets = [f.jets(p, k) for k in range(4)]
            for k in range(4):
                assert 1 <= len(jets[k]) <= k + 1
                for j in range(len(jets[k])):
                    assert len(jets[j]) == j + 1
                    assert same_bits(jets[k][j], jets[j][j]), (k, j)

    @pytest.mark.parametrize("fd_step", [1e-3, 1e-5])
    def test_value_only_field_is_the_nested_fd_chain(self, fd_step):
        # orders above the callback's are central differences of the order
        # below; the highest order the identities take (a scalar's third
        # partials, a tensor's second) uses a step of at least 1e-4
        k = np.array([1.0, 2.0, 1.0])
        f = lambda q: np.cos(q @ k + 0.3)
        phi = geom.random_spd_trig_tensor(3, seed=2).comp
        top = max(fd_step, 1e-4)
        df = lambda q: geom.fd_derivative(f, q, fd_step)
        d2f = lambda q: geom.fd_derivative(df, q, fd_step)
        dphi = lambda q: geom.fd_derivative(phi, q, fd_step)
        scalar = geom.Field(lambda q, order: [f(q)], fd_step=fd_step)
        tensor = geom.Field(lambda q, order: [phi(q)], rank=2,
                            fd_step=fd_step)
        rng = np.random.default_rng(0)
        for p in (rng.uniform(0, 1, size=3), rng.uniform(0, 1, size=(4, 3))):
            want_f = [f(p), df(p), d2f(p), geom.fd_derivative(d2f, p, top)]
            want_phi = [phi(p), dphi(p), geom.fd_derivative(dphi, p, top)]
            for got, want in ((scalar.partials(p, 3), want_f),
                              (tensor.partials(p, 2), want_phi)):
                assert len(got) == len(want)
                assert all(same_bits(g, w) for g, w in zip(got, want))
        assert isinstance(scalar.partials(np.zeros(3), 0)[0], float)
