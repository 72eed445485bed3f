import numpy as np
import pytest

from spectra_bochner import boxop, geometry as geom, harness as hz
from spectra_bochner.errors import NonSymmetricCoefficient, NotPositiveDefinite

from oracles import apply, laplacian_box, schouten_box


@pytest.fixture(scope="module")
def torus():
    return geom.flat_torus(2)


@pytest.fixture(scope="module")
def sphere4():
    return geom.round_sphere(4, 1.0)


class TestApply:
    def test_laplacian_of_cos(self, torus):
        box = laplacian_box(torus)
        f = geom.trig_field(np.array([1.0, 0.0]))
        p = np.array([0.7, 0.3])
        assert apply(box, f, p) == pytest.approx(-np.cos(0.7), abs=1e-12)

    def test_sphere_coordinate_eigenfunction(self, sphere4):
        # ambient coordinate restrictions satisfy Delta X = -n K X
        box = laplacian_box(sphere4)
        f = geom.sphere_coordinate_field(sphere4, 2)
        p = np.array([0.3, -0.1, 0.2, 0.4])
        assert apply(box, f, p) == pytest.approx(-4.0 * f.comp(p), abs=1e-10)

    def test_schouten_box_is_scaled_laplacian_on_sphere(self, sphere4):
        # S = ((n-2)K/2) g on the round sphere
        sbox = schouten_box(sphere4)
        lbox = laplacian_box(sphere4)
        f = geom.sphere_coordinate_field(sphere4, 0)
        p = np.full(4, 0.2)
        assert apply(sbox, f, p) == pytest.approx(
            apply(lbox, f, p), abs=1e-9)


class TestDivergenceForm:
    def test_composite_route_agrees(self, torus):
        phi = geom.random_spd_trig_tensor(2, seed=3)
        box = boxop.BoxOperator(phi=phi, manifold=torus)
        f = geom.trig_field(np.array([1.0, 2.0]), phase=0.4)
        d = boxop.divergence_form_defect(box, f, np.array([0.9, 1.7]))
        assert d < 1e-8

    def test_on_sphere(self, sphere4):
        box = schouten_box(sphere4)
        f = geom.sphere_coordinate_field(sphere4, 1)
        d = boxop.divergence_form_defect(box, f, np.full(4, 0.15))
        assert d < 1e-7


class TestBochnerIdentity:
    CVALS = (0.0, 1.0, 7.3)

    def residuals(self, box, f, p):
        return boxop.bochner_residual(box.manifold, [box.phi], f, p,
                                      self.CVALS)[0]

    def test_flat_torus_metric_phi_exact(self, torus):
        box = laplacian_box(torus)
        f = geom.trig_field(np.array([1.0, 0.0]))
        p = np.array([0.7, 0.0])
        rs = self.residuals(box, f, p)
        # lhs = 0.5 Delta(sin^2 x1) = cos(2 x1)
        assert rs[0].lhs == pytest.approx(np.cos(1.4), abs=1e-12)
        for r in rs:
            assert r.residual < 1e-12

    def test_sphere_with_schouten(self, sphere4):
        box = schouten_box(sphere4)
        f = geom.sphere_coordinate_field(sphere4, 3)
        rng = np.random.default_rng(1)
        for p in sphere4.sample_points(10, rng):
            for r in self.residuals(box, f, p):
                assert r.residual < 1e-10

    def test_random_spd_phi_c_independent(self, torus):
        phi = geom.random_spd_trig_tensor(2, seed=8)
        box = boxop.BoxOperator(phi=phi, manifold=geom.perturbed_torus(2))
        f = geom.trig_field(np.array([2.0, 1.0]), phase=1.1)
        p = np.array([1.3, 0.4])
        rs = [r.residual for r in self.residuals(box, f, p)]
        assert max(rs) < 1e-10
        assert max(rs) - min(rs) < 1e-12

    def test_geometry_built_once_for_all_c(self, monkeypatch):
        calls = []
        metric_jets = geom.metric_jets

        def counted(*args, **kwargs):
            calls.append(args)
            return metric_jets(*args, **kwargs)

        monkeypatch.setattr(geom, "metric_jets", counted)
        m = geom.perturbed_torus(2)
        phis = [geom.random_spd_trig_tensor(2, seed=8), geom.metric_field(m)]
        f = geom.trig_field(np.array([2.0, 1.0]), phase=1.1)
        out = boxop.bochner_residual(m, phis, f, np.array([1.3, 0.4]),
                                     self.CVALS)
        assert len(calls) == 1
        assert len(out) == len(phis)
        for rs in out:
            assert [r.c for r in rs] == list(self.CVALS)

    def test_term_breakdown_keys(self, torus):
        f = geom.trig_field(np.array([1.0, 1.0]))
        (r,), = boxop.bochner_residual(torus, [geom.metric_field(torus)], f,
                                       np.array([0.2, 0.9]), (1.0,))
        expected = {"grad_f_grad_boxf", "phi_gradf_grad_lapf",
                    "hessian_square", "curvature", "c_trace_hessian",
                    "laplacian_phi", "divergence_difference",
                    "divform_codazzi", "divform_flux"}
        assert set(r.rhs_terms) == expected


class TestHessianTraceDefect:
    def test_hand_value(self, torus):
        # phi = g = I, f = cos x1: quad = cos^2 x1, box f = -cos x1, tr phi = 2
        box = laplacian_box(torus)
        f = geom.trig_field(np.array([1.0, 0.0]))
        p = np.array([0.7, 0.0])
        expected = 0.5 * np.cos(0.7) ** 2
        assert boxop.hessian_trace_defect(box, f, p) == pytest.approx(expected,
                                                                abs=1e-12)

    def test_nonnegative_for_spd_phi(self, torus):
        phi = geom.random_spd_trig_tensor(2, seed=4)
        box = boxop.BoxOperator(phi=phi, manifold=torus)
        f = geom.trig_field(np.array([1.0, 2.0]), phase=0.2)
        rng = np.random.default_rng(2)
        for p in torus.sample_points(25, rng):
            assert boxop.hessian_trace_defect(box, f, p) >= -1e-12

    def test_indefinite_phi_rejected(self, torus):
        phi = geom.scale_tensor_field(geom.metric_field(torus), -1.0)
        box = boxop.BoxOperator(phi=phi, manifold=torus)
        f = geom.trig_field(np.array([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            boxop.hessian_trace_defect(box, f, np.array([0.1, 0.1]))


class TestNonSymmetricPhi:
    @pytest.mark.parametrize("entry", ["apply", "bochner_residual",
                                       "bochner_residual_second",
                                       "tensor_divergence"])
    def test_named_error_at_first_bad_point(self, torus, entry):
        # phi = [[2, 0.3 x1], [0, 2]] is symmetric only where x1 = 0
        phi = geom.Field(lambda p, order: [
            2.0 * np.eye(2) + 0.3 * p[..., 0, None, None]
            * np.array([[0.0, 1.0], [0.0, 0.0]])], rank=2)
        box = boxop.BoxOperator(phi=phi, manifold=torus)
        f = geom.trig_field(np.array([1.0, 0.0]))
        pts = np.array([[0.0, 0.1], [0.5, 0.2], [0.7, 0.3]])
        calls = {
            "apply": lambda: apply(box, f, pts),
            "bochner_residual": lambda: boxop.bochner_residual(
                torus, [phi], f, pts, [0.0]),
            "bochner_residual_second": lambda: boxop.bochner_residual(
                torus, [geom.metric_field(torus), phi], f, pts, [0.0]),
            "tensor_divergence": lambda: geom.tensor_divergence(
                geom.point_geometry(torus.chart(), pts), phi),
        }
        with pytest.raises(NonSymmetricCoefficient,
                           match=r"not symmetric at array\(\[0\.5, 0\.2\]\)"):
            calls[entry]()


SUITE_CASES = [(m, kind) for m in ("flat-torus2", "perturbed-torus2", "sphere4")
               for kind in ("metric", "schouten", "random-spd")]


class TestStackedPoints:
    """One call on a (P, n) stack gives what P single-point calls give."""

    @staticmethod
    def case(mname, kind):
        if mname == "torus3:perturb=sin":   # Schouten by finite differences
            m = geom.parse_manifold(mname)
            phi = (geom.schouten_tensor_field(m) if kind == "schouten"
                   else hz._suite_phi(m, kind, seed=42))
        else:
            m = dict(hz._suite_manifolds())[mname]
            phi = hz._suite_phi(m, kind, seed=42)
        f = hz._suite_test_function(m, seed=43)
        return m, phi, f, m.sample_points(4, np.random.default_rng(5))

    @staticmethod
    def check(stacked, per_point, scale=None):
        per_point = np.array(per_point)
        assert np.shape(stacked) == per_point.shape
        if scale is None:
            scale = np.max(np.abs(per_point))
        assert np.max(np.abs(stacked - per_point)) <= 1e-12 * scale

    @pytest.mark.parametrize("mname,kind",
                             SUITE_CASES + [("torus3:perturb=sin", "schouten")])
    def test_stack_matches_points(self, mname, kind):
        m, phi, f, pts = self.case(mname, kind)
        geo = geom.point_geometry(m.chart(), pts)
        singles = [geom.point_geometry(m.chart(), p) for p in pts]
        for name in ("g", "frame", "Gamma", "dGamma"):
            self.check(getattr(geo, name), [getattr(s, name) for s in singles])
        for jets in (lambda g: geom.scalar_jets(g, f, 3),
                     lambda g: [j[0] for j in geom.tensor_jets(g, [phi], 2)]):
            per = zip(*[jets(s) for s in singles])
            for got, want in zip(jets(geo), per):
                self.check(got, want)
        cb = geom.curvature_at(m, geo)
        cbs = [geom.curvature_at(m, s) for s in singles]
        for name in ("riemann", "ricci", "scalar"):
            self.check(getattr(cb, name), [getattr(c, name) for c in cbs])

        box, cvals = boxop.BoxOperator(phi=phi, manifold=m), (0.0, 1.0, 7.3)
        self.check(apply(box, f, pts), [apply(box, f, p) for p in pts])
        stacked, = boxop.bochner_residual(m, [phi], f, pts, cvals)
        per = [boxop.bochner_residual(m, [phi], f, p, cvals)[0] for p in pts]
        for k, r in enumerate(stacked):
            rs = [pr[k] for pr in per]
            scale = max(np.max(np.abs([x.lhs for x in rs])),
                        max(np.max(np.abs([x.rhs_terms[t] for x in rs]))
                            for t in r.rhs_terms))
            self.check(r.lhs, [x.lhs for x in rs], scale)
            self.check(r.residual, [x.residual for x in rs], scale)
            for t, v in r.rhs_terms.items():
                self.check(v, [x.rhs_terms[t] for x in rs], scale)

    MANIFOLDS = ["flat-torus2", "perturbed-torus2", "sphere4",
                 "torus3:perturb=sin"]

    def phi_cases(self, mname):
        """The manifold, its three suite phi, f and a 4-point stack."""
        cases = [self.case(mname, kind)
                 for kind in ("metric", "schouten", "random-spd")]
        m, _, f, pts = cases[0]
        return m, [phi for _, phi, _, _ in cases], f, pts

    @pytest.mark.parametrize("mname", MANIFOLDS)
    def test_stacked_fields_match_one_field_calls(self, mname):
        """tensor_jets of several fields gives bit for bit what one call
        per field gives."""
        m, phis, _, pts = self.phi_cases(mname)
        geo = geom.point_geometry(m.chart(), pts)
        stacked = geom.tensor_jets(geo, phis, 2)
        for k, phi in enumerate(phis):
            for got, (want,) in zip(stacked, geom.tensor_jets(geo, [phi], 2)):
                assert np.array_equal(got[k], want)

    @pytest.mark.parametrize("mname", MANIFOLDS)
    def test_phis_share_one_call(self, mname):
        """One call for several phi gives bit for bit what one call per phi
        gives on the 4-point stack, and agrees to rounding on a 1-point
        stack and a single point."""
        m, phis, f, pts = self.phi_cases(mname)
        cvals = (0.0, 1.0, 7.3)
        for p, exact in ((pts, True), (pts[:1], False), (pts[0], False)):
            shared = boxop.bochner_residual(m, phis, f, p, cvals)
            assert len(shared) == len(phis)
            for phi, rs in zip(phis, shared):
                alone, = boxop.bochner_residual(m, [phi], f, p, cvals)
                scale = max(np.max(np.abs(v)) for a in alone
                            for v in (a.lhs, *a.rhs_terms.values()))
                for r, a in zip(rs, alone):
                    assert r.c == a.c
                    assert list(r.rhs_terms) == list(a.rhs_terms)
                    for got, want in ((r.lhs, a.lhs),
                                      (r.residual, a.residual),
                                      *((v, a.rhs_terms[t])
                                        for t, v in r.rhs_terms.items())):
                        assert np.shape(got) == np.shape(want)
                        if exact:
                            assert np.array_equal(got, want)
                        else:
                            assert np.abs(got - want) <= 1e-14 * scale

    @pytest.mark.parametrize("mname,kind", SUITE_CASES)
    def test_identity_defects_stack_matches_points(self, mname, kind):
        m, phi, f, pts = self.case(mname, kind)
        box = boxop.BoxOperator(phi=phi, manifold=m)
        # both defects cancel terms of the size of box f (squared)
        scale = max(1.0, np.max(np.abs(apply(box, f, pts))))
        self.check(boxop.divergence_form_defect(box, f, pts),
                   [boxop.divergence_form_defect(box, f, p) for p in pts],
                   scale)
        if kind != "schouten" or mname == "sphere4":   # phi > 0 here
            self.check(boxop.hessian_trace_defect(box, f, pts),
                       [boxop.hessian_trace_defect(box, f, p) for p in pts],
                       scale ** 2)

    def test_stack_names_first_indefinite_point(self, torus):
        # phi = cos(x1) I is indefinite at points 1 and 2, first at x1 = 2
        phi = geom.Field(lambda p, order: [
            np.cos(p[..., 0])[..., None, None] * np.eye(2)], rank=2)
        box = boxop.BoxOperator(phi=phi, manifold=torus)
        f = geom.trig_field(np.array([1.0, 0.0]))
        pts = np.array([[0.1, 0.1], [2.0, 0.3], [3.0, 0.5]])
        with pytest.raises(NotPositiveDefinite,
                           match=r"min eig %g\)" % np.cos(2.0)):
            boxop.hessian_trace_defect(box, f, pts)
