import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectra_bochner import bounds as bd, boxop, discretize as dz
from spectra_bochner import geometry as geom
from spectra_bochner import harness as hz
from spectra_bochner.errors import ConfigError

from oracles import q_polynomial, trace_inequality_defect


class TestTraceInequality:
    def test_hand_example(self):
        # A = diag(1,2), B = I: tr(A^2 B) = 5, (tr AB)^2/tr B = 9/2
        d = trace_inequality_defect(np.diag([1.0, 2.0]), np.eye(2))
        assert d == pytest.approx(0.25)  # (5 - 4.5) / tr B

    def test_scalar_matrix_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            L = rng.standard_normal((n, n))
            B = L @ L.T + n * np.eye(n)
            assert abs(trace_inequality_defect(3.0 * np.eye(n), B)) < 1e-12

    @given(st.integers(min_value=2, max_value=8), st.integers())
    @settings(max_examples=100, deadline=None)
    def test_single_trial_property(self, n, seed):
        rng = np.random.default_rng(abs(seed) % 2 ** 32)
        A = rng.uniform(-1, 1, size=(n, n))
        A = 0.5 * (A + A.T)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.1, 10.0, size=n)
        B = (Q * lam) @ Q.T
        assert trace_inequality_defect(A, B) >= -1e-10

    def test_bulk_trials_clean(self):
        rep = hz.newton_inequality_trials(hz.TrialConfig(trials=5000))
        assert rep["violations"] == 0
        assert rep["equality_false_positives"] == 0
        assert rep["worst_defect"] >= -1e-10

    def test_reproducible(self):
        cfg = hz.TrialConfig(trials=500, seed=9)
        assert (hz.newton_inequality_trials(cfg)
                == hz.newton_inequality_trials(cfg))

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_defect_invariant_under_conjugation(self, n):
        # the eigenframe argument: (A, diag lam) and (Q A Q^T, Q diag lam
        # Q^T) have the same defect for orthogonal Q
        rng = np.random.default_rng(n)
        for _ in range(20):
            A = rng.uniform(-1, 1, size=(n, n))
            A = 0.5 * (A + A.T)
            lam = rng.uniform(hz.EIG_LO, hz.EIG_HI, size=n)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = trace_inequality_defect(A, np.diag(lam))
            dq = trace_inequality_defect(Q @ A @ Q.T, (Q * lam) @ Q.T)
            assert dq == pytest.approx(d, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("trials,seed", [(300, 3), (2 * hz.QA_BATCH + 5,
                                                        11)])
    def test_stream_replays_trial_by_trial(self, trials, seed):
        # re-draw the stream in its documented order and evaluate each
        # trial on its own with the single-pair oracle
        rng = np.random.default_rng(seed)
        dims = rng.integers(hz.DIM_LO, hz.DIM_HI + 1, size=trials)
        m = hz.DIM_HI
        defects = []
        for start in range(0, trials, hz.QA_BATCH):
            chunk = dims[start:start + hz.QA_BATCH]
            As = rng.uniform(-1.0, 1.0, size=(chunk.size, m, m))
            lams = rng.uniform(hz.EIG_LO, hz.EIG_HI, size=(chunk.size, m))
            for n, A, lam in zip(chunk, As, lams):
                A = 0.5 * (A + A.T)[:n, :n]
                defects.append(trace_inequality_defect(A,
                                                       np.diag(lam[:n])))
        defects = np.array(defects)
        rep = hz.newton_inequality_trials(hz.TrialConfig(trials, seed))
        assert rep["worst_defect"] == pytest.approx(np.min(defects),
                                                    rel=1e-12)
        assert rep["violations"] == int(np.sum(defects < -1e-10))
        assert rep["equality_hits"] == int(np.sum(np.abs(defects) < 1e-10))

    @pytest.mark.parametrize("seed", [42, 1000])
    def test_planted_violations_detected(self, seed):
        rep = hz.newton_inequality_trials(hz.TrialConfig(2000, seed),
                                          planted=True)
        assert rep["violations"] > 0
        assert rep["worst_defect"] < -1e-10

    def test_planted_violations_are_not_equality_hits(self):
        # a violation is a defect below -1e-10, far from equality; at seed
        # 42 the detector once counted all 337 of them as hits and as false
        # positives
        rep = hz.newton_inequality_trials(hz.TrialConfig(2000, 42),
                                          planted=True)
        assert rep["violations"] == 337
        assert rep["equality_hits"] == 0
        assert rep["equality_false_positives"] == 0


class TestQaBound:
    def test_hand_computed_point(self):
        Q = q_polynomial(np.diag([1.0, 1.1, 1.2]), 1.0)
        assert bd.l1_core(3, 1.0, 1.2, 1.0) == pytest.approx(14.24)
        assert float(np.min(np.diag(Q))) >= 14.24

    def test_umbilic_equality(self):
        for kappa in (1.0, -0.5):
            n, alpha = 4, 1.3
            Q = q_polynomial(alpha * np.eye(n), kappa)
            expect = 2.0 * (n - 1) ** 2 * alpha * (alpha ** 2 + kappa)
            assert float(np.min(np.diag(Q))) == pytest.approx(expect)
            assert bd.l1_core(n, alpha, 1.0, kappa) == pytest.approx(expect)

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_trials_clean(self, sign):
        rep = hz.qa_bound_trials(hz.TrialConfig(trials=5000),
                                 kappa_sign=sign)
        assert rep["violations"] == 0

    def test_planted_violations_detected(self):
        rep = hz.qa_bound_trials(hz.TrialConfig(trials=2000),
                                 kappa_sign="negative", planted=True)
        assert rep["violations"] > 0

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    @pytest.mark.parametrize("planted", [False, True])
    def test_stream_replays_trial_by_trial(self, sign, planted):
        # re-draw the stream in its documented order and evaluate each
        # trial on its own with the matrix oracle
        trials, seed = 2 * hz.QA_BATCH + 5, 11
        rng = np.random.default_rng(seed + (sign == "negative"))
        dims = rng.integers(hz.DIM_LO, hz.DIM_HI + 1, size=trials)
        alphas = rng.uniform(0.2, 2.0, size=trials)
        aas = rng.uniform(1.0, 2.0, size=trials)
        kappas = (rng.uniform(1e-6, 2.0, size=trials) if sign == "positive"
                  else rng.uniform(-2.0, 0.0, size=trials))
        lo, hi = ((0.5 * alphas, 2.0 * aas * alphas) if planted
                  else (alphas, aas * alphas))
        h = rng.uniform(lo[:, None], hi[:, None], size=(trials, hz.DIM_HI))
        defects = np.array([
            (np.min(np.diag(q_polynomial(np.diag(x[:n]), k)))
             - bd.l1_core(n, alpha, a, k)) / alpha ** 3
            for n, alpha, a, k, x in zip(dims, alphas, aas, kappas, h)])
        masked = hz._qa_defects(dims, alphas, aas, kappas, h)
        assert np.all(np.abs(masked - defects)
                      <= 1e-12 * np.maximum(1.0, np.abs(defects)))
        rep = hz.qa_bound_trials(hz.TrialConfig(trials, seed),
                                 kappa_sign=sign, planted=planted)
        assert rep["violations"] == int(np.sum(defects < -1e-10))
        assert (rep["violations"] > 0) == planted
        assert rep["worst_defect"] == pytest.approx(np.min(defects),
                                                    rel=1e-12)


class TestSuites:
    def test_bochner_suite_one_residual_call_per_manifold(self, monkeypatch):
        calls = []
        bochner_residual = boxop.bochner_residual

        def counted(m, phis, f, p, cvals):
            calls.append((len(phis), np.shape(p)))
            return bochner_residual(m, phis, f, p, cvals)

        monkeypatch.setattr(boxop, "bochner_residual", counted)
        rep = hz.bochner_suite(samples=3)
        assert len(calls) == 3
        assert all(n == 3 and s[0] == 3 for n, s in calls)
        assert len(rep["cases"]) == 9
        assert all(c["points"] == 3 for c in rep["cases"])

    def test_bochner_suite_shares_point_work(self, monkeypatch):
        calls = {}
        for name in ("point_geometry", "scalar_jets", "curvature_at",
                     "tensor_jets"):
            def counted(*args, _name=name, _fn=getattr(geom, name), **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kw)
            monkeypatch.setattr(geom, name, counted)
        hz.bochner_suite(samples=3)
        assert calls == {"point_geometry": 3, "scalar_jets": 3,
                         "curvature_at": 3, "tensor_jets": 3}

    @pytest.mark.parametrize("seed", [0, 42])
    def test_planted_cases_are_where_terms_are_nonzero(self, seed):
        rep = hz.bochner_suite(samples=10, seed=seed)
        for ctl, where in hz.PLANTED_CASES.items():
            flagged = {(c["manifold"], c["phi"]) for c in rep["cases"]
                       if c["planted"][ctl] > 1e-8}
            assert flagged == set(where)

    def test_run_suite_flags_the_planted_controls(self):
        cp = hz.load_config()
        cp.set("suites", "samples", "10")
        code, summary = hz.run_suite(["bochner"], cp)
        assert code == hz.EXIT_PASS, summary["failures"]
        cases = summary["suites"]["bochner"]["cases"]
        assert all(set(c["planted"]) == set(hz.PLANTED_CASES) for c in cases)

    def test_run_suite_fails_on_unflagged_controls(self, monkeypatch):
        monkeypatch.setattr(hz, "_planted_residuals", lambda r: {
            k: np.zeros_like(r.lhs) for k in hz.PLANTED_CASES})
        cp = hz.load_config()
        cp.set("suites", "samples", "10")
        code, summary = hz.run_suite(["bochner"], cp)
        assert code == hz.EXIT_ASSERTION
        missed = [f for f in summary["failures"] if "NOT detected" in f]
        assert len(missed) == sum(map(len, hz.PLANTED_CASES.values())) == 12
        assert "bochner: planted curvature_flipped on sphere4/schouten " \
            "NOT detected" in missed

    def test_bochner_suite_small(self):
        rep = hz.bochner_suite(samples=5)
        assert rep["max_residual"] <= 1e-8
        assert rep["max_c_spread"] <= 1e-10
        assert len(rep["cases"]) == 9

    def test_divergence_suite(self):
        rep = hz.divergence_suite(samples=6)
        assert rep["max_defect"] <= 1e-8
        # closed-form P1 partials: round-off, where finite differences
        # read 1.4e-10 and 6.8e-10 at 20 points
        assert max(rep["div_p1"].values()) <= 1e-13

    def test_divergence_suite_uses_every_sample(self, monkeypatch):
        seen = []
        divergence = geom.tensor_divergence

        def record(geo, phi):
            seen.append((phi.name, len(geo.p)))
            return divergence(geo, phi)

        monkeypatch.setattr(geom, "tensor_divergence", record)
        hz.divergence_suite(samples=7)
        assert [k for name, k in seen if name == "newton1"] == [7, 7]
        assert all(k == 7 for _, k in seen)

    def test_trial_gate_messages(self):
        newton = {"violations": 3, "equality_false_positives": 1}
        assert hz.trial_failures("newton", newton) == [
            "newton: 3 violations", "newton: equality detector false positives"]
        qa = {"positive": {"violations": 0}, "negative": {"violations": 2}}
        assert hz.trial_failures("qa", qa) == ["qa[negative]: 2 violations"]
        assert hz.trial_failures("qa", qa, planted=True) == [
            "qa[positive]: planted violation NOT detected"]
        assert hz.trial_failures("qa", {"violations": 0}, planted=True) == [
            "qa: planted violation NOT detected"]

    def test_fd_order(self):
        rep = hz.fd_order_study(samples=4)
        assert rep["observed_order"] == pytest.approx(2.0, abs=0.4)

    def test_sphere_equality_suite(self):
        rep = hz.sphere_equality_suite()
        assert rep["all_equality"]
        assert len(rep["results"]) == 7

    def test_run_suite_empty(self):
        code, summary = hz.run_suite([])
        assert code == hz.EXIT_PASS
        assert summary["suites"] == {}

    def test_run_suite_unknown_name(self):
        code, summary = hz.run_suite(["bogus"])
        assert code == hz.EXIT_CONFIG

    def test_run_suite_sphere_equality(self):
        code, summary = hz.run_suite(["sphere-equality"])
        assert code == hz.EXIT_PASS
        assert summary["pass"]

    def test_config_rejects_unknown_section(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[nonsense]\nx = 1\n")
        code, summary = hz.run_suite(["sphere-equality"], str(p))
        assert code == hz.EXIT_CONFIG

    @pytest.mark.parametrize("text", ["[suites]\ntrails = 5\n",
                                      "[solver]\ntol = 1e-3\n",
                                      "[manifold]\n",
                                      "[DEFAULT]\nseed = 1\n"])
    def test_config_rejects_unknown_key(self, tmp_path, text):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match="unknown config"):
            hz.load_config(str(p))

    @pytest.mark.parametrize("trials", [
        lambda: hz.newton_inequality_trials(hz.TrialConfig(10, -1)),
        lambda: hz.qa_bound_trials(hz.TrialConfig(10, -1), "negative")],
        ids=["newton", "qa"])
    def test_trials_refuse_negative_seed(self, trials):
        # the qa stream seeds seed + 1, so -1 once ran seed 0's stream
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            trials()

    def test_run_suite_refuses_negative_seed(self):
        cp = hz.load_config()
        cp["solver"]["seed"] = "-1"
        code, summary = hz.run_suite(["newton"], cp)
        assert code == hz.EXIT_CONFIG
        assert "seed must be non-negative, got -1" in summary["error"]

    def test_run_suite_newton_planted_control(self):
        cp = hz.load_config()
        cp["suites"]["trials"] = "500"
        code, summary = hz.run_suite(["newton"], cp)
        assert code == hz.EXIT_PASS
        ctl = summary["suites"]["newton"]["planted_control"]
        assert ctl["trials"] == 500 and ctl["violations"] > 0

    def test_run_suite_newton_missed_control_fails(self, monkeypatch):
        trials = hz.newton_inequality_trials
        monkeypatch.setattr(hz, "newton_inequality_trials",
                            lambda cfg, planted=False: trials(cfg))
        cp = hz.load_config()
        cp["suites"]["trials"] = "500"
        code, summary = hz.run_suite(["newton"], cp)
        assert code == hz.EXIT_ASSERTION
        assert summary["failures"] == ["newton: planted violation NOT "
                                       "detected"]

    def test_run_suite_ellipsoid_compare_positive_bound(self):
        cp = hz.load_config()
        cp["suites"]["subdivs"] = "2,3"
        code, summary = hz.run_suite(["ellipsoid-compare"], cp)
        assert code == hz.EXIT_PASS, summary["failures"]
        rep = summary["suites"]["ellipsoid-compare"]
        assert rep["semiaxes"] == list(hz.SUITE_SEMIAXES)
        assert rep["vacuous"] is False and rep["bound"] > 0.5
        assert rep["verdict"] == bd.VERDICT_INEQUALITY

    def test_run_suite_ellipsoid_compare_fails_a_vacuous_bound(
            self, monkeypatch):
        # (1, 1, 1.1)'s bound is -0.193: InequalityHolds, and vacuous
        monkeypatch.setattr(hz, "SUITE_SEMIAXES", (1.0, 1.0, 1.1))
        cp = hz.load_config()
        cp["suites"]["subdivs"] = "2,3"
        code, summary = hz.run_suite(["ellipsoid-compare"], cp)
        assert code == hz.EXIT_ASSERTION
        assert summary["suites"]["ellipsoid-compare"]["verdict"] == \
            bd.VERDICT_INEQUALITY
        assert summary["failures"] == ["ellipsoid-compare: bound -0.193128 "
                                       "<= 0 is vacuous"]

    @pytest.mark.parametrize("text,match", [
        ("[solver]\nseed = -1\n", "seed must be non-negative, got -1"),
        ("[solver]\nseed = x\n", "bad \\[solver\\] seed")])
    def test_config_rejects_bad_seed(self, tmp_path, text, match):
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            hz.load_config(str(p))
        code, summary = hz.run_suite(["newton"], str(p))
        assert code == hz.EXIT_CONFIG
        assert "seed" in summary["error"]

    def test_config_overrides(self, tmp_path):
        p = tmp_path / "ok.cfg"
        p.write_text("[solver]\nseed = 7\n[suites]\ntrials = 100\n")
        cfg = hz.load_config(str(p))
        assert cfg.getint("solver", "seed") == 7
        assert cfg.getint("suites", "trials") == 100


class TestEllipsoidCompare:
    def test_topology_once_per_face_array(self, monkeypatch):
        # one sweep builds each rung's mesh on its scaled vertices, and
        # each mesh is checked once, topology then geometry
        seen = {"_check_topology": [], "_check_geometry": []}
        for name, meshes in seen.items():
            def counted(self, _check=getattr(dz.SurfaceMesh, name),
                        _meshes=meshes):
                _meshes.append(self)
                return _check(self)
            monkeypatch.setattr(dz.SurfaceMesh, name, counted)
        hz.ellipsoid_compare((1.0, 1.0, 1.1), (1, 2, 3))
        topo, geo = seen["_check_topology"], seen["_check_geometry"]
        assert [m.num_faces for m in topo] == [80, 320, 1280]
        assert len({id(m) for m in topo}) == 3
        assert [id(m) for m in geo] == [id(m) for m in topo]
        assert all(m.vertices[:, 2].max() == 1.1 for m in topo)

    def test_levels_start_from_the_level_below(self):
        rep = hz.ellipsoid_compare((1.0, 1.0, 1.0), (1, 2, 4))
        assert [lv["start_modes"] for lv in rep["levels"]] == [0, 1, 1]
        assert all(lv["iterations"] > 0 for lv in rep["levels"])

    def test_warm_start_iterations(self):
        # W4: the finest level started cold took 19 iterations on seed 42
        for seed in range(5):
            rep = hz.ellipsoid_compare((1.0, 1.0, 1.1), (4, 5), seed=seed)
            assert rep["levels"][1]["iterations"] <= 8
            assert rep["mu1"] == pytest.approx(1.8078779560, abs=1e-10)

    @pytest.mark.parametrize("subdivs,factor", [((1, 2, 3), 3.0),
                                                ((3, 5), 15.0)])
    def test_error_estimate_factor(self, subdivs, factor):
        # O(h^2) with h halved per subdivision: 4^d - 1 for a step of d
        rep = hz.ellipsoid_compare((1.0, 1.0, 1.0), subdivs)
        mus = [lv["mu1"] for lv in rep["levels"]]
        assert rep["error_estimate"] == abs(mus[-1] - mus[-2]) / factor

    @pytest.mark.parametrize("subdivs", [(3, 3), (4, 2)])
    def test_subdivisions_must_increase(self, subdivs):
        with pytest.raises(ConfigError, match="must increase"):
            hz.ellipsoid_compare((1.0, 1.0, 1.0), subdivs)

    def test_nonpositive_semiaxes_rejected(self):
        with pytest.raises(ConfigError, match="must be positive"):
            hz.ellipsoid_compare((1, 1, 0), (1, 2))

    @pytest.mark.parametrize("semiaxes,sampled", [((1.0, 1.0, 1.0), []),
                                                  ((1.0, 1.0, 1.1),
                                                   ["sigma"])])
    def test_pinching_names_sampled_constants(self, semiaxes, sampled):
        rep = hz.ellipsoid_compare(semiaxes, (1, 2))
        assert rep["pinching"]["sampled"] == sampled

    def test_no_subdivisions(self):
        # one level has no error estimate: its verdict would be a guess
        for subdivs in ((), (4,)):
            with pytest.raises(ConfigError,
                               match="at least two subdivision levels"):
                hz.ellipsoid_compare((1.0, 1.0, 1.1), subdivs)

    def test_extrapolates_across_skipped_levels(self):
        # levels 1 and 3 are two halvings of h apart: the O(h^2) error falls
        # by 16, so Richardson divides by 15, not 3
        rep = hz.ellipsoid_compare((1.0, 1.0, 1.0), (1, 3))
        assert abs(rep["extrapolated_mu1"] - 2.0) < 1e-3
        assert rep["observed_order"] is None

    @pytest.mark.parametrize("semiaxes,subdivs,order", [
        ((1.0, 1.0, 1.0), (1, 2, 3), 2.014),
        ((1.0, 1.0, 1.1), (3, 4, 5), 2.0005),
    ])
    def test_observed_order(self, semiaxes, subdivs, order):
        rep = hz.ellipsoid_compare(semiaxes, subdivs)
        assert rep["observed_order"] == pytest.approx(order, abs=5e-4)

    @pytest.mark.parametrize("subdivs", [(1, 2), (1, 2, 4)])
    def test_observed_order_needs_three_even_levels(self, subdivs):
        rep = hz.ellipsoid_compare((1.0, 1.0, 1.0), subdivs)
        assert rep["observed_order"] is None

    @pytest.mark.parametrize("semiaxes,subdivs,vacuous", [
        ((1.0, 1.0, 1.1), (4, 5), True),    # bound -0.193 against 1.808
        ((1.0, 1.0, 1.0), (1, 2), False),   # bound 2, the equality case
    ])
    def test_vacuous_flag(self, semiaxes, subdivs, vacuous):
        rep = hz.ellipsoid_compare(semiaxes, subdivs)
        assert rep["vacuous"] is vacuous
        assert (rep["bound"] <= 0.0) is vacuous
        if vacuous:
            assert rep["bound"] == pytest.approx(-0.193, abs=1e-3)
