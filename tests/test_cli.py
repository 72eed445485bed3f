import json
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sl

from spectra_bochner import cli, discretize as dz, harness as hz

import oracles


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_defaults_are_the_harness_constants():
    ap = cli.build_parser()
    verify = ap.parse_args(["verify", "bochner"])
    assert tuple(float(c) for c in verify.c.split(",")) == hz.CVALS
    assert verify.tol == hz.RESIDUAL_TOL
    assert ap.parse_args(["proptest", "qa"]).trials == hz.TrialConfig.trials
    refine = ap.parse_args(["report", "compare"]).refine
    assert cli._parse_refine(refine) == hz.DEFAULT_SUBDIVS
    suites = hz.load_config()["suites"]
    assert int(suites["trials"]) == hz.TrialConfig.trials
    assert tuple(map(int, suites["subdivs"].split(","))) == hz.DEFAULT_SUBDIVS


class TestBound:
    def test_schouten(self, capsys):
        code, out, _ = run(capsys, "--json", "bound", "schouten",
                           "--n", "4", "--R", "12", "--K0", "1", "--L0", "3")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(4.0)

    def test_l1(self, capsys):
        code, out, _ = run(capsys, "--json", "bound", "l1", "--n", "2",
                           "--kappa", "0", "--alpha", "1", "--a", "1",
                           "--sigma", "0")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(2.0)

    def test_bad_inputs_exit_code(self, capsys):
        code, _, err = run(capsys, "bound", "schouten", "--n", "4",
                           "--R", "12", "--K0", "1", "--L0", "6")
        assert code == 1  # DenominatorNonpositive is a SpectraError

    @pytest.mark.parametrize("alpha,a,code,line", [
        ("-1", "1", 1, "failure: L1 bound needs alpha > 0, got -1"),
        ("1", "0.5", 2, "config error: L1 bound needs a >= 1, got 0.5"),
    ])
    def test_bad_l1_inputs_named(self, capsys, alpha, a, code, line):
        got, out, err = run(capsys, "bound", "l1", "--n", "2", "--kappa",
                            "0", "--alpha", alpha, "--a", a, "--sigma", "0")
        assert (got, out, err) == (code, "", line + "\n")

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("kind,name,argv", [
        ("l1", "alpha", ["--n", "2", "--kappa", "0", "--alpha", "{}",
                         "--a", "1", "--sigma", "0"]),
        ("l1", "kappa", ["--n", "2", "--kappa", "{}", "--alpha", "1",
                         "--a", "1", "--sigma", "0"]),
        ("schouten", "R", ["--n", "4", "--R", "{}", "--K0", "1",
                           "--L0", "3"]),
        ("schouten", "L0", ["--n", "4", "--R", "12", "--K0", "1",
                            "--L0", "{}"]),
    ])
    def test_non_finite_inputs_refused(self, capsys, bad, kind, name, argv):
        # these used to print "bound: nan" (or inf) and exit 0
        got, out, err = run(capsys, "bound", kind,
                            *[a.format(bad) for a in argv])
        label = "L1" if kind == "l1" else "Schouten"
        assert (got, out) == (2, "")
        assert err == ("config error: %s bound needs finite inputs, got "
                       "%s=%s\n" % (label, name, bad))


class TestEig:
    def test_surface_sphere(self, capsys):
        code, out, _ = run(capsys, "--json", "eig", "--surface", "sphere:r=1",
                           "--operator", "newton1", "--subdiv", "3",
                           "--k", "3")
        assert code == 0
        data = json.loads(out)
        assert data["mesh"]["vertices"] == 642
        assert np.allclose(data["eigenvalues"], 2.0115, atol=1e-3)

    def test_mesh_off(self, capsys, tmp_path):
        path = str(tmp_path / "s.off")
        oracles.write_off(dz.icosphere(2), path)
        code, out, _ = run(capsys, "--json", "eig", "--mesh", path, "--k", "1")
        assert code == 0
        assert json.loads(out)["eigenvalues"][0] == pytest.approx(2.0,
                                                                  abs=0.06)

    def test_solver_counters(self, capsys):
        code, out, _ = run(capsys, "--json", "eig", "--surface", "sphere:r=1",
                           "--subdiv", "2", "--k", "1")
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["fill"] > 0 and diag["factor_s"] >= 0.0
        assert diag["solves"] > 0

    def test_torus_grid(self, capsys):
        code, out, _ = run(capsys, "--json", "eig", "--manifold",
                           "torus2:L=6.283185307179586",
                           "--resolution", "32", "--k", "1")
        assert code == 0
        assert json.loads(out)["eigenvalues"][0] == pytest.approx(1.0,
                                                                  abs=0.01)

    def test_torus_grid_diagnostics(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no solver warning may surface
            code, out, err = run(capsys, "--json", "eig", "--manifold",
                                 "torus2:L=6.283185307179586",
                                 "--resolution", "32", "--k", "1")
        assert code == 0 and err == ""
        diag = json.loads(out)["diagnostics"]
        assert diag["solver"] == "lobpcg-fft"
        assert diag["iterations"] == len(diag["residual_history"]) > 0
        assert diag["setup_s"] >= 0.0
        assert "fill" not in diag and "shift" not in diag
        assert 0.0 < diag["preconditioner_shift"] < diag["nu1"]

    def test_start_modes(self, capsys):
        # the flat square torus's lowest averaged modes are the four
        # (+-1, 0), (0, +-1): two conjugate pairs, four cos/sin rows
        code, out, _ = run(capsys, "--json", "eig", "--manifold",
                           "torus2:L=6.283185307179586",
                           "--resolution", "16", "--k", "1")
        assert code == 0
        assert json.loads(out)["diagnostics"]["start_modes"] == 4
        code, out, _ = run(capsys, "--json", "eig", "--surface", "sphere:r=1",
                           "--subdiv", "1", "--k", "1")
        assert code == 0
        assert json.loads(out)["diagnostics"]["start_modes"] == 0

    def test_sixth_eigenvalue_is_in_the_first_cluster(self, capsys):
        # the second nonzero cluster of icosphere 4 is five-fold at 6.0174;
        # shift-inverted Lanczos printed 12.0610 as the sixth value
        code, out, _ = run(capsys, "--seed", "42", "--json", "eig",
                           "--surface", "sphere", "--subdiv", "4", "--k", "6")
        assert code == 0
        mu = np.array(json.loads(out)["eigenvalues"])
        assert np.ptp(mu[3:]) <= 1e-8 and mu[5] < 6.1

    def test_k_below_mesh_nodes(self, capsys):
        # icosphere 0 has 12 nodes, so 11 nonzero eigenvalues
        code, out, err = run(capsys, "eig", "--surface", "sphere",
                             "--subdiv", "0", "--k", "12")
        assert (code, out) == (2, "")
        assert "k = 12" in err and "N = 12" in err
        code, out, _ = run(capsys, "--json", "eig", "--surface", "sphere",
                           "--subdiv", "0", "--k", "11")
        assert code == 0
        op = dz.assemble(dz.icosphere(0), dz.metric_coefficient())
        dense = sl.eigh(op.K.toarray(), op.M.toarray(), eigvals_only=True)
        assert np.allclose(json.loads(out)["eigenvalues"], dense[1:],
                           rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("domain,opt,value", [
        (("--surface", "sphere", "--subdiv", "1"), "--k", "0"),
        (("--manifold", "torus2", "--resolution", "8"), "--k", "0"),
        (("--surface", "sphere", "--subdiv", "1"), "--tol", "-1"),
        (("--surface", "sphere", "--subdiv", "1"), "--tol", "0"),
        (("--surface", "sphere", "--subdiv", "1"), "--tol", "nan"),
        (("--surface", "sphere", "--subdiv", "1"), "--tol", "inf")])
    def test_bad_k_or_tol(self, capsys, domain, opt, value):
        code, out, err = run(capsys, "eig", *domain, opt, value)
        assert (code, out) == (2, "")
        assert err.startswith("config error: %s must be" % opt[2:])

    @pytest.mark.parametrize("command", ["check", "eig"])
    def test_unreadable_mesh(self, capsys, tmp_path, command):
        missing = str(tmp_path / "missing.off")
        bad = tmp_path / "bad.off"
        bad.write_text("OFF\n3 1 0\n0 0 0\nx 0 0\n0 1 0\n3 0 1 2\n")
        for path, why in ((missing, "cannot read OFF file"),
                          (str(bad), "bad OFF token")):
            code, out, err = run(capsys, command, "--mesh", path)
            assert (code, out) == (2, "")
            assert err.startswith("config error: %s: %s" % (path, why))

    def test_missing_domain(self, capsys):
        code, _, err = run(capsys, "eig")
        assert code == 2

    @pytest.mark.parametrize("spec", ["sphere:r", "sphere:radius=2",
                                      "geodesic-sphere:kappa=1,alpha=2",
                                      "ellipsoid:1,1,0", "sphere:r=0"])
    def test_bad_or_unmeshable_surface(self, capsys, spec):
        code, _, err = run(capsys, "eig", "--surface", spec, "--subdiv", "1")
        assert code == 2
        assert err.startswith("config error:") and spec in err

    def test_mesh_off_newton1_second_order(self, capsys, tmp_path):
        # discrete P1 from vertex normals on the sphere of radius r, where
        # P1 = I/r and mu1(L1) = 2/r^3; measured errors 5.8e-3, 1.4e-3,
        # 3.6e-4 at subdivs 2-4, from above, halving h quarters the error
        r = 2.0
        errs = []
        for sub in (2, 3, 4):
            path = str(tmp_path / ("s%d.off" % sub))
            oracles.write_off(dz.icosphere(sub, r), path)
            code, out, _ = run(capsys, "--json", "eig", "--mesh", path,
                               "--operator", "newton1", "--k", "1")
            assert code == 0
            errs.append(json.loads(out)["eigenvalues"][0] - 2.0 / r ** 3)
        errs = np.array(errs)
        assert np.all(errs > 0.0)
        assert errs[-1] < 4e-4
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(np.abs(orders - 2.0) < 0.1)


class TestVerify:
    def test_bochner_passes(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "bochner",
                           "--manifold", "sphere:n=4,K=1",
                           "--phi", "schouten", "--samples", "5")
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-8

    def test_divergence(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "divergence",
                           "--manifold", "sphere:n=4,K=1", "--samples", "5")
        assert code == 0

    def test_bad_manifold(self, capsys):
        code, _, err = run(capsys, "verify", "bochner",
                           "--manifold", "moebius:w=1")
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("cvals", ["1,x", ""])
    def test_bad_c_list(self, capsys, cvals):
        code, _, err = run(capsys, "verify", "bochner", "--c", cvals,
                           "--samples", "2")
        assert code == 2
        assert err.startswith("config error:") and "--c" in err

    @pytest.mark.parametrize("target", ["bochner", "divergence"])
    def test_no_samples(self, capsys, target):
        # zero points would pass having checked nothing
        code, _, err = run(capsys, "verify", target, "--samples", "0")
        assert code == 2
        assert err.startswith("config error:")


class TestCheckAndProptest:
    def test_check_mesh(self, capsys, tmp_path):
        path = str(tmp_path / "s.off")
        oracles.write_off(dz.icosphere(1), path)
        code, out, _ = run(capsys, "--json", "check", "--mesh", path)
        assert code == 0
        assert json.loads(out)["euler_characteristic"] == 2

    def test_check_suites(self, capsys):
        code, out, _ = run(capsys, "--json", "check",
                           "--suites", "sphere-equality")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_proptest_newton(self, capsys):
        code, out, _ = run(capsys, "--json", "proptest", "newton",
                           "--trials", "500")
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_proptest_qa_planted(self, capsys):
        code, out, _ = run(capsys, "--json", "proptest", "qa",
                           "--trials", "500", "--planted")
        assert code == 0  # planted mode passes when violations ARE found

    def test_proptest_newton_planted(self, capsys):
        code, out, _ = run(capsys, "--json", "proptest", "newton",
                           "--trials", "2000", "--planted")
        assert code == 0  # planted mode passes when violations ARE found
        assert json.loads(out)["violations"] > 0

    def test_config_seed_reaches_check(self, capsys, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[solver]\nseed = 7\n[suites]\ntrials = 100\n")
        code, out, _ = run(capsys, "--json", "--config", str(p), "check",
                           "--suites", "newton")
        assert code == 0
        assert json.loads(out)["seed"] == 7
        code, out, _ = run(capsys, "--json", "--seed", "3", "--config",
                           str(p), "check", "--suites", "newton")
        assert code == 0
        assert json.loads(out)["seed"] == 3

    def test_default_seed(self, capsys):
        code, out, _ = run(capsys, "--json", "proptest", "newton",
                           "--trials", "100")
        assert code == 0
        assert json.loads(out)["seed"] == 42

    @pytest.mark.parametrize("argv", [
        ("proptest", "newton", "--trials", "100"),
        ("check", "--suites", "newton"),
        ("eig", "--surface", "sphere:r=1", "--subdiv", "1"),
        ("report", "compare", "--refine", "1,2"),
        ("verify", "bochner", "--samples", "2")])
    def test_negative_seed_refused(self, capsys, argv):
        code, _, err = run(capsys, "--seed", "-1", *argv)
        assert code == 2
        assert err == "config error: --seed must be non-negative, got -1\n"

    def test_negative_config_seed_refused(self, capsys, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[solver]\nseed = -1\n")
        code, _, err = run(capsys, "--config", str(p), "check",
                           "--suites", "newton")
        assert code == 2
        assert err == ("config error: [solver] seed must be non-negative, "
                       "got -1\n")

    @pytest.mark.parametrize("which", ["newton", "qa"])
    def test_proptest_no_trials(self, capsys, which):
        code, _, err = run(capsys, "proptest", which, "--trials", "0")
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("text,suite", [
        ("[suites]\nsubdivs =\n", "ellipsoid-compare"),
        ("[suites]\ntrials = 0\n", "newton"),
        ("[suites]\ntrials = 0\n", "qa"),
        ("[suites]\nsamples = 0\n", "bochner")])
    def test_check_empty_config_values(self, capsys, tmp_path, text, suite):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        code, out, _ = run(capsys, "--json", "--config", str(p), "check",
                           "--suites", suite)
        assert code == 2
        assert json.loads(out)["error"].startswith(suite + ":")


class TestReport:
    def test_compare_csv(self, capsys):
        code, out, _ = run(capsys, "report", "compare",
                           "--surface", "ellipsoid:1,1,1.1",
                           "--refine", "3..4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,mu1,bound,margin,verdict"
        assert len(lines) == 3
        assert all(line.endswith("InequalityHolds") for line in lines[1:])

    @pytest.mark.parametrize("surface,refine,vacuous", [
        ("ellipsoid:1,1,1.1", "3..4", True), ("sphere:r=1", "1..2", False)])
    def test_compare_flags_vacuous_bound(self, capsys, surface, refine,
                                         vacuous):
        code, out, err = run(capsys, "--json", "report", "compare",
                             "--surface", surface, "--refine", refine)
        assert code == 0 and json.loads(out)["vacuous"] is vacuous
        code, out, err = run(capsys, "report", "compare",
                             "--surface", surface, "--refine", refine)
        assert code == 0 and len(out.strip().splitlines()) == 3
        lines = err.splitlines()
        assert lines[0].startswith("vacuous: the bound -0.193") is vacuous
        assert len(lines) == 1 + vacuous
        assert lines[-1].startswith("extrapolated_mu1: ")
        assert lines[-1].endswith("observed_order: none")

    def test_compare_json_reports_solver_work(self, capsys):
        code, out, _ = run(capsys, "--json", "report", "compare",
                           "--surface", "sphere", "--refine", "1..3")
        levels = json.loads(out)["levels"]
        assert code == 0
        assert [lv["start_modes"] for lv in levels] == [0, 1, 1]
        assert all(isinstance(lv["iterations"], int) and lv["iterations"] > 0
                   for lv in levels)

    def test_compare_extrapolation_on_stderr(self, capsys):
        code, out, err = run(capsys, "report", "compare",
                             "--surface", "sphere", "--refine", "1..3")
        assert code == 0 and len(out.strip().splitlines()) == 4
        extrap, order = re.fullmatch(
            r"extrapolated_mu1: (\S+), observed_order: (\S+)\n", err).groups()
        assert float(extrap) == pytest.approx(2.0, abs=1e-4)
        assert float(order) == pytest.approx(2.014, abs=5e-4)

    def test_compare_one_level_refused(self, capsys):
        # one level has no error estimate, so its EqualityCase was a guess
        code, out, err = run(capsys, "report", "compare",
                             "--surface", "ellipsoid:1,1,1.1", "--refine", "4")
        assert (code, out) == (2, "")
        assert err.startswith("config error: a refinement study needs at "
                              "least two subdivision levels")

    def test_compare_sphere(self, capsys):
        code, out, _ = run(capsys, "--json", "report", "compare",
                           "--surface", "sphere:r=1", "--refine", "1..2")
        assert code == 0
        rep = json.loads(out)
        assert rep["semiaxes"] == [1.0, 1.0, 1.0]
        assert rep["verdict"] == "EqualityCase"

    @pytest.mark.parametrize("refine", ["3..x", "5..3"])
    def test_compare_bad_refine(self, capsys, refine):
        code, _, err = run(capsys, "report", "compare", "--refine", refine)
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("spec", ["ellipsoid:1,1", "cube:1",
                                      "geodesic-sphere:kappa=1,alpha=2",
                                      "ellipsoid:1,1,0", "ellipsoid:1,1,-1.1",
                                      "sphere:r=-1"])
    def test_compare_bad_surface(self, capsys, spec):
        code, _, err = run(capsys, "report", "compare", "--surface", spec,
                           "--refine", "1..2")
        assert code == 2
        assert err.startswith("config error:") and spec in err
