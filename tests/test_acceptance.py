"""End-to-end acceptance suite.

Each test checks one headline claim of the library at its stated tolerance
and runtime budget, and prints a single PASS/FAIL summary line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from spectra_bochner import (bounds as bd, discretize as dz, harness as hz,
                             spectral as spec)

import oracles


def _report(name, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s over budget"


def test_01_sphere_equality_schouten_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 5, 6):
        b = bd.schouten_bound(n, float(n * (n - 1)), 1.0, float(n - 1))
        mu = spec.analytic_sphere_spectrum(n, 1.0, spec.OP_SCHOUTEN, 1)[0]
        assert mu == pytest.approx(n * (n - 2) / 2.0, rel=1e-14)
        worst = max(worst, abs(b - mu) / mu)
    _report("criterion 1 (Schouten bound equality on round spheres)",
            worst <= 1e-12, 1.0, time.perf_counter() - t0,
            f"worst relative gap {worst:.2e}")


def test_02_sphere_equality_newton_bound():
    t0 = time.perf_counter()
    cases = [(2, 0.0, 1.0), (2, 0.0, 2.0), (3, 1.0, 1.0), (2, -1.0, 2.0)]
    worst = 0.0
    for n, kappa, alpha in cases:
        b = bd.newton_bound(n, kappa, alpha, 1.0, 0.0)
        expect = n * (n - 1) * alpha * (alpha ** 2 + kappa)
        mu = spec.analytic_sphere_spectrum(n, alpha ** 2 + kappa,
                                           spec.OP_NEWTON_L1, 1,
                                           alpha=alpha, kappa=kappa)[0]
        worst = max(worst, abs(b - expect) / expect, abs(mu - expect) / expect)
    _report("criterion 2 (umbilic equality of the linearized-operator bound)",
            worst <= 1e-12, 1.0, time.perf_counter() - t0,
            f"4 cases, both curvature signs, worst relative gap {worst:.2e}")


def test_03_fem_unit_sphere_convergence():
    t0 = time.perf_counter()
    mus = []
    for sub in (4, 5, 6):
        m = dz.icosphere(sub)
        op = dz.assemble(m, dz.ellipsoid_newton1_coefficient([1, 1, 1]))
        mus.append(spec.smallest_nonzero(op, k=1).mu1)
    errs = [mu - 2.0 for mu in mus]
    in_range = all(2.0 <= mu <= 2.1 for mu in mus)
    order = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    extrap = mus[-1] + (mus[-1] - mus[-2]) / 3.0
    extrap_ok = abs(extrap - 2.0) / 2.0 < 0.002
    ok = in_range and min(order, order2) >= 1.8 and extrap_ok
    _report("criterion 3 (FEM eigenvalue convergence on the unit sphere)",
            ok, 120.0, time.perf_counter() - t0,
            f"mu1={mus[-1]:.6f}, orders {order:.3f}/{order2:.3f}, "
            f"extrapolated {extrap:.6f}")


def test_04_ellipsoid_strict_inequality():
    t0 = time.perf_counter()
    rep = hz.ellipsoid_compare(semiaxes=(1.0, 1.0, 1.1), subdivs=(4, 5))
    last = rep["levels"][-1]
    ok = (last["verdict"] == bd.VERDICT_INEQUALITY
          and last["margin"] > 3.0 * rep["error_estimate"])
    _report("criterion 4 (strict inequality on a non-umbilic ellipsoid)",
            ok, 180.0, time.perf_counter() - t0,
            f"mu1={last['mu1']:.6f}, bound={last['bound']:.6f}, "
            f"margin={last['margin']:.3f} > 3x err "
            f"{3.0 * rep['error_estimate']:.2e}")


@pytest.mark.parametrize("c,bound,mu1", [(1.02, 1.3302, 1.9610),
                                          (1.05, 0.5906, 1.9024)])
def test_04_ellipsoid_positive_bound(c, bound, mu1):
    # criterion 4 beside a bound that is not vacuous: near-round spheroids,
    # where alpha, a and sigma are 1/c^2, c^3 and (c^2 - 1)(c^2 + 3)/c^6
    t0 = time.perf_counter()
    rep = hz.ellipsoid_compare(semiaxes=(1.0, 1.0, c), subdivs=(4, 5))
    ok = (not rep["vacuous"]
          and rep["bound"] == pytest.approx(bound, abs=1e-4)
          and rep["mu1"] == pytest.approx(mu1, abs=1e-4)
          and rep["verdict"] == bd.VERDICT_INEQUALITY
          and rep["margin"] > 3.0 * rep["error_estimate"])
    _report("criterion 4, positive bound (strict inequality on (1,1,%g))" % c,
            ok, 180.0, time.perf_counter() - t0,
            f"mu1={rep['mu1']:.6f}, bound={rep['bound']:.6f}, "
            f"margin={rep['margin']:.3f} > 3x err "
            f"{3.0 * rep['error_estimate']:.2e}")


def test_05_bochner_identity_suite():
    t0 = time.perf_counter()
    rep = hz.bochner_suite(samples=200)
    ok = rep["max_residual"] <= 1e-8 and rep["max_c_spread"] <= 1e-10
    _report("criterion 5 (Bochner-type identity residuals)",
            ok, 30.0, time.perf_counter() - t0,
            f"{len(rep['cases'])} manifold/coefficient cases, "
            f"max residual {rep['max_residual']:.2e}, "
            f"c-spread {rep['max_c_spread']:.2e}")


def test_06_trace_inequality_trials():
    t0 = time.perf_counter()
    rep = hz.newton_inequality_trials(hz.TrialConfig(trials=100_000))
    ok = (rep["violations"] == 0 and rep["equality_false_positives"] == 0
          and rep["worst_defect"] >= -1e-10)
    _report("criterion 6 (trace inequality over random matrix trials)",
            ok, 10.0, time.perf_counter() - t0,
            f"{rep['trials']} trials dims 2-8, {rep['violations']} violations, "
            f"worst defect {rep['worst_defect']:.2e}, "
            f"{rep['equality_hits']} equality hits")


def test_07_shape_polynomial_bound_trials():
    t0 = time.perf_counter()
    cfg = hz.TrialConfig(trials=100_000)
    pos = hz.qa_bound_trials(cfg, kappa_sign="positive")
    neg = hz.qa_bound_trials(cfg, kappa_sign="negative")
    planted = hz.qa_bound_trials(hz.TrialConfig(trials=2000),
                                 kappa_sign="negative", planted=True)
    ok = (pos["violations"] == 0 and neg["violations"] == 0
          and planted["violations"] > 0)
    _report("criterion 7 (shape-polynomial lower bound trials)",
            ok, 10.0, time.perf_counter() - t0,
            f"0 violations in 2x{cfg.trials} trials; "
            f"planted control flagged {planted['violations']} violations")


def test_08_divergence_identities():
    t0 = time.perf_counter()
    rep = hz.divergence_suite(samples=25)
    order = hz.fd_order_study(samples=6)["observed_order"]
    ok = rep["max_defect"] <= 1e-8 and abs(order - 2.0) < 0.4
    _report("criterion 8 (divergence identities analytic + finite-difference)",
            ok, 30.0, time.perf_counter() - t0,
            f"max analytic defect {rep['max_defect']:.2e}, "
            f"FD defect order {order:.4f}")


def test_09_discrete_operator_consistency():
    t0 = time.perf_counter()
    m = dz.icosphere(3)
    op = dz.assemble(m, dz.metric_coefficient())
    cot_diff = abs(op.K - oracles.cotangent_stiffness(m)).max()

    reports, neg_errs = [], []
    for res in (16, 32, 64):
        g = dz.PeriodicGrid(lengths=[2 * np.pi, 2 * np.pi], shape=(res, res))
        reports.append(oracles.pointwise_vs_weak_consistency(
            g, dz.metric_coefficient(),
            lambda p: np.cos(p[0]), lambda p: -np.cos(p[0])))

        def boxf(p):
            return -(1.0 + 0.5 * (1.0 + np.sin(p[0]))) * np.cos(p[0])

        neg_errs.append(oracles.pointwise_vs_weak_consistency(
            g, oracles.nondivergence_free_coefficient(),
            lambda p: np.cos(p[0]), boxf)["max_error"])

    order = oracles.observed_order(reports)
    ok = (cot_diff < 1e-12 and abs(order - 2.0) < 0.3 and neg_errs[-1] > 0.05)
    _report("criterion 9 (pointwise vs weak-form operator consistency)",
            ok, 60.0, time.perf_counter() - t0,
            f"cotangent-oracle diff {cot_diff:.2e}, grid order {order:.3f}, "
            f"negative-control error {neg_errs[-1]:.2f} (non-vanishing)")
