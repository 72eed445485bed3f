import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectra_bochner import bounds as bd, spectral as spec
from spectra_bochner.errors import (ConfigError, DenominatorNonpositive,
                                    DimensionTooSmall, NotConvex)


class TestSchoutenBound:
    def test_round_s4(self):
        assert bd.schouten_bound(4, 12.0, 1.0, 3.0) == pytest.approx(4.0)

    def test_round_s5(self):
        assert bd.schouten_bound(5, 20.0, 1.0, 4.0) == pytest.approx(7.5)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_sphere_equality_all_dims(self, n):
        b = bd.schouten_bound(n, float(n * (n - 1)), 1.0, float(n - 1))
        mu = spec.analytic_sphere_spectrum(n, 1.0, spec.OP_SCHOUTEN, 1)[0]
        assert b == pytest.approx(mu, rel=1e-14)
        assert mu == pytest.approx(n * (n - 2) / 2.0, rel=1e-14)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            bd.schouten_bound(3, 6.0, 1.0, 2.0)

    def test_denominator_nonpositive(self):
        with pytest.raises(DenominatorNonpositive):
            bd.schouten_bound(4, 12.0, 1.0, 6.0)

    def test_gamma(self):
        assert bd.schouten_gamma(4, 12.0, 1.0, 3.0) == pytest.approx(6.0)

    def test_metric_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 8))
            K0 = rng.uniform(0.2, 1.5)
            L0 = rng.uniform((n - 1) * K0 * 0.8, (n - 1) * K0)
            R = rng.uniform(2 * L0 + 0.5, 2 * (n - 1) * L0)
            t = rng.uniform(0.5, 2.0)
            b0 = bd.schouten_bound(n, R, K0, L0)
            b1 = bd.schouten_bound(n, R / t ** 2, K0 / t ** 2, L0 / t ** 2)
            assert b1 * t ** 4 == pytest.approx(b0, rel=1e-10)


class TestNewtonBound:
    @pytest.mark.parametrize("n,kappa,alpha,expect", [
        (2, 0.0, 1.0, 2.0),
        (2, 0.0, 2.0, 16.0),
        (3, 1.0, 1.0, 12.0),
        (2, -1.0, 2.0, 12.0),
    ])
    def test_umbilic_equality(self, n, kappa, alpha, expect):
        b = bd.newton_bound(n, kappa, alpha, 1.0, 0.0)
        assert b == pytest.approx(expect, rel=1e-14)
        mu = spec.analytic_sphere_spectrum(n, 1.0, spec.OP_NEWTON_L1, 1,
                                           alpha=alpha, kappa=kappa)[0]
        assert mu == pytest.approx(expect, rel=1e-14)

    @given(st.integers(min_value=2, max_value=6),
           st.floats(min_value=0.2, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_branch_continuity_at_kappa_zero(self, n, alpha):
        up = bd.newton_bound(n, 1e-12, alpha, 1.3, 0.1)
        dn = bd.newton_bound(n, -1e-12, alpha, 1.3, 0.1)
        assert up == pytest.approx(dn, abs=1e-9)

    def test_monotone_decreasing_in_sigma(self):
        vals = [bd.newton_bound(3, 1.0, 1.0, 1.2, s)
                for s in np.linspace(0.0, 2.0, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_decreasing_in_a(self):
        for kappa in (1.0, -1.0):
            vals = [bd.newton_bound(3, kappa, 1.0, a, 0.0)
                    for a in np.linspace(1.0, np.sqrt(3.0), 9)]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    @given(st.integers(min_value=2, max_value=6),
           st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=0.3, max_value=1.8),
           st.floats(min_value=1.0, max_value=1.6),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_covariance(self, n, kappa, alpha, a, sigma, t):
        b0 = bd.newton_bound(n, kappa, alpha, a, sigma)
        b1 = bd.newton_bound(n, kappa / t ** 2, alpha / t, a, sigma / t ** 3)
        assert b1 == pytest.approx(b0 / t ** 3,
                                   abs=1e-9 * max(1.0, abs(b0)))

    def test_invalid_inputs(self):
        with pytest.raises(NotConvex, match="alpha > 0"):
            bd.newton_bound(2, 0.0, -1.0, 1.0, 0.0)
        with pytest.raises(ConfigError, match="a >= 1"):
            bd.newton_bound(2, 0.0, 1.0, 0.9, 0.0)
        with pytest.raises(DenominatorNonpositive, match="n\\*a - 1"):
            bd.newton_bound(1, 0.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_inputs(self, bad):
        # nan fails every <= test of the hypotheses, so it must be refused
        # before them rather than give a nan bound
        for i, name in enumerate(("kappa", "alpha", "a", "sigma")):
            args = [0.0, 1.0, 1.0, 0.0]
            args[i] = bad
            with pytest.raises(ConfigError,
                               match="L1 bound needs finite inputs, got %s="
                               % name):
                bd.newton_bound(2, *args)
        for i, name in enumerate(("R", "K0", "L0")):
            args = [12.0, 1.0, 3.0]
            args[i] = bad
            with pytest.raises(ConfigError, match="Schouten bound needs "
                               "finite inputs, got %s=" % name):
                bd.schouten_bound(4, *args)


class TestCompare:
    @pytest.mark.parametrize("mu1,bound_args,vacuous", [
        (1.808, (2, 0.0, 0.83, 1.32, 0.5), True),    # bound < 0
        (2.0, (2, 0.0, 1.0, 1.0, 0.0), False),       # the unit sphere, 2
    ])
    def test_vacuous_flag(self, mu1, bound_args, vacuous):
        rep = bd.compare(bd.newton_bound(*bound_args), mu1, 6e-4)
        assert rep.vacuous is (rep.bound_value <= 0.0) is vacuous

    def test_analytic_equality(self):
        rep = bd.compare(bd.schouten_bound(4, 12.0, 1.0, 3.0), 4.0)
        assert rep.verdict == bd.VERDICT_EQUALITY
        assert abs(rep.margin) < 1e-12

    def test_fem_equality_tolerance(self):
        bound = bd.newton_bound(2, 0.0, 1.0, 1.0, 0.0)
        rep = bd.compare(bound, 2.0029, error_estimate=0.0011)
        assert rep.verdict == bd.VERDICT_EQUALITY

    def test_inequality(self):
        bound = bd.newton_bound(2, 0.0, 0.83, 1.32, 0.5)
        rep = bd.compare(bound, 1.808, error_estimate=6e-4)
        assert rep.verdict == bd.VERDICT_INEQUALITY
        assert rep.margin > 0

    def test_violation_suspected(self):
        bound = bd.schouten_bound(4, 12.0, 1.0, 3.0)
        rep = bd.compare(bound, 3.5, error_estimate=0.01)
        assert rep.verdict == bd.VERDICT_VIOLATION

    @pytest.mark.parametrize("excess", [1e-9, 1e-3, 0.5, 10.0])
    @pytest.mark.parametrize("err", [None, 0.0, 0.004])
    def test_margin_below_tolerance_is_violation(self, err, excess):
        # every negative margin beyond the tolerance, analytic (err None)
        # or against a refinement error estimate
        bound = bd.newton_bound(2, 0.0, 1.0, 1.0, 0.0)   # 2
        if err is None:
            tol = 1e-6 * 2.0
            rep = bd.compare(bound, 2.0 - tol * (1.0 + excess))
        else:
            tol = 3.0 * err
            rep = bd.compare(bound, 2.0 - tol - excess, error_estimate=err)
        assert rep.tolerance == pytest.approx(tol)
        assert rep.margin < -rep.tolerance
        assert rep.verdict == bd.VERDICT_VIOLATION

    def test_nan_error_estimate_is_not_inequality(self):
        bound = bd.newton_bound(2, 0.0, 1.0, 1.0, 0.0)
        rep = bd.compare(bound, 1.9, error_estimate=float("nan"))
        assert rep.verdict == bd.VERDICT_VIOLATION

    def test_small_negative_margin_within_noise(self):
        bound = bd.newton_bound(2, 0.0, 1.0, 1.0, 0.0)
        rep = bd.compare(bound, 1.999, error_estimate=0.005)
        assert rep.verdict != bd.VERDICT_VIOLATION
