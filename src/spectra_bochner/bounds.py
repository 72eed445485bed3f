"""Closed-form eigenvalue lower bounds and comparison verdicts.

Two bounds are implemented:

* Schouten operator, constant scalar curvature R, sectional curvature >= K0,
  Ricci >= L0 (n >= 4):
      mu1 >= (n-2)/(2(n-1)) * R/(R - 2 L0) * Gamma,
      Gamma = L0^2 - (R/(2(n-1)) + K0) L0 + K0 R / 2,
  with equality on the round sphere.

* Linearized operator L1 of a convex hypersurface with 0 < alpha I <= A <=
  a alpha I in a space form of curvature kappa:
      mu >= 1/2 * (n a)/(n a - 1) * [2(n-1) alpha^3 (n - a^2) + C_kappa - sigma],
  where C_kappa = 2 kappa (n-1)^2 alpha for kappa > 0 and
  2 kappa (n-1)^2 a alpha for kappa <= 0; equality on geodesic spheres
  (a = 1, sigma = 0) where mu = n(n-1) alpha (alpha^2 + kappa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConfigError, DenominatorNonpositive, DimensionTooSmall,
                     NotConvex)

VERDICT_EQUALITY = "EqualityCase"
VERDICT_INEQUALITY = "InequalityHolds"
VERDICT_HYPOTHESIS_FAILED = "HypothesisFailed"
VERDICT_VIOLATION = "ViolationSuspected"


@dataclass(frozen=True)
class SchoutenBoundInput:
    n: int
    R: float
    K0: float
    L0: float
    harmonic_weyl_checked: bool = True
    R_constant_checked: bool = True
    schouten_positive_checked: bool = True

    @property
    def lambda0(self):
        """Least Schouten eigenvalue bound: L0 - R/(2(n-1))."""
        return self.L0 - self.R / (2.0 * (self.n - 1))

    @property
    def gamma(self):
        return (self.L0 ** 2
                - (self.R / (2.0 * (self.n - 1)) + self.K0) * self.L0
                + 0.5 * self.K0 * self.R)

    @property
    def hypotheses_ok(self):
        return (self.harmonic_weyl_checked and self.R_constant_checked
                and self.schouten_positive_checked)


@dataclass(frozen=True)
class NewtonBoundInput:
    n: int
    kappa: float
    alpha: float
    a: float
    sigma: float
    convexity_checked: bool = True

    @property
    def hypotheses_ok(self):
        # alpha > 0, a >= 1 and n*a > 1 are enforced by newton_bound
        return self.convexity_checked


@dataclass(frozen=True)
class BoundReport:
    bound_value: float
    computed_mu1: Optional[float]
    margin: Optional[float]
    verdict: str
    tolerance: float
    hypotheses_ok: bool
    notes: dict = field(default_factory=dict)

    @property
    def vacuous(self):
        """A bound <= 0 says nothing: mu1 > 0 holds on any closed manifold,
        so every verdict against it is trivially true."""
        return self.bound_value <= 0.0


def _check_finite(what, **values):
    """ConfigError naming the first value that is nan or infinite."""
    for name, val in values.items():
        if not math.isfinite(val):
            raise ConfigError("%s needs finite inputs, got %s=%r"
                              % (what, name, val))


def schouten_bound(n, R, K0, L0):
    """Evaluate the Schouten-operator lower bound.  Raises ConfigError for
    a non-finite input."""
    inp = SchoutenBoundInput(n=int(n), R=float(R), K0=float(K0), L0=float(L0))
    _check_finite("Schouten bound", R=inp.R, K0=inp.K0, L0=inp.L0)
    if inp.n < 4:
        raise DimensionTooSmall("Schouten bound requires n >= 4, got %d"
                                % inp.n)
    den = inp.R - 2.0 * inp.L0
    if den <= 0.0:
        raise DenominatorNonpositive("R - 2*L0 = %g <= 0" % den)
    return ((inp.n - 2.0) / (2.0 * (inp.n - 1.0))) * (inp.R / den) * inp.gamma


def l1_core(n, alpha, a, kappa):
    """2(n-1) alpha^3 (n - a^2) + C_kappa: the L1 bound's bracket without
    sigma, and the claimed lower bound on the diagonal of Q(A).  Elementwise
    on arrays; a scalar kappa branches in Python, so floats give a float."""
    ck = 2.0 * kappa * (n - 1.0) ** 2
    if np.ndim(kappa):
        ck = np.where(kappa > 0.0, ck * alpha, ck * a * alpha)
    else:
        ck = ck * alpha if kappa > 0.0 else ck * a * alpha
    return 2.0 * (n - 1.0) * alpha ** 3 * (n - a ** 2) + ck


def newton_bound(n, kappa, alpha, a, sigma):
    """Evaluate the L1 lower bound; kappa's sign selects the variant.
    Raises ConfigError for a non-finite input or a < 1, NotConvex for
    alpha <= 0 and DenominatorNonpositive for n*a <= 1."""
    inp = NewtonBoundInput(n=int(n), kappa=float(kappa), alpha=float(alpha),
                           a=float(a), sigma=float(sigma))
    _check_finite("L1 bound", kappa=inp.kappa, alpha=inp.alpha, a=inp.a,
                  sigma=inp.sigma)
    if inp.alpha <= 0.0:
        raise NotConvex("L1 bound needs alpha > 0, got %g" % inp.alpha)
    if inp.a < 1.0:
        raise ConfigError("L1 bound needs a >= 1, got %g" % inp.a)
    if inp.n * inp.a <= 1.0:
        raise DenominatorNonpositive("n*a - 1 = %g <= 0"
                                     % (inp.n * inp.a - 1.0))
    n_, a_ = inp.n, inp.a
    core = l1_core(n_, inp.alpha, a_, inp.kappa) - inp.sigma
    return 0.5 * (n_ * a_ / (n_ * a_ - 1.0)) * core


def sphere_equality_value(n, alpha, kappa):
    """mu(L1) on the umbilic geodesic sphere: n(n-1) alpha (alpha^2 + kappa)."""
    return n * (n - 1.0) * alpha * (alpha ** 2 + kappa)


def compare(bound_input, mu1, error_estimate=0.0, analytic=True):
    """Build a BoundReport comparing a computed/analytic mu1 to the bound.

    Equality tolerance: 1e-6 relative for analytic values, 3x the supplied
    refinement error estimate otherwise.  A margin within the tolerance is
    EqualityCase, a larger positive one InequalityHolds, and a margin below
    minus the tolerance ViolationSuspected.
    """
    inp = bound_input
    if isinstance(inp, SchoutenBoundInput):
        bound = schouten_bound(inp.n, inp.R, inp.K0, inp.L0)
    elif isinstance(inp, NewtonBoundInput):
        bound = newton_bound(inp.n, inp.kappa, inp.alpha, inp.a, inp.sigma)
    else:
        raise TypeError("expected SchoutenBoundInput or NewtonBoundInput")
    mu1 = float(mu1)
    margin = mu1 - bound
    scale = max(abs(mu1), abs(bound), 1e-300)
    tol = 1e-6 * scale if analytic else 3.0 * float(error_estimate)
    if not inp.hypotheses_ok:
        verdict = VERDICT_HYPOTHESIS_FAILED
    elif abs(margin) <= tol:
        verdict = VERDICT_EQUALITY
    elif margin > 0.0:
        verdict = VERDICT_INEQUALITY
    else:
        verdict = VERDICT_VIOLATION
    notes = {"error_estimate": float(error_estimate), "analytic": analytic}
    return BoundReport(bound_value=bound, computed_mu1=mu1, margin=margin,
                       verdict=verdict, tolerance=tol,
                       hypotheses_ok=inp.hypotheses_ok, notes=notes)
