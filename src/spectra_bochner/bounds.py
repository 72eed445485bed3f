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
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DenominatorNonpositive, DimensionTooSmall,
                     NotConvex)

VERDICT_EQUALITY = "EqualityCase"
VERDICT_INEQUALITY = "InequalityHolds"
VERDICT_VIOLATION = "ViolationSuspected"


@dataclass(frozen=True)
class BoundReport:
    bound_value: float
    margin: float
    verdict: str
    tolerance: float

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


def schouten_gamma(n, R, K0, L0):
    """Gamma = L0^2 - (R/(2(n-1)) + K0) L0 + K0 R / 2."""
    return L0 ** 2 - (R / (2.0 * (n - 1)) + K0) * L0 + 0.5 * K0 * R


def schouten_bound(n, R, K0, L0):
    """Evaluate the Schouten-operator lower bound.  Raises ConfigError for
    a non-finite input."""
    n, R, K0, L0 = int(n), float(R), float(K0), float(L0)
    _check_finite("Schouten bound", R=R, K0=K0, L0=L0)
    if n < 4:
        raise DimensionTooSmall("Schouten bound requires n >= 4, got %d" % n)
    den = R - 2.0 * L0
    if den <= 0.0:
        raise DenominatorNonpositive("R - 2*L0 = %g <= 0" % den)
    return ((n - 2.0) / (2.0 * (n - 1.0))) * (R / den) \
        * schouten_gamma(n, R, K0, L0)


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
    n, kappa, alpha = int(n), float(kappa), float(alpha)
    a, sigma = float(a), float(sigma)
    _check_finite("L1 bound", kappa=kappa, alpha=alpha, a=a, sigma=sigma)
    if alpha <= 0.0:
        raise NotConvex("L1 bound needs alpha > 0, got %g" % alpha)
    if a < 1.0:
        raise ConfigError("L1 bound needs a >= 1, got %g" % a)
    if n * a <= 1.0:
        raise DenominatorNonpositive("n*a - 1 = %g <= 0" % (n * a - 1.0))
    core = l1_core(n, alpha, a, kappa) - sigma
    return 0.5 * (n * a / (n * a - 1.0)) * core


def compare(bound, mu1, error_estimate=None):
    """Build a BoundReport comparing mu1 to a bound value.

    Equality tolerance: 1e-6 relative without an error estimate (an
    analytic mu1), 3x the refinement error estimate otherwise.  A margin
    within the tolerance is EqualityCase, a larger positive one
    InequalityHolds, and a margin below minus the tolerance
    ViolationSuspected.
    """
    bound, mu1 = float(bound), float(mu1)
    margin = mu1 - bound
    if error_estimate is None:
        tol = 1e-6 * max(abs(mu1), abs(bound), 1e-300)
    else:
        tol = 3.0 * float(error_estimate)
    if abs(margin) <= tol:
        verdict = VERDICT_EQUALITY
    elif margin > 0.0:
        verdict = VERDICT_INEQUALITY
    else:
        verdict = VERDICT_VIOLATION
    return BoundReport(bound_value=bound, margin=margin,
                       verdict=verdict, tolerance=tol)
