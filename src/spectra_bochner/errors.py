"""Exception hierarchy shared across the package."""


class SpectraError(Exception):
    """Base class for all package errors."""


class NonPositiveMetric(SpectraError):
    """Metric failed the positive-definiteness check at a sample/stencil point."""


class DegenerateImmersion(SpectraError):
    """Induced metric of an immersion is singular at the evaluation point."""


class NotConvex(SpectraError):
    """A bound's alpha is non-positive."""


class NotPositiveDefinite(SpectraError):
    """Coefficient tensor is not positive definite where required."""


class NonSymmetricCoefficient(SpectraError):
    """A coefficient provider or tensor field gave a non-symmetric or
    non-finite matrix."""


class DegenerateElement(SpectraError):
    """Mesh element fails the quality gates (angle/area)."""


class FactorizationFailure(SpectraError):
    """Sparse factorization of the shifted stiffness failed."""


class NoConvergence(SpectraError):
    """Eigensolver did not converge; carries the best Ritz data."""

    def __init__(self, message, eigenvalues=None, residuals=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


class SchoutenUndefined(SpectraError):
    """Schouten tensor requested in dimension 2."""


class DenominatorNonpositive(SpectraError):
    """A bound's denominator (R - 2*L0, n*a - 1) is <= 0: it is undefined."""


class DimensionTooSmall(SpectraError):
    """Operation requires a larger dimension."""


class ConfigError(SpectraError):
    """Config file / spec string could not be parsed."""
