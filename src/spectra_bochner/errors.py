"""Exception hierarchy shared across the package."""


class SpectraError(Exception):
    """Base class for all package errors."""


class NonPositiveMetric(SpectraError):
    """Metric failed the positive-definiteness check at a sample/stencil point."""


class DegeneratePlane(SpectraError):
    """Sectional curvature requested for linearly dependent vectors."""


class DegenerateImmersion(SpectraError):
    """Induced metric of an immersion is singular at the evaluation point."""


class NotConvex(SpectraError):
    """A sampled principal curvature is non-positive."""


class NotPositiveDefinite(SpectraError):
    """Coefficient tensor is not positive definite where required."""


class InsufficientSmoothness(SpectraError):
    """Derivative mode cannot deliver the derivative order requested."""


class NonSymmetricCoefficient(SpectraError):
    """Coefficient provider returned a non-symmetric matrix."""


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
    """R - 2*L0 <= 0: the Schouten bound is undefined."""


class DimensionTooSmall(SpectraError):
    """Operation requires a larger dimension."""


class ConfigError(SpectraError):
    """Config file / spec string could not be parsed."""
