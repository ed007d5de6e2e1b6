"""Exception types shared across the package."""


class JproxError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(JproxError, ValueError):
    """A solver or certification parameter is out of its range, or names no known choice."""


class DimensionMismatch(JproxError):
    """Operands have incompatible shapes."""


class NotSymmetric(JproxError):
    """A matrix expected to be symmetric is asymmetric beyond tolerance."""


class NotPositiveDefinite(JproxError):
    """A factorization or eigenvalue check hit a non-positive pivot."""


class NotPSD(JproxError):
    """A proximal matrix is not positive semi-definite."""


class SubproblemFailed(JproxError):
    """A block subproblem could not be solved."""


class NoBracket(JproxError):
    """Root bracketing failed within the expansion limit."""


class MaxItersExceeded(JproxError):
    """An iterative scalar solve hit its iteration cap."""


class GammaOutOfRange(JproxError):
    """The dual damping factor is outside (0, 2)."""


class NotStronglyConvex(JproxError):
    """The strong-convexity modulus is zero or numerically unusable.

    Carries the offending modulus in :attr:`alpha` when known.
    """

    def __init__(self, message, alpha=None):
        super().__init__(message)
        self.alpha = alpha


class NonPositiveWeight(JproxError):
    """Lyapunov weight matrices are not positive definite."""


class InsufficientData(JproxError):
    """Too few usable points for a rate fit."""


class DegenerateAfterRetries(JproxError):
    """Instance generation kept producing rank-deficient matrices."""


class SingularKkt(JproxError):
    """The dense KKT system is inconsistent or numerically singular."""


class CertificationError(JproxError):
    """No certifiable parameter choice exists for the request."""
