"""Exception types shared across the package."""


class MomentSumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MomentSumError):
    """Argument outside the evaluable domain (sector, ray, or threshold)."""


class NoConvergence(MomentSumError):
    """Iterative solver did not reach the requested residual.

    Carries the last iterate and residual so callers can inspect or retry.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class BracketError(MomentSumError):
    """No interior maximum found while bracketing an optimizer."""


class UnsupportedFamily(MomentSumError):
    """Closed form requested for a weight family that has none."""


class TruncationError(MomentSumError):
    """Series truncation index exceeded its cap before tail domination."""


class DecayTooSlow(MomentSumError):
    """Contour integrand tail cannot reach the requested tolerance."""


class SaddleFailure(MomentSumError):
    """Saddle-point solve failed where an asymptotic formula needs it."""


class IncompatibleGrowth(MomentSumError):
    """Integrand growth tag incompatible with kernel decay (eta*x >= 1)."""


class QuadratureStall(MomentSumError):
    """Adaptive quadrature could not reach the requested tolerance."""


class DegenerateDenominator(MomentSumError):
    """Pade denominator solve is singular or numerically near-singular."""


class OrderingError(MomentSumError):
    """Transseries exponents not strictly increasing."""


class PZeroOnRay(MomentSumError):
    """A zero on the path x * [0, infinity) of the Laplace integral: the
    Euler operator polynomial P vanishes on [0, infinity) at x >= 0, or on
    (-infinity, 0] at x < 0 (euler_solve); or at x < 0 the Pade
    continuation has a pole on (-infinity, 0] (moment_sum).  At x < 0 a
    root is passed over where the kernel at its image is below the DE
    rule's end floor."""


class StepTooLarge(MomentSumError):
    """Finite-difference step too large relative to dist(z, J)."""


class JetUnavailable(MomentSumError):
    """Taylor jet of the requested order is not available."""


class NonPositivePoint(MomentSumError):
    """Logarithmic change of variables needs a positive evaluation point."""


class DerivativeUnavailable(MomentSumError):
    """Derivative data of the requested order cannot be produced."""
