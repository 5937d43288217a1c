"""Exception hierarchy for the qre package."""


class QreError(Exception):
    """Base class for all qre errors."""


class ShapeMismatch(QreError):
    """Operands do not conform dimensionally."""


class DomainError(QreError):
    """A scalar argument is outside its admissible range."""


class ImaginaryAxisEigenvalue(QreError):
    """The Riccati Hamiltonian has an eigenvalue too close to the imaginary axis."""


class SingularU1(QreError):
    """The stable invariant subspace is not complementary to the graph subspace."""


class ResidualTooLarge(QreError):
    """Riccati residual exceeds the acceptance gate after refinement."""


class NotPhysicallyRealizable(QreError):
    """A model fails A J + J A^dag + B J B^dag = 0, J = diag(I, -I) per block."""


class WrongTopology(QreError):
    """Plant/controller pair does not match the requested interconnection."""


class ScalingTooLarge(QreError):
    """(I - eps2^2 G^dag G) is not positive definite; eps2 is too large."""


class SingularE2(QreError):
    """The measurement weighting matrix is singular."""


class CareFailure(QreError):
    """An ARE solve failed; carries which equation (X or Y) was involved,
    and its cause, which is also its ``__cause__``."""

    def __init__(self, which, cause):
        super().__init__(f"ARE for {which} failed: {cause}")
        self.which = which
        self.cause = self.__cause__ = cause


class CouplingSingular(QreError):
    """(I - YX) is numerically singular."""


class UnstableEstimator(QreError):
    """Synthesized estimator dynamics are not Hurwitz."""


class SingularAtFrequency(QreError):
    """i*omega coincides with an eigenvalue of the state matrix."""


class UnstableSystem(QreError):
    """A system that must be Hurwitz (a norm's system, a CARE closed loop) is not."""
