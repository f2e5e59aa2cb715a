"""Exception types raised by the solver."""


class MomentProblemError(Exception):
    """Base class for every error this package raises deliberately."""


class SingularM1Error(MomentProblemError):
    """A leading principal minor of M(1) is not above its threshold; the input is out of scope.

    Carries the name of the violated minor ("d2" or "d3"), its value and the
    threshold it failed to clear.
    """

    def __init__(self, minor: str, value: float, threshold: float):
        self.minor = minor
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"M(1) is singular or indefinite: minor {minor} = {value:.6g} is not above {threshold:.6g}"
        )


class CommutatorError(MomentProblemError):
    """The multiplication matrices fail to commute (for k < 0: the two XY^2 expansions disagree)."""


class ComplexAtomError(MomentProblemError):
    """The joint spectrum is not real; signals upstream inconsistency."""


class SingularVandermondeError(MomentProblemError):
    """Coincident atoms made the density system singular; upstream failure."""


class VerificationError(MomentProblemError):
    """The recovered measure does not reproduce the input moments to tolerance."""
