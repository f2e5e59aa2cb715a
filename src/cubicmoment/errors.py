"""Exception types raised by the solver."""


class MomentProblemError(Exception):
    """Base class for every error this package raises deliberately."""


class SingularM1Error(MomentProblemError):
    """A leading principal minor of M(1) is not positive; the input is out of scope.

    Carries the name of the violated minor ("d2" or "d3") and its value.
    """

    def __init__(self, minor: str, value: float):
        self.minor = minor
        self.value = value
        super().__init__(
            f"M(1) is singular or indefinite: minor {minor} = {value:.6g} is not positive"
        )


class CommutatorError(MomentProblemError):
    """The multiplication matrices fail to commute within tolerance."""


class ComplexAtomError(MomentProblemError):
    """The joint spectrum is not real; signals upstream inconsistency."""


class InconsistentRelationsError(MomentProblemError):
    """Two functional-calculus derivations of the same column disagree."""


class SingularVandermondeError(MomentProblemError):
    """Coincident atoms made the density system singular; upstream failure."""


class VerificationError(MomentProblemError):
    """The recovered measure does not reproduce the input moments to tolerance."""
