"""The bounds of the solver's gates, each defined here once, and the errors a failed gate raises.

A solve passes the gates of five stages: normalize, extend, joint spectrum, densities and verify.
"""

TOL_K = 1e-10  # |k| at or below which k counts as 0: the flat rank-3 route, also tried after a density-floor failure
SINGULAR_RTOL = 1e-10  # the pivots d2, d3 of M(1) must exceed this times its largest entry
DEFECT_ATOL = 1e-10  # largest entry of M(1) - I accepted after normalization
TOL_COMMUTE = 1e-9  # largest entry of Mx My - My Mx, relative to max(1, max |Mx|, max |My|)
TOL_EIG = 1e-7  # largest joint eigenvector residual of Mx, and of My, relative to max(1, max |M|) of that matrix
MIN_ATOM_SEPARATION = 1e-8  # smallest max-norm distance between two atoms
MAX_VARIETY_RESIDUAL = 1e-7  # largest entry of V_B M - diag(t) V_B accepted at the normalized atoms
MIN_WEIGHT = 1e-10  # smallest normalized density accepted before the solve is declared faulty
TOL_ACCEPT = 1e-8  # default largest moment residual of solve_cubic's accept and of a request's, for solve and verify


class MomentProblemError(Exception):
    """Base class for every error this package raises deliberately: a failed gate.

    stage is the stage that failed, quantity names what its gate measured,
    value is the quantity's value (None for a failure without a number,
    such as a LAPACK failure) and bound the bound it failed (None when the
    gate asks for a finite value). The message is formatted when it is read.
    """

    def __init__(self, stage: str, quantity: str, value: float | None = None, bound: float | None = None):
        super().__init__(stage, quantity, value, bound)  # args rebuild the error under pickle and copy
        self.stage, self.quantity, self.value, self.bound = stage, quantity, value, bound

    def __str__(self) -> str:
        text = f"{self.stage} failed: {self.quantity}"
        if self.value is not None:
            text += f" = {self.value:.6g}"
        return text if self.bound is None else f"{text} (bound {self.bound:.6g})"


class SingularM1Error(MomentProblemError):
    """A pivot of M(1), quantity "d2" or "d3", is not above its bound; the input is out of scope."""


class CommutatorError(MomentProblemError):
    """The multiplication matrices fail to commute (for k < 0: the two XY^2 expansions disagree)."""


class ComplexAtomError(MomentProblemError):
    """The joint spectrum is not real; signals upstream inconsistency."""


class SingularVandermondeError(MomentProblemError):
    """Coincident atoms made the density system singular; upstream failure."""


class VerificationError(MomentProblemError):
    """The recovered measure misses the input moments, a density floor, or the variety."""
