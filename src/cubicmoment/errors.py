"""The bounds of the solver's gates, each defined here once, and the errors a failed gate raises.

A solve passes the gates of five stages: normalize, extend, joint spectrum, densities and verify.
The answer is judged by its signs (densities, verify) and its backward error; u = 2^-53 is the unit roundoff.
"""

TOL_PIVOT = 64 * 2.0**-53  # the pivots d2, d3 of M(1) must exceed this times their rounding scales t2, t3
TOL_TIE = 1024 * 2.0**-53  # |k| at or below this times its rounding scale s is 0; 64 gave phantom fourth atoms
TOL_EIG = 1e-7  # largest joint eigenvector residual of Mx, and of My, relative to max(1, max |M|) of that matrix
TOL_ACCEPT = 1e-8  # default largest componentwise backward error of solve_cubic's accept and of a request's


class MomentProblemError(Exception):
    """Every error this package raises deliberately: a failed gate, named by its fields.

    stage is the stage that failed, quantity names what its gate measured,
    value is the quantity's value (None for a failure without a number,
    such as a LAPACK failure) and bound the bound it failed (None when the
    gate asks for a finite value). The one subclass, SingularM1Error, marks
    input out of scope; with it, (stage, quantity) names each gate. The
    message is formatted when it is read. certificate and extension hold
    the records of the stages a failed solve_cubic passed, else None.
    """

    certificate = extension = None

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

