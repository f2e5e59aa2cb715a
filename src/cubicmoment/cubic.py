"""Quartic extension of a normalized cubic moment sequence.

With M(1) = I the cubic data reduces to a = (a0, a1, a2, a3), where
a_i = beta_{3-i,i}. The five quartic moments are free, and the invariant

    k = (1 + a0*a2 + a1*a3) - (a1^2 + a2^2)

decides how they can be chosen:

* k = 0: setting beta_40 = 1 + a0^2 + a1^2, beta_31 = a0 a1 + a1 a2,
  beta_22 = a1^2 + a2^2, beta_13 = a1 a2 + a2 a3,
  beta_04 = 1 + a2^2 + a3^2 makes M(2) a rank-3 flat extension of M(1);
  all three degree-2 columns are combinations of {1, X, Y}.
* k > 0: the same quartics except beta_22 = 1 + a0 a2 + a1 a3 give a PSD
  M(2) of rank 4 whose column relations are exactly X^2 = 1 + a0 X + a1 Y
  and Y^2 = 1 + a2 X + a3 Y (an x-leading and a y-leading relation, so the
  matrix is recursively determinate and extends flatly one degree up).
* k < 0: beta_40 is bumped by t = |k| to 1 + a0^2 + a1^2 + t, which
  makes {1, X, Y, X^2} independent (the compression M4 to those columns
  has determinant t), and beta_22 = a1^2 + a2^2, beta_31 = a0 a1 + a1 a2,
  beta_13 = a1 a2 + a2 a3 put the XY column back in the span:
  XY = a1 X + a2 Y. Completing M(2) flatly over M4 fixes
  beta_04 = 1 + t + a2^2 + a3^2 and yields the relation
  Y^2 = X^2 + (a2 - a0) X + (a3 - a1) Y. Compatibility of the two XY^2
  expansions then forces X^3 = (1 + t + a1^2) X + a1 a2 Y + a0 X^2, which
  lets the whole degree-3 matrix be filled in by functional calculus,
  flat over M(2). Any bump t > 0 gives a flat rank-4 extension (the paper
  takes t = 1); at t = |k| every coefficient is a short polynomial in a,
  and the smallest density is of order |k| as k -> 0-.

extend is the only way in: it computes k once, and classify_k alone
states the sign rule (k = 0 up to its rounding error, tie_band) and picks one of the private closed forms
_extend_k0, _extend_kpos, _extend_kneg, which take (a, k). Each route
writes every column relation once, as a column of the multiplication
matrix Mx or My on its basis (see ExtensionResult), and the k < 0 route's
flat degree-3 matrix is ExtensionResult.m3, its only completion.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL_TIE, MomentProblemError
from .linalg import ERROR_STATE, QUIET_STATE, commutator_norm, largest
from .moments import (
    MomentSequence,
    build_moment_matrix,
    frozen_record,
    monomial_columns,
    monomials_up_to,
    require_finite,
)

BASIS_K0 = tuple(monomials_up_to(1))
BASIS_KPOS = (*BASIS_K0, (1, 1))
BASIS_KNEG = (*BASIS_K0, (2, 0))


class CaseTag(enum.Enum):
    """Which extension route the sign of k selected."""

    FLAT_K0 = "k_zero"
    RECURSIVELY_DETERMINATE_K_POS = "k_pos"
    RANK_INCREASING_K_NEG = "k_neg"


def classify_k(k: float, tol_k: float) -> CaseTag:
    """The extension route for the invariant k; ties within tol_k go to k = 0.

    Raises MomentProblemError when k is not finite (the cubic moments overflow),
    before it reads tol_k. A NaN or negative tol_k raises ValueError; 0 and inf are bounds.
    """
    if not math.isfinite(k):
        raise MomentProblemError("extend", "k", k)
    if not tol_k >= 0.0:
        raise ValueError(f"tol_k must be a non-negative number, got {tol_k!r}")
    if abs(k) <= tol_k:
        return CaseTag.FLAT_K0
    if k > 0.0:
        return CaseTag.RECURSIVELY_DETERMINATE_K_POS
    return CaseTag.RANK_INCREASING_K_NEG


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    """Extension certificate for one normalized input.

    moments is the route's degree-4 sequence; basis lists the independent
    columns of its M(2), so len(basis) is the rank. pair is the read-only
    stack (Mx, My) of shape (2, rank, rank). Column b of pair[0] (pair[1])
    holds the basis coordinates of x*b (y*b), so every column relation is a
    column: X^2 is column X of pair[0], and for the k < 0 route the Y^2
    relation is column Y of pair[1] and the X^3 relation column X^2 of
    pair[0]. Equality is identity.
    """

    case: CaseTag
    k: float
    moments: MomentSequence
    basis: tuple[tuple[int, int], ...]
    pair: np.ndarray

    @property
    def commutator_norm(self) -> float:
        """Largest entry of Mx My - My Mx, computed quietly (NaN past an overflow): a diagnostic no gate reads."""
        token = ERROR_STATE.set(QUIET_STATE)
        try:
            return commutator_norm(self.pair)
        finally:
            ERROR_STATE.reset(token)

    @property
    def m2(self) -> np.ndarray:
        """The moment matrix M(2) of moments, built on each read."""
        return build_moment_matrix(self.moments)

    @property
    def m3(self) -> np.ndarray | None:
        """The flat degree-3 extension of the k < 0 route, built on each read (else None).

        Functional calculus on the column space: moments of degree <= 4 are
        moments, and a quintic or sextic moment is the Riesz value of the
        basis coordinates pair[0]^i pair[1]^j e_1 of x^i y^j, computed
        quietly. The two expansions of the XY^2 column differ by column Y of
        pair[1] pair[0] - pair[0] pair[1], which commutator_norm
        reports; a non-finite higher moment is named as in extend.
        """
        if self.case is not CaseTag.RANK_INCREASING_K_NEG:
            return None
        low, (mx, my), power = self.moments.values, self.pair, np.linalg.matrix_power
        riesz_basis = low[monomial_columns(self.basis)]
        token = ERROR_STATE.set(QUIET_STATE)  # an overflowing power is named below, not warned about
        try:
            exponents = monomials_up_to(6)[low.size :]
            higher = [float(riesz_basis @ (power(mx, i) @ power(my, j)[:, 0])) for i, j in exponents]
        finally:
            ERROR_STATE.reset(token)
        values = [*low.tolist(), *higher]
        require_finite(values, 6, "extend")
        return build_moment_matrix(MomentSequence(6, np.array(values)))


def _extension(case, k, a, quartics, basis, mx, my) -> ExtensionResult:
    """The certificate with Mx, My given column by column: mx[b] holds the coordinates of x*b.

    The moments are M(1) = I, the cubic moments a and the quartics
    (beta_40, ..., beta_04).

    Each route writes these columns in closed form; they equal what the
    general fixed-point reducer finds from basis and relations, bit for bit
    (adding 0.0 stores a zero as +0.0, as the reducer does). Raises
    MomentProblemError, naming the moment, when a moment is not finite (a
    quartic overflows), and when an entry of Mx or My is not.
    """
    values = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, *a, *quartics]
    require_finite(values, 4, "extend")
    entries = [v + 0.0 for m in (mx, my) for row in zip(*m) for v in row]  # the matrices row by row
    if not all(map(math.isfinite, entries)):
        raise MomentProblemError("extend", "max |Mx, My|", largest(list(map(abs, entries))))
    pair = np.array(entries).reshape(2, len(mx), len(mx))
    pair.setflags(write=False)
    moments = np.array(values)  # beta_00 = 1
    moments.setflags(write=False)
    moments = frozen_record(MomentSequence, degree=4, values=moments)
    return frozen_record(ExtensionResult, case=case, k=k, moments=moments, basis=basis, pair=pair)


def compute_k(a) -> float:
    """The flatness invariant (1 + a0 a2 + a1 a3) - (a1^2 + a2^2)."""
    a0, a1, a2, a3 = map(float, a)
    return (1.0 + a0 * a2 + a1 * a3) - (a1 * a1 + a2 * a2)


def tie_band(a) -> float:
    """TOL_TIE times s = 1 + |a0 a2| + |a1 a3| + a1^2 + a2^2, the scale of compute_k's rounding error."""
    a0, a1, a2, a3 = map(float, a)
    return TOL_TIE * (1.0 + abs(a0 * a2) + abs(a1 * a3) + a1 * a1 + a2 * a2)


def _quartics(a, b22: float, t: float = 0.0) -> tuple[float, ...]:
    """(beta_40, ..., beta_04) for beta_22; the k < 0 route raises beta_40 and beta_04 by its bump t."""
    a0, a1, a2, a3 = a
    return (
        1.0 + a0 * a0 + a1 * a1 + t,
        a0 * a1 + a1 * a2,
        b22,
        a1 * a2 + a2 * a3,
        1.0 + t + a2 * a2 + a3 * a3,
    )


def _extend_k0(a, k: float) -> ExtensionResult:
    """Flat extension over M(1): every quartic determined, rank 3 (k = 0)."""
    a0, a1, a2, a3 = a
    # beta_22 = a1^2 + a2^2 equals 1 + a0 a2 + a1 a3 because k = 0
    quartics = _quartics(a, a1 * a1 + a2 * a2)
    x, y = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    xx, xy, yy = (1.0, a0, a1), (0.0, a1, a2), (1.0, a2, a3)  # X^2, XY, Y^2 over {1, X, Y}
    return _extension(CaseTag.FLAT_K0, k, a, quartics, BASIS_K0, (x, xx, xy), (y, xy, yy))


def _extend_kpos(a, k: float) -> ExtensionResult:
    """Rank-4 PSD extension carrying only the X^2 and Y^2 relations (k > 0).

    The completion block exceeds its flat value by k in the single (XY, XY)
    entry, so {1, X, Y, XY} is independent and positivity is strict there.
    """
    a0, a1, a2, a3 = a
    quartics = _quartics(a, 1.0 + a0 * a2 + a1 * a3)
    x, y, xy = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)
    xx, yy = (1.0, a0, a1, 0.0), (1.0, a2, a3, 0.0)  # X^2 = 1 + a0 X + a1 Y, Y^2 = 1 + a2 X + a3 Y
    xxy = (a1, a1 * a2, 1.0 + a1 * a3, a0)  # X^2 Y = Y + a0 XY + a1 Y^2
    xyy = (a2, 1.0 + a2 * a0, a2 * a1, a3)  # X Y^2 = X + a2 X^2 + a3 XY
    mx, my = (x, xx, xy, xxy), (y, xy, yy, xyy)
    case = CaseTag.RECURSIVELY_DETERMINATE_K_POS
    return _extension(case, k, a, quartics, BASIS_KPOS, mx, my)


def _extend_kneg(a, k: float) -> ExtensionResult:
    """Rank-4 extension flat over the {1, X, Y, X^2} compression, bumped by t = |k| (k < 0).

    Includes the induced X^3 relation; the flat degree-3 matrix is built
    from pair when m3 is read.
    """
    a0, a1, a2, a3 = a
    t = -k
    quartics = _quartics(a, a1 * a1 + a2 * a2, t)
    x, y, xx = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)
    xy = (0.0, a1, a2, 0.0)  # XY = a1 X + a2 Y
    yy = (0.0, a2 - a0, a3 - a1, 1.0)  # Y^2 = (a2 - a0) X + (a3 - a1) Y + X^2
    xxx = (0.0, 1.0 + t + a1 * a1, a1 * a2, a0)  # X^3 = (1 + t + a1^2) X + a1 a2 Y + a0 X^2
    xxy = (0.0, a1 * a2, a2 * a2, a1)  # X^2 Y = a1 X^2 + a2 XY
    mx, my = (x, xx, xy, xxx), (y, xy, yy, xxy)
    return _extension(CaseTag.RANK_INCREASING_K_NEG, k, a, quartics, BASIS_KNEG, mx, my)


def extend(a, tol_k: float | None = None) -> ExtensionResult:
    """Dispatch on the sign of k; ties within tol_k, by default tie_band(a), go to the flat rank-3 case.

    The only way into the routes: a is read as floats once, k is computed
    once, classify_k alone picks the route, and the route is handed both.
    Raises MomentProblemError when k is not finite (the cubic moments overflow),
    and ValueError, from classify_k, for a NaN or negative tol_k.
    """
    a = tuple(map(float, a))
    k = compute_k(a)
    return _ROUTES[classify_k(k, tie_band(a) if tol_k is None else tol_k)](a, k)


_ROUTES = {
    CaseTag.FLAT_K0: _extend_k0,
    CaseTag.RECURSIVELY_DETERMINATE_K_POS: _extend_kpos,
    CaseTag.RANK_INCREASING_K_NEG: _extend_kneg,
}
