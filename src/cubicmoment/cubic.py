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
* k < 0: beta_40 is bumped to 2 + a0^2 + a1^2, which makes {1, X, Y, X^2}
  independent (the compression M4 to those columns has determinant 1), and
  beta_22 = a1^2 + a2^2, beta_31 = a0 a1 + a1 a2, beta_13 = a1 a2 + a2 a3
  put the XY column back in the span: XY = a1 X + a2 Y. Completing M(2)
  flatly over M4 fixes beta_04 and yields
  Y^2 = p1 + p2 X + p3 Y + p4 X^2 with p = M4^{-1} (1, a2, a3, beta_22)^T
  and p4 = -k. Compatibility of the two XY^2 expansions then forces an
  X^3 relation, which pins the quintic moment beta_50 and lets the whole
  degree-3 matrix be filled in by functional calculus, flat over M(2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentRelationsError, MissingRelationError, MomentProblemError
from .linalg import TOL_COMMUTE, commutator_norm
from .moments import (
    MomentMatrix,
    MomentSequence,
    Monomial,
    build_moment_matrix,
    monomial_index,
    monomials_up_to,
    sequence_length,
)

TOL_K = 1e-10

_ONE = Monomial(0, 0)
_X = Monomial(1, 0)
_Y = Monomial(0, 1)
_X2 = Monomial(2, 0)
_XY = Monomial(1, 1)
_Y2 = Monomial(0, 2)
_X3 = Monomial(3, 0)

BASIS_K0 = (_ONE, _X, _Y)
BASIS_KPOS = (_ONE, _X, _Y, _XY)
BASIS_KNEG = (_ONE, _X, _Y, _X2)


class CaseTag(enum.Enum):
    """Which extension route the sign of k selected."""

    FLAT_K0 = "k_zero"
    RECURSIVELY_DETERMINATE_K_POS = "k_pos"
    RANK_INCREASING_K_NEG = "k_neg"


@dataclass(frozen=True)
class ColumnRelation:
    """A dependent column: target = sum of combo[b] * (column b)."""

    target: Monomial
    combo: dict[Monomial, float]

    def polynomial(self) -> np.ndarray:
        """target - combo as a dense degree-lex vector; its column vanishes on the matrix."""
        p = np.zeros(sequence_length(self.target.degree))
        p[[monomial_index(m) for m in self.combo]] = [-c for c in self.combo.values()]
        p[monomial_index(self.target)] = 1.0
        return p


def classify_k(k: float, tol_k: float = TOL_K) -> CaseTag:
    """The extension route for the invariant k; ties within tol_k go to k = 0."""
    if abs(k) <= tol_k:
        return CaseTag.FLAT_K0
    if k > 0.0:
        return CaseTag.RECURSIVELY_DETERMINATE_K_POS
    return CaseTag.RANK_INCREASING_K_NEG


def multiplication_matrices(
    basis, relations: tuple[ColumnRelation, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of multiplication by x and by y on the column-space basis.

    Column b of Mx (resp. My) holds the basis coordinates of x*b (resp.
    y*b). Such a product s*b is a basis monomial, the target of a relation,
    or o * (s*b / o) for the other variable o, whose coordinates are M_o
    applied to those of s*b / o once the columns of M_o that needs are
    filled. Raises MissingRelationError when the fill gets stuck and
    MomentProblemError when a coefficient is not finite.
    """
    basis = tuple(Monomial(*b) for b in basis)
    known = dict(zip(basis, np.eye(len(basis))))
    for rel in relations:
        if not set(rel.combo) <= set(basis):
            raise ValueError(f"relation for {rel.target} uses a non-basis monomial")
        known[rel.target] = np.array([rel.combo.get(b, 0.0) for b in basis])
    step = (Monomial(1, 0), Monomial(0, 1))
    mats = np.zeros((2, len(basis), len(basis)))
    filled = np.zeros((2, len(basis)), dtype=bool)
    while not filled.all():
        stuck = True
        for s, col in np.argwhere(~filled):
            o = 1 - s
            m = Monomial(basis[col].i + step[s].i, basis[col].j + step[s].j)
            parent = known.get((m.i - step[o].i, m.j - step[o].j))
            if m not in known and parent is not None:
                used = parent != 0
                if filled[o][used].all():
                    known[m] = mats[o][:, used] @ parent[used]
            if m in known:
                mats[s][:, col] = known[m]
                filled[s, col], stuck = True, False
        if stuck:
            raise MissingRelationError(f"cannot express every x*b and y*b over basis {basis}")
    if not np.isfinite(mats).all():
        raise MomentProblemError("a multiplication matrix has a non-finite entry")
    mats.setflags(write=False)
    return mats[0], mats[1]


@dataclass(frozen=True)
class ExtensionResult:
    """Extension certificate for one normalized input.

    basis lists the independent columns; relations express every dependent
    column over the basis; mx and my are the multiplication matrices on the
    basis. For the k < 0 route, p_vec is the Y^2 relation coefficient
    vector and beta50 the induced quintic moment.
    """

    case: CaseTag
    k: float
    m2: MomentMatrix
    basis: tuple[Monomial, ...]
    relations: tuple[ColumnRelation, ...]
    mx: np.ndarray
    my: np.ndarray
    p_vec: tuple[float, float, float, float] | None = None
    beta50: float | None = None

    @property
    def m3(self) -> MomentMatrix | None:
        """The flat degree-3 extension of the k < 0 route, built on each read (else None)."""
        if self.case is not CaseTag.RANK_INCREASING_K_NEG:
            return None
        return build_m3_kneg(self)


def _extension(case, k, m2, basis, relations, **extra) -> ExtensionResult:
    mx, my = multiplication_matrices(basis, relations)
    return ExtensionResult(case, k, m2, basis, relations, mx, my, **extra)


def compute_k(a) -> float:
    """The flatness invariant (1 + a0 a2 + a1 a3) - (a1^2 + a2^2)."""
    a0, a1, a2, a3 = map(float, a)
    return (1.0 + a0 * a2 + a1 * a3) - (a1 * a1 + a2 * a2)


def _sequence4(a, quartics) -> MomentSequence:
    """M(1) = I, the cubic moments a and the quartics (beta_40, ..., beta_04)."""
    return MomentSequence(4, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, *a, *quartics]))


def _rel(target: Monomial, combo: dict[Monomial, float]) -> ColumnRelation:
    return ColumnRelation(target, {m: float(c) for m, c in combo.items() if float(c) != 0.0})


def _square_relations(a, b22: float) -> tuple[MomentMatrix, ColumnRelation, ColumnRelation]:
    """M(2) of the k >= 0 routes for the given beta_22, with its X^2 and Y^2 relations."""
    a0, a1, a2, a3 = a
    quartics = (
        1.0 + a0 * a0 + a1 * a1,
        a0 * a1 + a1 * a2,
        b22,
        a1 * a2 + a2 * a3,
        1.0 + a2 * a2 + a3 * a3,
    )
    x2 = _rel(_X2, {_ONE: 1.0, _X: a0, _Y: a1})
    y2 = _rel(_Y2, {_ONE: 1.0, _X: a2, _Y: a3})
    return build_moment_matrix(_sequence4(a, quartics)), x2, y2


def extend_k0(a, tol_k: float = TOL_K) -> ExtensionResult:
    """Flat extension over M(1): every quartic determined, rank 3 (k = 0)."""
    a0, a1, a2, a3 = a = tuple(map(float, a))
    k = compute_k(a)
    if not abs(k) <= tol_k:
        raise ValueError(f"k = {k:.6g} is not zero within {tol_k:g}")
    # beta_22 = a1^2 + a2^2 equals 1 + a0 a2 + a1 a3 because k = 0
    m2, x2, y2 = _square_relations(a, a1 * a1 + a2 * a2)
    relations = (x2, _rel(_XY, {_X: a1, _Y: a2}), y2)
    return _extension(CaseTag.FLAT_K0, k, m2, BASIS_K0, relations)


def extend_kpos(a, tol_k: float = TOL_K) -> ExtensionResult:
    """Rank-4 PSD extension carrying only the X^2 and Y^2 relations (k > 0).

    The completion block exceeds its flat value by k in the single (XY, XY)
    entry, so {1, X, Y, XY} is independent and positivity is strict there.
    """
    a0, a1, a2, a3 = a = tuple(map(float, a))
    k = compute_k(a)
    if not k > tol_k:
        raise ValueError(f"k = {k:.6g} is not positive beyond {tol_k:g}")
    m2, x2, y2 = _square_relations(a, 1.0 + a0 * a2 + a1 * a3)
    return _extension(CaseTag.RECURSIVELY_DETERMINATE_K_POS, k, m2, BASIS_KPOS, (x2, y2))


def extend_kneg(a, tol_k: float = TOL_K) -> ExtensionResult:
    """Rank-4 extension flat over the {1, X, Y, X^2} compression (k < 0).

    Includes the induced X^3 relation and the quintic moment beta_50; the
    flat degree-3 matrix is built from mx and my when m3 is read.
    """
    a0, a1, a2, a3 = a = tuple(map(float, a))
    k = compute_k(a)
    if not k < -tol_k:
        raise ValueError(f"k = {k:.6g} is not negative beyond {tol_k:g}")
    b40 = 2.0 + a0 * a0 + a1 * a1
    b31 = a0 * a1 + a1 * a2
    b22 = a1 * a1 + a2 * a2
    b13 = a1 * a2 + a2 * a3
    m4 = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, a0],
            [0.0, 0.0, 1.0, a1],
            [1.0, a0, a1, b40],
        ]
    )
    y2_column = np.array([1.0, a2, a3, b22])
    try:
        p = np.linalg.solve(m4, y2_column)  # det m4 = 1, but huge a can make it singular in floats
    except np.linalg.LinAlgError as exc:
        raise MomentProblemError("the {1, X, Y, X^2} block is numerically singular") from exc
    b04 = float(p @ y2_column)  # flat completion: (Y^2)^T M4^{-1} (Y^2)
    m2 = build_moment_matrix(_sequence4(a, (b40, b31, b22, b13, b04)))
    x3_combo, beta50 = x3_relation(a, p)
    relations = (
        _rel(_XY, {_X: a1, _Y: a2}),
        _rel(_Y2, {_ONE: p[0], _X: p[1], _Y: p[2], _X2: p[3]}),
        ColumnRelation(_X3, x3_combo),
    )
    return _extension(
        CaseTag.RANK_INCREASING_K_NEG,
        k,
        m2,
        BASIS_KNEG,
        relations,
        p_vec=tuple(float(v) for v in p),
        beta50=beta50,
    )


def beta04_formula(a) -> float:
    """Closed-form beta_04 of the k < 0 completion.

    A degree-8 polynomial in a; algebraically it equals
    1 + k^2 + a2^2 + a3^2, hence is always >= 1.
    """
    a0, a1, a2, a3 = map(float, a)
    return (
        2.0
        + a1**4
        + 2.0 * a0 * a2
        + a0**2 * a2**2
        + 2.0 * a1**2 * a2**2
        + a2**4
        + 2.0 * a1 * a3
        + 2.0 * a0 * a1 * a2 * a3
        + a3**2
        + a1**2 * a3**2
        - 2.0 * a1**2
        - 2.0 * a0 * a1**2 * a2
        - a2**2
        - 2.0 * a0 * a2**3
        - 2.0 * a1**3 * a3
        - 2.0 * a1 * a2**2 * a3
    )


def x3_relation(a, p_vec) -> tuple[dict[Monomial, float], float]:
    """X^3 column forced by matching the two XY^2 expansions (k < 0 route).

    XY^2 expands both through the XY relation and through the Y^2 relation;
    equating them and dividing by p4 gives

        X^3 = (1/p4) [ a2 p1 + (a1^2 + a2 p2 - p1 - a1 p3) X
                       + a1 a2 Y + (a2 p4 - p2) X^2 ].

    Returns (combo over {1, X, Y, X^2}, beta50), where beta50 evaluates the
    combo against the X^2 row of those columns, (1, a0, a1, beta_40).
    """
    a0, a1, a2, a3 = map(float, a)
    p1, p2, p3, p4 = (float(v) for v in p_vec)
    if p4 == 0.0:
        raise ZeroDivisionError("p4 = 0: the Y^2 relation involves no X^2 term")
    c0 = a2 * p1 / p4
    c1 = (a1 * a1 + a2 * p2 - p1 - a1 * p3) / p4
    c2 = a1 * a2 / p4
    c3 = (a2 * p4 - p2) / p4
    b40 = 2.0 + a0 * a0 + a1 * a1
    beta50 = c0 + c1 * a0 + c2 * a1 + c3 * b40
    combo = {
        m: c
        for m, c in ((_ONE, c0), (_X, c1), (_Y, c2), (_X2, c3))
        if c != 0.0
    }
    return combo, float(beta50)


def build_m3_kneg(ext: ExtensionResult) -> MomentMatrix:
    """Degree-3 Hankel-block matrix extending m2 by functional calculus.

    Moments of degree <= 4 are read from m2; a quintic or sextic moment is
    the Riesz value of the basis coordinates Mx^i My^j e_1 of x^i y^j. The
    two expansions of the XY^2 column differ by column Y of My Mx - Mx My,
    so a commutator beyond TOL_COMMUTE of the matrix scale means the
    relation set is corrupt.
    """
    if ext.case is not CaseTag.RANK_INCREASING_K_NEG:
        raise ValueError("degree-3 completion is defined for the k < 0 route only")
    mx, my = ext.mx, ext.my
    scale = max(1.0, float(np.abs(mx).max()), float(np.abs(my).max()))
    mismatch = commutator_norm(my, mx)
    if not mismatch <= TOL_COMMUTE * scale:
        raise InconsistentRelationsError(f"the two XY^2 expansions disagree by {mismatch:.3e}")
    riesz_basis = np.array([ext.m2.moment(b) for b in ext.basis])
    power = np.linalg.matrix_power
    vals = [
        ext.m2.moment(m) if m.degree <= 4
        else float(riesz_basis @ (power(mx, m.i) @ power(my, m.j)[:, 0]))
        for m in monomials_up_to(6)
    ]
    return build_moment_matrix(MomentSequence(6, np.array(vals)))


# Gram matrix of the nonnegativity certificate for beta_04 - 1: it is
# u u^T + e2 e2^T + e3 e3^T with u = (1, 0, 0, -1, -1, 1, 1), hence PSD of
# rank 3 and flat over its identity 3x3 corner.
_SOS_U = np.array([1.0, 0.0, 0.0, -1.0, -1.0, 1.0, 1.0])
SOS_GRAM = np.outer(_SOS_U, _SOS_U) + np.diag([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def sos_certificate_check(a, tol: float = 1e-9) -> bool:
    """Check y^T R y = beta04_formula(a) - 1 >= 0 for the fixed Gram matrix R.

    y = (1, a2, a3, a1^2, a2^2, a0 a2, a1 a3). Certifies that the k < 0
    completion always has beta_04 >= 1.
    """
    a0, a1, a2, a3 = map(float, a)
    y = np.array([1.0, a2, a3, a1 * a1, a2 * a2, a0 * a2, a1 * a3])
    quad = float(y @ SOS_GRAM @ y)
    return abs(quad - (beta04_formula(a) - 1.0)) <= tol and quad >= -1e-12


def extend(a, tol_k: float = TOL_K) -> ExtensionResult:
    """Dispatch on the sign of k; ties within tol_k go to the flat rank-3 case.

    Raises MomentProblemError when k is not finite (the cubic moments overflow).
    """
    k = compute_k(a)
    if not np.isfinite(k):
        raise MomentProblemError(f"k = {k} is not finite: the cubic moments overflow")
    route = {
        CaseTag.FLAT_K0: extend_k0,
        CaseTag.RECURSIVELY_DETERMINATE_K_POS: extend_kpos,
        CaseTag.RANK_INCREASING_K_NEG: extend_kneg,
    }[classify_k(k, tol_k)]
    return route(a, tol_k)
