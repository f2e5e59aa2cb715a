"""Independent oracles the tests check the solver against.

The solver never calls anything here. Each oracle re-derives a quantity
the solver writes in closed form, by a different route, so a test can
compare the two with its own data and bound.

Positivity of a symmetric block matrix [[A, B], [B^T, C]] is decided by
Smul'jan's criterion: A >= 0, B = A W for some W, and C >= W^T A W. The
extension keeps rank A ("flat") exactly when C = W^T A W.

multiplication_matrices is the general fixed-point reducer for Mx, My on
any basis and set of ColumnRelation; paper_relations writes each
extension route's relations as the paper states them, from the cubic
moments a and never from Mx, My, so the reducer's output is an independent
writing of the matrices the routes store. riesz and column_of are the
Riesz functional and the column functional calculus on dense degree-lex
vectors.

joint_eigen_reference reads the joint spectrum one matrix at a time: two
triple products and two residual norms, at one given c. The solver does
the same arithmetic on one (2, n, n) stack, at the first of its fixed
values of c that passes, so the tests require equal results. They differ
only where the tests' inputs never go: the reference's Python max over
the two residuals drops a NaN My residual that follows a finite Mx one,
and the solver's single array max rejects it; and the reference accepts
a spectrum whose imaginary parts are below its TOL_IMAG, where the
solver raises its max |Im lambda| error for any imaginary part.

paper_minors, degree_one_coeffs and transform_sequence are the paper's
normalization as it is written: the leading minors of M(1), the six
coefficients of the normalizing map in closed form (rows 1-2 of its 3x3
matrix on z = (1, x, y)), and the pushforward J^T beta through the
substitution matrix build_J of any degree. The solver reaches the same
matrix through a Cholesky factor of M(1) and pushes the moment tensor
instead.

monomials_at_reference is the numpy monomial table the solver used
before its Python-float kernels: a power table of running products,
fancy-indexed and multiplied as arrays. monomials_at and integrals_of
must match it and its row sum byte for byte.

paper_extend_kneg is the paper's k < 0 construction as it is written: it
bumps beta_40 by t = 1, solves the {1, X, Y, X^2} compression M4 for the
Y^2 relation p, and divides by p4 = -k for the X^3 relation (x3_relation).
beta04_formula is its beta_04 in closed form, and SOS_GRAM with
sos_certificate_check the paper's certificate that beta_04 >= 1. The
solver bumps by t = |k| instead, where every coefficient is a short
polynomial in a.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from cubicmoment import (
    CaseTag,
    ExtensionResult,
    MomentProblemError,
    MomentSequence,
    SingularM1Error,
    compute_k,
    monomial_index,
    monomials_up_to,
)
from cubicmoment.cubic import BASIS_KNEG, _extension
from cubicmoment.errors import TOL_EIG
from cubicmoment.moments import sequence_length

MASS_ATOL = 1e-9  # largest |beta_00 - 1| paper_minors accepts as a rescaled sequence
SINGULAR_RTOL = 1e-10  # degree_one_coeffs' pivots must exceed this times the largest entry of M(1)
TOL_K = 1e-10  # paper_extend_kneg's k must lie below -TOL_K
TOL_IMAG = 1e-6  # largest |Im lambda| joint_eigen_reference accepts, relative to max(1, |lambda|)
TOL_PSD = 1e-10
TOL_RANGE = 1e-9
TOL_FLAT = 1e-9


class RangeError(MomentProblemError):
    """The off-diagonal block is not in the range of the diagonal block.

    By the block positivity criterion this rules out any positive extension.
    """


class MissingRelationError(MomentProblemError):
    """A monomial product cannot be rewritten over the column-space basis."""


def _sym(S) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    return 0.5 * (S + S.T)


def psd_min_eig(S) -> float:
    """Smallest eigenvalue of the (defensively symmetrized) input.

    A matrix is accepted as PSD when this is >= -TOL_PSD.
    """
    return float(np.linalg.eigvalsh(_sym(S))[0])


def numeric_rank(S, tol: float) -> int:
    """Count of eigenvalues with |lambda| > tol * max(1, |lambda|_max)."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lam = np.abs(np.linalg.eigvalsh(_sym(S)))
    return int(np.count_nonzero(lam > tol * max(1.0, float(lam.max(initial=0.0)))))


def range_solve(A, B, tol: float = TOL_RANGE) -> np.ndarray:
    """Least-squares W minimizing ||A W - B||, requiring B in the range of A.

    Raises RangeError when the relative residual ||A W - B|| / max(1, ||B||)
    exceeds tol, which rules out any positive block extension.
    """
    A = _sym(A)
    B = np.asarray(B, dtype=float)
    B2 = B if B.ndim == 2 else B[:, None]
    W, *_ = np.linalg.lstsq(A, B2, rcond=None)
    residual = float(np.linalg.norm(A @ W - B2))
    bound = tol * max(1.0, float(np.linalg.norm(B2)))
    if residual > bound:
        raise RangeError("extend", "range residual", residual, bound)
    return W if B.ndim == 2 else W[:, 0]


@dataclass(frozen=True)
class SmuljanResult:
    """Outcome of the block positivity / flatness test.

    witness_W is the W with B = A W when one exists (None otherwise), and
    schur_gap is the smallest eigenvalue of C - W^T A W for the least-squares
    W. flat implies psd, and flat holds exactly when the block matrix keeps
    the rank of A.
    """

    psd: bool
    flat: bool
    rank: int
    witness_W: np.ndarray | None
    schur_gap: float


def smuljan_classify(
    A,
    B,
    C,
    tol_psd: float = TOL_PSD,
    tol_range: float = TOL_RANGE,
    tol_flat: float = TOL_FLAT,
) -> SmuljanResult:
    """Classify the block matrix [[A, B], [B^T, C]] as PSD / flat / neither.

    Tolerances are applied relative to the largest block entry, so the
    defaults written for unit-normalized data stay meaningful when the
    blocks carry high-degree moments.
    """
    A = _sym(A)
    B2 = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    C = _sym(np.atleast_2d(np.asarray(C, dtype=float)))
    block = np.block([[A, B2], [B2.T, C]])
    rank = numeric_rank(block, tol_psd)
    scale = max(1.0, float(np.abs(block).max(initial=0.0)))

    a_psd = psd_min_eig(A) >= -tol_psd * scale
    W, *_ = np.linalg.lstsq(A, B2, rcond=None)
    in_range = float(np.linalg.norm(A @ W - B2)) <= tol_range * max(
        1.0, float(np.linalg.norm(B2))
    )
    gap_matrix = C - W.T @ A @ W
    schur_gap = psd_min_eig(gap_matrix)

    psd = a_psd and in_range and schur_gap >= -tol_psd * scale
    flat = psd and float(np.abs(gap_matrix).max(initial=0.0)) <= tol_flat * scale
    return SmuljanResult(
        psd=psd,
        flat=flat,
        rank=rank,
        witness_W=W if in_range else None,
        schur_gap=schur_gap,
    )


def flat_completion(A, B, tol_range: float = TOL_RANGE) -> np.ndarray:
    """The unique C = W^T A W making [[A, B], [B^T, C]] flat over A.

    Raises RangeError (propagated from range_solve) when no such C exists.
    """
    A = _sym(A)
    B2 = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    W = range_solve(A, B2, tol_range)
    return _sym(W.T @ A @ W)


@dataclass(frozen=True)
class ColumnRelation:
    """A dependent column: target = sum of combo[b] * (column b)."""

    target: tuple[int, int]
    combo: dict[tuple[int, int], float]

    def polynomial(self) -> np.ndarray:
        """target - combo as a dense degree-lex vector; its column vanishes on the matrix."""
        p = np.zeros(sequence_length(sum(self.target)))
        p[[monomial_index(m) for m in self.combo]] = [-c for c in self.combo.values()]
        p[monomial_index(self.target)] = 1.0
        return p


def paper_relations(ext: ExtensionResult, a) -> tuple[ColumnRelation, ...]:
    """The column relations of ext's route, written from the cubic moments a.

    k = 0:  X^2 = 1 + a0 X + a1 Y,  XY = a1 X + a2 Y,  Y^2 = 1 + a2 X + a3 Y.
    k > 0:  the X^2 and Y^2 relations of k = 0.
    k < 0:  the XY relation of k = 0, and with the bump t = -k,
            Y^2 = (a2 - a0) X + (a3 - a1) Y + X^2 and
            X^3 = (1 + t + a1^2) X + a1 a2 Y + a0 X^2 (the solver's route;
            paper_extend_kneg's t = 1 relations differ).

    Reads ext.case, never ext.pair. The k < 0 coefficients are the
    route's float expressions, so the reducer's matrices equal the route's
    bit for bit.
    """
    a0, a1, a2, a3 = (float(v) for v in a)
    one, x, y = (0, 0), (1, 0), (0, 1)
    x2 = ColumnRelation((2, 0), {one: 1.0, x: a0, y: a1})
    xy = ColumnRelation((1, 1), {x: a1, y: a2})
    y2 = ColumnRelation((0, 2), {one: 1.0, x: a2, y: a3})
    if ext.case is CaseTag.FLAT_K0:
        return x2, xy, y2
    if ext.case is CaseTag.RECURSIVELY_DETERMINATE_K_POS:
        return x2, y2
    t, xx = -compute_k(a), (2, 0)
    y2 = ColumnRelation((0, 2), {x: a2 - a0, y: a3 - a1, xx: 1.0})
    x3 = ColumnRelation((3, 0), {x: 1.0 + t + a1 * a1, y: a1 * a2, xx: a0})
    return xy, y2, x3


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

    This is the general reducer for any basis and relation set. The three
    extension routes write their matrices in closed form instead, and the
    tests check those against this function.
    """
    basis = tuple((i, j) for i, j in basis)
    known = dict(zip(basis, np.eye(len(basis))))
    for rel in relations:
        if not set(rel.combo) <= set(basis):
            raise ValueError(f"relation for {rel.target} uses a non-basis monomial")
        known[rel.target] = np.array([rel.combo.get(b, 0.0) for b in basis])
    step = ((1, 0), (0, 1))
    mats = np.zeros((2, len(basis), len(basis)))
    filled = np.zeros((2, len(basis)), dtype=bool)
    while not filled.all():
        stuck = True
        for s, col in np.argwhere(~filled):
            o = 1 - s
            (i, j), (si, sj), (oi, oj) = basis[col], step[s], step[o]
            m = (i + si, j + sj)
            parent = known.get((i + si - oi, j + sj - oj))
            if m not in known and parent is not None:
                used = parent != 0
                if filled[o][used].all():
                    known[m] = mats[o][:, used] @ parent[used]
            if m in known:
                mats[s][:, col] = known[m]
                filled[s, col], stuck = True, False
        if stuck:
            raise MissingRelationError("extend", f"x*b and y*b over basis {basis}")
    if not np.isfinite(mats).all():
        raise MomentProblemError("extend", "max |Mx, My|", float(np.abs(mats).max()))
    mats.setflags(write=False)
    return mats[0], mats[1]


def riesz(beta: MomentSequence, p: np.ndarray) -> float:
    """Riesz functional: replace each monomial of p by the matching moment.

    p is a dense degree-lex coefficient vector; a shorter vector than the
    sequence covers the lower degrees only.
    """
    p = np.asarray(p, dtype=float)
    if p.size > beta.values.size:
        raise ValueError(
            f"{p.size} coefficients exceed the {beta.values.size} available moments"
        )
    return float(beta.values[: p.size] @ p)


def column_of(M: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Functional-calculus column p(X, Y) = M(d) @ p_hat.

    p is a dense degree-lex coefficient vector with at most as many entries
    as M(d) has columns. The polynomial vanishes as a column, p(X, Y) = 0,
    exactly when its coefficient vector lies in the kernel of M(d).
    """
    p = np.asarray(p, dtype=float)
    if p.size > M.shape[1]:
        raise ValueError(f"{p.size} coefficients exceed the {M.shape[1]} columns of M(d)")
    return M[:, : p.size] @ p


def monomials_at_reference(x, y, degree: int, weights=None) -> np.ndarray:
    """Every monomial of degree <= degree evaluated at the points (x_k, y_k).

    Row k holds x_k^i y_k^j in degree-lex order, times weights[k] when
    given. The powers are running products along each row of [1, v, ..., v]
    and the weight multiplies x^i before y^j, so each entry rounds exactly
    as (w * x^i) * y^j does with x^(e+1) = x^e * x.
    """
    if len(x) != len(y):
        raise ValueError(f"{len(x)} x-coordinates but {len(y)} y-coordinates")
    i, j = np.array(monomials_up_to(degree)).T
    factors = np.ones((len(x) + len(y), degree + 1))
    factors[:, 1:] = np.array([*map(float, x), *map(float, y)])[:, None]
    powers = np.multiply.accumulate(factors, axis=1)
    x_pow, y_pow = powers.reshape(2, -1, degree + 1)
    if weights is not None:
        x_pow = np.asarray(weights, dtype=float)[:, None] * x_pow
    return x_pow[:, i] * y_pow[:, j]


def joint_eigen_reference(Mx, My, c: float) -> list[tuple[float, float]]:
    """Joint eigenvalue pairs of two commuting real matrices, one matrix at a time.

    The eigenvectors are those of the single combination c*Mx + (1-c)*My.
    """
    Mx = np.asarray(Mx, dtype=float)
    My = np.asarray(My, dtype=float)
    if Mx.ndim != 2 or Mx.shape[0] != Mx.shape[1] or Mx.shape != My.shape:
        raise ValueError("Mx and My must be square matrices of equal size")
    lam, V = np.linalg.eig(c * Mx + (1.0 - c) * My)
    imag, bound = float(np.abs(lam.imag).max()), TOL_IMAG * max(1.0, float(np.abs(lam).max()))
    if imag > bound:
        raise MomentProblemError("joint spectrum", "max |Im lambda|", imag, bound)
    V = V.real
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise MomentProblemError("joint spectrum", "eigenvector basis") from exc
    x = np.diag(V_inv @ Mx @ V)
    y = np.diag(V_inv @ My @ V)
    V = V / np.linalg.norm(V, axis=0)
    for M, t in ((Mx, x), (My, y)):  # each matrix on its own scale
        residual = float(np.linalg.norm(M @ V - V * t, axis=0).max())
        bound = TOL_EIG * max(1.0, float(np.abs(M).max(initial=0.0)))
        if not residual <= bound:  # also rejects a NaN residual
            raise MomentProblemError("joint spectrum", "eigenvector residual", residual, bound)
    return [(float(xi), float(yi)) for xi, yi in zip(x, y)]


def paper_minors(beta: MomentSequence) -> tuple[float, float]:
    """Leading principal 2x2 and 3x3 minors of M(1).

    Assumes the sequence has been rescaled to beta_00 = 1 (the closed forms
    below are written for that normalization).
    """
    b00, b10, b01, b20, b11, b02 = beta.values[:6].tolist()
    if abs(b00 - 1.0) > MASS_ATOL:
        raise ValueError("rescale the sequence to beta_00 = 1 before taking minors")
    d2 = b20 - b10 * b10
    d3 = (
        -b02 * b10 * b10
        + 2.0 * b01 * b10 * b11
        - b11 * b11
        - b01 * b01 * b20
        + b02 * b20
    )
    return d2, d3


def degree_one_coeffs(beta: MomentSequence) -> np.ndarray:
    """The 3x3 matrix of the map z -> psi z on z = (1, x, y) that normalizes M(1) to the identity.

    Rows 1-2 hold the six coefficients (a, b, c) and (d, e, f) of
    psi(x, y) = (a + b x + c y, d + e x + f y). With d2 and d3 the leading
    minors of M(1):

        a = (beta_01 beta_20 - beta_10 beta_11) / sqrt(d2 d3)
        b = (beta_11 - beta_01 beta_10) / sqrt(d2 d3)
        c = -sqrt(d2 / d3)      d = -beta_10 / sqrt(d2)
        e = 1 / sqrt(d2)        f = 0

    so the linear determinant b*f - c*e = 1/sqrt(d3) is never zero. Raises
    SingularM1Error when either minor fails to clear SINGULAR_RTOL relative
    to the largest degree-<=2 moment magnitude.
    """
    return _normalizing_map(beta, *paper_minors(beta))


def _normalizing_map(beta: MomentSequence, d2: float, d3: float) -> np.ndarray:
    m1 = beta.values[:6].tolist()  # the moments of degree <= 2, the entries of M(1)
    threshold = SINGULAR_RTOL * max(map(abs, m1))
    if d2 <= threshold:
        raise SingularM1Error("normalize", "d2", d2, threshold)
    if d3 <= threshold:
        raise SingularM1Error("normalize", "d3", d3, threshold)
    if not (math.isfinite(d2) and math.isfinite(d3)):  # else the map degenerates
        name, pivot = ("d2", d2) if not math.isfinite(d2) else ("d3", d3)
        raise MomentProblemError("normalize", name, pivot)
    _, b10, b01, b20, b11, _ = m1
    s23 = math.sqrt(d2 * d3)
    s2 = math.sqrt(d2)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [(b01 * b20 - b10 * b11) / s23, (b11 - b01 * b10) / s23, -math.sqrt(d2 / d3)],
            [-b10 / s2, 1.0 / s2, 0.0],
        ]
    )


def transform_sequence(beta: MomentSequence, psi: np.ndarray) -> MomentSequence:
    """Pushforward moments beta~_ij = Lambda_beta(psi1^i psi2^j), i.e. J^T beta.

    psi is the 3x3 matrix of z -> psi z on z = (1, x, y); rows 1-2 are psi1
    and psi2.

    Satisfies Lambda_{beta~}(p) = Lambda_beta(p o psi) for every p of
    admissible degree.
    """
    return MomentSequence(beta.degree, build_J(psi, beta.degree).T @ beta.values)


def build_J(psi: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of substitution on coefficient vectors: J p_hat = (p o psi)_hat.

    Column m holds the coefficients of psi1^i psi2^j for m = x^i y^j, so J
    is block lower-triangular by degree and always invertible. Moment
    matrices of a sequence and its pushforward are congruent through J:
    M~(d) = J^T M(d) J.
    """
    shifts, steps = _substitution_tables(degree)
    coeffs = np.asarray(psi, dtype=float)[1:, :, None, None]
    # multiplication by psi1 and by psi2, exact on polynomials of degree < degree
    eye = np.eye(len(shifts[0]))
    times = coeffs[:, 0] * eye + coeffs[:, 1] * shifts[0] + coeffs[:, 2] * shifts[1]
    J = np.zeros_like(eye)
    J[0, 0] = 1.0
    for cols, parents, factor in steps:
        # a stack of matrix-vector products, one per column, so that each
        # column rounds exactly as its own product times[factor] @ J[:, parent]
        J[:, cols] = (times[factor] @ J.T[parents, :, None])[..., 0].T
    return J


@functools.cache
def _substitution_tables(degree: int):
    """Shift matrices (multiplication by x and by y, truncated at degree) and the steps of build_J.

    Step t fills the columns of degree t: x^i y^j = x * x^(i-1) y^j
    (factor 0, psi1) for i > 0, and y^t = y * y^(t-1) (factor 1, psi2).
    """
    i, j = np.array(monomials_up_to(degree)).T[:, :, None]  # row exponents
    shifts = np.array([(i == i.T + 1) & (j == j.T), (i == i.T) & (j == j.T + 1)], dtype=float)
    shifts.setflags(write=False)
    steps = []
    for t in range(1, degree + 1):
        lo, mid, hi = sequence_length(t - 2), sequence_length(t - 1), sequence_length(t)
        parents = np.array([*range(lo, mid), mid - 1])
        steps.append((slice(mid, hi), parents, np.array([0] * t + [1])))
    return shifts, tuple(steps)


def paper_extend_kneg(a, tol_k: float = TOL_K) -> ExtensionResult:
    """The paper's rank-4 extension for k < 0: beta_40 bumped by t = 1.

    Includes the induced X^3 relation; the quintic moment beta_50 is
    x3_relation(a, my[:, 2])[1], and the flat degree-3 matrix is built from
    mx and my when m3 is read.
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
        raise MomentProblemError("extend", "{1, X, Y, X^2} block") from exc
    b04 = float(p @ y2_column)  # flat completion: (Y^2)^T M4^{-1} (Y^2)
    xxx = x3_relation(a, p)[0]
    x, y, xx = (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)
    xy, yy = (0.0, a1, a2, 0.0), tuple(p.tolist())  # XY = a1 X + a2 Y, Y^2 = p over the basis
    xxy = (0.0, a1 * a2, a2 * a2, a1)  # X^2 Y = a1 X^2 + a2 XY
    mx, my = (x, xx, xy, xxx), (y, xy, yy, xxy)
    case = CaseTag.RANK_INCREASING_K_NEG
    return _extension(case, k, a, (b40, b31, b22, b13, b04), BASIS_KNEG, mx, my)


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


def x3_relation(a, p_vec) -> tuple[tuple[float, float, float, float], float]:
    """X^3 column forced by matching the two XY^2 expansions (k < 0 route).

    XY^2 expands both through the XY relation and through the Y^2 relation;
    equating them and dividing by p4 gives

        X^3 = (1/p4) [ a2 p1 + (a1^2 + a2 p2 - p1 - a1 p3) X
                       + a1 a2 Y + (a2 p4 - p2) X^2 ].

    Returns (column X^2 of Mx, the X^3 column over {1, X, Y, X^2}, and beta50,
    which evaluates it against the X^2 row of those columns, (1, a0, a1, beta_40)).
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
    return (c0, c1, c2, c3), float(beta50)


# Gram matrix of the nonnegativity certificate for beta_04 - 1: it is
# u u^T + e2 e2^T + e3 e3^T with u = (1, 0, 0, -1, -1, 1, 1), hence PSD of
# rank 3 and flat over its identity 3x3 corner.
_SOS_U = np.array([1.0, 0.0, 0.0, -1.0, -1.0, 1.0, 1.0])
SOS_GRAM = np.outer(_SOS_U, _SOS_U) + np.diag([0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])


def sos_certificate_check(a) -> bool:
    """Check y^T R y = beta04_formula(a) - 1 >= 0 for the fixed Gram matrix R.

    y = (1, a2, a3, a1^2, a2^2, a0 a2, a1 a3), and the identity must hold
    to 1e-9. Certifies that the k < 0 completion always has beta_04 >= 1.
    """
    a0, a1, a2, a3 = map(float, a)
    y = np.array([1.0, a2, a3, a1 * a1, a2 * a2, a0 * a2, a1 * a3])
    quad = float(y @ SOS_GRAM @ y)
    return abs(quad - (beta04_formula(a) - 1.0)) <= 1e-9 and quad >= -1e-12
