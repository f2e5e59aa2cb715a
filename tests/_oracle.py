"""Independent oracles the tests check the solver against.

The solver never calls anything here. Each oracle re-derives a quantity
the solver writes in closed form, by a different route, so a test can
compare the two with its own data and bound.

Positivity of a symmetric block matrix [[A, B], [B^T, C]] is decided by
Smul'jan's criterion: A >= 0, B = A W for some W, and C >= W^T A W. The
extension keeps rank A ("flat") exactly when C = W^T A W.

multiplication_matrices is the general fixed-point reducer for Mx, My on
any basis and relation set; riesz and column_of are the Riesz functional
and the column functional calculus on dense degree-lex vectors.

joint_eigen_reference reads the joint spectrum one matrix at a time: two
triple products and two residual norms, with c drawn from a fresh
generator. The solver does the same arithmetic on one (2, n, n) stack and
memoises c, so the tests require equal results. They differ only where
the tests' inputs never go: the reference's Python max over the two
residuals drops a NaN My residual that follows a finite Mx one, and the
solver's single array max rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cubicmoment import (
    ColumnRelation,
    CommutatorError,
    ComplexAtomError,
    MomentMatrix,
    MomentProblemError,
    MomentSequence,
    Monomial,
)
from cubicmoment.linalg import TOL_COMMUTE, TOL_EIG, commutator_norm

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
    if residual > tol * max(1.0, float(np.linalg.norm(B2))):
        raise RangeError(
            f"block is not in the range of the diagonal block (residual {residual:.3e})"
        )
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


def column_of(M: MomentMatrix, p: np.ndarray) -> np.ndarray:
    """Functional-calculus column p(X, Y) = M(d) @ p_hat.

    p is a dense degree-lex coefficient vector of at most M.side entries.
    The polynomial vanishes as a column, p(X, Y) = 0, exactly when its
    coefficient vector lies in the kernel of M(d).
    """
    p = np.asarray(p, dtype=float)
    if p.size > M.side:
        raise ValueError(f"{p.size} coefficients exceed the {M.side} columns of M({M.degree})")
    return M.entries[:, : p.size] @ p


def joint_eigen_reference(
    Mx,
    My,
    rng: np.random.Generator | None = None,
) -> list[tuple[float, float]]:
    """Joint eigenvalue pairs of two commuting real matrices, one matrix at a time."""
    Mx = np.asarray(Mx, dtype=float)
    My = np.asarray(My, dtype=float)
    if Mx.ndim != 2 or Mx.shape[0] != Mx.shape[1] or Mx.shape != My.shape:
        raise ValueError("Mx and My must be square matrices of equal size")
    scale = max(1.0, float(np.abs(Mx).max(initial=0.0)), float(np.abs(My).max(initial=0.0)))
    commutator = commutator_norm(Mx, My)
    if not commutator <= TOL_COMMUTE * scale:  # also rejects a NaN commutator
        raise CommutatorError(
            f"multiplication matrices do not commute (max entry {commutator:.3e})"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    c = rng.uniform(0.2, 0.8)
    lam, V = np.linalg.eig(c * Mx + (1.0 - c) * My)
    if float(np.abs(lam.imag).max()) > 1e-6 * max(1.0, float(np.abs(lam).max())):
        raise ComplexAtomError("joint spectrum is not real")
    V = V.real
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise MomentProblemError("the combination has no eigenvector basis") from exc
    x = np.diag(V_inv @ Mx @ V)
    y = np.diag(V_inv @ My @ V)
    V = V / np.linalg.norm(V, axis=0)
    residual = max(
        float(np.linalg.norm(Mx @ V - V * x, axis=0).max()),
        float(np.linalg.norm(My @ V - V * y, axis=0).max()),
    )
    if not residual <= TOL_EIG * scale:  # also rejects a NaN residual
        raise MomentProblemError(
            f"joint eigenvector residual {residual:.3e} exceeds {TOL_EIG:g} of scale {scale:.3g}"
        )
    return [(float(xi), float(yi)) for xi, yi in zip(x, y)]

