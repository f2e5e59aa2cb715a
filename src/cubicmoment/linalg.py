"""Small dense symmetric linear algebra for moment matrices.

Positivity of a symmetric block matrix [[A, B], [B^T, C]] is decided by
Smul'jan's criterion: A >= 0, B = A W for some W, and C >= W^T A W. The
extension keeps rank A ("flat") exactly when C = W^T A W. Joint eigenvalues
of a commuting pair are read off by diagonalizing both matrices with the
eigenvectors of one random convex combination.

Everything here works on matrices of side at most ten, so plain dense
LAPACK routines are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CommutatorError, ComplexAtomError, MomentProblemError, RangeError

TOL_PSD = 1e-10
TOL_RANGE = 1e-9
TOL_FLAT = 1e-9
TOL_COMMUTE = 1e-9
TOL_EIG = 1e-7


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


def commutator_norm(Mx, My) -> float:
    """Largest entry magnitude of the commutator Mx My - My Mx."""
    return float(np.abs(Mx @ My - My @ Mx).max(initial=0.0))


def joint_eigen(
    Mx,
    My,
    rng: np.random.Generator | None = None,
    tol_commute: float = TOL_COMMUTE,
    tol_eig: float = TOL_EIG,
) -> list[tuple[float, float]]:
    """Joint eigenvalue pairs of two commuting real matrices.

    Parameters
    ----------
    Mx, My : array_like
        Square real matrices of equal size, commuting within tol_commute
        (relative to the largest entry magnitude).
    rng : numpy Generator, optional
        Source of the random combination coefficient; a fixed default seed
        is used when omitted, so calls are reproducible.

    Returns
    -------
    list of (x, y)
        One pair per dimension (with multiplicity). Each pair comes with a
        common unit eigenvector v satisfying ||Mx v - x v|| and
        ||My v - y v|| <= tol_eig * scale.

    Notes
    -----
    Takes the eigenvectors V of one random convex combination
    c*Mx + (1-c)*My and reads the pairs off the diagonals of V^{-1} Mx V
    and V^{-1} My V, the simultaneous diagonalization (Moller and Stetter
    1995; Stetter, Numerical Polynomial Algebra, 2004). Raises
    ComplexAtomError for a non-real spectrum and MomentProblemError when a
    column of V is not a joint eigenvector.
    """
    Mx = np.asarray(Mx, dtype=float)
    My = np.asarray(My, dtype=float)
    if Mx.ndim != 2 or Mx.shape[0] != Mx.shape[1] or Mx.shape != My.shape:
        raise ValueError("Mx and My must be square matrices of equal size")
    scale = max(1.0, float(np.abs(Mx).max(initial=0.0)), float(np.abs(My).max(initial=0.0)))
    commutator = commutator_norm(Mx, My)
    if not commutator <= tol_commute * scale:  # also rejects a NaN commutator
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
    if not residual <= tol_eig * scale:  # also rejects a NaN residual
        raise MomentProblemError(
            f"joint eigenvector residual {residual:.3e} exceeds {tol_eig:g} of scale {scale:.3g}"
        )
    return [(float(xi), float(yi)) for xi, yi in zip(x, y)]
