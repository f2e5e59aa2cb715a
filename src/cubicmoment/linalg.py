"""Joint spectrum of the commuting multiplication matrices Mx, My.

The joint eigenvalues of a commuting pair are read off by diagonalizing
both matrices with the eigenvectors of one random convex combination.
The matrices are 3x3 or 4x4, so plain dense LAPACK routines are used.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import CommutatorError, ComplexAtomError, MomentProblemError

TOL_COMMUTE = 1e-9
TOL_EIG = 1e-7


def commutator_norm(Mx, My) -> float:
    """Largest entry magnitude of the commutator Mx My - My Mx."""
    return float(np.abs(Mx @ My - My @ Mx).max(initial=0.0))


def joint_eigen(Mx, My, seed=0) -> list[tuple[float, float]]:
    """Joint eigenvalue pairs of two commuting real matrices.

    Parameters
    ----------
    Mx, My : array_like
        Square real matrices of equal size, commuting within TOL_COMMUTE
        (relative to the largest entry magnitude).
    seed : int, sequence, SeedSequence or None, default 0
        Seed of c = np.random.default_rng(seed).uniform(0.2, 0.8), memoised
        per int seed; None draws fresh entropy on every call.

    Returns
    -------
    list of (x, y)
        One pair per dimension (with multiplicity). Each pair comes with a
        common unit eigenvector v satisfying ||Mx v - x v|| and
        ||My v - y v|| <= TOL_EIG * scale.

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
    M = np.array((Mx, My))  # each slice of the stack multiplies as its own matrix
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    commutator = commutator_norm(Mx, My)
    if not commutator <= TOL_COMMUTE * scale:  # also rejects a NaN commutator
        raise CommutatorError(
            f"multiplication matrices do not commute (max entry {commutator:.3e})"
        )
    c = _combination_coefficient(seed)
    lam, V = np.linalg.eig(c * Mx + (1.0 - c) * My)
    if float(np.abs(lam.imag).max()) > 1e-6 * max(1.0, float(np.abs(lam).max())):
        raise ComplexAtomError("joint spectrum is not real")
    V = V.real
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise MomentProblemError("the combination has no eigenvector basis") from exc
    xy = np.diagonal(V_inv @ M @ V, axis1=1, axis2=2)  # rows x and y
    V = V / np.linalg.norm(V, axis=0)
    residual = float(np.linalg.norm(M @ V - V * xy[:, None, :], axis=1).max())
    if not residual <= TOL_EIG * scale:  # also rejects a NaN residual
        raise MomentProblemError(
            f"joint eigenvector residual {residual:.3e} exceeds {TOL_EIG:g} of scale {scale:.3g}"
        )
    return list(zip(*xy.tolist()))


def _combination_coefficient(seed) -> float:
    """c = np.random.default_rng(seed).uniform(0.2, 0.8), memoised for int seeds only."""
    if isinstance(seed, (int, np.integer)):
        return _int_seed_coefficient(int(seed))
    return np.random.default_rng(seed).uniform(0.2, 0.8)


@functools.lru_cache(maxsize=1024)
def _int_seed_coefficient(seed: int) -> float:
    return np.random.default_rng(seed).uniform(0.2, 0.8)
