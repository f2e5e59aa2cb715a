"""Joint spectrum of the commuting multiplication matrices Mx, My.

The joint eigenvalues of a commuting pair are read off by diagonalizing
both matrices with the eigenvectors of one random convex combination.
The matrices are 3x3 or 4x4, so plain dense LAPACK routines are used.
"""

from __future__ import annotations

import numpy as np

from .errors import CommutatorError, ComplexAtomError, MomentProblemError

TOL_COMMUTE = 1e-9
TOL_EIG = 1e-7


def commutator_norm(Mx, My) -> float:
    """Largest entry magnitude of the commutator Mx My - My Mx."""
    return float(np.abs(Mx @ My - My @ Mx).max(initial=0.0))


def joint_eigen(
    Mx,
    My,
    rng: np.random.Generator | None = None,
) -> list[tuple[float, float]]:
    """Joint eigenvalue pairs of two commuting real matrices.

    Parameters
    ----------
    Mx, My : array_like
        Square real matrices of equal size, commuting within TOL_COMMUTE
        (relative to the largest entry magnitude).
    rng : numpy Generator, optional
        Source of the random combination coefficient; a fixed default seed
        is used when omitted, so calls are reproducible.

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
