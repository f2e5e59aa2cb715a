"""Joint spectrum of the commuting multiplication matrices Mx, My.

The joint eigenvalues of a commuting pair are read off by diagonalizing
both matrices with the eigenvectors of one fixed convex combination, which
only has to separate the 3 or 4 distinct atoms of a flat extension. The
matrices are 3x3 or 4x4, so plain dense LAPACK routines are used.

Those routines are numpy.linalg's own gufuncs (numpy.linalg._umath_linalg,
verified on numpy 2.4.6), called without the Python wrappers of
np.linalg.eig, inv and solve: lapack_eig, lapack_inv and lapack_solve
return what those three return, byte for byte, and raise LinAlgError where
they raise it, when run under lapack_errors().
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import TOL_COMMUTE, TOL_EIG, CommutatorError, ComplexAtomError, MomentProblemError

# c of c*Mx + (1-c)*My, tried in order; the first is the seed-0 c of the earlier seeded solve,
# so its answers stay bit-identical
_COMBINATIONS = (0.5821770123928727, 0.3)


def _lapack_failed(err, flag):
    """The errstate call handler: a gufunc reports a LAPACK failure as an invalid operation."""
    raise LinAlgError("the LAPACK routine failed: a singular matrix or no convergence")


def lapack_errors() -> np.errstate:
    """numpy.linalg's error state around its gufuncs: a LAPACK failure raises LinAlgError.

    Overflow, division and underflow inside LAPACK stay quiet, as in
    np.linalg; without this state a failure only fills the result with NaN.
    """
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore", divide="ignore", under="ignore")


def lapack_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eig of a real square float array: real w and V when no eigenvalue has an imaginary part.

    Raises LinAlgError for a non-finite entry before LAPACK runs, and, under
    lapack_errors(), when LAPACK does not converge.
    """
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    w, v = _umath_linalg.eig(a, signature="d->DD")
    if w.imag.any():  # NaN is truthy and -0.0 is not, as in np.linalg.eig's w.imag == 0.0
        return w, v
    return w.real, v.real


def lapack_inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a real square float array; under lapack_errors() a singular one raises."""
    return _umath_linalg.inv(a, signature="d->d")


def lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of a real square float a and a vector b; under lapack_errors() a singular a raises."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def commutator_norm(M: np.ndarray) -> float:
    """Largest entry magnitude of the commutator Mx My - My Mx of the stack M = (Mx, My)."""
    Mx, My = M[0], M[1]
    return float(np.abs(Mx @ My - My @ Mx).max(initial=0.0))


def largest(values: list[float]) -> float:
    """ndarray.max(initial=0.0) of non-negative floats: their max, 0.0 for none, NaN if one is NaN."""
    total = sum(values)  # NaN exactly when a value is NaN, as the others are >= 0 or +inf
    return total if total != total else max(values, default=0.0)


def commutator_gate(M: np.ndarray) -> float:
    """Raise CommutatorError unless the stacked pair M = (Mx, My) commutes within TOL_COMMUTE.

    The tolerance is relative to the scale max(1, max|Mx|, max|My|), which
    is returned. A NaN commutator fails.
    """
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    commutator = commutator_norm(M)
    if not commutator <= TOL_COMMUTE * scale:
        raise CommutatorError("joint spectrum", "max |Mx My - My Mx|", commutator, TOL_COMMUTE * scale)
    return scale


def joint_eigen(M) -> list[tuple[float, float]]:
    """Joint eigenvalue pairs of two commuting real matrices.

    Parameters
    ----------
    M : array_like, shape (2, n, n)
        The stack (Mx, My) of two square real matrices, commuting within
        TOL_COMMUTE (relative to the largest entry magnitude).

    Returns
    -------
    list of (x, y)
        One pair per dimension (with multiplicity). Each pair comes with a
        common unit eigenvector v satisfying ||Mx v - x v|| and
        ||My v - y v|| <= TOL_EIG * scale.

    Notes
    -----
    Takes the eigenvectors V of the combination c*Mx + (1-c)*My and reads
    the pairs off the diagonals of V^{-1} Mx V and V^{-1} My V, the
    simultaneous diagonalization (Moller and Stetter 1995; Stetter,
    Numerical Polynomial Algebra, 2004). c is the first of _COMBINATIONS;
    the second is tried only when the first fails, as it does when two
    distinct pairs tie under it, and not after an overflowing residual,
    which is no tie. Raises ComplexAtomError for a non-real spectrum and
    MomentProblemError when eig fails, V is singular or a column of V is
    not a joint eigenvector, each for the first c when both fail.
    """
    M = np.asarray(M, dtype=float)
    two, n, m = M.shape if M.ndim == 3 else (0, 0, 0)
    if two != 2 or n != m:
        raise ValueError(f"M must stack two square matrices, shape (2, n, n), not {M.shape}")
    # huge entries overflow to an inf or NaN commutator or residual, which the gates reject
    with np.errstate(over="ignore", invalid="ignore"):
        scale = commutator_gate(M)
        errors = []
        for c in _COMBINATIONS:
            try:
                pairs, residual = _read_spectrum(M, c)
            except MomentProblemError as exc:
                errors.append(exc)
                continue
            if residual <= TOL_EIG * scale:
                return pairs
            errors.append(MomentProblemError("joint spectrum", "eigenvector residual", residual, TOL_EIG * scale))
            if not math.isfinite(residual):  # an overflow, not a tie: the second c is not tried
                break
    raise errors[0]


def _read_spectrum(M: np.ndarray, c: float) -> tuple[list[tuple[float, float]], float]:
    """The pairs of the stack M = (Mx, My) read with the eigenvectors of c*Mx + (1-c)*My.

    Returns them with the largest eigenvector residual of either matrix
    over eig's own columns, which LAPACK's dgeev returns with norm 1.
    The atoms of the extension are real, so a non-real eigenvalue,
    however small its imaginary part, raises ComplexAtomError.
    """
    with lapack_errors():
        try:
            lam, V = lapack_eig(c * M[0] + (1.0 - c) * M[1])
        except LinAlgError as exc:
            raise MomentProblemError("joint spectrum", "eig") from exc
        if lam.dtype.kind == "c":  # eig returns a complex lam exactly when an eigenvalue is not real
            raise ComplexAtomError("joint spectrum", "max |Im lambda|", float(np.abs(lam.imag).max()), 0.0)
        try:
            V_inv = lapack_inv(V)
        except LinAlgError as exc:
            raise MomentProblemError("joint spectrum", "eigenvector basis") from exc
    xy = (V_inv @ M @ V).diagonal(0, 1, 2)  # rows x and y
    R = M @ V - V * xy[:, None, :]
    squares = np.add.reduce(R * R, 1).ravel().tolist()  # the squared norms of the columns of R
    # sqrt is monotone and correctly rounded: the root of the largest square is the largest norm
    return list(zip(*xy.tolist())), math.sqrt(largest(squares))
