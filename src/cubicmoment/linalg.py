"""Joint spectrum of the commuting multiplication matrices Mx, My.

The joint eigenvalues of a commuting pair are read off by diagonalizing
both matrices with the eigenvectors of one fixed convex combination, which
only has to separate the 3 or 4 distinct atoms of a flat extension. The
matrices are 3x3 or 4x4, so plain dense LAPACK routines are used.

Those routines are numpy.linalg's own gufuncs (numpy.linalg._umath_linalg),
called without the Python wrappers of np.linalg.eig, inv and solve:
lapack_eig, lapack_inv and lapack_solve return what those three return,
byte for byte, and all NaN where they raise because LAPACK failed. The
solver's public stages (solve_cubic, normalize_cubic, joint_eigen,
ExtensionResult.m3 and monomial_table) do their numpy arithmetic under
QUIET_STATE, so an overflow or a failed LAPACK call is an inf or NaN
that a gate names in a typed error, not a numpy warning, whatever the
caller's error state. The state is built once, by np.errstate at import,
and entered by token on numpy's context variable
numpy._core.umath._extobj_contextvar, as np.errstate enters its own but
without its rebuild. Both private names are verified on numpy 2.4.6.
"""

from __future__ import annotations

import math

import numpy as np
from numpy._core.umath import _extobj_contextvar as ERROR_STATE
from numpy.linalg import _umath_linalg

from .errors import TOL_COMMUTE, TOL_EIG, CommutatorError, ComplexAtomError, MomentProblemError

# c of c*Mx + (1-c)*My, tried in order; the first is the seed-0 c of the earlier seeded solve,
# so its answers stay bit-identical
_COMBINATIONS = (0.5821770123928727, 0.3)


with np.errstate(all="ignore"):  # an overflow or a failed LAPACK call leaves an inf or NaN that the gates reject
    QUIET_STATE = ERROR_STATE.get()


def lapack_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eig of a real square float array: real w and V when no eigenvalue has an imaginary part.

    Where np.linalg.eig raises, w and V are complex and all NaN: LAPACK did
    not converge, or an entry is not finite, which LAPACK is never handed.
    """
    if np.count_nonzero(np.isfinite(a)) != a.size:
        nan = complex(math.nan, math.nan)
        return np.full(len(a), nan), np.full(a.shape, nan)
    w, v = _umath_linalg.eig(a, signature="d->DD")
    if np.count_nonzero(w.imag):  # NaN counts and -0.0 does not, as in np.linalg.eig's w.imag == 0.0
        return w, v
    return w.real, v.real


def lapack_inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a real square float array; all NaN where np.linalg.inv raises (a singular one)."""
    return _umath_linalg.inv(a, signature="d->d")


def lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of a real square float a and a vector b; all NaN where np.linalg.solve raises (a singular a)."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def commutator_norm(M: np.ndarray) -> float:
    """Largest entry magnitude of the commutator Mx My - My Mx of the stack M = (Mx, My)."""
    P = M @ M[::-1]  # the stack (Mx My, My Mx)
    return float(np.abs(P[0] - P[1]).max(initial=0.0))


def largest(values: list[float]) -> float:
    """ndarray.max(initial=0.0) of non-negative floats: their max, 0.0 for none, NaN if one is NaN."""
    total = sum(values)  # NaN exactly when a value is NaN, as the others are >= 0 or +inf
    return total if total != total else max(values, default=0.0)


def commutator_gate(M: np.ndarray) -> None:
    """Raise CommutatorError unless the stacked pair M = (Mx, My) commutes within TOL_COMMUTE.

    The tolerance is relative to the scale max(1, max|Mx|, max|My|). A NaN
    commutator fails.
    """
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    commutator = commutator_norm(M)
    if not commutator <= TOL_COMMUTE * scale:
        raise CommutatorError("joint spectrum", "max |Mx My - My Mx|", commutator, TOL_COMMUTE * scale)


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
        common unit eigenvector v satisfying ||Mx v - x v|| <= TOL_EIG *
        max(1, max|Mx|) and ||My v - y v|| <= TOL_EIG * max(1, max|My|),
        each matrix on its own scale.

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
    token = ERROR_STATE.set(QUIET_STATE)
    try:
        commutator_gate(M)
        errors = []
        for c in _COMBINATIONS:
            try:
                return _read_spectrum(M, c)
            except MomentProblemError as exc:
                errors.append(exc)
                if exc.quantity == "eigenvector residual" and not math.isfinite(exc.value):
                    break  # an overflow, not a tie: the second c is not tried
    finally:
        ERROR_STATE.reset(token)
    raise errors[0]


def _read_spectrum(M: np.ndarray, c: float) -> list[tuple[float, float]]:
    """The pairs of the stack M = (Mx, My) read with the eigenvectors of c*Mx + (1-c)*My.

    The atoms of the extension are real, so a non-real eigenvalue,
    however small its imaginary part, raises ComplexAtomError. A failed
    eig or inv, read as the NaN it returns, raises MomentProblemError
    naming eig or the eigenvector basis, and so does the eigenvector
    residual of Mx, then of My, over eig's own columns (which LAPACK's
    dgeev returns with norm 1) above TOL_EIG * max(1, max|M|) of its matrix.
    """
    lam, V = lapack_eig(c * M[0] + (1.0 - c) * M[1])
    if lam.dtype.kind == "c":  # eig returns a complex lam when an eigenvalue is not real, and when it failed
        imag = float(np.abs(lam.imag).max())
        if math.isnan(imag):  # a failed eig is all NaN
            raise MomentProblemError("joint spectrum", "eig")
        raise ComplexAtomError("joint spectrum", "max |Im lambda|", imag, 0.0)
    V_inv = lapack_inv(V)
    xy = (V_inv @ M @ V).diagonal(0, 1, 2)  # rows x and y
    R = M @ V - V * xy[:, None, :]
    squares = np.add.reduce(R * R, 1).ravel().tolist()  # the squared norms of the columns of R, Mx's then My's
    # sqrt is monotone and correctly rounded: the root of the largest square is the largest norm
    residual = math.sqrt(largest(squares))
    if math.isnan(residual) and np.isnan(V_inv).all():  # a failed inv is all NaN: V is singular
        raise MomentProblemError("joint spectrum", "eigenvector basis")
    if not residual <= TOL_EIG:  # each matrix's bound is at least TOL_EIG
        for k, entry in enumerate(np.abs(M).max(axis=(1, 2), initial=0.0).tolist()):
            residual, bound = math.sqrt(largest(squares[k * len(V) : (k + 1) * len(V)])), TOL_EIG * max(1.0, entry)
            if not residual <= bound:
                raise MomentProblemError("joint spectrum", "eigenvector residual", residual, bound)
    return list(zip(*xy.tolist()))
