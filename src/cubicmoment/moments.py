"""Moment sequences, degree-lex indexing, and Hankel-block moment matrices.

Monomials x^i y^j are ordered degree-lexicographically: first by total
degree, ties broken by decreasing x-exponent. This gives the column labels
1, X, Y, X^2, XY, Y^2, X^3, ... used everywhere in this package. Moment
data and polynomial coefficient vectors are stored densely in that order;
at degree 6 a sequence holds 28 values, so no sparse structure is needed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MomentProblemError


def monomial_index(m: tuple[int, int]) -> int:
    """Position of x^i y^j in degree-lex order, for ints or integer index arrays; a bad exponent raises ValueError.

    >>> [monomial_index(m) for m in [(0, 0), (1, 1), (0, 3)]]
    [0, 4, 9]
    """
    i, j = map(_exponents, m)
    d = i + j
    return d * (d + 1) // 2 + (d - i)


def _exponents(e):
    """An exponent as _nonnegative_int reads it, or an index array of them: an integer dtype and no entry < 0."""
    if isinstance(e, np.ndarray) and e.ndim:
        if e.dtype.kind in "iu" and not (e < 0).any():
            return e
        raise ValueError(f"each exponent must be an integer >= 0, got exponents {e!r}")
    return _nonnegative_int(e, "exponent")


@functools.cache
def monomial_columns(monomials: tuple) -> np.ndarray:
    """The degree-lex positions of the monomials, as a read-only index array."""
    columns = np.array([monomial_index(m) for m in monomials], dtype=np.intp)
    columns.setflags(write=False)
    return columns


def monomials_up_to(degree: int) -> list[tuple[int, int]]:
    """The exponent pairs (i, j) of all monomials of total degree <= degree (an int >= 0), in degree-lex order."""
    degree = _nonnegative_int(degree, "degree")
    return [(i, d - i) for d in range(degree + 1) for i in range(d, -1, -1)]


def require_finite(values: list[float], degree: int, stage: str, symbol: str = "beta") -> None:
    """Raise stage's MomentProblemError naming the first non-finite degree-lex moment of values, as symbol_ij."""
    if not all(map(math.isfinite, values)):
        n = list(map(math.isfinite, values)).index(False)
        i, j = monomials_up_to(degree)[n]
        raise MomentProblemError(stage, f"{symbol}_{i}{j}", values[n])


def _nonnegative_int(value, what: str) -> int:
    """A degree or an exponent as an int: an integer >= 0 and not a bool (an int too), or ValueError."""
    try:
        n = operator.index(value)
    except TypeError:  # not an integer
        n = -1
    if n < 0 or isinstance(value, bool):
        raise ValueError(f"the {what} must be an integer >= 0, got {what} {value!r}")
    return n


def sequence_length(degree: int) -> int:
    """Number of monomials of total degree <= degree."""
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Real moments beta_ij for every i + j <= degree.

    Values are stored densely in degree-lex order and are read-only after
    construction. beta_00 must be positive. A degree, here or in truncated,
    or an exponent of beta[i, j] that is a bool or not an integer >= 0, a
    moment past the float range or a wrong shape raises ValueError; a numpy
    integer degree is stored as an int. Equality is identity; compare
    values with np.array_equal.
    """

    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _nonnegative_int(self.degree, "degree"))
        try:
            vals = np.array(self.values, dtype=float)
        except OverflowError as exc:  # an int moment beyond the float range
            raise ValueError(f"degree-{self.degree} moments must fit in a float: {exc}") from exc
        expected = sequence_length(self.degree)
        if vals.shape != (expected,):
            raise ValueError(
                f"degree-{self.degree} sequence needs {expected} moments, "
                f"got shape {vals.shape}"
            )
        if not vals[0] > 0.0:
            raise ValueError("beta_00 must be positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, m: tuple[int, int]) -> float:
        i, j = (_nonnegative_int(e, "exponent") for e in m)
        if i + j > self.degree:
            raise IndexError(f"moment ({i},{j}) outside degree {self.degree}")
        return float(self.values[monomial_index((i, j))])

    def truncated(self, degree: int) -> "MomentSequence":
        """Drop all moments above the given total degree."""
        degree = _nonnegative_int(degree, "degree")
        if degree > self.degree:
            raise ValueError("cannot truncate upwards")
        return MomentSequence(degree, self.values[: sequence_length(degree)])


def frozen_record(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, for the records the solver builds.

    The generated __init__ sets each field with its own object.__setattr__
    call; this sets the instance dict at once. Every field must be given,
    and no __post_init__ runs, so the values must already meet it.
    """
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def build_moment_matrix(beta: MomentSequence) -> np.ndarray:
    """Assemble M(d) from an even-degree sequence beta^(2d), as a read-only array.

    Rows and columns follow monomials_up_to(d). The entry at (row u, col v)
    is beta_{u+v}, so the result is symmetric and Hankel by blocks by
    construction.
    """
    if beta.degree % 2 != 0:
        raise ValueError("a moment matrix requires an even-degree sequence")
    i, j = np.array(monomials_up_to(beta.degree // 2)).T
    entries = beta.values[monomial_index((i[:, None] + i[None, :], j[:, None] + j[None, :]))]
    entries.setflags(write=False)
    return entries


def monomials_at(x, y, w, monomials) -> np.ndarray:
    """Row k holds (w[k] * x[k]^i) * y[k]^j for each (i, j) of monomials, from the Python floats x, y, w.

    The one evaluator of monomials at points: integrals_of takes every
    monomial up to a degree, and the density solve's V_B, written from the
    route's basis, is its unit-weight table, which 1.0 * v leaves as it is.
    Each power is a running product, x^0 = 1.0 and x^(e+1) = x^e * x, so
    x^2 is correctly rounded, and a power past the float range is +-inf
    (and inf * 0 NaN), as IEEE products give it, without an error or warning.
    """
    degree = max(map(sum, monomials), default=0)
    entries = []
    for u, v, wk in zip(x, y, w):
        px, py = (list(itertools.accumulate([z] * degree, operator.mul, initial=1.0)) for z in (u, v))
        entries += [wk * px[i] * py[j] for i, j in monomials]
    return np.array(entries, dtype=float).reshape(len(x), len(monomials))


class Atom(NamedTuple):
    """A weighted point mass at (x, y)."""

    x: float
    y: float
    weight: float


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses in the plane.

    Solver output guarantees strictly positive weights and 3 or 4 atoms;
    the type itself accepts any atom list so that candidate measures can be
    verified as-is.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        atoms = tuple([a if isinstance(a, Atom) else Atom(*a) for a in self.atoms])
        object.__setattr__(self, "atoms", atoms)

    def moments(self, degree: int) -> MomentSequence:
        """Exact moments sum rho_k x_k^i y_k^j up to the given degree."""
        degree = _nonnegative_int(degree, "degree")
        return MomentSequence(degree, integrals_of(self.atoms, degree))


def integrals_of(atoms, degree: int) -> list[float]:
    """Degree-lex sums of w x^i y^j over the (x, y, w) triples atoms, added in order, as Python floats."""
    if degree == 3:
        return _cubic_integrals(atoms)
    totals = [0.0] * sequence_length(degree)
    if atoms:
        x, y, w = (list(map(float, column)) for column in zip(*atoms))
        for row in monomials_at(x, y, w, monomials_up_to(degree)).tolist():
            totals = list(map(operator.add, totals, row))
    return totals


def _cubic_integrals(atoms) -> list[float]:
    """integrals_of(atoms, 3) written out: (w * x^i) * y^j with monomials_at's products x^2 = x * x, x^3 = x^2 * x."""
    t0 = t1 = t2 = t3 = t4 = t5 = t6 = t7 = t8 = t9 = 0.0
    for x, y, w in atoms:
        x, y, w = float(x), float(y), float(w)
        x2, y2 = x * x, y * y
        wx, wx2 = w * x, w * x2
        t0 += w
        t1 += wx
        t2 += w * y
        t3 += wx2
        t4 += wx * y
        t5 += w * y2
        t6 += w * (x2 * x)
        t7 += wx2 * y
        t8 += wx * y2
        t9 += w * (y2 * y)
    return [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9]
