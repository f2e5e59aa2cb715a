"""Moment sequences, degree-lex indexing, and Hankel-block moment matrices.

Monomials x^i y^j are ordered degree-lexicographically: first by total
degree, ties broken by decreasing x-exponent. This gives the column labels
1, X, Y, X^2, XY, Y^2, X^3, ... used everywhere in this package. Moment
data and polynomial coefficient vectors are stored densely in that order;
at degree 6 a sequence holds 28 values, so no sparse structure is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Monomial",
    "monomial_index",
    "monomials_up_to",
    "sequence_length",
    "MomentSequence",
    "MomentMatrix",
    "build_moment_matrix",
    "monomial_table",
    "Atom",
    "AtomicMeasure",
]


class Monomial(NamedTuple):
    """Exponent pair (i, j) standing for x^i y^j."""

    i: int
    j: int

    @property
    def degree(self) -> int:
        return self.i + self.j


def monomial_index(m: tuple[int, int]) -> int:
    """Position of x^i y^j in degree-lex order.

    >>> [monomial_index(m) for m in [(0, 0), (1, 1), (0, 3)]]
    [0, 4, 9]
    """
    i, j = m
    d = i + j
    return d * (d + 1) // 2 + (d - i)


def monomials_up_to(degree: int) -> list[Monomial]:
    """All monomials of total degree <= degree, in degree-lex order."""
    return [Monomial(i, d - i) for d in range(degree + 1) for i in range(d, -1, -1)]


def sequence_length(degree: int) -> int:
    """Number of monomials of total degree <= degree."""
    return (degree + 1) * (degree + 2) // 2


@dataclass(frozen=True)
class MomentSequence:
    """Real moments beta_ij for every i + j <= degree.

    Values are stored densely in degree-lex order and are read-only after
    construction. beta_00 must be positive.
    """

    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
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

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "MomentSequence":
        """Build a sequence from a flat degree-lex list, inferring the degree."""
        vals = np.asarray(list(values), dtype=float)
        degree = 0
        while sequence_length(degree) < vals.size:
            degree += 1
        if sequence_length(degree) != vals.size:
            raise ValueError(f"{vals.size} values is not a full set of moments")
        return cls(degree, vals)

    def __getitem__(self, m: tuple[int, int]) -> float:
        i, j = m
        if i < 0 or j < 0 or i + j > self.degree:
            raise IndexError(f"moment ({i},{j}) outside degree {self.degree}")
        return float(self.values[monomial_index(m)])

    def rescaled(self, factor: float) -> "MomentSequence":
        return MomentSequence(self.degree, self.values * factor)

    def truncated(self, degree: int) -> "MomentSequence":
        """Drop all moments above the given total degree."""
        if degree > self.degree:
            raise ValueError("cannot truncate upwards")
        return MomentSequence(degree, self.values[: sequence_length(degree)])


@dataclass(frozen=True)
class MomentMatrix:
    """Symmetric matrix M(d) with entry (u, v) = beta_{u+v}, Hankel by blocks."""

    degree: int
    entries: np.ndarray
    labels: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        ent = np.array(self.entries, dtype=float)
        side = sequence_length(self.degree)
        if ent.shape != (side, side):
            raise ValueError(f"M({self.degree}) must be {side}x{side}, got {ent.shape}")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "labels", tuple(Monomial(*m) for m in self.labels))

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def moment(self, m: tuple[int, int]) -> float:
        """Read beta_m back from the first entry (u, v) with u + v = m."""
        hits = np.argwhere(_hankel_index(self.degree) == monomial_index(m))
        if min(m) < 0 or not len(hits):
            raise IndexError(f"moment {tuple(m)} is not an entry of M({self.degree})")
        return float(self.entries[tuple(hits[0])])


def build_moment_matrix(beta: MomentSequence) -> MomentMatrix:
    """Assemble M(d) from an even-degree sequence beta^(2d).

    The entry at (row u, col v) is beta_{u+v}, so the result is symmetric
    and Hankel by blocks by construction.
    """
    if beta.degree % 2 != 0:
        raise ValueError("a moment matrix requires an even-degree sequence")
    d = beta.degree // 2
    return MomentMatrix(d, beta.values[_hankel_index(d)], tuple(monomials_up_to(d)))


@functools.cache
def _hankel_index(d: int) -> np.ndarray:
    """Entry (u, v) is the degree-lex position of the monomial u * v."""
    i, j = _exponents(d)
    index = monomial_index((i[:, None] + i[None, :], j[:, None] + j[None, :]))
    index.setflags(write=False)
    return index


@functools.cache
def _exponents(degree: int) -> np.ndarray:
    """Rows i and j: the exponents of the monomials up to degree, in degree-lex order."""
    exponents = np.array(monomials_up_to(degree)).T
    exponents.setflags(write=False)
    return exponents


def monomial_table(x, y, degree: int, weights=None) -> np.ndarray:
    """Every monomial of degree <= degree evaluated at the points (x_k, y_k).

    Row k holds x_k^i y_k^j in degree-lex order, times weights[k] when
    given. The powers are Python float powers and the weight multiplies
    x^i before y^j, so each entry rounds exactly as w * x**i * y**j does.
    """
    if len(x) != len(y):
        raise ValueError(f"{len(x)} x-coordinates but {len(y)} y-coordinates")
    i, j = _exponents(degree)
    coordinates = [*map(float, x), *map(float, y)]
    try:
        powers = np.array([[v**e for e in range(degree + 1)] for v in coordinates])
    except OverflowError:  # float ** raises where C pow gives +-inf; np.power gives it
        with np.errstate(over="ignore"):
            powers = np.power.outer(coordinates, np.arange(degree + 1.0))
    x_pow, y_pow = powers.reshape(2, -1, degree + 1)
    if weights is not None:
        x_pow = np.asarray(weights, dtype=float)[:, None] * x_pow
    return x_pow[:, i] * y_pow[:, j]


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
        object.__setattr__(self, "atoms", tuple(Atom(*a) for a in self.atoms))

    @property
    def total_mass(self) -> float:
        return float(sum(a.weight for a in self.atoms))

    def integrals(self, degree: int) -> np.ndarray:
        """sum_k rho_k x_k^i y_k^j for every i + j <= degree, in degree-lex order.

        The atoms are added in order, so each entry rounds exactly as the
        scalar sum over the atoms does.
        """
        x, y, w = ([a[k] for a in self.atoms] for k in range(3))
        return sum(monomial_table(x, y, degree, w), np.zeros(sequence_length(degree)))

    def moments(self, degree: int) -> MomentSequence:
        """Exact moments sum rho_k x_k^i y_k^j up to the given degree."""
        return MomentSequence(degree, self.integrals(degree))
