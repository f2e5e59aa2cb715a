"""Degree-one (affine) changes of plane coordinates.

An invertible map psi(x, y) = (a + b x + c y, d + e x + f y) carries a
moment problem to an equivalent one: the pushforward sequence is
beta~_ij = Lambda_beta(psi1^i psi2^j), moment matrices transform by
congruence with the substitution matrix J, and representing measures
correspond one-to-one with atoms mapped through psi.

The specific coefficients computed here turn any sequence whose M(1) is
positive definite into the normalized form beta_00 = 1,
beta_10 = beta_01 = beta_11 = 0, beta_20 = beta_02 = 1, i.e. M(1) = I.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MomentProblemError, SingularM1Error
from .moments import Atom, AtomicMeasure, MomentSequence, monomials_up_to, sequence_length

SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class AffineMap:
    """psi(x, y) = (a + b*x + c*y, d + e*x + f*y) with invertible linear part."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self) -> None:
        if self.b * self.f - self.c * self.e == 0.0:
            raise ValueError("linear part must be invertible (b*f - c*e != 0)")

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(0.0, 1.0, 0.0, 0.0, 0.0, 1.0)

    @property
    def linear_det(self) -> float:
        return self.b * self.f - self.c * self.e

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.a + self.b * x + self.c * y, self.d + self.e * x + self.f * y)

    def invert_point(self, u: float, v: float) -> tuple[float, float]:
        """Solve psi(x, y) = (u, v) for (x, y)."""
        det = self.linear_det
        ru, rv = u - self.a, v - self.d
        return ((self.f * ru - self.c * rv) / det, (self.b * rv - self.e * ru) / det)


def minors(beta: MomentSequence) -> tuple[float, float]:
    """Leading principal 2x2 and 3x3 minors of M(1).

    Assumes the sequence has been rescaled to beta_00 = 1 (the closed forms
    below are written for that normalization).
    """
    if abs(beta[0, 0] - 1.0) > 1e-9:
        raise ValueError("rescale the sequence to beta_00 = 1 before taking minors")
    b10, b01 = beta[1, 0], beta[0, 1]
    b20, b11, b02 = beta[2, 0], beta[1, 1], beta[0, 2]
    d2 = b20 - b10 * b10
    d3 = (
        -b02 * b10 * b10
        + 2.0 * b01 * b10 * b11
        - b11 * b11
        - b01 * b01 * b20
        + b02 * b20
    )
    return d2, d3


def degree_one_coeffs(beta: MomentSequence, tol: float = SINGULAR_RTOL) -> AffineMap:
    """The six coefficients whose map normalizes M(1) to the identity.

    With d2 and d3 the leading minors of M(1):

        a = (beta_01 beta_20 - beta_10 beta_11) / sqrt(d2 d3)
        b = (beta_11 - beta_01 beta_10) / sqrt(d2 d3)
        c = -sqrt(d2 / d3)      d = -beta_10 / sqrt(d2)
        e = 1 / sqrt(d2)        f = 0

    so the linear determinant b*f - c*e = 1/sqrt(d3) is never zero. Raises
    SingularM1Error when either minor fails to clear tol relative to the
    largest degree-<=2 moment magnitude.
    """
    return _normalizing_map(beta, *minors(beta), tol)


def _normalizing_map(beta: MomentSequence, d2: float, d3: float, tol: float) -> AffineMap:
    quad_scale = max(abs(beta[m]) for m in monomials_up_to(2))
    threshold = tol * quad_scale
    if d2 <= threshold:
        raise SingularM1Error("d2", d2)
    if d3 <= threshold:
        raise SingularM1Error("d3", d3)
    b10, b01 = beta[1, 0], beta[0, 1]
    b20, b11 = beta[2, 0], beta[1, 1]
    s23 = math.sqrt(d2 * d3)
    s2 = math.sqrt(d2)
    return AffineMap(
        a=(b01 * b20 - b10 * b11) / s23,
        b=(b11 - b01 * b10) / s23,
        c=-math.sqrt(d2 / d3),
        d=-b10 / s2,
        e=1.0 / s2,
        f=0.0,
    )


def transform_sequence(beta: MomentSequence, psi: AffineMap) -> MomentSequence:
    """Pushforward moments beta~_ij = Lambda_beta(psi1^i psi2^j), i.e. J^T beta.

    Satisfies Lambda_{beta~}(p) = Lambda_beta(p o psi) for every p of
    admissible degree.
    """
    return MomentSequence(beta.degree, build_J(psi, beta.degree).T @ beta.values)


def build_J(psi: AffineMap, degree: int) -> np.ndarray:
    """Matrix of substitution on coefficient vectors: J p_hat = (p o psi)_hat.

    Column m holds the coefficients of psi1^i psi2^j for m = x^i y^j, so J
    is block lower-triangular by degree and always invertible. Moment
    matrices of a sequence and its pushforward are congruent through J:
    M~(d) = J^T M(d) J.
    """
    shifts, steps = _substitution_tables(degree)
    coeffs = np.array([[psi.a, psi.b, psi.c], [psi.d, psi.e, psi.f]])[:, :, None, None]
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


def pullback_measure(mu: AtomicMeasure, psi: AffineMap) -> AtomicMeasure:
    """Move atoms through psi^{-1}; weights and cardinality are unchanged.

    If mu~ represents the pushforward sequence, the result represents the
    original one.
    """
    return AtomicMeasure(
        tuple(Atom(*psi.invert_point(a.x, a.y), a.weight) for a in mu.atoms)
    )


@dataclass(frozen=True)
class NormalizationCertificate:
    """Record of a normalization: minors, the map used, and its result.

    a_vec holds the four normalized cubic moments
    (beta~_30, beta~_21, beta~_12, beta~_03).
    """

    d2: float
    d3: float
    map: AffineMap
    normalized: MomentSequence
    a_vec: tuple[float, float, float, float]


def normalize_cubic(beta: MomentSequence, tol: float = SINGULAR_RTOL) -> NormalizationCertificate:
    """Rescale to beta_00 = 1, normalize M(1) to the identity, and certify.

    Applied unconditionally (already-normalized input maps through
    psi(x, y) = (-y, x)); the resulting M(1) is checked against the identity
    to 1e-10.
    """
    if beta.degree != 3:
        raise ValueError("normalization expects a degree-3 sequence")
    scaled = beta.rescaled(1.0 / beta[0, 0])
    d2, d3 = minors(scaled)
    psi = _normalizing_map(scaled, d2, d3, tol)
    normalized = transform_sequence(scaled, psi)
    # the entries of M(1) are the moments of degree <= 2: (1, 0, 0, 1, 0, 1) for M(1) = I
    defect = float(np.abs(normalized.values[:6] - (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)).max())
    if defect > 1e-10:
        raise MomentProblemError(
            f"normalization failed to reach M(1) = I (defect {defect:.3e})"
        )
    a_vec = tuple(float(v) for v in normalized.values[6:])  # beta~_30, ..., beta~_03
    return NormalizationCertificate(d2, d3, psi, normalized, a_vec)
