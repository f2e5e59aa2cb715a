"""Degree-one (affine) changes of plane coordinates.

An invertible map psi(x, y) = (a + b x + c y, d + e x + f y) carries a
moment problem to an equivalent one, and representing measures correspond
one-to-one with atoms mapped through psi. With z = (1, x, y), psi is the
3x3 matrix A with rows (1, 0, 0), (a, b, c), (d, e, f); M(1) = E[z z^T], and
the pushforward moments are the tensor T = E[z (x) z (x) z] contracted with
A on each index.

normalize_cubic maps any sequence whose M(1) is positive definite to
M(1) = I through R L^-1, where M(1) = L L^T (Cholesky) and R is the quarter
turn (x, y) -> (-y, x): the paper's closed-form map, written as a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL_PIVOT, MomentProblemError, SingularM1Error
from .linalg import ERROR_STATE, QUIET_STATE
from .moments import Atom, MomentSequence, frozen_record, monomial_index, monomials_up_to, require_finite

_Z = np.array(monomials_up_to(1))  # the exponents (i, j) of z = (1, x, y)
# entry (a, b, c) is the degree-lex position of z_a z_b z_c, so values[_TENSOR] = E[z (x) z (x) z]
_TENSOR = monomial_index((_Z[:, None, None] + _Z[:, None] + _Z).transpose(3, 0, 1, 2))
_, _ENTRIES = np.unique(_TENSOR, return_index=True)  # the flat position of one entry per moment
# the entries of M(1) are the moments of degree <= 2: (1, 0, 0, 1, 0, 1) for M(1) = I
_IDENTITY_M1 = (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
_QUARTER = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # R: (x, y) -> (-y, x)
_QUARTER.setflags(write=False)  # handed out as views, which cannot be made writeable again


def minors(beta: MomentSequence) -> tuple[float, float]:
    """Leading 2x2 and 3x3 minors of M(1), its Cholesky pivots, after rescaling to beta_00 = 1."""
    factor = 1.0 / float(beta.values[0])  # the products beta.values * factor forms
    return _pivots([v * factor for v in beta.values[:6].tolist()])


def _pivots(m1: list[float]) -> tuple[float, float]:
    """d2 = L11^2 and d3 = (L11 L22)^2 for M(1) = L L^T, with beta_00 read as 1.

    L's first column is the mean (1, beta_10, beta_01), so both pivots are
    centered second moments.
    """
    _, b10, b01, b20, b11, b02 = m1
    d2, c11 = b20 - b10 * b10, b11 - b10 * b01
    return d2, d2 * (b02 - b01 * b01) - c11 * c11


def _pivot_bounds(m1: list[float], d2: float) -> tuple[float, float]:
    """TOL_PIVOT times t2 and t3, the scales of _pivots' rounding errors in d2 and d3: operand errors, then products."""
    _, b10, b01, b20, b11, b02 = m1
    e02, c11 = b02 - b01 * b01, b11 - b10 * b01
    t2 = abs(b20) + b10 * b10
    operands = t2 * abs(e02) + abs(d2) * (abs(b02) + b01 * b01) + 2.0 * abs(c11) * (abs(b11) + abs(b10 * b01))
    return TOL_PIVOT * t2, TOL_PIVOT * (operands + abs(d2 * e02) + c11 * c11)


def _whiten(m1: list[float], d2: float, d3: float) -> np.ndarray:
    """L^-1 for M(1) = L L^T, from the positive pivots d2 = L11^2, d3 = (L11 L22)^2."""
    _, b10, b01, _, b11, _ = m1
    l11 = math.sqrt(d2)
    l21, l22 = (b11 - b10 * b01) / l11, math.sqrt(d3) / l11
    bottom = ((l21 * b10 / l11 - b01) / l22, -l21 / l11 / l22, 1.0 / l22)
    return np.array((1.0, 0.0, 0.0, -b10 / l11, 1.0 / l11, 0.0, *bottom)).reshape(3, 3)


def _push(A: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The ten moments of the pushforward under z -> A z, read back from A (x) A (x) A T."""
    S = A @ values[_TENSOR] @ A.T
    return A.dot(S.reshape(3, 9)).reshape(27)[_ENTRIES]


def pullback_measure(atoms, psi: np.ndarray) -> list[Atom]:
    """Move (u, v, weight) atoms, such as an AtomicMeasure's, through psi^{-1}, in order.

    psi is the 3x3 matrix of an invertible map z -> psi z on z = (1, x, y).
    Each atom (u, v) goes to the (x, y) that psi maps to it, by Cramer's
    rule on rows 1-2, with its weight. If the atoms represent the pushforward
    sequence, the result represents the original one. A psi whose determinant
    b*f - c*e is 0 or not finite, or whose translation a or d is not
    finite, raises ValueError.
    """
    (a, b, c), (d, e, f) = psi[1:].tolist()
    det = b * f - c * e
    if det == 0.0 or not math.isfinite(det):
        raise ValueError(f"psi is not invertible in floating point: its determinant b*f - c*e is {det}")
    if not (math.isfinite(a) and math.isfinite(d)):
        raise ValueError(f"psi's translation (a, d) = ({a}, {d}) is not finite")
    pulled = []
    for u, v, w in atoms:
        ru, rv = u - a, v - d
        pulled.append(Atom((f * ru - c * rv) / det, (b * rv - e * ru) / det, w))
    return pulled


@dataclass(frozen=True, eq=False)
class NormalizationCertificate:
    """Record of a normalization: the pivots, the map used, and its result.

    d2 and d3 are the pivots of the first Cholesky factor, the leading
    minors of the rescaled M(1). map is the read-only 3x3 matrix of
    z -> psi z, whose rows 1-2 are (a, b, c) and (d, e, f) for
    psi(x, y) = (a + b x + c y, d + e x + f y). normalized.values[6:]
    holds the four normalized cubic moments (beta~_30, beta~_21, beta~_12,
    beta~_03), the data a of the extension. Equality is identity.
    """

    d2: float
    d3: float
    map: np.ndarray
    normalized: MomentSequence


def normalize_cubic(beta: MomentSequence) -> NormalizationCertificate:
    """Rescale to beta_00 = 1, normalize M(1) to the identity, and certify.

    Factors M(1) = L1 L1^T, pushes the moments through L1^-1, factors the
    pushed-forward M(1) = L2 L2^T and pushes through R L2^-1, so psi is
    the matrix R L2^-1 L1^-1. Input whose rescaled M(1) is already I maps
    through psi(x, y) = (-y, x) alone, with no arithmetic, to the
    certificate the factors would give, bit for bit. A failed gate raises
    a MomentProblemError of stage "normalize"; a pivot not above TOL_PIVOT
    times its rounding scale (_pivot_bounds) raises a SingularM1Error.
    The arithmetic runs on Python floats or under linalg.QUIET_STATE, so it
    warns and raises nothing else, whatever the caller's error state.
    """
    if beta.degree != 3:
        raise ValueError("normalization expects a degree-3 sequence")
    raw = beta.values.tolist()
    require_finite(raw, 3, "normalize")
    factor = 1.0 / raw[0]
    values = [v * factor for v in raw]  # the products numpy's rescaling forms, without its warning
    if not all(map(math.isfinite, values)):  # the rescaled moments overflow
        raise MomentProblemError("normalize", "1 / beta_00", factor)
    m1 = values[:6]  # the moments of degree <= 2, the entries of M(1)
    if m1 == [*_IDENTITY_M1]:  # -0.0 == 0.0 too: R L2^-1 L1^-1 rounds to R exactly
        b30, b21, b12, b03 = values[6:]
        # beta~_ij = (-1)^i beta_ji, a zero stored as +0.0, as the factors' products store it
        normalized = np.array((*_IDENTITY_M1, 0.0 - b03, b12 + 0.0, 0.0 - b21, b30 + 0.0))
        normalized.setflags(write=False)
        sequence = frozen_record(MomentSequence, degree=3, values=normalized)
        return frozen_record(NormalizationCertificate, d2=1.0, d3=1.0, map=_QUARTER.view(), normalized=sequence)
    d2, d3 = _pivots(m1)
    bound2, bound3 = _pivot_bounds(m1, d2)
    if d2 <= bound2:
        raise SingularM1Error("normalize", "d2", d2, bound2)
    if d3 <= bound3 and d3 != math.inf:  # an overflowing d3 is no pivot out of scope; it is named below
        raise SingularM1Error("normalize", "d3", d3, bound3)
    if not math.isfinite(d3):  # an overflow degenerates the map; past its gate, d2 is finite
        raise MomentProblemError("normalize", "d3", d3)
    token = ERROR_STATE.set(QUIET_STATE)  # the pushed moments may overflow to an inf or NaN that a gate names
    try:
        whiten = _whiten(m1, d2, d3)
        pushed = _push(whiten, np.array(values))
        refined = pushed[:6].tolist()
        r2, r3 = _pivots(refined)
        if not (r2 > 0.0 and r3 > 0.0):  # also rejects NaN pivots
            name, pivot = ("refined d2", r2) if not r2 > 0.0 else ("refined d3", r3)
            raise MomentProblemError("normalize", name, pivot, 0.0)
        turn = _QUARTER.dot(_whiten(refined, r2, r3))
        normalized = _push(turn, pushed)
        psi = turn.dot(whiten)
    finally:
        ERROR_STATE.reset(token)
    psi.setflags(write=False)
    normalized.setflags(write=False)
    sequence = frozen_record(MomentSequence, degree=3, values=normalized)
    return frozen_record(NormalizationCertificate, d2=d2, d3=d3, map=psi, normalized=sequence)
