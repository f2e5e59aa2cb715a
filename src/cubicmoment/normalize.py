"""Degree-one (affine) changes of plane coordinates.

An invertible map psi(x, y) = (a + b x + c y, d + e x + f y) carries a
moment problem to an equivalent one, and representing measures correspond
one-to-one with atoms mapped through psi. With z = (1, x, y), psi is the
3x3 matrix with rows (1, 0, 0), (a, b, c), (d, e, f).

normalize_cubic maps any sequence whose M(1) is positive definite to
M(1) = I by the paper's closed form psi(x, y) = R L^-1 ((x, y) - m): m is
the mean, C = L L^T the covariance (Cholesky) and R the quarter turn
(x, y) -> (-y, x). A 2x2 matrix [[w11, 0], [w21, w22]] is the triple
(w11, w21, w22), and the central moments go through it on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL_PIVOT, MomentProblemError, SingularM1Error
from .moments import Atom, MomentSequence, frozen_record, require_finite

# the entries of M(1) are the moments of degree <= 2: (1, 0, 0, 1, 0, 1) for M(1) = I
_IDENTITY_M1 = (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
_QUARTER = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # R: (x, y) -> (-y, x)
_QUARTER.setflags(write=False)  # handed out as views, which cannot be made writeable again


def minors(beta: MomentSequence) -> tuple[float, float]:
    """Leading 2x2 and 3x3 minors of M(1), its Cholesky pivots, after rescaling to beta_00 = 1."""
    factor = 1.0 / float(beta.values[0])  # the products beta.values * factor forms
    d2, c11, e02 = _central([v * factor for v in beta.values[:6].tolist()])
    return d2, d2 * e02 - c11 * c11


def _central(m1: list[float]) -> tuple[float, float, float]:
    """The central second moments d2, c11, e02 of M(1), beta_00 read as 1: the pivots are d2 and d2 e02 - c11^2."""
    _, b10, b01, b20, b11, b02 = m1
    return b20 - b10 * b10, b11 - b10 * b01, b02 - b01 * b01


def _pivot_bounds(m1: list[float], d2: float, c11: float, e02: float) -> tuple[float, float]:
    """TOL_PIVOT times t2 and t3, the scales of the rounding errors in d2 and d3: operand errors, then products."""
    _, b10, b01, b20, b11, b02 = m1
    t2 = abs(b20) + b10 * b10
    operands = t2 * abs(e02) + abs(d2) * (abs(b02) + b01 * b01) + 2.0 * abs(c11) * (abs(b11) + abs(b10 * b01))
    return TOL_PIVOT * t2, TOL_PIVOT * (operands + abs(d2 * e02) + c11 * c11)


def _whitening(s11: float, s12: float, det: float) -> tuple[float, float, float]:
    """The triple of L^-1 for [[s11, s12], [s12, s22]] = L L^T, from its positive pivots s11 and det."""
    p = math.sqrt(s11)
    q, r = s12 / p, math.sqrt(det) / p  # L = [[p, 0], [q, r]]
    return 1.0 / p, -q / p / r, 1.0 / r


def _push_second(w: tuple[float, float, float], s11: float, s12: float, s22: float) -> tuple[float, float, float]:
    """E[u u], E[u v], E[v v] for (u, v) = W (x, y), W the triple w, from E[x x], E[x y], E[y y]."""
    w11, w21, w22 = w
    xv, yv = w21 * s11 + w22 * s12, w21 * s12 + w22 * s22  # E[x v], E[y v]
    return w11 * (w11 * s11), w11 * xv, w21 * xv + w22 * yv


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
    psi(x, y) = (a + b x + c y, d + e x + f y). normalized.values is
    (1, 0, 0, 1, 0, 1), the entries of M(1) = I that psi reaches up to
    rounding, then the four normalized cubic moments (beta~_30, beta~_21,
    beta~_12, beta~_03), the data a of the extension. Equality is identity.
    """

    d2: float
    d3: float
    map: np.ndarray
    normalized: MomentSequence


def normalize_cubic(beta: MomentSequence) -> NormalizationCertificate:
    """Rescale to beta_00 = 1, normalize M(1) to the identity, and certify.

    Factors the covariance C = L1 L1^T and then L1^-1 C L1^-T = L2 L2^T, so
    psi is R L2^-1 L1^-1 after the shift by the mean. Input whose rescaled
    M(1) is already I maps through psi(x, y) = (-y, x) alone, with no
    arithmetic, to the certificate the factors would give, bit for bit. A
    failed gate raises a MomentProblemError of stage "normalize"; a pivot
    not above TOL_PIVOT times its rounding scale (_pivot_bounds) raises a
    SingularM1Error. The arithmetic runs on Python floats, so it warns and
    raises nothing else, whatever the caller's numpy error state.
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
        # beta~_ij = (-1)^i beta_ji, a zero stored as +0.0, as the general path stores it
        normalized = np.array((*_IDENTITY_M1, 0.0 - b03, b12 + 0.0, 0.0 - b21, b30 + 0.0))
        normalized.setflags(write=False)
        sequence = frozen_record(MomentSequence, degree=3, values=normalized)
        return frozen_record(NormalizationCertificate, d2=1.0, d3=1.0, map=_QUARTER.view(), normalized=sequence)
    d2, c11, e02 = _central(m1)
    d3 = d2 * e02 - c11 * c11
    bound2, bound3 = _pivot_bounds(m1, d2, c11, e02)
    if d2 <= bound2:
        raise SingularM1Error("normalize", "d2", d2, bound2)
    if d3 <= bound3 and d3 != math.inf:  # an overflowing d3 is no pivot out of scope; it is named below
        raise SingularM1Error("normalize", "d3", d3, bound3)
    if not math.isfinite(d3):  # an overflow degenerates the map; past its gate, d2 is finite
        raise MomentProblemError("normalize", "d3", d3)
    _, b10, b01, _, _, _, b30, b21, b12, b03 = values
    first = _whitening(d2, c11, d3)
    s11, s12, s22 = _push_second(first, d2, c11, e02)  # the covariance after L1^-1: I up to rounding
    r3 = s11 * s22 - s12 * s12
    if not (s11 > 0.0 and r3 > 0.0):  # math.sqrt raises ValueError on a negative pivot and takes a NaN one
        name, pivot = ("refined d2", s11) if not s11 > 0.0 else ("refined d3", r3)
        raise MomentProblemError("normalize", name, pivot, 0.0)
    a11, a21, a22 = _whitening(s11, s12, r3)
    w11, w21, w22 = a11 * first[0], a21 * first[0] + a22 * first[1], a22 * first[2]  # L2^-1 L1^-1
    # the central cubic moments, then E[x x v], E[x y v], E[y y v], E[x v v], E[y v v] for v = w21 x + w22 y
    t30 = b30 - b10 * (3.0 * d2 + b10 * b10)
    t21 = b21 - b01 * (d2 + b10 * b10) - 2.0 * b10 * c11
    t12 = b12 - b10 * (e02 + b01 * b01) - 2.0 * b01 * c11
    t03 = b03 - b01 * (3.0 * e02 + b01 * b01)
    xxv, xyv, yyv = w21 * t30 + w22 * t21, w21 * t21 + w22 * t12, w21 * t12 + w22 * t03
    xvv, yvv = w21 * xxv + w22 * xyv, w21 * xyv + w22 * yyv
    uuu, uuv, uvv, vvv = w11 * (w11 * (w11 * t30)), w11 * (w11 * xxv), w11 * xvv, w21 * xvv + w22 * yvv
    # R takes (u, v) to (-v, u): beta~_ij = (-1)^i E[u^j v^i], a zero stored as +0.0, as the fast path stores it;
    # M(1) is I, which psi reaches up to rounding: the extension and the densities assume it exactly
    normalized = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0 - vvv, uvv + 0.0, 0.0 - uuv, uuu + 0.0]
    require_finite(normalized, 3, "normalize", "beta~")  # a pushed cubic moment may overflow
    psi = np.array(((1.0, 0.0, 0.0), (w21 * b10 + w22 * b01 + 0.0, 0.0 - w21, -w22), (0.0 - w11 * b10, w11, 0.0)))
    psi.setflags(write=False)
    normalized = np.array(normalized)
    normalized.setflags(write=False)
    sequence = frozen_record(MomentSequence, degree=3, values=normalized)
    return frozen_record(NormalizationCertificate, d2=d2, d3=d3, map=psi, normalized=sequence)
