"""The benchmark's own correctness check, independent of the solver's.

A returned measure is re-integrated against the input moments. The check
uses the componentwise relative residual

    res_ij = |sum_k w_k x_k^i y_k^j - beta_ij| / sum_k w_k |x_k|^i |y_k|^j,

which does not change when the measure is translated within float range,
scaled per axis or scaled in mass. This is the backward error of Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 7. A measure passes
when it has 3 or 4 atoms, every weight is finite and positive, and every
res_ij is at most CHECK_RTOL.

CHECK_RTOL accepts a measure that reproduces every moment to six digits.
The precision beyond that is not a pass/fail matter; the benchmark reports
it as accuracy_digits_p05 instead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

CHECK_RTOL = 1e-6
DIGITS_CAP = 17.0  # an exact residual of 0 reads as 17 digits

# (i, j) for beta_00, beta_10, beta_01, beta_20, ..., beta_03 (degree-lex)
EXPONENTS = tuple((i, d - i) for d in range(4) for i in range(d, -1, -1))
_I = np.array([i for i, _ in EXPONENTS])
_J = np.array([j for _, j in EXPONENTS])


class Verdict(NamedTuple):
    ok: bool
    residual: float  # largest componentwise relative residual
    reason: str  # empty when ok


def moments_of(xs, ys, ws) -> np.ndarray:
    """Degree-3 moments of the atomic measure sum_k ws[k] delta_(xs[k], ys[k])."""
    xs, ys, ws = (np.asarray(v, dtype=float) for v in (xs, ys, ws))
    terms = ws[None, :] * xs[None, :] ** _I[:, None] * ys[None, :] ** _J[:, None]
    return np.array([math.fsum(row) for row in terms])


def relative_residual(beta, xs, ys, ws) -> float:
    """Largest componentwise relative residual of the measure against beta."""
    beta = np.asarray(beta, dtype=float)
    xs, ys, ws = (np.asarray(v, dtype=float) for v in (xs, ys, ws))
    integral = moments_of(xs, ys, ws)
    scale = moments_of(np.abs(xs), np.abs(ys), np.abs(ws))
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.abs(integral - beta) / scale
    # a zero scale with a zero residual is exact; with a nonzero one it is not
    res = np.where(scale > 0, res, np.where(integral == beta, 0.0, np.inf))
    return float(res.max())


def check_measure(beta, atoms) -> Verdict:
    """Check a list of (x, y, weight) atoms against the ten input moments."""
    if len(atoms) not in (3, 4):
        return Verdict(False, math.inf, f"{len(atoms)} atoms, expected 3 or 4")
    xs, ys, ws = (np.array(col, dtype=float) for col in zip(*atoms))
    if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(ws).all()):
        return Verdict(False, math.inf, "an atom or weight is not finite")
    if (ws <= 0).any():
        return Verdict(False, math.inf, f"weight {ws.min():.3e} is not positive")
    residual = relative_residual(beta, xs, ys, ws)
    if not residual <= CHECK_RTOL:
        return Verdict(False, residual, f"relative moment residual {residual:.3e} > {CHECK_RTOL:g}")
    return Verdict(True, residual, "")


def accuracy_digits(residual: float) -> float:
    """-log10 of a relative residual, capped at DIGITS_CAP."""
    if residual <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(residual))
