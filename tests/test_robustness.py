"""Well-posed input far from the unit scale solves, with a backward error within accept.

By the paper, every cubic sequence whose M(1) is positive definite has a 3-
or 4-atomic representing measure, so every such input the solver rejects is
its own mistake. The accept bound is the componentwise backward error, which
translation, scaling per axis and scaling of the mass leave alone, and the
pivots and the tie band are relative to their rounding scales, so these
moves keep the input in reach up to the float range.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubicmoment import Atom, AtomicMeasure, MomentProblemError, MomentSequence, solve_cubic
from cubicmoment.errors import TOL_ACCEPT

from gitexport import ROOT

sys.path.insert(0, str(ROOT / "perfbench"))  # the benchmark's own oracle, imported as it imports it, unchanged

from oracle import check_measure  # noqa: E402

POINTS = [(0.3, 0.1), (-0.7, 0.4), (0.2, -0.9), (0.5, 0.6)]


def _moved(shift=0.0, scale=(1.0, 1.0), mass=1.0) -> MomentSequence:
    """The moments of the four points of weight 1/4, translated by shift in both axes, then scaled and weighed."""
    atoms = [Atom((x + shift) * scale[0], (y + shift) * scale[1], 0.25 * mass) for x, y in POINTS]
    return AtomicMeasure(tuple(atoms)).moments(3)


ROWS = {
    "none": _moved(),
    "translated by 100": _moved(shift=1e2),
    "anisotropic scale (1e3, 1e-3)": _moved(scale=(1e3, 1e-3)),
    "mass 1e-12": _moved(mass=1e-12),
    "translated by 1e3": _moved(shift=1e3),
    "translated by 1e4": _moved(shift=1e4),
    "translated by 1e5": _moved(shift=1e5),
    "translated by 1e6": _moved(shift=1e6),
    "scaled by 1e-4": _moved(scale=(1e-4, 1e-4)),
    "scaled by 1e3": _moved(scale=(1e3, 1e3)),
    "mass 1e12": _moved(mass=1e12),
}


def _assert_solves(beta: MomentSequence, accept: float = TOL_ACCEPT):
    mu, report = solve_cubic(beta, accept)
    assert report.check.backward_error <= accept
    assert check_measure(beta.values, list(mu.atoms)).ok
    return mu, report


@pytest.mark.parametrize("beta", ROWS.values(), ids=ROWS.keys())
def test_each_robustness_row_solves(beta):
    mu, _ = _assert_solves(beta)
    assert len(mu.atoms) == 4


def _signed_log_uniform(low: float, high: float):
    """A float of either sign whose magnitude is 10^e for e drawn from [low, high]."""
    return st.tuples(st.floats(low, high), st.booleans()).map(lambda p: -(10.0 ** p[0]) if p[1] else 10.0 ** p[0])


@given(
    a=st.tuples(*[_signed_log_uniform(-2.0, 8.0)] * 4),
    shift=st.tuples(_signed_log_uniform(-2.0, 6.0), _signed_log_uniform(-2.0, 6.0)),
    scale=st.tuples(st.floats(-4.0, 3.0), st.floats(-4.0, 3.0)),
    mass=st.floats(-12.0, 12.0),
)
def test_normalized_input_and_its_affine_moves_solve(a, shift, scale, mass):
    # the normalized input [1, 0, 0, 1, 0, 1, a] with |a_i| up to 1e8, and the measure it returns moved by a
    # translation up to 1e6, a scale per axis from 1e-4 to 1e3 and a mass from 1e-12 to 1e12, as in the rows above
    mu, _ = _assert_solves(MomentSequence(3, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, *a])))
    sx, sy = 10.0**scale[0], 10.0**scale[1]
    moved = [Atom((x + shift[0]) * sx, (y + shift[1]) * sy, w * 10.0**mass) for x, y, w in mu.atoms]
    beta = AtomicMeasure(tuple(moved)).moments(3)
    assert all(map(math.isfinite, beta.values.tolist()))
    _assert_solves(beta)


@pytest.mark.xfail(raises=MomentProblemError, strict=True, reason="backward error 1.41e-8, past the default accept")
def test_the_largest_backward_error_of_the_sampled_draws():
    # the worst of 100,000 draws of the property above (numpy seeds 3 and 4, not hypothesis's): a3 = -8.4e7 puts
    # an atom near y = -8.4e7, and the joint spectrum's errors, of order u * 8.4e7, reach the atoms near the
    # origin; every other draw had a backward error below 8.2e-9
    _assert_solves(MomentSequence(3, [1, 0, 0, 1, 0, 1, 17600.60905272927, 1.3248019271636242, 0.1589416308787502,
                                      -83708943.10426937]))
