"""Symbolic proofs of the extension routes' closed forms and of the paper's normalizing map.

Each route identity is proved in sympy as a polynomial (or rational)
identity in the cubic moments a = (a0, a1, a2, a3) and the bump t, and the
routes are tied to the proved forms by evaluating both at sample points.
The paper's normalizing map is proved equal to the quarter turn of the
whitening R L^-1, with L the Cholesky factor of M(1), in the entries of L.
"""

import itertools

import numpy as np
import sympy as sp
from numpy.testing import assert_allclose

from cubicmoment import MomentSequence, compute_k, extend

from _oracle import SOS_GRAM, beta04_formula, degree_one_coeffs

A = a0, a1, a2, a3 = sp.symbols("a0:4", real=True)
T = sp.Symbol("t", positive=True)
K = (1 + a0 * a2 + a1 * a3) - (a1**2 + a2**2)


def _m4(t):
    """The compression of M(2) to {1, X, Y, X^2} with beta_40 bumped by t."""
    return sp.Matrix(
        [[1, 0, 0, 1], [0, 1, 0, a0], [0, 0, 1, a1], [1, a0, a1, 1 + a0**2 + a1**2 + t]]
    )


Y2_COLUMN = sp.Matrix([1, a2, a3, a1**2 + a2**2])  # column Y^2 of M(2) on {1, X, Y, X^2}

B = b10, b01, b20, b11, b02 = sp.symbols("b10 b01 b20 b11 b02", real=True)
M1 = sp.Matrix([[1, b10, b01], [b10, b20, b11], [b01, b11, b02]])  # beta_00 = 1
QUARTER = sp.Matrix([[1, 0, 0], [0, 0, -1], [0, 1, 0]])  # R: (x, y) -> (-y, x) on z = (1, x, y)


def _flat_completion(t):
    """The Y^2 relation p = M4^-1 (Y^2 column) and beta_04 = (Y^2 column)^T p."""
    p = _m4(t).LUsolve(Y2_COLUMN)
    return p, (Y2_COLUMN.T * p)[0]


def _is_zero(expr) -> bool:
    return sp.simplify(sp.expand(expr)) == 0


def _matrix(*columns) -> sp.Matrix:
    """The matrix whose column b holds the basis coordinates columns[b]."""
    return sp.Matrix(columns).T


def _route_matrices():
    """Mx, My of each route as the routes write them; the k < 0 route's bump is t = -k."""
    t = -K
    return {
        "k_zero": (
            _matrix((0, 1, 0), (1, a0, a1), (0, a1, a2)),
            _matrix((0, 0, 1), (0, a1, a2), (1, a2, a3)),
        ),
        "k_pos": (
            _matrix((0, 1, 0, 0), (1, a0, a1, 0), (0, 0, 0, 1), (a1, a1 * a2, 1 + a1 * a3, a0)),
            _matrix((0, 0, 1, 0), (0, 0, 0, 1), (1, a2, a3, 0), (a2, 1 + a2 * a0, a2 * a1, a3)),
        ),
        "k_neg": (
            _matrix((0, 1, 0, 0), (0, 0, 0, 1), (0, a1, a2, 0), (0, 1 + t + a1**2, a1 * a2, a0)),
            _matrix((0, 0, 1, 0), (0, a1, a2, 0), (0, a2 - a0, a3 - a1, 1), (0, a1 * a2, a2**2, a1)),
        ),
    }


def test_det_m4_is_the_bump():
    assert _is_zero(_m4(T).det() - T)


def test_general_bump_completion():
    p, b04 = _flat_completion(T)
    expected = (1 + K / T, a2 + a0 * K / T, a3 + a1 * K / T, -K / T)
    assert all(_is_zero(got - want) for got, want in zip(p, expected))
    assert _is_zero(b04 - (1 + K**2 / T + a2**2 + a3**2))


def test_bump_minus_k_gives_the_route_columns():
    t = -K
    p, b04 = _flat_completion(t)
    assert all(_is_zero(got - want) for got, want in zip(p, (0, a2 - a0, a3 - a1, 1)))
    assert _is_zero(b04 - (1 + t + a2**2 + a3**2))
    # the X^3 column that matching the two XY^2 expansions forces, divided by p4
    p1, p2, p3, p4 = p
    x3 = [a2 * p1, a1**2 + a2 * p2 - p1 - a1 * p3, a1 * a2, a2 * p4 - p2]
    assert all(_is_zero(c / p4 - want) for c, want in zip(x3, (0, 1 + t + a1**2, a1 * a2, a0)))


def test_routes_commute():
    mats = _route_matrices()
    for route in ("k_pos", "k_neg"):
        mx, my = mats[route]
        assert (mx * my - my * mx).expand() == sp.zeros(4, 4), route
    # the flat route commutes exactly on k = 0: its commutator is k at (X, Y) and -k at (Y, X)
    mx, my = mats["k_zero"]
    expected = sp.zeros(3, 3)
    expected[1, 2], expected[2, 1] = K, -K
    assert (mx * my - my * mx - expected).expand() == sp.zeros(3, 3)


def test_routes_write_the_proved_matrices():
    numeric = {
        name: sp.lambdify(A, sp.Matrix.hstack(mx, my)) for name, (mx, my) in _route_matrices().items()
    }
    rng = np.random.default_rng(67)
    draws = [rng.uniform(-2, 2, 4) for _ in range(40)] + [(0, 1, 0, 0), (1, 1, 0, 0)]
    seen = set()
    for a in draws:
        k = compute_k(a)
        name = "k_zero" if abs(k) <= 1e-10 else ("k_pos" if k > 0 else "k_neg")
        seen.add(name)
        ext = extend(a)
        assert ext.case.value == name
        assert_allclose(np.hstack([ext.pair[0], ext.pair[1]]), numeric[name](*a), rtol=1e-14, atol=1e-14)
    assert seen == set(numeric)


def test_criterion_5_identity():
    # y^T SOS_GRAM y equals the paper's beta_04 - 1 at the bump t = 1, as a polynomial
    assert np.array_equal(SOS_GRAM, SOS_GRAM.astype(int))
    gram = sp.Matrix(SOS_GRAM.astype(int))
    y = sp.Matrix([1, a2, a3, a1**2, a2**2, a0 * a2, a1 * a3])
    b04 = sp.expand(sp.cancel(_flat_completion(1)[1]))
    assert _is_zero((y.T * gram * y)[0] - (b04 - 1))
    # beta04_formula and b04 are polynomials of degree <= 4 in each variable,
    # so agreeing on the grid {-2, ..., 2}^4, where the float arithmetic of
    # both is exact, proves the identity everywhere
    assert max(sp.Poly(b04, *A).degree_list()) <= 4
    b04_at = sp.lambdify(A, b04)
    for a in itertools.product(range(-2, 3), repeat=4):
        assert beta04_formula(a) == b04_at(*a)


def _paper_map_rows() -> sp.Matrix:
    """Rows 1-2 of the paper's normalizing map in the entries of M(1), as in _oracle._normalizing_map."""
    d2, d3 = M1[:2, :2].det(), M1.det()
    s23, s2 = sp.sqrt(d2 * d3), sp.sqrt(d2)
    return sp.Matrix(
        [
            [(b01 * b20 - b10 * b11) / s23, (b11 - b01 * b10) / s23, -sp.sqrt(d2 / d3)],
            [-b10 / s2, 1 / s2, 0],
        ]
    )


def test_paper_map_is_the_quarter_turn_of_the_whitening():
    # every M(1) > 0 with beta_00 = 1 is L L^T for exactly one L of this shape
    m10, m01, l21 = sp.symbols("m10 m01 l21", real=True)
    l11, l22 = sp.symbols("l11 l22", positive=True)
    L = sp.Matrix([[1, 0, 0], [m10, l11, 0], [m01, l21, l22]])
    m1 = L * L.T
    assert m1.cholesky(hermitian=False).applyfunc(sp.simplify) == L
    on_L = dict(zip(B, (m1[0, 1], m1[0, 2], m1[1, 1], m1[1, 2], m1[2, 2])))
    gap = (QUARTER * L.inv())[1:, :] - _paper_map_rows().subs(on_L)
    assert gap.applyfunc(sp.simplify) == sp.zeros(2, 3)
    # the oracle's floats are the proved forms
    rows = sp.lambdify(B, _paper_map_rows())
    rng = np.random.default_rng(71)
    for _ in range(40):
        m10, m01, l21 = rng.uniform(-2, 2, 3)
        l11, l22 = rng.uniform(0.3, 2, 2)
        b = (m10, m01, m10**2 + l11**2, m10 * m01 + l11 * l21, m01**2 + l21**2 + l22**2)
        psi = degree_one_coeffs(MomentSequence(2, np.array([1.0, *b])))
        assert_allclose(psi[1:], rows(*b), rtol=1e-12, atol=1e-12)
