import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubicmoment import (
    Atom,
    AtomicMeasure,
    MomentSequence,
    build_moment_matrix,
    monomial_index,
    monomials_up_to,
)
from cubicmoment.moments import integrals_of, monomials_at, sequence_length

from _oracle import column_of, monomials_at_reference, riesz
from _util import same_bytes, seq_from_a


class TestIndexing:
    def test_corner_positions(self):
        assert monomial_index((0, 0)) == 0
        assert monomial_index((1, 1)) == 4
        assert monomial_index((0, 3)) == 9

    def test_degree_lex_listing(self):
        assert monomials_up_to(3) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
            (3, 0),
            (2, 1),
            (1, 2),
            (0, 3),
        ]

    def test_index_is_bijective_position(self):
        for pos, m in enumerate(monomials_up_to(6)):
            assert monomial_index(m) == pos

    def test_sequence_length(self):
        assert [sequence_length(d) for d in (0, 1, 2, 3, 4, 6)] == [1, 3, 6, 10, 15, 28]

    @pytest.mark.parametrize("m", [(0, -1), (-1, 0), (2, -1), (np.array([0, 1]), np.array([1, -1]))])
    def test_negative_exponent_is_refused(self, m):
        # the formula alone maps (0, -1) to -1, beta_03's position in a cubic sequence, and (-1, 0) to beta_00's
        with pytest.raises(ValueError, match="non-negative"):
            monomial_index(m)


class TestMomentSequence:
    def test_requires_full_set(self):
        with pytest.raises(ValueError):
            MomentSequence(2, np.zeros(5))

    def test_requires_positive_mass(self):
        vals = np.zeros(6)
        with pytest.raises(ValueError):
            MomentSequence(2, vals)

    def test_read_only(self):
        beta = seq_from_a((0, 0, 0, 0))
        with pytest.raises(ValueError):
            beta.values[0] = 2.0

    def test_getitem_bounds(self):
        beta = seq_from_a((1, 2, 3, 4))
        assert beta[3, 0] == 1.0
        with pytest.raises(IndexError):
            beta[4, 0]

    def test_truncated(self):
        beta = seq_from_a((1, 2, 3, 4))
        assert beta.truncated(2).values.tolist() == [1, 0, 0, 1, 0, 1]
        with pytest.raises(ValueError, match="cannot truncate upwards"):
            beta.truncated(4)

    def test_negative_degree_is_named(self):
        with pytest.raises(ValueError, match="degree -1"):
            MomentSequence(-1, [])

    @pytest.mark.parametrize(
        "degree, values",
        [
            (2.0, [1, 0, 0, 1, 0, 1]),  # its moment matrix would raise a TypeError
            (True, [1, 0, 0]),
            ("2", [1, 0, 0, 1, 0, 1]),
            (3, [10**400, 0, 0, 1, 0, 1, 0, 0, 0, 0]),  # an int past the float range
            (3, [1, 0, 0, 1, 0, 1, 0, 0, 0, -(10**400)]),
        ],
    )
    def test_bad_degree_or_moment_is_a_value_error(self, degree, values):
        with pytest.raises(ValueError):
            MomentSequence(degree, values)

    def test_numpy_integer_degree_is_stored_as_int(self):
        beta = MomentSequence(np.int64(2), [1, 0, 0, 1, 0, 1])
        assert type(beta.degree) is int and build_moment_matrix(beta).shape == (3, 3)
        with pytest.raises(ValueError, match="degree -1"):
            seq_from_a((1, 2, 3, 4)).truncated(-1)


class TestBuildMomentMatrix:
    def test_normalized_m1_is_identity(self):
        beta = MomentSequence(2, np.array([1, 0, 0, 1, 0, 1], dtype=float))
        assert_allclose(build_moment_matrix(beta), np.eye(3))

    def test_sparse_quartic_pattern(self):
        # beta_00 = beta_20 = beta_02 = beta_40 = beta_22 = beta_04 = 1, rest 0
        vals = np.zeros(15)
        for m in [(0, 0), (2, 0), (0, 2), (4, 0), (2, 2), (0, 4)]:
            vals[monomial_index(m)] = 1.0
        m2 = build_moment_matrix(MomentSequence(4, vals))
        expected = np.array(
            [
                [1, 0, 0, 1, 0, 1],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [1, 0, 0, 1, 0, 1],
                [0, 0, 0, 0, 1, 0],
                [1, 0, 0, 1, 0, 1],
            ],
            dtype=float,
        )
        assert_allclose(m2, expected)

    def test_flat_quartics_duplicate_rows(self):
        # a = 0 with quartics (1, 0, 1, 0, 1): rows 1, X^2, Y^2 coincide
        vals = np.array([1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1], dtype=float)
        m2 = build_moment_matrix(MomentSequence(4, vals))
        assert_allclose(m2[0], m2[3])
        assert_allclose(m2[0], m2[5])

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            build_moment_matrix(seq_from_a((0, 0, 0, 0)))

    def test_read_only(self):
        m2 = build_moment_matrix(MomentSequence(4, np.arange(1, 16, dtype=float)))
        with pytest.raises(ValueError, match="read-only"):
            m2[0, 0] = 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_and_hankel_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        for degree in (0, 2, 4, 6):
            vals = rng.uniform(-1, 1, sequence_length(degree))
            vals[0] = abs(vals[0]) + 0.1
            m = build_moment_matrix(MomentSequence(degree, vals))
            side = sequence_length(degree // 2)
            assert m.shape == (side, side)
            assert_allclose(m, m.T, rtol=0, atol=0)
            labels = monomials_up_to(degree // 2)
            for u, (i, j) in enumerate(labels):
                for v, (k, l) in enumerate(labels):
                    target = vals[monomial_index((i + k, j + l))]
                    assert m[u, v] == target


class TestMonomialsAt:
    def test_matches_explicit_powers(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.5, 1.5, 7).tolist()
        y = rng.uniform(-1.5, 1.5, 7).tolist()
        w = rng.uniform(0.2, 1.5, 7).tolist()
        for degree in range(7):
            labels = monomials_up_to(degree)
            table = monomials_at(x, y, [1.0] * 7, labels)
            expected = [[xk**i * yk**j for i, j in labels] for xk, yk in zip(x, y)]
            assert table.tolist() == expected
            # weighted column sums round exactly as the scalar sum over the atoms
            sums = sum(monomials_at(x, y, w, labels), np.zeros(len(labels)))
            assert sums.tolist() == [sum(wk * xk**i * yk**j for xk, yk, wk in zip(x, y, w)) for i, j in labels]
            mu = AtomicMeasure(tuple(Atom(*a) for a in zip(x, y, w)))
            assert mu.moments(degree).values.tolist() == sums.tolist()

    def test_overflowing_power_is_inf(self):
        # float ** raises OverflowError here; the table follows IEEE arithmetic instead
        table = monomials_at([1e200, -1.7], [-1e200, 0.3], [1.0, 1.0], monomials_up_to(3))
        assert table[0, :6].tolist() == [1.0, 1e200, -1e200, math.inf, -math.inf, math.inf]
        assert table[1].tolist() == [(-1.7) ** i * 0.3**j for i, j in monomials_up_to(3)]

    def test_overflowing_product_is_inf(self):
        # the powers are finite and their products leave float range, without a warning
        assert monomials_at([1e150], [1e150], [1.0], monomials_up_to(3))[0, 6:].tolist() == [math.inf] * 4
        table = monomials_at([1e150], [1.0], [1e100], monomials_up_to(2))
        assert table.tolist() == [[1e100, 1e250, 1e100, math.inf, 1e250, 1e100]]

    def test_no_points(self):
        assert monomials_at([], [], [], monomials_up_to(3)).shape == (0, 10)


def _signed(magnitude_and_sign) -> float:
    magnitude, negative = magnitude_and_sign
    return -magnitude if negative else magnitude


# signed zeros, and magnitudes from 1e-300 to 1e200, whose squares and cubes underflow or overflow
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0]), st.tuples(st.floats(1e-300, 1e200), st.booleans()).map(_signed)
)


class TestRoundingPin:
    @settings(max_examples=400)
    @given(st.lists(st.tuples(COORDINATES, COORDINATES, COORDINATES), max_size=5), st.integers(0, 6))
    @example([(1e200, -0.0, -1e-300), (2.5, -1e-160, 3.0)], 3)  # the OverflowError fallback at degree 3
    @example([(0.3, -0.7, 0.25), (-0.0, 1e-300, 0.5)], 3)
    def test_tables_and_integrals_match_the_numpy_reference(self, points, degree):
        x, y, w = ([p[k] for p in points] for k in range(3))
        with np.errstate(all="ignore"):  # the reference's array products warn on overflow
            weighted = monomials_at_reference(x, y, degree, w)
            plain = monomials_at_reference(x, y, degree)
            integrals = sum(weighted, np.zeros(sequence_length(degree)))
        assert same_bytes(monomials_at(x, y, w, monomials_up_to(degree)), weighted)
        assert same_bytes(monomials_at(x, y, [1.0] * len(x), monomials_up_to(degree)), plain)
        assert same_bytes(np.array(integrals_of(points, degree)), integrals)


class TestRiesz:
    def test_constant(self):
        beta = seq_from_a((1, 2, 3, 4))
        assert riesz(beta, [1.0]) == 1.0

    def test_sum_of_squares_of_coordinates(self):
        beta = seq_from_a((0, 0, 0, 0))
        assert riesz(beta, [0, 0, 0, 1, 0, 1]) == 2.0  # x^2 + y^2

    def test_cubic_minus_linear(self):
        beta = seq_from_a((1, 0, 0, 0))
        assert riesz(beta, [0, -1, 0, 0, 0, 0, 1]) == 1.0  # x^3 - x

    def test_degree_overflow(self):
        beta = seq_from_a((0, 0, 0, 0))
        with pytest.raises(ValueError):
            riesz(beta, np.eye(15)[monomial_index((4, 0))])

    @given(
        st.lists(st.floats(-1, 1), min_size=10, max_size=10),
        st.lists(st.floats(-1, 1), min_size=10, max_size=10),
        st.lists(st.floats(-1, 1), min_size=9, max_size=9),
        st.floats(-2, 2),
    )
    def test_linearity(self, pc, qc, moments, alpha):
        beta = MomentSequence(3, np.array([1.0] + moments))
        p, q = np.array(pc), np.array(qc)
        lhs = riesz(beta, alpha * p + q)
        rhs = alpha * riesz(beta, p) + riesz(beta, q)
        assert abs(lhs - rhs) <= 1e-12


class TestColumnOf:
    def test_unit_column(self):
        m1 = build_moment_matrix(MomentSequence(2, np.array([1, 0, 0, 1, 0, 1], float)))
        assert_allclose(column_of(m1, [0, 1]), [0, 1, 0])  # x, as a degree-lex prefix

    def test_zero_polynomial(self):
        m1 = build_moment_matrix(MomentSequence(2, np.array([1, 0, 0, 1, 0, 1], float)))
        assert_allclose(column_of(m1, []), np.zeros(3))

    def test_kernel_vector_of_flat_quartics(self):
        vals = np.array([1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1], dtype=float)
        m2 = build_moment_matrix(MomentSequence(4, vals))
        p = [-1.0, 0.0, 0.0, 1.0]  # x^2 - 1
        assert_allclose(column_of(m2, p), np.zeros(6), atol=0)

    def test_degree_overflow(self):
        m1 = build_moment_matrix(MomentSequence(2, np.array([1, 0, 0, 1, 0, 1], float)))
        with pytest.raises(ValueError):
            column_of(m1, np.eye(6)[3])

    @given(st.lists(st.floats(-1, 1), min_size=6, max_size=6), st.integers(0, 2**32 - 1))
    def test_linearity_over_monomials(self, coeffs, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-1, 1, 15)
        vals[0] = 1.0
        m2 = build_moment_matrix(MomentSequence(4, vals))
        combo = sum(
            (c * column_of(m2, unit) for unit, c in zip(np.eye(6), coeffs)),
            start=np.zeros(6),
        )
        assert_allclose(column_of(m2, coeffs), combo, rtol=0, atol=5e-15)


class TestAtomicMeasure:
    def test_moments_of_point_mass(self):
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0),))
        seq = mu.moments(3)
        assert all(v == 1.0 for v in seq.values)

    def test_keeps_atoms_and_converts_tuples(self):
        atom = Atom(0.0, 1.0, 0.5)
        mu = AtomicMeasure((atom, (1.0, 2.0, 0.5)))
        assert mu.atoms[0] is atom
        assert type(mu.atoms[1]) is Atom and mu.atoms[1] == (1.0, 2.0, 0.5)
