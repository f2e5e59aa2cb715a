import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubicmoment import (
    AffineMap,
    Atom,
    AtomicMeasure,
    MomentSequence,
    SingularM1Error,
    build_J,
    build_moment_matrix,
    compute_k,
    degree_one_coeffs,
    minors,
    normalize_cubic,
    pullback_measure,
    transform_sequence,
)

from _oracle import numeric_rank
from _util import seq_from_a


def _sequence(degree, **entries):
    from cubicmoment.moments import monomial_index, sequence_length

    vals = np.zeros(sequence_length(degree))
    vals[0] = 1.0
    for key, value in entries.items():
        i, j = int(key[1]), int(key[2])
        vals[monomial_index((i, j))] = value
    return MomentSequence(degree, vals)


def _random_measure(rng, n_atoms):
    pts = rng.uniform(-1.5, 1.5, size=(n_atoms, 2))
    wts = rng.uniform(0.2, 1.0, size=n_atoms)
    return AtomicMeasure(tuple(Atom(x, y, w) for (x, y), w in zip(pts, wts)))


class TestAffineMap:
    def test_rejects_singular_linear_part(self):
        with pytest.raises(ValueError):
            AffineMap(0, 1, 2, 0, 2, 4)

    def test_invert_point_round_trip(self):
        psi = AffineMap(1.0, 2.0, -1.0, 0.5, 0.25, 3.0)
        u, v = psi.apply(0.7, -1.3)
        assert psi.invert_point(u, v) == (
            pytest.approx(0.7),
            pytest.approx(-1.3),
        )


class TestMinors:
    def test_normalized(self):
        assert minors(seq_from_a((0, 0, 0, 0))) == (1.0, 1.0)

    def test_shifted_first_moment(self):
        beta = _sequence(2, b10=0.5, b20=1.0, b02=1.0)
        d2, d3 = minors(beta)
        assert d2 == pytest.approx(0.75)
        assert d3 == pytest.approx(0.75)

    def test_rank_deficient_m1(self):
        beta = _sequence(2, b10=0.5, b20=0.25, b02=1.0)
        d2, _ = minors(beta)
        assert d2 == 0.0

    def test_requires_unit_mass(self):
        beta = _sequence(2, b20=1.0, b02=1.0).rescaled(2.0)
        with pytest.raises(ValueError):
            minors(beta)


class TestDegreeOneCoeffs:
    def test_already_normalized_gives_quarter_turn(self):
        psi = degree_one_coeffs(seq_from_a((0, 0, 0, 0)))
        assert (psi.a, psi.b, psi.c, psi.d, psi.e, psi.f) == (0, 0, -1, 0, 1, 0)
        assert psi.apply(3.0, 5.0) == (-5.0, 3.0)

    def test_shifted_first_moment(self):
        beta = _sequence(2, b10=0.5, b20=1.0, b02=1.0)
        psi = degree_one_coeffs(beta)
        assert psi.e == pytest.approx(2.0 / math.sqrt(3.0))
        assert psi.d == pytest.approx(-1.0 / math.sqrt(3.0))
        assert psi.f == 0.0

    def test_linear_determinant_value(self):
        beta = _sequence(2, b10=0.3, b01=-0.2, b11=0.1, b20=1.4, b02=0.9)
        d2, d3 = minors(beta)
        psi = degree_one_coeffs(beta)
        # |b f - c e| = 1/sqrt(d3); with f = 0 the sign works out positive
        assert psi.linear_det == pytest.approx(1.0 / math.sqrt(d3))

    def test_singular_d2(self):
        beta = _sequence(2, b10=0.5, b20=0.25, b02=1.0)
        with pytest.raises(SingularM1Error) as info:
            degree_one_coeffs(beta)
        assert info.value.minor == "d2"

    def test_singular_d3(self):
        # atoms on the diagonal y = x collapse the 3x3 minor only
        beta = _sequence(2, b20=1.0, b11=1.0, b02=1.0)
        with pytest.raises(SingularM1Error) as info:
            degree_one_coeffs(beta)
        assert info.value.minor == "d3"


class TestTransformSequence:
    def test_identity_map(self):
        beta = seq_from_a((0.3, -0.4, 1.2, 0.1))
        out = transform_sequence(beta, AffineMap.identity())
        assert_allclose(out.values, beta.values)

    def test_quarter_turn_permutes_cubics(self):
        a = (0.8, -0.5, 0.3, 1.1)
        beta = seq_from_a(a)
        out = transform_sequence(beta, AffineMap(0, 0, -1, 0, 1, 0))
        a_out = (out[3, 0], out[2, 1], out[1, 2], out[0, 3])
        expected = (-a[3], a[2], -a[1], a[0])
        assert_allclose(a_out, expected, atol=1e-14)

    def test_point_mass_pushforward(self):
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0),))
        psi = AffineMap(1.0, 1.0, 0.0, 0.0, 0.0, 2.0)  # (x + 1, 2 y)
        out = transform_sequence(mu.moments(3), psi)
        expected = AtomicMeasure((Atom(2.0, 2.0, 1.0),)).moments(3)
        assert_allclose(out.values, expected.values)


class TestBuildJ:
    def test_identity(self):
        assert_allclose(build_J(AffineMap.identity(), 2), np.eye(6))

    def test_quarter_turn_degree_one(self):
        J = build_J(AffineMap(0, 0, -1, 0, 1, 0), 1)
        x_hat = np.array([0.0, 1.0, 0.0])
        minus_y_hat = np.array([0.0, 0.0, -1.0])
        assert_allclose(J @ x_hat, minus_y_hat)

    def test_block_lower_triangular_by_degree(self):
        from cubicmoment.moments import monomials_up_to

        psi = AffineMap(0.3, 1.2, -0.7, -0.1, 0.4, 0.9)
        J = build_J(psi, 2)
        labels = monomials_up_to(2)
        for r, mr in enumerate(labels):
            for c, mc in enumerate(labels):
                if mr.degree > mc.degree:
                    assert J[r, c] == 0.0

    def test_invertible(self):
        psi = AffineMap(0.3, 1.2, -0.7, -0.1, 0.4, 0.9)
        assert abs(np.linalg.det(build_J(psi, 2))) > 1e-8

    def test_matches_column_by_column_reference(self):
        from cubicmoment.moments import monomial_index, monomials_up_to

        rng = np.random.default_rng(19)
        for _ in range(50):
            psi = AffineMap(*(rng.normal(size=6) * 10.0 ** rng.uniform(-3, 3, 6)))
            for degree in range(7):
                labels = monomials_up_to(degree)
                n = len(labels)
                shift_x, shift_y = np.zeros((n, n)), np.zeros((n, n))
                for m in monomials_up_to(degree - 1):
                    shift_x[monomial_index((m.i + 1, m.j)), monomial_index(m)] = 1.0
                    shift_y[monomial_index((m.i, m.j + 1)), monomial_index(m)] = 1.0
                times_p1 = psi.a * np.eye(n) + psi.b * shift_x + psi.c * shift_y
                times_p2 = psi.d * np.eye(n) + psi.e * shift_x + psi.f * shift_y
                expected = np.zeros((n, n))
                expected[0, 0] = 1.0
                for col, m in enumerate(labels[1:], start=1):
                    if m.i > 0:
                        expected[:, col] = times_p1 @ expected[:, monomial_index((m.i - 1, m.j))]
                    else:
                        expected[:, col] = times_p2 @ expected[:, monomial_index((0, m.j - 1))]
                # same products, same rounding: equal, not merely close
                assert np.array_equal(build_J(psi, degree), expected)


class TestPullbackMeasure:
    def test_identity(self):
        mu = AtomicMeasure((Atom(1.0, 2.0, 0.5),))
        assert pullback_measure(mu, AffineMap.identity()) == mu

    def test_identity_keeps_atoms_and_order(self):
        mu = AtomicMeasure((Atom(3.0, -1.0, 0.25), Atom(-2.5, 4.0, 0.5), Atom(0.0, 0.0, 0.25)))
        assert pullback_measure(mu, AffineMap.identity()) == mu

    def test_empty(self):
        assert pullback_measure(AtomicMeasure(()), AffineMap(1.0, 2.0, 0.5, -1.0, 0.0, 3.0)) == AtomicMeasure(())

    def test_quarter_turn(self):
        mu = AtomicMeasure((Atom(3.0, 7.0, 0.5),))
        out = pullback_measure(mu, AffineMap(0, 0, -1, 0, 1, 0))
        assert out.atoms[0] == pytest.approx((7.0, -3.0, 0.5))

    def test_affine_inverse(self):
        mu = AtomicMeasure((Atom(2.0, 2.0, 1.0),))
        out = pullback_measure(mu, AffineMap(1.0, 1.0, 0.0, 0.0, 0.0, 2.0))
        assert out.atoms[0] == pytest.approx((1.0, 1.0, 1.0))


class TestInvariance:
    def test_congruence_for_moment_matrices(self):
        # J^T M(d) J reproduces the transformed-sequence matrix, d = 1 and 2
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 25:
            mu = _random_measure(rng, rng.integers(3, 7))
            beta4 = mu.moments(4)
            scaled = beta4.rescaled(1.0 / beta4[0, 0])
            d2, d3 = minors(scaled.truncated(2))
            if d2 <= 0.01 or d3 <= 0.01:
                continue
            checked += 1
            psi = degree_one_coeffs(scaled.truncated(2))
            transformed = transform_sequence(scaled, psi)
            for d in (1, 2):
                J = build_J(psi, d)
                lhs = J.T @ build_moment_matrix(scaled.truncated(2 * d)).entries @ J
                rhs = build_moment_matrix(transformed.truncated(2 * d)).entries
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_rank_preserved(self):
        rng = np.random.default_rng(3)
        for n_atoms in (3, 4, 5):
            mu = _random_measure(rng, n_atoms)
            beta4 = mu.moments(4)
            scaled = beta4.rescaled(1.0 / beta4[0, 0])
            psi = degree_one_coeffs(scaled.truncated(2))
            transformed = transform_sequence(scaled, psi)
            m_raw = build_moment_matrix(scaled)
            m_new = build_moment_matrix(transformed)
            assert numeric_rank(m_raw.entries, 1e-9) == numeric_rank(m_new.entries, 1e-9)

    def test_normalization_reaches_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mu = _random_measure(rng, 4)
            beta = mu.moments(3)
            try:
                cert = normalize_cubic(beta)
            except SingularM1Error:
                continue
            m1 = build_moment_matrix(cert.normalized.truncated(2)).entries
            assert np.abs(m1 - np.eye(3)).max() < 1e-10

    def test_k_is_invariant_under_renormalization(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = rng.uniform(-2, 2, 4)
            cert = normalize_cubic(seq_from_a(a))
            # already-normalized input goes through the quarter turn
            assert_allclose(
                cert.a_vec, (-a[3], a[2], -a[1], a[0]), atol=1e-12
            )
            assert compute_k(cert.a_vec) == pytest.approx(compute_k(a), abs=1e-12)

    def test_pullback_round_trip(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            mu = _random_measure(rng, 4)
            beta = mu.moments(3)
            scaled = beta.rescaled(1.0 / beta[0, 0])
            try:
                psi = degree_one_coeffs(scaled.truncated(2))
            except SingularM1Error:
                continue
            pushed = AtomicMeasure(
                tuple(Atom(*psi.apply(a.x, a.y), a.weight) for a in mu.atoms)
            )
            back = pullback_measure(pushed, psi)
            assert np.abs(back.moments(3).values - beta.values).max() < 1e-8


class TestNormalizeCubic:
    def test_certificate_fields(self):
        cert = normalize_cubic(seq_from_a((0, 1, 0, 0)))
        assert cert.d2 == pytest.approx(1.0)
        assert cert.d3 == pytest.approx(1.0)
        assert cert.a_vec == pytest.approx((0.0, 0.0, -1.0, 0.0))

    def test_rescales_mass(self):
        beta = seq_from_a((0, 0, 0, 0)).rescaled(5.0)
        cert = normalize_cubic(beta)
        assert cert.normalized[0, 0] == 1.0

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            normalize_cubic(seq_from_a((0, 0, 0, 0)).truncated(2))

    def test_singular_input(self):
        values = np.array([1, 0, 0, 0, 0, 1, 0, 0, 0, 0], dtype=float)  # beta_20 = 0
        with pytest.raises(SingularM1Error):
            normalize_cubic(MomentSequence(3, values))
