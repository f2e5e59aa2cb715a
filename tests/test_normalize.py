import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubicmoment import (
    Atom,
    AtomicMeasure,
    MomentProblemError,
    MomentSequence,
    SingularM1Error,
    build_moment_matrix,
    compute_k,
    minors,
    normalize_cubic,
    pullback_measure,
    solve_cubic,
)
from cubicmoment import normalize
from cubicmoment.cli import random_request

from _oracle import build_J, degree_one_coeffs, numeric_rank, paper_minors, transform_sequence
from _util import fields, rescaled, same_bytes, seq_from_a

TEST_POINTS = [(0.3, 0.1), (-0.7, 0.4), (0.2, -0.9), (0.5, 0.6)]  # weight 1/4 each
# maps z -> psi z on z = (1, x, y): row 1 is psi1(x, y), row 2 is psi2(x, y)
QUARTER_TURN = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])  # (x, y) -> (-y, x)
SHIFT_AND_STRETCH = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])  # (x + 1, 2 y)
GENERIC = np.array([[1.0, 0.0, 0.0], [0.3, 1.2, -0.7], [-0.1, 0.4, 0.9]])


def _sequence(degree, **entries):
    from cubicmoment.moments import monomial_index, sequence_length

    vals = np.zeros(sequence_length(degree))
    vals[0] = 1.0
    for key, value in entries.items():
        i, j = int(key[1]), int(key[2])
        vals[monomial_index((i, j))] = value
    return MomentSequence(degree, vals)


def _test_measure(offset=0.0):
    return AtomicMeasure(tuple(Atom(x + offset, y + offset, 0.25) for x, y in TEST_POINTS)).moments(3)


def _relative_gap(got, expected) -> float:
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return float(np.abs(got - expected).max() / np.abs(expected).max())


def _random_measure(rng, n_atoms):
    pts = rng.uniform(-1.5, 1.5, size=(n_atoms, 2))
    wts = rng.uniform(0.2, 1.0, size=n_atoms)
    return AtomicMeasure(tuple(Atom(x, y, w) for (x, y), w in zip(pts, wts)))


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

    def test_rescales_by_itself(self):
        beta = rescaled(_sequence(2, b20=1.0, b02=1.0), 2.0)
        assert minors(beta) == minors(rescaled(beta, 1.0 / beta[0, 0]))


class TestDegreeOneCoeffs:
    def test_already_normalized_gives_quarter_turn(self):
        psi = degree_one_coeffs(seq_from_a((0, 0, 0, 0)))
        assert np.array_equal(psi, QUARTER_TURN)
        assert (psi @ (1.0, 3.0, 5.0)).tolist() == [1.0, -5.0, 3.0]

    def test_shifted_first_moment(self):
        beta = _sequence(2, b10=0.5, b20=1.0, b02=1.0)
        psi = degree_one_coeffs(beta)
        _, (d, e, f) = psi[1:]
        assert e == pytest.approx(2.0 / math.sqrt(3.0))
        assert d == pytest.approx(-1.0 / math.sqrt(3.0))
        assert f == 0.0

    def test_linear_determinant_value(self):
        beta = _sequence(2, b10=0.3, b01=-0.2, b11=0.1, b20=1.4, b02=0.9)
        d2, d3 = minors(beta)
        psi = degree_one_coeffs(beta)
        # det psi = b f - c e = 1/sqrt(d3); with f = 0 the sign works out positive
        assert np.linalg.det(psi) == pytest.approx(1.0 / math.sqrt(d3))

    def test_singular_d2(self):
        beta = _sequence(2, b10=0.5, b20=0.25, b02=1.0)
        with pytest.raises(SingularM1Error) as info:
            degree_one_coeffs(beta)
        assert fields(info.value)[:2] == ("normalize", "d2")

    def test_singular_d3(self):
        # atoms on the diagonal y = x collapse the 3x3 minor only
        beta = _sequence(2, b20=1.0, b11=1.0, b02=1.0)
        with pytest.raises(SingularM1Error) as info:
            degree_one_coeffs(beta)
        assert fields(info.value)[:2] == ("normalize", "d3")


class TestTransformSequence:
    def test_identity_map(self):
        beta = seq_from_a((0.3, -0.4, 1.2, 0.1))
        out = transform_sequence(beta, np.eye(3))
        assert_allclose(out.values, beta.values)

    def test_quarter_turn_permutes_cubics(self):
        a = (0.8, -0.5, 0.3, 1.1)
        beta = seq_from_a(a)
        out = transform_sequence(beta, QUARTER_TURN)
        a_out = (out[3, 0], out[2, 1], out[1, 2], out[0, 3])
        expected = (-a[3], a[2], -a[1], a[0])
        assert_allclose(a_out, expected, atol=1e-14)

    def test_point_mass_pushforward(self):
        mu = AtomicMeasure((Atom(1.0, 1.0, 1.0),))
        out = transform_sequence(mu.moments(3), SHIFT_AND_STRETCH)
        expected = AtomicMeasure((Atom(2.0, 2.0, 1.0),)).moments(3)
        assert_allclose(out.values, expected.values)


class TestBuildJ:
    def test_identity(self):
        assert_allclose(build_J(np.eye(3), 2), np.eye(6))

    def test_quarter_turn_degree_one(self):
        J = build_J(QUARTER_TURN, 1)
        x_hat = np.array([0.0, 1.0, 0.0])
        minus_y_hat = np.array([0.0, 0.0, -1.0])
        assert_allclose(J @ x_hat, minus_y_hat)

    def test_block_lower_triangular_by_degree(self):
        from cubicmoment.moments import monomials_up_to

        J = build_J(GENERIC, 2)
        labels = monomials_up_to(2)
        for r, mr in enumerate(labels):
            for c, mc in enumerate(labels):
                if sum(mr) > sum(mc):
                    assert J[r, c] == 0.0

    def test_invertible(self):
        assert abs(np.linalg.det(build_J(GENERIC, 2))) > 1e-8

    def test_matches_column_by_column_reference(self):
        from cubicmoment.moments import monomial_index, monomials_up_to

        rng = np.random.default_rng(19)
        for _ in range(50):
            coeffs = rng.normal(size=6) * 10.0 ** rng.uniform(-3, 3, 6)
            psi = np.vstack([(1.0, 0.0, 0.0), coeffs.reshape(2, 3)])
            (a, b, c), (d, e, f) = psi[1:]
            for degree in range(7):
                labels = monomials_up_to(degree)
                n = len(labels)
                shift_x, shift_y = np.zeros((n, n)), np.zeros((n, n))
                for i, j in monomials_up_to(degree - 1):
                    shift_x[monomial_index((i + 1, j)), monomial_index((i, j))] = 1.0
                    shift_y[monomial_index((i, j + 1)), monomial_index((i, j))] = 1.0
                times_p1 = a * np.eye(n) + b * shift_x + c * shift_y
                times_p2 = d * np.eye(n) + e * shift_x + f * shift_y
                expected = np.zeros((n, n))
                expected[0, 0] = 1.0
                for col, (i, j) in enumerate(labels[1:], start=1):
                    if i > 0:
                        expected[:, col] = times_p1 @ expected[:, monomial_index((i - 1, j))]
                    else:
                        expected[:, col] = times_p2 @ expected[:, monomial_index((0, j - 1))]
                # same products, same rounding: equal, not merely close
                assert np.array_equal(build_J(psi, degree), expected)


class TestPullbackMeasure:
    def test_identity(self):
        mu = AtomicMeasure((Atom(1.0, 2.0, 0.5),))
        assert pullback_measure(mu.atoms, np.eye(3)) == list(mu.atoms)

    def test_identity_keeps_atoms_and_order(self):
        mu = AtomicMeasure((Atom(3.0, -1.0, 0.25), Atom(-2.5, 4.0, 0.5), Atom(0.0, 0.0, 0.25)))
        assert pullback_measure(mu.atoms, np.eye(3)) == list(mu.atoms)

    def test_empty(self):
        assert pullback_measure(AtomicMeasure(()).atoms, GENERIC) == []

    def test_quarter_turn(self):
        mu = AtomicMeasure((Atom(3.0, 7.0, 0.5),))
        out = pullback_measure(mu.atoms, QUARTER_TURN)
        assert out[0] == pytest.approx((7.0, -3.0, 0.5))

    def test_affine_inverse(self):
        mu = AtomicMeasure((Atom(2.0, 2.0, 1.0),))
        out = pullback_measure(mu.atoms, SHIFT_AND_STRETCH)
        assert out[0] == pytest.approx((1.0, 1.0, 1.0))

    def test_round_trip_through_the_matrix(self):
        psi = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, -1.0], [0.5, 0.25, 3.0]])
        _, u, v = psi @ (1.0, 0.7, -1.3)
        (back,) = pullback_measure(AtomicMeasure((Atom(u, v, 0.5),)).atoms, psi)
        assert back == pytest.approx((0.7, -1.3, 0.5))

    @pytest.mark.parametrize(
        "psi",
        [
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]),  # b f - c e = 0
            np.zeros((3, 3)),
        ],
    )
    @pytest.mark.parametrize("atoms", [(Atom(1.0, 2.0, 0.5),), ()])
    def test_singular_map_raises(self, psi, atoms):
        # a typed error, not the ZeroDivisionError of Cramer's rule, and for no atoms too
        with pytest.raises(ValueError, match=r"determinant b\*f - c\*e is 0\.0$"):
            pullback_measure(AtomicMeasure(atoms).atoms, psi)


class TestInvariance:
    def test_congruence_for_moment_matrices(self):
        # J^T M(d) J reproduces the transformed-sequence matrix, d = 1 and 2
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 25:
            mu = _random_measure(rng, rng.integers(3, 7))
            beta4 = mu.moments(4)
            scaled = rescaled(beta4, 1.0 / beta4[0, 0])
            d2, d3 = minors(scaled.truncated(2))
            if d2 <= 0.01 or d3 <= 0.01:
                continue
            checked += 1
            psi = degree_one_coeffs(scaled.truncated(2))
            transformed = transform_sequence(scaled, psi)
            for d in (1, 2):
                J = build_J(psi, d)
                lhs = J.T @ build_moment_matrix(scaled.truncated(2 * d)) @ J
                rhs = build_moment_matrix(transformed.truncated(2 * d))
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_rank_preserved(self):
        rng = np.random.default_rng(3)
        for n_atoms in (3, 4, 5):
            mu = _random_measure(rng, n_atoms)
            beta4 = mu.moments(4)
            scaled = rescaled(beta4, 1.0 / beta4[0, 0])
            psi = degree_one_coeffs(scaled.truncated(2))
            transformed = transform_sequence(scaled, psi)
            m_raw = build_moment_matrix(scaled)
            m_new = build_moment_matrix(transformed)
            assert numeric_rank(m_raw, 1e-9) == numeric_rank(m_new, 1e-9)

    def test_normalization_reaches_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mu = _random_measure(rng, 4)
            beta = mu.moments(3)
            try:
                cert = normalize_cubic(beta)
            except SingularM1Error:
                continue
            m1 = build_moment_matrix(cert.normalized.truncated(2))
            assert np.abs(m1 - np.eye(3)).max() < 1e-10

    def test_k_is_invariant_under_renormalization(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = rng.uniform(-2, 2, 4)
            cert = normalize_cubic(seq_from_a(a))
            # already-normalized input goes through the quarter turn, exactly
            assert cert.normalized.values[6:].tolist() == [-a[3], a[2], -a[1], a[0]]
            assert np.array_equal(cert.map, QUARTER_TURN)
            assert compute_k(cert.normalized.values[6:]) == pytest.approx(compute_k(a), abs=1e-12)

    def test_pullback_round_trip(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            mu = _random_measure(rng, 4)
            beta = mu.moments(3)
            scaled = rescaled(beta, 1.0 / beta[0, 0])
            try:
                psi = degree_one_coeffs(scaled.truncated(2))
            except SingularM1Error:
                continue
            pushed = AtomicMeasure(
                tuple(Atom(*(psi @ (1.0, a.x, a.y))[1:], a.weight) for a in mu.atoms)
            )
            back = AtomicMeasure(tuple(pullback_measure(pushed.atoms, psi)))
            assert np.abs(back.moments(3).values - beta.values).max() < 1e-8


class TestNormalizeCubic:
    def test_certificate_fields(self):
        cert = normalize_cubic(seq_from_a((0, 1, 0, 0)))
        assert cert.d2 == pytest.approx(1.0)
        assert cert.d3 == pytest.approx(1.0)
        assert cert.normalized.values[6:] == pytest.approx((0.0, 0.0, -1.0, 0.0))

    def test_rescales_mass(self):
        beta = rescaled(seq_from_a((0, 0, 0, 0)), 5.0)
        cert = normalize_cubic(beta)
        assert cert.normalized[0, 0] == 1.0

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            normalize_cubic(seq_from_a((0, 0, 0, 0)).truncated(2))

    def test_infinite_mass_is_a_typed_error(self):
        # MomentSequence accepts beta_00 = inf; rescaling by 1 / inf = 0 would give inf * 0 = NaN
        beta = MomentSequence(3, [math.inf, 0, 0, 1, 0, 1, 0, 0, 0, 0])
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(beta)
        assert fields(info.value) == (
            "normalize", "beta_00", math.inf, None
        )

    @pytest.mark.parametrize(
        "position, bad, moment",
        [(1, math.nan, "beta_10"), (6, math.inf, "beta_30"), (9, -math.inf, "beta_03")],
    )
    def test_non_finite_moment_is_named(self, position, bad, moment):
        values = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        values[position] = bad
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(MomentSequence(3, values))
        assert fields(info.value)[:2] == ("normalize", moment) and repr(info.value.value) == repr(bad)

    def test_rescaling_overflow_is_a_typed_error_without_a_warning(self):
        # 1e10 / 1e-300 leaves the float range; RuntimeWarnings are errors in this suite
        beta = MomentSequence(3, [1e-300, 0, 0, 1e-300, 0, 1e-300, 1e10, 0, 0, 0])
        with pytest.raises(MomentProblemError) as info:
            normalize_cubic(beta)
        assert fields(info.value)[:3] == ("normalize", "1 / beta_00", 1 / 1e-300)
        assert f"{info.value.value:.3e}" == "1.000e+300"

    @pytest.mark.parametrize(
        "beta", [[1, 0.9, 0, 1, 0, 1, 1.7e308, 0, 0, 0], [1, 0.9, 0.1, 1, 0, 1, 1e308, 1e308, 1e308, 1e308]]
    )
    @pytest.mark.parametrize("run", [normalize_cubic, solve_cubic])
    @pytest.mark.parametrize("state", ["warn", "raise"])
    def test_overflowing_refinement_is_a_typed_error_whatever_the_callers_state(self, beta, run, state):
        # finite moments whose whitened cubics overflow: the refined d2 is NaN. Under the caller's
        # state a warning (an error in this suite) or a FloatingPointError would escape instead
        with np.errstate(all=state), pytest.raises(MomentProblemError) as info:
            run(MomentSequence(3, np.array(beta, dtype=float)))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("normalize", "refined d2") and info.value.bound == 0.0
        assert math.isnan(info.value.value)

    def test_singular_input(self):
        values = np.array([1, 0, 0, 0, 0, 1, 0, 0, 0, 0], dtype=float)  # beta_20 = 0
        with pytest.raises(SingularM1Error):
            normalize_cubic(MomentSequence(3, values))

    def test_threshold_failure_names_the_threshold(self):
        # translated by 1e5, d2 = 0.2119 is positive but not above 1e-10 * beta_20 = 1.0
        with pytest.raises(SingularM1Error) as info:
            normalize_cubic(_test_measure(offset=1e5))
        err = info.value
        assert (err.stage, err.quantity) == ("normalize", "d2") and 0.0 < err.value <= err.bound
        assert err.bound == 1e-10 * max(map(abs, _test_measure(offset=1e5).values[:6].tolist()))
        assert str(err) == f"normalize failed: d2 = {err.value:.6g} (bound {err.bound:.6g})"


def _factored(beta: MomentSequence):
    """d2, d3, the map and the normalized values, through both Cholesky factors as the general path chains them."""
    scaled = beta.values * (1.0 / beta.values[0])
    m1 = scaled[:6].tolist()
    d2, d3 = normalize._pivots(m1)
    whiten = normalize._whiten(m1, d2, d3)
    pushed = normalize._push(whiten, scaled)
    refined = pushed[:6].tolist()
    turn = normalize._QUARTER.dot(normalize._whiten(refined, *normalize._pivots(refined)))
    return d2, d3, turn.dot(whiten), normalize._push(turn, pushed)


def _already_normalized() -> dict[str, list[MomentSequence]]:
    """Input whose rescaled M(1) is I, by kind."""
    rng = np.random.default_rng(22)
    m1_zeros = itertools.product((0.0, -0.0), repeat=4)
    return {
        "readme": [MomentSequence(3, [1, 0, 0, 1, 0, 1, 0, 0, 0, 0])],
        "seeded": [seq_from_a(rng.uniform(-20.0, 20.0, 4)) for _ in range(200)],
        # masses that rescale exactly
        "masses": [rescaled(seq_from_a((0.8, -0.5, 0.0, 1.1)), mass) for mass in (2.0, 0.5, 2.0**-40)],
        # every sign of the zeros beta_10, beta_01, beta_11 and of a zero cubic moment
        "m1 zeros": [
            MomentSequence(3, [1, b10, b01, 1, b11, 1, 0.7, b21, -1.3, 2]) for b10, b01, b11, b21 in m1_zeros
        ],
        "cubic zeros": [
            MomentSequence(3, [1.0, -0.0, 0.0, 1.0, -0.0, 1.0, *cubics])
            for cubics in itertools.product((0.0, -0.0, 1.5), repeat=4)
        ],
    }


class TestAlreadyNormalized:
    """Input whose rescaled M(1) is I gets, without arithmetic, the certificate both factors give."""

    @pytest.mark.parametrize("kind", list(_already_normalized()))
    def test_certificate_is_the_factored_one_bit_for_bit(self, kind):
        for beta in _already_normalized()[kind]:
            cert = normalize_cubic(beta)
            d2, d3, psi, normalized = _factored(beta)
            assert (cert.d2, cert.d3) == (d2, d3) == (1.0, 1.0), beta.values
            assert same_bytes(cert.map, psi) and same_bytes(psi, normalize._QUARTER), beta.values
            assert same_bytes(cert.normalized.values, normalized), beta.values
            assert not cert.map.flags.writeable and not cert.normalized.values.flags.writeable

    def test_shared_map_cannot_be_made_writeable(self):
        # every such certificate holds a view of one quarter turn, so none may write through it
        cert = normalize_cubic(seq_from_a((0.8, -0.5, 0.3, 1.1)))
        with pytest.raises(ValueError):
            cert.map.setflags(write=True)
        assert np.array_equal(normalize_cubic(seq_from_a((0, 0, 0, 0))).map, QUARTER_TURN)


class TestRobustnessRows:
    def test_translated_by_100_solves(self):
        mu, report = solve_cubic(_test_measure(offset=100.0))
        assert len(mu.atoms) == 4
        assert report.check.max_moment_residual <= 1e-8

    def test_translated_by_1e4_keeps_the_pivots(self):
        # the factor's first column is the mean, so d3 comes from centered moments
        cert = normalize_cubic(_test_measure(offset=1e4))
        assert cert.d3 == pytest.approx(normalize_cubic(_test_measure()).d3, rel=1e-6)
        m1 = build_moment_matrix(cert.normalized.truncated(2))
        assert np.abs(m1 - np.eye(3)).max() <= 1e-10

    @settings(derandomize=True, max_examples=200)
    @given(
        atoms=st.lists(
            st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.2, 1.5)),
            min_size=3,
            max_size=5,
        ),
        shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        log_mass=st.floats(-12.0, 12.0),
    )
    def test_translation_and_mass_keep_a_vec(self, atoms, shift, log_mass):
        beta = AtomicMeasure(tuple(Atom(*atom) for atom in atoms)).moments(3)
        d2, d3 = minors(rescaled(beta, 1.0 / beta[0, 0]))
        assume(d2 > 0.01 and d3 > 0.01)
        moved = AtomicMeasure(
            tuple(Atom(x + shift[0], y + shift[1], w * 10.0**log_mass) for x, y, w in atoms)
        ).moments(3)
        expected = normalize_cubic(beta).normalized.values[6:]
        got = normalize_cubic(moved).normalized.values[6:]
        # relative to the normalized sequence (1, 0, 0, 1, 0, 1, a), whose M(1) part is I
        assert np.abs(got - expected).max() <= 1e-4 * max(1.0, np.abs(expected).max())


class TestPaperMap:
    def test_matches_the_closed_forms(self):
        worst = [0.0, 0.0, 0.0]
        for n_atoms in (3, 4, 5):
            for seed in range(100):
                beta = MomentSequence(3, np.array(random_request(n_atoms, seed)["beta"]))
                scaled = rescaled(beta, 1.0 / beta[0, 0])
                psi = degree_one_coeffs(scaled)
                paper = transform_sequence(scaled, psi).values[6:]
                cert = normalize_cubic(beta)
                gaps = (
                    _relative_gap(cert.normalized.values[6:], paper),
                    _relative_gap(cert.map[1:], psi[1:]),
                    _relative_gap((cert.d2, cert.d3), paper_minors(scaled)),
                )
                worst = [max(w, g) for w, g in zip(worst, gaps)]
        assert max(worst) <= 1e-12, worst
