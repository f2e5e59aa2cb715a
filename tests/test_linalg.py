import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubicmoment import (
    CommutatorError,
    ComplexAtomError,
    MomentProblemError,
    MomentSequence,
    extend,
    extend_k0,
    extend_kpos,
    joint_eigen,
    normalize_cubic,
)
from cubicmoment import linalg
from cubicmoment.cli import random_request

from _oracle import (
    RangeError,
    flat_completion,
    joint_eigen_reference,
    numeric_rank,
    psd_min_eig,
    range_solve,
    smuljan_classify,
)
from _util import acceptance_draws, b2_block, gram_expected, match_points, random_orthogonal, seq_from_a


class TestPsdMinEig:
    def test_identity(self):
        assert psd_min_eig(np.eye(3)) == pytest.approx(1.0)

    def test_singular_diag(self):
        assert psd_min_eig(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_indefinite(self):
        # characteristic roots 3 and -1
        assert psd_min_eig(np.array([[1.0, 2.0], [2.0, 1.0]])) == pytest.approx(-1.0)

    def test_symmetrizes_defensively(self):
        s = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert psd_min_eig(s) == pytest.approx(0.0, abs=1e-14)


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(6), 1e-10) == 6

    def test_rank_one(self):
        assert numeric_rank(np.ones((3, 3)), 1e-10) == 1

    def test_flat_extension_keeps_rank_three(self):
        ext = extend_k0((0.0, 1.0, 0.0, 0.0))
        assert numeric_rank(ext.m2.entries, 1e-10) == 3

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 0.0)

    def test_invariant_under_rotation(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5, 6):
            eigs = np.zeros(n)
            eigs[: max(1, n - 2)] = rng.uniform(0.5, 2.0, max(1, n - 2))
            q1 = random_orthogonal(rng, n)
            q2 = random_orthogonal(rng, n)
            s = q1 @ np.diag(eigs) @ q1.T
            assert numeric_rank(s, 1e-10) == max(1, n - 2)
            assert numeric_rank(q2 @ s @ q2.T, 1e-10) == max(1, n - 2)


class TestRangeSolve:
    def test_identity_block(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(range_solve(np.eye(2), b), b)

    def test_outside_range(self):
        with pytest.raises(RangeError):
            range_solve(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))

    def test_normalized_b2_gives_gram_matrix(self):
        a = (0.7, -0.3, 1.1, 0.4)
        b2 = b2_block(a)
        w = range_solve(np.eye(3), b2)
        assert_allclose(w, b2)
        assert_allclose(w.T @ w, gram_expected(a), atol=1e-14)

    def test_vector_shape_round_trip(self):
        w = range_solve(np.eye(2), np.array([2.0, 5.0]))
        assert w.shape == (2,)


class TestSmuljanClassify:
    def test_flat_block(self):
        res = smuljan_classify(np.eye(2), np.array([1.0, 0.0]), np.array([[1.0]]))
        assert res.psd and res.flat and res.rank == 2
        assert res.schur_gap == pytest.approx(0.0, abs=1e-12)
        assert_allclose(res.witness_W[:, 0], [1.0, 0.0])

    def test_psd_not_flat(self):
        res = smuljan_classify(np.eye(2), np.array([1.0, 0.0]), np.array([[2.0]]))
        assert res.psd and not res.flat and res.rank == 3
        assert res.schur_gap == pytest.approx(1.0)

    def test_not_psd(self):
        res = smuljan_classify(np.eye(2), np.array([1.0, 0.0]), np.array([[0.0]]))
        assert not res.psd and not res.flat
        assert res.schur_gap == pytest.approx(-1.0)

    def test_range_failure_is_not_psd(self):
        res = smuljan_classify(
            np.diag([1.0, 0.0]), np.array([0.0, 1.0]), np.array([[5.0]])
        )
        assert not res.psd and res.witness_W is None

    def test_flat_implies_psd_on_random_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 7)
            g = rng.normal(size=(n, n))
            a = g @ g.T
            w0 = rng.normal(size=(n, rng.integers(1, 4)))
            b = a @ w0
            c = flat_completion(a, b)
            res = smuljan_classify(a, b, c)
            assert res.flat and res.psd
            assert res.rank == numeric_rank(a, 1e-10)


class TestFlatCompletion:
    def test_zero_block(self):
        assert_allclose(flat_completion(np.eye(2), np.zeros((2, 1))), np.zeros((1, 1)))

    def test_gram_of_b2(self):
        a = (-1.2, 0.5, 0.25, 2.0)
        assert_allclose(flat_completion(np.eye(3), b2_block(a)), gram_expected(a), atol=1e-14)

    def test_compression_completion_pins_beta04(self):
        # k < 0 instance a = (0, 1, 1, 0): complete over the {1, X, Y, X^2} block
        m4 = np.array(
            [[1.0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 3]]
        )
        b = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 2.0]])  # XY, Y^2 columns
        c = flat_completion(m4, b)
        assert_allclose(c, np.array([[2.0, 1.0], [1.0, 3.0]]), atol=1e-12)

    def test_propagates_range_error(self):
        with pytest.raises(RangeError):
            flat_completion(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))


class TestJointEigen:
    def test_diagonal_pair(self):
        pairs = joint_eigen(np.diag([1.0, -1.0]), np.diag([2.0, 3.0]))
        assert sorted(pairs) == [
            pytest.approx((-1.0, 3.0)),
            pytest.approx((1.0, 2.0)),
        ]

    def test_square_roots_of_unity(self):
        # relations x^2 = 1, y^2 = 1 on basis (1, x, y, xy)
        mx = np.zeros((4, 4))
        my = np.zeros((4, 4))
        mx[:, 0] = [0, 1, 0, 0]
        mx[:, 1] = [1, 0, 0, 0]
        mx[:, 2] = [0, 0, 0, 1]
        mx[:, 3] = [0, 0, 1, 0]
        my[:, 0] = [0, 0, 1, 0]
        my[:, 1] = [0, 0, 0, 1]
        my[:, 2] = [1, 0, 0, 0]
        my[:, 3] = [0, 1, 0, 0]
        pairs = joint_eigen(mx, my)
        match_points(pairs, [(-1, -1), (-1, 1), (1, -1), (1, 1)], atol=1e-9)

    def test_three_point_system(self):
        # relations x^2 = 1 + y, xy = x, y^2 = 1 on basis (1, x, y)
        mx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        my = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        pairs = sorted(joint_eigen(mx, my))
        r2 = math.sqrt(2.0)
        expected = [(-r2, 1.0), (0.0, -1.0), (r2, 1.0)]
        assert_allclose(np.array(pairs), np.array(expected), atol=1e-9)

    def test_repeated_joint_value(self):
        pairs = joint_eigen(np.eye(2), np.eye(2))
        assert_allclose(np.array(sorted(pairs)), np.array([(1.0, 1.0), (1.0, 1.0)]), atol=1e-9)

    def test_commutator_guard(self):
        mx = np.array([[0.0, 1.0], [0.0, 0.0]])
        my = np.diag([1.0, 2.0])
        with pytest.raises(CommutatorError):
            joint_eigen(mx, my)

    def test_complex_spectrum_guard(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ComplexAtomError):
            joint_eigen(rotation, np.eye(2))

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            joint_eigen(np.eye(2), np.eye(3))

    def test_pairs_satisfy_relations(self):
        # x^2 = 1 + y, xy = x, y^2 = 1: check the defining equations at the output
        mx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        my = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        for x, y in joint_eigen(mx, my):
            assert abs(x * x - 1.0 - y) <= 1e-8
            assert abs(x * y - x) <= 1e-8
            assert abs(y * y - 1.0) <= 1e-8

    def test_reproducible_with_explicit_rng(self):
        mx = np.diag([0.3, 1.7, -2.2])
        my = np.diag([1.0, -1.0, 0.5])
        first = joint_eigen(mx, my, seed=123)
        second = joint_eigen(mx, my, seed=123)
        assert first == second


class TestCombinationSeed:
    """joint_eigen draws c = default_rng(seed).uniform(0.2, 0.8), memoised for int seeds only."""

    # a k > 0 pair whose eigenvectors, and so the last bits of the pairs, depend on c
    EXT = extend_kpos((0.4, 0.3, 0.2, 0.5))

    @pytest.mark.parametrize("seed", [0, 1, 5, 123, 2**40])
    def test_int_seed_draws_the_generator_value(self, seed):
        expected = np.random.default_rng(seed).uniform(0.2, 0.8)
        assert linalg._combination_coefficient(seed) == expected
        assert linalg._combination_coefficient(seed) == expected  # now from the memo

    def test_numpy_int_is_the_python_int(self):
        assert linalg._combination_coefficient(np.int64(5)) == linalg._combination_coefficient(5)
        assert joint_eigen(self.EXT.mx, self.EXT.my, seed=np.int64(5)) == joint_eigen(
            self.EXT.mx, self.EXT.my, seed=5
        )

    def test_sequence_seed_draws_the_generator_value(self):
        pairs = joint_eigen(self.EXT.mx, self.EXT.my, seed=[1, 2])
        assert pairs == joint_eigen_reference(self.EXT.mx, self.EXT.my, rng=np.random.default_rng([1, 2]))

    def test_memo_is_bounded(self):
        assert linalg._int_seed_coefficient.cache_info().maxsize is not None


def _outcome(fn, *args, **kwargs):
    """The return value, or the type and message of the MomentProblemError raised."""
    try:
        return fn(*args, **kwargs)
    except MomentProblemError as exc:
        return type(exc), str(exc)


def test_joint_eigen_equals_loop_reading():
    # the stacked reading does the reference's arithmetic, so the pairs and
    # every gate's verdict and message are equal, not merely close
    inputs = [(seq_from_a(a), 1) for a in acceptance_draws()]
    for n in range(3, 6):
        for s in range(100):
            request = random_request(n, s)
            inputs.append((MomentSequence(3, np.array(request["beta"])), request["seed"]))
    compared = 0
    for beta, seed in inputs:
        try:
            ext = extend(normalize_cubic(beta).a_vec)
        except MomentProblemError:
            continue
        stacked = _outcome(joint_eigen, ext.mx, ext.my, seed=seed)
        loop = _outcome(joint_eigen_reference, ext.mx, ext.my, rng=np.random.default_rng(seed))
        assert stacked == loop
        compared += 1
    assert compared >= 1200
