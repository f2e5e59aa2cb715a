import math
import re

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg
from numpy.testing import assert_allclose

from cubicmoment import (
    MomentProblemError,
    MomentSequence,
    extend,
    extract_atoms,
    joint_eigen,
    normalize_cubic,
    solve_cubic,
)
from cubicmoment import linalg, measure
from cubicmoment.cli import random_request
from cubicmoment.errors import TOL_EIG

from _oracle import (
    RangeError,
    flat_completion,
    joint_eigen_reference,
    numeric_rank,
    psd_min_eig,
    range_solve,
    smuljan_classify,
)
from _util import (
    acceptance_draws,
    b2_block,
    failed_eig,
    fields,
    gram_expected,
    match_points,
    random_orthogonal,
    same_bytes,
    seq_from_a,
    solve_on_repeated_atoms,
    vandermonde,
)


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
        ext = extend((0.0, 1.0, 0.0, 0.0))
        assert numeric_rank(ext.m2, 1e-10) == 3

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
        pairs = joint_eigen(np.array((np.diag([1.0, -1.0]), np.diag([2.0, 3.0]))))
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
        pairs = joint_eigen(np.array((mx, my)))
        match_points(pairs, [(-1, -1), (-1, 1), (1, -1), (1, 1)], atol=1e-9)

    def test_three_point_system(self):
        # relations x^2 = 1 + y, xy = x, y^2 = 1 on basis (1, x, y)
        mx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        my = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        pairs = sorted(joint_eigen(np.array((mx, my))))
        r2 = math.sqrt(2.0)
        expected = [(-r2, 1.0), (0.0, -1.0), (r2, 1.0)]
        assert_allclose(np.array(pairs), np.array(expected), atol=1e-9)

    def test_repeated_joint_value(self):
        pairs = joint_eigen(np.array((np.eye(2), np.eye(2))))
        assert_allclose(np.array(sorted(pairs)), np.array([(1.0, 1.0), (1.0, 1.0)]), atol=1e-9)

    def test_commutator_guard(self):
        # a pair that does not commute has no basis of joint eigenvectors: the residual rejects it
        mx = np.array([[0.0, 1.0], [0.0, 0.0]])
        my = np.diag([1.0, 2.0])
        with pytest.raises(MomentProblemError) as info:
            joint_eigen(np.array((mx, my)))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("joint spectrum", "eigenvector residual")

    def test_complex_spectrum_guard(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(MomentProblemError) as info:
            joint_eigen(np.array((rotation, np.eye(2))))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("joint spectrum", "max |Im lambda|")

    def test_near_double_real_atom_is_a_complex_atom_error(self, monkeypatch):
        # eigenvalues 1 +- 1e-7i and 2: the conjugate pair's eigenvectors have equal real
        # parts, so no pairs can be read from it, however small its imaginary part
        B = np.array([[1.0, 1e-7, 0.0], [-1e-7, 1.0, 0.0], [0.0, 0.0, 2.0]])
        read, tried = linalg._read_spectrum, []
        monkeypatch.setattr(linalg, "_read_spectrum", lambda M, c: tried.append(c) or read(M, c))
        with pytest.raises(MomentProblemError) as info:
            joint_eigen(np.array((B, B)))
        assert type(info.value) is MomentProblemError
        stage, quantity, value, bound = fields(info.value)
        assert (stage, quantity, bound) == ("joint spectrum", "max |Im lambda|", 0.0) and value == pytest.approx(1e-7)
        assert tried == list(linalg._COMBINATIONS)  # the second c is still tried after the first fails

    def test_shape_guard(self):
        # matrices of unequal size make no stack
        with pytest.raises(ValueError):
            joint_eigen([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 4), (3, 3)])
    def test_malformed_stack_raises_naming_its_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            joint_eigen(np.zeros(shape))

    def test_empty_pair_has_no_pairs(self):
        # like the commutator norm and the backward error, an empty pair is exact
        assert joint_eigen(np.zeros((2, 0, 0))) == []

    def test_pairs_satisfy_relations(self):
        # x^2 = 1 + y, xy = x, y^2 = 1: check the defining equations at the output
        mx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        my = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        for x, y in joint_eigen(np.array((mx, my))):
            assert abs(x * x - 1.0 - y) <= 1e-8
            assert abs(x * y - x) <= 1e-8
            assert abs(y * y - 1.0) <= 1e-8

    def test_reproducible(self):
        mx = np.diag([0.3, 1.7, -2.2])
        my = np.diag([1.0, -1.0, 0.5])
        assert joint_eigen(np.array((mx, my))) == joint_eigen(np.array((mx, my)))


def _outcome(fn, *args, **kwargs):
    """The return value, or the type and message of the MomentProblemError raised."""
    try:
        return fn(*args, **kwargs)
    except MomentProblemError as exc:
        return type(exc), str(exc)


def test_joint_eigen_equals_loop_reading():
    # the stacked reading does the reference's arithmetic at the first c, and no
    # input here falls back to the second, so the pairs and every gate's verdict
    # and message are equal, not merely close
    inputs = [seq_from_a(a) for a in acceptance_draws()]
    for n in range(3, 6):
        inputs += [MomentSequence(3, np.array(random_request(n, s)["beta"])) for s in range(100)]
    compared = 0
    for beta in inputs:
        try:
            ext = extend(normalize_cubic(beta).normalized.values[6:])
        except MomentProblemError:
            continue
        loop = _outcome(joint_eigen_reference, ext.pair[0], ext.pair[1], linalg._COMBINATIONS[0])
        assert _outcome(joint_eigen, ext.pair) == loop
        compared += 1
    assert compared >= 1200


def _seam_matrices() -> list[np.ndarray]:
    """Seeded real 3x3 and 4x4 matrices, a rotation and the transposed V_B of a solve."""
    rng = np.random.default_rng(18)
    matrices = [rng.normal(size=(n, n)) for n in (3, 4) for _ in range(40)]
    matrices.append(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))  # a complex pair
    ext = extend(normalize_cubic(seq_from_a((0.4, -0.9, 1.2, 0.5))).normalized.values[6:])
    vb = vandermonde(*zip(*extract_atoms(ext)), ext.basis)
    matrices.append(vb.T)  # not contiguous, as the density solve hands it over
    return matrices


def _quiet(function, *args):
    """function(*args) under QUIET_STATE, entered by token as the solver enters it."""
    token = linalg.ERROR_STATE.set(linalg.QUIET_STATE)
    try:
        return function(*args)
    finally:
        linalg.ERROR_STATE.reset(token)


class TestLapackSeam:
    """numpy.linalg's gufuncs without its wrappers: the same bytes, and NaN where the wrappers raise."""

    def test_gufuncs_are_the_ones_numpy_linalg_wraps(self):
        # a numpy that renames, reshapes or retypes these gufuncs must fail here, loudly
        gufuncs = (_umath_linalg.eig, _umath_linalg.inv, _umath_linalg.solve1)
        signatures = [f.signature.replace(" ", "") for f in gufuncs]
        assert signatures == ["(m,m)->(m),(m,m)", "(m,m)->(m,m)", "(m,m),(m)->(m)"]
        assert "d->DD" in _umath_linalg.eig.types
        assert "d->d" in _umath_linalg.inv.types
        assert "dd->d" in _umath_linalg.solve1.types

    def test_eig_is_np_linalg_eig_byte_for_byte(self):
        kinds = set()
        for a in _seam_matrices():
            w, v = linalg.lapack_eig(a)
            expected = np.linalg.eig(a)
            assert same_bytes(w, expected.eigenvalues) and same_bytes(v, expected.eigenvectors)
            kinds.add(w.dtype.kind)
        assert kinds == {"f", "c"}  # real spectra come back real, as np.linalg.eig returns them

    def test_inv_and_solve_are_np_linalg_byte_for_byte(self):
        rng = np.random.default_rng(19)
        strided = 0
        for a in _seam_matrices():
            b = rng.normal(size=len(a))
            assert same_bytes(linalg.lapack_inv(a), np.linalg.inv(a))
            assert same_bytes(linalg.lapack_solve(a, b), np.linalg.solve(a, b))
            w, v = linalg.lapack_eig(a)
            if w.dtype.kind == "f":  # V is the strided real view the joint spectrum inverts
                assert same_bytes(linalg.lapack_inv(v), np.linalg.inv(v))
                strided += not v.flags.contiguous
        assert strided >= 10

    @pytest.mark.parametrize(
        "singular", [np.zeros((3, 3)), np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])]
    )
    def test_singular_input_is_all_nan_under_the_quiet_state(self, singular):
        with pytest.raises(LinAlgError):
            np.linalg.inv(singular)
        assert same_bytes(_quiet(linalg.lapack_inv, singular), np.full((3, 3), np.nan))
        assert same_bytes(_quiet(linalg.lapack_solve, singular, np.ones(3)), np.full(3, np.nan))
        # in a stack, only the singular member is filled
        stack = np.array((np.diag([1.0, 2.0, 4.0]), singular))
        expected = np.array((np.diag([1.0, 0.5, 0.25]), np.full((3, 3), np.nan)))
        assert same_bytes(_quiet(linalg.lapack_inv, stack), expected)
        solved = _quiet(linalg.lapack_solve, stack, np.ones((2, 3)))
        assert same_bytes(solved, np.array(((1.0, 0.5, 0.25), (np.nan,) * 3)))

    def test_singular_vandermonde_is_a_typed_error(self, monkeypatch):
        with pytest.raises(MomentProblemError) as info:
            solve_on_repeated_atoms(monkeypatch)
        assert type(info.value) is MomentProblemError
        assert fields(info.value) == ("densities", "V_B", None, None)

    def test_singular_eigenvector_basis_is_a_typed_error(self, monkeypatch):
        # every column the same eigenvector: the real inv gufunc fails, and the error names the basis
        monkeypatch.setattr(linalg, "lapack_eig", lambda a: (np.ones(len(a)), np.ones(a.shape)))
        with pytest.raises(MomentProblemError) as info:
            joint_eigen(np.array((np.eye(3), np.eye(3))))
        assert fields(info.value)[:3] == ("joint spectrum", "eigenvector basis", None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_fails_before_lapack_runs(self, monkeypatch, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(LinAlgError, match="Array must not contain infs or NaNs"):
            np.linalg.eig(a)

        class NoLapack:
            def __getattr__(self, name):
                raise AssertionError(f"LAPACK {name} ran on a non-finite matrix")

        monkeypatch.setattr(linalg, "_umath_linalg", NoLapack())
        w, v = linalg.lapack_eig(a)  # what a failed eig returns
        assert all(map(same_bytes, (w, v), failed_eig(a)))
        # in the joint spectrum, the eig failure is a typed error that names eig
        with pytest.raises(MomentProblemError) as info:
            linalg._read_spectrum(np.array((a, np.eye(3))), linalg._COMBINATIONS[0])
        assert fields(info.value) == ("joint spectrum", "eig", None, None)
        assert info.value.__cause__ is None


def _route_pairs() -> list[np.ndarray]:
    """The stacks (Mx, My) of seeded inputs of all three routes, at the first c."""
    inputs = [seq_from_a(a) for a in acceptance_draws()[::5]]
    inputs += [MomentSequence(3, np.array(random_request(n, s)["beta"])) for n in range(3, 6) for s in range(30)]
    exts = [extend(normalize_cubic(beta).normalized.values[6:]) for beta in inputs]
    assert {ext.case.value for ext in exts} == {"k_zero", "k_pos", "k_neg"}
    return [ext.pair for ext in exts]


class TestUnitColumns:
    """The residual reads dgeev's eigenvectors as they come: LAPACK returns them with norm 1.

    A complex spectrum has no real eigenvectors to read, so it raises.
    """

    C = linalg._COMBINATIONS[0]

    def test_real_eigenvectors_are_unit(self):
        for M in _route_pairs():
            w, V = linalg.lapack_eig(self.C * M[0] + (1.0 - self.C) * M[1])
            assert w.dtype.kind == "f"
            assert np.abs(np.linalg.norm(V, axis=0) - 1.0).max() <= 4 * np.spacing(1.0)

    def test_residual_is_the_residual_over_normalized_columns(self, monkeypatch):
        # a negative TOL_EIG fails the first matrix of every stack, so its error carries that
        # matrix's residual; the swapped stack with 1 - c reads My first. A residual near rounding
        # level moves by a rounding of the products, so it is compared on its matrix's scale
        for M in _route_pairs():
            for stack, c in ((M, self.C), (M[::-1], 1.0 - self.C)):
                pairs = linalg._read_spectrum(stack, c)
                _, V = np.linalg.eig(c * stack[0] + (1.0 - c) * stack[1])
                V = V / np.linalg.norm(V, axis=0)  # as tests/_oracle.py normalizes them
                expected = np.linalg.norm(stack[0] @ V - V * np.array(pairs)[:, 0], axis=0).max()
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "TOL_EIG", -1.0)
                    with pytest.raises(MomentProblemError) as info:
                        linalg._read_spectrum(stack, c)
                assert info.value.quantity == "eigenvector residual"
                assert abs(info.value.value - expected) <= 4 * np.spacing(max(1.0, np.abs(stack[0]).max()))

    def test_complex_spectrum_is_a_complex_atom_error(self, monkeypatch):
        M = np.array((np.diag([1.0, 2.0, 3.0]), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        real_eig = linalg.lapack_eig

        def eig(a):  # the same spectrum with an imaginary part of 1e-12
            w, V = real_eig(a)
            return w + 1e-12j, V + 0j

        monkeypatch.setattr(linalg, "lapack_eig", eig)
        with pytest.raises(MomentProblemError) as info:
            linalg._read_spectrum(M, self.C)
        assert type(info.value) is MomentProblemError
        assert fields(info.value) == (
            "joint spectrum", "max |Im lambda|", 1e-12, 0.0
        )


class TestEigFailure:
    """A LAPACK eig failure is a MomentProblemError, and the second c is tried after it."""

    @staticmethod
    def failing(fail_calls):
        # the seam's eig, failing as LAPACK does on its first fail_calls calls
        real, calls = linalg.lapack_eig, []

        def eig(a):
            calls.append(a)
            return failed_eig(a) if len(calls) <= fail_calls else real(a)

        return eig

    def test_second_combination_reads_the_pairs(self, monkeypatch):
        ext = extend((0.4, -0.9, 1.2, 0.5))
        second = linalg._COMBINATIONS[1]
        monkeypatch.setattr(linalg, "lapack_eig", self.failing(1))
        assert linalg.joint_eigen(ext.pair) == joint_eigen_reference(ext.pair[0], ext.pair[1], second)

    def test_solve_raises_a_typed_error_naming_eig(self, monkeypatch):
        monkeypatch.setattr(linalg, "lapack_eig", self.failing(len(linalg._COMBINATIONS)))
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(seq_from_a((0.4, -0.9, 1.2, 0.5)))
        assert type(info.value) is MomentProblemError
        assert fields(info.value) == ("joint spectrum", "eig", None, None)
        assert info.value.__cause__ is None


def _two_products(M: np.ndarray) -> float:
    """The commutator norm as two separate 2-D products."""
    return float(np.abs(M[0] @ M[1] - M[1] @ M[0]).max(initial=0.0))


class TestCommutatorNorm:
    def test_stacked_product_is_the_two_products_bit_for_bit(self):
        rng = np.random.default_rng(28)
        grid = [tuple(rng.uniform(-3, 3, 4)) for _ in range(300)]
        for a0, a1, a2 in rng.uniform(-3, 3, (100, 3)):  # k = 0 up to rounding: the rank-3 route
            grid.append((a0, a1, a2, (a1 * a1 + a2 * a2 - 1.0 - a0 * a2) / a1))
        grid += [(-0.0, 1.0, -0.0, 0.0), (0.0, -0.0, 0.0, -0.0), (-0.0, 1.0, 1.0, -0.0)]  # signed zeros
        grid.append((0.0, 1e150, 0.0, 0.0))  # the products overflow: inf - inf
        cases, overflowed = set(), 0
        for a in grid:
            ext = extend(a)
            cases.add(ext.case.value)
            for M in (ext.pair, -ext.pair):  # the negated pair holds -0.0 wherever the pair holds 0.0
                with np.errstate(all="ignore"):
                    expected = _two_products(M)
                    assert linalg.commutator_norm(M).hex() == expected.hex()
                overflowed += math.isnan(expected)
        assert cases == {"k_zero", "k_pos", "k_neg"}
        assert overflowed == 2


def _nilpotent_pair(s: float, e: float) -> np.ndarray:
    """The stack (diag(0, s), e E_12): max|M| = s for s >= e, and the commutator's one entry is s e."""
    return np.array((np.diag([0.0, s]), [[0.0, e], [0.0, 0.0]]))


class TestNonCommutingPairs:
    """No gate reads the commutator: the eigenvector residual judges the pairs, the backward error the measure."""

    @pytest.mark.parametrize("s, e", [(100.0, 1e-10), (1.0, 2e-9), (100.0, 2e-9)], ids=["scaled", "unit", "large"])
    def test_a_commutator_within_the_residual_bound_passes(self, s, e):
        M = _nilpotent_pair(s, e)
        assert linalg.commutator_norm(M) == s * e > 0.0
        match_points(joint_eigen(M), [(0.0, 0.0), (s, 0.0)], atol=1e-9)

    @pytest.mark.parametrize(
        "M, quantity",
        [
            (_nilpotent_pair(1.0, 1e-3), "eigenvector residual"),  # 7.2e-4, 7e3 TOL_EIG on the unit scale
            (np.array((np.diag([math.nan, 1.0]), np.eye(2))), "eig"),  # a NaN entry never reaches LAPACK
            (np.array((np.diag([math.inf, 1.0]), np.eye(2))), "eig"),  # nor does an inf one
        ],
        ids=["unit", "nan", "inf"],
    )
    def test_a_pair_past_the_residual_bound_fails_naming_it(self, M, quantity):
        with pytest.raises(MomentProblemError) as info:
            joint_eigen(M)
        assert type(info.value) is MomentProblemError
        stage, got, value, bound = fields(info.value)
        assert (stage, got) == ("joint spectrum", quantity)
        assert value is None or not value <= bound == TOL_EIG


class TestErrorStates:
    """The quiet state built once at import is np.errstate's, and a solve leaves the caller's state as it was."""

    def test_quiet_state_ignores_all_four(self):
        expected = {"over": "ignore", "divide": "ignore", "under": "ignore", "invalid": "ignore"}
        for caller in ({}, {"all": "raise"}):
            with np.errstate(**caller):
                assert _quiet(np.geterr) == expected

    @pytest.mark.parametrize(
        "run, seam, failure",
        [
            ("solve", None, None),
            ("commutator", None, ("joint spectrum", "eigenvector residual")),
            ("solve", "lapack_eig", ("joint spectrum", "eig")),
            ("solve", "lapack_inv", ("joint spectrum", "eigenvector basis")),
            ("densities", None, ("densities", "V_B")),
            ("m3", None, ("extend", "beta_50")),
            ("normalize", None, ("normalize", "refined d2")),
        ],
        ids=["solve", "commutator", "eig", "eigenvector-basis", "densities", "m3-overflow", "normalize-overflow"],
    )
    def test_the_callers_state_is_left_as_it_was(self, monkeypatch, run, seam, failure):
        # each seam returns the NaN that a failed LAPACK call returns
        failed = {"lapack_eig": failed_eig, "lapack_inv": lambda a: np.full(a.shape, np.nan)}
        if seam is not None:
            monkeypatch.setattr(linalg, seam, failed[seam])
        runs = {
            "solve": lambda: solve_cubic(seq_from_a((0.4, -0.9, 1.2, 0.5))),
            "commutator": lambda: joint_eigen(np.array(([[0.0, 1.0], [0.0, 0.0]], np.diag([1.0, 2.0])))),
            "densities": lambda: solve_on_repeated_atoms(monkeypatch),
            "m3": lambda: extend((0.0, 1e100, 0.0, 0.0)).m3,
            # finite moments whose whitened cubics overflow to a NaN refined d2
            "normalize": lambda: solve_cubic(MomentSequence(3, np.array([1, 0.9, 0, 1, 0, 1, 1.7e308, 0, 0, 0]))),
        }
        with np.errstate(all="raise"):
            before, state = np.geterr(), linalg.ERROR_STATE.get()
            if failure is None:
                runs[run]()
            else:
                with pytest.raises(MomentProblemError) as info:
                    runs[run]()
                assert type(info.value) is MomentProblemError and fields(info.value)[:2] == failure
            assert np.geterr() == before and np.geterrcall() is None
            assert linalg.ERROR_STATE.get() is state
