import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubicmoment import (
    CaseTag,
    MomentProblemError,
    classify_k,
    compute_k,
    extend,
    extract_atoms,
    monomial_index,
    solve_cubic,
)
from cubicmoment import linalg, measure
from cubicmoment.cubic import tie_band

from _oracle import (
    SOS_GRAM,
    beta04_formula,
    column_of,
    numeric_rank,
    paper_extend_kneg,
    paper_relations,
    psd_min_eig,
    smuljan_classify,
    sos_certificate_check,
    x3_relation,
)
from _util import fields, is_hankel, match_points, quartics_of, seq_from_a, vandermonde


def _oracle_p(a, bump=1.0):
    """Independent route to the Y^2 relation: assemble the compression
    with beta_40 raised by bump from the moment definitions and solve it
    directly (bump = 1 is the paper's)."""
    a0, a1, a2, a3 = a
    b40 = 1.0 + bump + a0 * a0 + a1 * a1
    b22 = a1 * a1 + a2 * a2
    m4 = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, a0],
            [0.0, 0.0, 1.0, a1],
            [1.0, a0, a1, b40],
        ]
    )
    rhs = np.array([1.0, a2, a3, b22])
    p = np.linalg.solve(m4, rhs)
    return p, float(p @ rhs)


class TestComputeK:
    def test_values(self):
        assert compute_k((0, 0, 0, 0)) == 1.0
        assert compute_k((0, 1, 0, 0)) == 0.0
        assert compute_k((0, 1, 1, 0)) == -1.0


class TestExtendK0:
    def test_first_example(self):
        ext = extend((0, 1, 0, 0))
        assert quartics_of(ext.moments) == (2, 0, 1, 0, 1)
        assert numeric_rank(ext.m2, 1e-10) == 3
        assert ext.case is CaseTag.FLAT_K0
        assert ext.basis == ((0, 0), (1, 0), (0, 1))
        assert ext.m3 is None

    def test_second_example(self):
        assert compute_k((1, 1, 0, 0)) == 0.0
        ext = extend((1, 1, 0, 0))
        assert quartics_of(ext.moments) == (3, 1, 1, 0, 1)

    def test_flat_over_m1(self):
        ext = extend((0, 1, 0, 0))
        a_block = ext.m2[:3, :3]
        b_block = ext.m2[:3, 3:]
        c_block = ext.m2[3:, 3:]
        res = smuljan_classify(a_block, b_block, c_block)
        assert res.flat and res.psd and res.rank == 3


class TestExtendKpos:
    def test_all_zero(self):
        ext = extend((0, 0, 0, 0))
        assert quartics_of(ext.moments) == (1, 0, 1, 0, 1)
        assert numeric_rank(ext.m2, 1e-10) == 4
        # the X^2 and Y^2 relations are column X of Mx and column Y of My
        assert ext.pair[0][:, 1].tolist() == [1.0, 0.0, 0.0, 0.0]  # x^2 = 1
        assert ext.pair[1][:, 2].tolist() == [1.0, 0.0, 0.0, 0.0]  # y^2 = 1

    def test_shifted(self):
        ext = extend((1, 0, 0, 0))
        b40, b31, b22, b13, b04 = quartics_of(ext.moments)
        assert (b40, b22, b04) == (2, 1, 1)
        assert ext.pair[0][:, 1].tolist() == [1.0, 1.0, 0.0, 0.0]  # x^2 = 1 + x

    def test_beta22_pins_k_gap(self):
        ext = extend((0, 1, 0, 1))
        assert ext.k == 1.0
        assert ext.moments[2, 2] == 2.0


class TestExtendKneg:
    def test_example_one_against_oracle(self):
        a = (0.0, 1.0, 1.0, 0.0)
        ext = paper_extend_kneg(a)
        assert quartics_of(ext.moments)[:4] == (3, 1, 2, 1)
        p_oracle, b04_oracle = _oracle_p(a)
        assert_allclose(ext.pair[1][:, 2], (0, 1, -1, 1), atol=1e-12)
        assert_allclose(ext.pair[1][:, 2], p_oracle, atol=1e-12)
        assert ext.moments[0, 4] == pytest.approx(3.0, abs=1e-12)
        assert ext.moments[0, 4] == pytest.approx(b04_oracle, abs=1e-12)
        assert ext.basis == ((0, 0), (1, 0), (0, 1), (2, 0))

    def test_example_two_against_oracle(self):
        a = (0.0, 2.0, 0.0, 0.0)
        ext = paper_extend_kneg(a)
        assert ext.k == -3.0
        assert quartics_of(ext.moments)[:4] == (6, 0, 4, 0)
        assert_allclose(ext.pair[1][:, 2], (-2, 0, -6, 3), atol=1e-12)
        assert ext.moments[0, 4] == pytest.approx(10.0, abs=1e-12)

    def test_p4_is_minus_k(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(-2, 2, 4)
            k = compute_k(a)
            if k >= -1e-6:
                continue
            ext = paper_extend_kneg(a)
            assert abs(ext.pair[1][:, 2][3] + k) <= 1e-10


class TestKnegBump:
    """The solver's k < 0 route bumps beta_40 by t = |k|."""

    def test_closed_form_example(self):
        # k = -3, so t = 3: Y^2 = X^2 - 2Y, X^3 = 8X and XY = 2X
        ext = extend((0, 2, 0, 0))
        assert quartics_of(ext.moments) == (8, 0, 4, 0, 4)
        assert ext.pair[1][:, 2].tolist() == [0.0, 0.0, -2.0, 1.0]
        assert ext.pair[0][:, 3].tolist() == [0.0, 8.0, 0.0, 0.0]
        atoms = extract_atoms(ext)
        r8 = 2.0 * np.sqrt(2.0)
        match_points(atoms, [(-r8, 2.0), (0.0, -2.0), (0.0, 0.0), (r8, 2.0)], atol=1e-12)
        vb = vandermonde(*zip(*atoms), ext.basis)
        weights = measure._densities(vb, ext.basis, ext.moments)
        assert_allclose(weights, [1 / 16, 1 / 8, 3 / 4, 1 / 16], rtol=0, atol=1e-12)

    def test_matches_m4_solve(self):
        # the flat completion over M4 at t = |k|, solved numerically
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 1000:
            a = rng.uniform(-2, 2, 4)
            k = compute_k(a)
            if k >= -1e-10:
                continue
            checked += 1
            ext = extend(a)
            p, b04 = _oracle_p(a, bump=-k)
            assert np.abs(ext.pair[1][:, 2] - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
            assert abs(ext.moments[0, 4] - b04) <= 1e-12 * abs(b04)


class TestBeta04Formula:
    def test_closed_form_values(self):
        assert beta04_formula((0, 1, 1, 0)) == 3.0
        assert beta04_formula((0, 2, 0, 0)) == 10.0
        assert beta04_formula((0, 0, 0, 0)) == 2.0

    def test_matches_flat_completion(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = rng.uniform(-2, 2, 4)
            if compute_k(a) >= -1e-6:
                continue
            ext = paper_extend_kneg(a)
            assert abs(ext.moments[0, 4] - beta04_formula(a)) <= 1e-9


class TestX3Relation:
    def test_example_one(self):
        column, beta50 = x3_relation((0, 1, 1, 0), (0, 1, -1, 1))
        assert column == (0.0, 3.0, 1.0, 0.0)  # X^3 = 3X + Y over (1, X, Y, X^2)
        assert beta50 == 1.0

    def test_example_two(self):
        # oracle: on the variety {xy = 2x, y^2 = -2 - 6y + 3x^2} the X column
        # cubes to 6x at every root, so the column must be exactly 6X
        column, beta50 = x3_relation((0, 2, 0, 0), (-2, 0, -6, 3))
        assert column == (0.0, 6.0, 0.0, 0.0)
        assert beta50 == 0.0
        for x, y in [(0, -3 + np.sqrt(7)), (0, -3 - np.sqrt(7)),
                     (np.sqrt(6), 2.0), (-np.sqrt(6), 2.0)]:
            assert abs(x * y - 2 * x) <= 1e-12
            assert abs(y * y + 2 + 6 * y - 3 * x * x) <= 1e-12
            assert abs(x**3 - 6 * x) <= 1e-12

    def test_p4_zero_guard(self):
        with pytest.raises(ZeroDivisionError):
            x3_relation((0, 1, 1, 0), (0, 1, -1, 0))


class TestBuildM3:
    def test_contracts_for_example(self):
        ext = extend((0, 1, 1, 0))
        m3 = ext.m3
        assert m3.shape == (10, 10)
        assert is_hankel(m3, 3)
        assert psd_min_eig(m3) >= -1e-10
        assert numeric_rank(m3, 1e-10) == 4
        res = smuljan_classify(m3[:6, :6], m3[:6, 6:], m3[6:, 6:])
        assert res.flat and res.psd and res.rank == 4

    def test_second_example_beta50_row_consistency(self):
        ext = paper_extend_kneg((0, 2, 0, 0))
        beta50 = ext.m3[monomial_index((3, 0)), monomial_index((2, 0))]  # row X^3, column X^2
        assert beta50 == pytest.approx(x3_relation((0, 2, 0, 0), ext.pair[1][:, 2])[1], abs=1e-12)
        assert is_hankel(ext.m3, 3)

    def test_principal_block_is_m2(self):
        ext = extend((0.5, -1.2, 0.8, 0.3))
        assert_allclose(ext.m3[:6, :6], ext.m2, rtol=0, atol=0)

    def test_rejects_other_cases(self):
        ext = extend((0, 0, 0, 0))
        assert ext.m3 is None

    def test_disagreeing_xy2_expansions_show_in_the_commutator_norm(self):
        # the two XY^2 expansions differ by column Y of My Mx - Mx My: m3 is built from Mx, and the
        # disagreement is the commutator norm a report carries, which no gate reads
        ext = extend((0, 1, 1, 0))
        mx = ext.pair[0].copy()
        mx[0, 3] += 1e-3  # corrupt the X^3 column
        corrupted = dataclasses.replace(ext, pair=np.array((mx, ext.pair[1])))
        assert corrupted.m3.shape == ext.m3.shape and not np.array_equal(corrupted.m3, ext.m3)
        assert linalg.commutator_norm(corrupted.pair) == 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_typed_error_without_a_warning(self):
        # the commutator overflows to NaN, and so does a quintic moment, which m3 names quietly; the solve
        # fails quietly too, at the backward error of atoms whose powers overflow
        ext = extend((0.0, 1e150, 0.0, 0.0))
        with np.errstate(all="ignore"):
            assert math.isnan(linalg.commutator_norm(ext.pair))
        with pytest.raises(MomentProblemError) as info:
            ext.m3
        assert type(info.value) is MomentProblemError
        stage, quantity, value, bound = fields(info.value)
        assert (stage, quantity, math.isnan(value), bound) == ("extend", "beta_50", True, None)
        with pytest.raises(MomentProblemError) as solve:
            solve_cubic(seq_from_a((0.0, 1e150, 0.0, 0.0)))
        assert type(solve.value) is MomentProblemError
        assert fields(solve.value)[:2] == ("verify", "backward error")
        # the pair commutes, but a quintic moment overflows: the first non-finite one is named
        with pytest.raises(MomentProblemError) as info:
            extend((0.0, 1e100, 0.0, 0.0)).m3
        assert type(info.value) is MomentProblemError
        stage, quantity, value, bound = fields(info.value)
        assert (stage, quantity, math.isnan(value), bound) == ("extend", "beta_50", True, None)


class TestSosCertificate:
    def test_hand_values(self):
        a = (0, 0, 0, 0)
        y = np.array([1.0, 0, 0, 0, 0, 0, 0])
        assert float(y @ SOS_GRAM @ y) == 1.0  # so beta_04 = 2
        assert sos_certificate_check(a)
        a = (0, 1, 1, 0)
        y = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        assert float(y @ SOS_GRAM @ y) == 2.0  # beta_04 - 1 = 3 - 1
        assert sos_certificate_check(a)

    def test_gram_matrix_is_flat_over_corner(self):
        res = smuljan_classify(SOS_GRAM[:3, :3], SOS_GRAM[:3, 3:], SOS_GRAM[3:, 3:])
        assert res.flat and res.psd and res.rank == 3

    def test_random_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            assert sos_certificate_check(rng.uniform(-2, 2, 4))


class TestExtendDispatch:
    def test_routes(self):
        assert extend((0, 1, 0, 0)).case is CaseTag.FLAT_K0
        assert extend((0, 0, 0, 0)).case is CaseTag.RECURSIVELY_DETERMINATE_K_POS
        assert extend((0, 1, 1, 0)).case is CaseTag.RANK_INCREASING_K_NEG

    def test_tie_goes_to_flat(self):
        # k = 0 in exact arithmetic at a1 = 1; a1 = 1 + 1e-13 gives k = -2.0e-13, within the band 2.27e-13
        # of s = 2, and a1 = 1 + 1e-12 gives k = -2.0e-12, outside it
        a = (0, 1 + 1e-13, 0, 0)
        assert 0.0 < -compute_k(a) <= tie_band(a) < 1.2 * -compute_k(a)
        assert extend(a).case is CaseTag.FLAT_K0
        assert extend((0, 1 + 1e-12, 0, 0)).case is CaseTag.RANK_INCREASING_K_NEG

    @pytest.mark.parametrize("s", [1e-10, -1e-10, 0.3, -0.3])
    def test_tie_rule_is_classify_k(self, s):
        # |k| = tol_k is a tie and goes to k = 0; one ulp below it, the sign of k decides
        a = (0, 1, 0, s)
        k = compute_k(a)
        tie = extend(a, tol_k=abs(k))
        assert tie.case is CaseTag.FLAT_K0 and len(tie.basis) == 3
        signed = extend(a, tol_k=np.nextafter(abs(k), 0))
        expected = CaseTag.RECURSIVELY_DETERMINATE_K_POS if s > 0 else CaseTag.RANK_INCREASING_K_NEG
        assert signed.case is expected and len(signed.basis) == 4

    @pytest.mark.parametrize("tol_k", [-1.0, -5e-324, math.nan])
    def test_a_nan_or_negative_tol_k_raises(self, tol_k):
        # the exact k = 0 of a = (0, 1, 0, 0) went to the k < 0 route
        assert compute_k((0, 1, 0, 0)) == 0.0
        with pytest.raises(ValueError, match="tol_k must be a non-negative number"):
            extend((0, 1, 0, 0), tol_k=tol_k)
        with pytest.raises(ValueError, match="tol_k must be a non-negative number"):
            classify_k(0.0, tol_k)

    def test_zero_and_inf_tol_k_are_bounds(self):
        assert extend((0, 1, 0, 0), tol_k=0.0).case is CaseTag.FLAT_K0
        assert extend((0, 0, 0, 0), tol_k=0.0).case is CaseTag.RECURSIVELY_DETERMINATE_K_POS
        assert extend((0, 1, 1, 0), tol_k=math.inf).case is CaseTag.FLAT_K0

    def test_non_finite_k_raises(self):
        with pytest.raises(MomentProblemError) as info:
            extend((float("nan"), 0, 0, 0))
        assert fields(info.value)[:2] == ("extend", "k") and math.isnan(info.value.value)
        with pytest.raises(MomentProblemError) as info:
            extend((0, 1e200, 0, 0))
        assert fields(info.value)[:3] == ("extend", "k", -math.inf)


class TestExtensionInvariants:
    def test_psd_rank_and_relations(self):
        rng = np.random.default_rng(47)
        seen = {CaseTag.RECURSIVELY_DETERMINATE_K_POS: 0, CaseTag.RANK_INCREASING_K_NEG: 0}
        draws = [rng.uniform(-2, 2, 4) for _ in range(150)]
        draws += [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, -0.7)]  # exact k = 0 points
        for a in draws:
            ext = extend(a)
            seen[ext.case] = seen.get(ext.case, 0) + 1
            assert psd_min_eig(ext.m2) >= -1e-10
            expected_rank = 3 if abs(compute_k(a)) <= 1e-10 else 4
            assert numeric_rank(ext.m2, 1e-10) == expected_rank
            matrix = ext.m3 if ext.m3 is not None else ext.m2
            for rel in paper_relations(ext, a):
                poly = rel.polynomial()
                target = ext.m2 if poly.size <= len(ext.m2) else matrix
                assert np.abs(column_of(target, poly)).max() <= 1e-9
        # both generic signs well represented; the k = 0 points are hand-added
        assert seen[CaseTag.RECURSIVELY_DETERMINATE_K_POS] > 10
        assert seen[CaseTag.RANK_INCREASING_K_NEG] > 10
        assert seen[CaseTag.FLAT_K0] == 3

    def test_kpos_gap_is_rank_one_at_xy(self):
        rng = np.random.default_rng(53)
        count = 0
        while count < 60:
            a = rng.uniform(-2, 2, 4)
            k = compute_k(a)
            if k <= 1e-6:
                continue
            count += 1
            ext = extend(a)
            w = ext.m2[:3, 3:]  # M(1) = I, so W = B(2)
            gap = ext.m2[3:, 3:] - w.T @ w
            expected = np.zeros((3, 3))
            expected[1, 1] = k
            assert np.abs(gap - expected).max() <= 1e-12

    def test_kneg_xy2_consistency_and_flatness(self):
        rng = np.random.default_rng(59)
        count = 0
        while count < 60:
            a = rng.uniform(-2, 2, 4)
            if compute_k(a) >= -1e-6:
                continue
            count += 1
            ext = extend(a)  # raises if the two XY^2 expansions disagree
            m3 = ext.m3
            res = smuljan_classify(m3[:6, :6], m3[:6, 6:], m3[6:, 6:])
            assert res.flat and res.psd
            assert is_hankel(m3, 3)
