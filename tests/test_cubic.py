import numpy as np
import pytest
from numpy.testing import assert_allclose

from cubicmoment import (
    CaseTag,
    MomentProblemError,
    beta04_formula,
    build_m3_kneg,
    compute_k,
    extend,
    extend_k0,
    extend_kneg,
    extend_kpos,
    sos_certificate_check,
    x3_relation,
)
from cubicmoment.cubic import SOS_GRAM

from _oracle import column_of, numeric_rank, psd_min_eig, smuljan_classify
from _util import is_hankel, quartics_of


def _oracle_p(a):
    """Independent route to the Y^2 relation: assemble the compression
    from the moment definitions and solve it directly."""
    a0, a1, a2, a3 = a
    b40 = 2.0 + a0 * a0 + a1 * a1
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
        ext = extend_k0((0, 1, 0, 0))
        assert quartics_of(ext.m2) == (2, 0, 1, 0, 1)
        assert numeric_rank(ext.m2.entries, 1e-10) == 3
        assert ext.case is CaseTag.FLAT_K0
        assert ext.basis == ((0, 0), (1, 0), (0, 1))
        assert ext.p_vec is None and ext.m3 is None

    def test_second_example(self):
        assert compute_k((1, 1, 0, 0)) == 0.0
        ext = extend_k0((1, 1, 0, 0))
        assert quartics_of(ext.m2) == (3, 1, 1, 0, 1)

    def test_rejects_nonzero_k(self):
        with pytest.raises(ValueError):
            extend_k0((0, 1, 0, 1))

    def test_flat_over_m1(self):
        ext = extend_k0((0, 1, 0, 0))
        a_block = ext.m2.entries[:3, :3]
        b_block = ext.m2.entries[:3, 3:]
        c_block = ext.m2.entries[3:, 3:]
        res = smuljan_classify(a_block, b_block, c_block)
        assert res.flat and res.psd and res.rank == 3


class TestExtendKpos:
    def test_all_zero(self):
        ext = extend_kpos((0, 0, 0, 0))
        assert quartics_of(ext.m2) == (1, 0, 1, 0, 1)
        assert numeric_rank(ext.m2.entries, 1e-10) == 4
        targets = {rel.target for rel in ext.relations}
        assert targets == {(2, 0), (0, 2)}
        by_target = {rel.target: rel.combo for rel in ext.relations}
        assert by_target[2, 0] == {(0, 0): 1.0}
        assert by_target[0, 2] == {(0, 0): 1.0}

    def test_shifted(self):
        ext = extend_kpos((1, 0, 0, 0))
        b40, b31, b22, b13, b04 = quartics_of(ext.m2)
        assert (b40, b22, b04) == (2, 1, 1)
        by_target = {rel.target: rel.combo for rel in ext.relations}
        assert by_target[2, 0] == {(0, 0): 1.0, (1, 0): 1.0}  # x^2 = 1 + x

    def test_beta22_pins_k_gap(self):
        ext = extend_kpos((0, 1, 0, 1))
        assert ext.k == 1.0
        assert ext.m2.moment((2, 2)) == 2.0

    def test_rejects_wrong_sign(self):
        with pytest.raises(ValueError):
            extend_kpos((0, 1, 1, 0))


class TestExtendKneg:
    def test_example_one_against_oracle(self):
        a = (0.0, 1.0, 1.0, 0.0)
        ext = extend_kneg(a)
        assert quartics_of(ext.m2)[:4] == (3, 1, 2, 1)
        p_oracle, b04_oracle = _oracle_p(a)
        assert_allclose(ext.p_vec, (0, 1, -1, 1), atol=1e-12)
        assert_allclose(ext.p_vec, p_oracle, atol=1e-12)
        assert ext.m2.moment((0, 4)) == pytest.approx(3.0, abs=1e-12)
        assert ext.m2.moment((0, 4)) == pytest.approx(b04_oracle, abs=1e-12)
        assert ext.basis == ((0, 0), (1, 0), (0, 1), (2, 0))

    def test_example_two_against_oracle(self):
        a = (0.0, 2.0, 0.0, 0.0)
        ext = extend_kneg(a)
        assert ext.k == -3.0
        assert quartics_of(ext.m2)[:4] == (6, 0, 4, 0)
        assert_allclose(ext.p_vec, (-2, 0, -6, 3), atol=1e-12)
        assert ext.m2.moment((0, 4)) == pytest.approx(10.0, abs=1e-12)

    def test_rejects_wrong_sign(self):
        with pytest.raises(ValueError):
            extend_kneg((0, 0, 0, 0))

    def test_p4_is_minus_k(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(-2, 2, 4)
            k = compute_k(a)
            if k >= -1e-6:
                continue
            ext = extend_kneg(a)
            assert abs(ext.p_vec[3] + k) <= 1e-10


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
            ext = extend_kneg(a)
            assert abs(ext.m2.moment((0, 4)) - beta04_formula(a)) <= 1e-9


class TestX3Relation:
    def test_example_one(self):
        combo, beta50 = x3_relation((0, 1, 1, 0), (0, 1, -1, 1))
        assert combo == {(1, 0): 3.0, (0, 1): 1.0}  # X^3 = 3X + Y
        assert beta50 == 1.0

    def test_example_two(self):
        # oracle: on the variety {xy = 2x, y^2 = -2 - 6y + 3x^2} the X column
        # cubes to 6x at every root, so the combo must be exactly 6X
        combo, beta50 = x3_relation((0, 2, 0, 0), (-2, 0, -6, 3))
        assert combo == {(1, 0): 6.0}
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
        ext = extend_kneg((0, 1, 1, 0))
        m3 = ext.m3
        assert m3.entries.shape == (10, 10)
        assert is_hankel(m3)
        assert psd_min_eig(m3.entries) >= -1e-10
        assert numeric_rank(m3.entries, 1e-10) == 4
        res = smuljan_classify(m3.entries[:6, :6], m3.entries[:6, 6:], m3.entries[6:, 6:])
        assert res.flat and res.psd and res.rank == 4

    def test_second_example_beta50_row_consistency(self):
        ext = extend_kneg((0, 2, 0, 0))
        assert ext.m3.moment((5, 0)) == pytest.approx(ext.beta50, abs=1e-12)
        assert is_hankel(ext.m3)

    def test_principal_block_is_m2(self):
        ext = extend_kneg((0.5, -1.2, 0.8, 0.3))
        assert_allclose(ext.m3.entries[:6, :6], ext.m2.entries, rtol=0, atol=0)

    def test_rejects_other_cases(self):
        ext = extend_kpos((0, 0, 0, 0))
        with pytest.raises(ValueError):
            build_m3_kneg(ext)


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
        ext = extend((0, 1 + 1e-12, 0, 0))
        assert ext.case is CaseTag.FLAT_K0

    def test_non_finite_k_raises(self):
        with pytest.raises(MomentProblemError, match="not finite"):
            extend((float("nan"), 0, 0, 0))
        with pytest.raises(MomentProblemError, match="not finite"):
            extend((0, 1e200, 0, 0))
        with pytest.raises(ValueError):
            extend_kneg((float("nan"), 0, 0, 0))


class TestExtensionInvariants:
    def test_psd_rank_and_relations(self):
        rng = np.random.default_rng(47)
        seen = {CaseTag.RECURSIVELY_DETERMINATE_K_POS: 0, CaseTag.RANK_INCREASING_K_NEG: 0}
        draws = [rng.uniform(-2, 2, 4) for _ in range(150)]
        draws += [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, -0.7)]  # exact k = 0 points
        for a in draws:
            ext = extend(a)
            seen[ext.case] = seen.get(ext.case, 0) + 1
            assert psd_min_eig(ext.m2.entries) >= -1e-10
            expected_rank = 3 if abs(compute_k(a)) <= 1e-10 else 4
            assert numeric_rank(ext.m2.entries, 1e-10) == expected_rank
            matrix = ext.m3 if ext.m3 is not None else ext.m2
            for rel in ext.relations:
                poly = rel.polynomial()
                target = ext.m2 if poly.size <= ext.m2.side else matrix
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
            ext = extend_kpos(a)
            w = ext.m2.entries[:3, 3:]  # M(1) = I, so W = B(2)
            gap = ext.m2.entries[3:, 3:] - w.T @ w
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
            ext = extend_kneg(a)  # raises if the two XY^2 expansions disagree
            m3 = ext.m3
            res = smuljan_classify(
                m3.entries[:6, :6], m3.entries[:6, 6:], m3.entries[6:, 6:]
            )
            assert res.flat and res.psd
            assert is_hankel(m3)
