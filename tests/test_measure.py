import collections
import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cubicmoment import (
    Atom,
    AtomicMeasure,
    CaseTag,
    MomentProblemError,
    MomentSequence,
    SingularM1Error,
    extend,
    extract_atoms,
    monomial_index,
    monomials_up_to,
    normalize_cubic,
    pullback_measure,
    solve_cubic,
    verify_measure,
)
from cubicmoment import cubic, linalg, measure, normalize
from cubicmoment.cubic import BASIS_K0, BASIS_KNEG, BASIS_KPOS
from cubicmoment.cli import random_request
from cubicmoment.errors import MIN_WEIGHT, TOL_ACCEPT, TOL_K
from cubicmoment.moments import integrals_of, monomials_at

from _oracle import (
    ColumnRelation,
    MissingRelationError,
    joint_eigen_reference,
    multiplication_matrices,
    paper_relations,
)
from _util import acceptance_draws, fields, match_points, rescaled, rotate_a, same_bytes, seq_from_a, vandermonde

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# inputs #912 and #194 of perfbench's workloads.generate("ill_conditioned", 11): k is just above TOL_K, so the
# k > 0 route runs first and its smallest density, of order k, fails the floor
TIE_SOLVES = [
    4.126910654237756e-12, -2.8547703793591287e-09, -1.7543903202279463e-12, 1.9817000106271638e-06,
    1.2123607819650007e-09, 7.460894512258995e-13, -0.0013802091214176351, -8.407657927799078e-07,
    -5.150514811518111e-10, -3.174109444270546e-13,
]
TIE_FAILS = [
    6.91256688856902, -246.74680376822852, 9.049239331134334, 8809.19559113213, -323.01470315956,
    11.847156274805666, -314553.62309331074, 11531.99209984533, -422.88520599117925, 15.511202285365766,
]


class TestMultiplicationMatrices:
    def test_kpos_square_roots_of_unity(self):
        ext = extend((0, 0, 0, 0))
        mx, my = multiplication_matrices(ext.basis, paper_relations(ext, (0, 0, 0, 0)))
        # basis (1, X, Y, XY): x swaps 1 <-> X and Y <-> XY
        expected_mx = np.zeros((4, 4))
        expected_mx[1, 0] = expected_mx[0, 1] = 1.0
        expected_mx[3, 2] = expected_mx[2, 3] = 1.0
        expected_my = np.zeros((4, 4))
        expected_my[2, 0] = expected_my[0, 2] = 1.0
        expected_my[3, 1] = expected_my[1, 3] = 1.0
        assert_allclose(mx, expected_mx)
        assert_allclose(my, expected_my)
        assert_allclose(mx @ my, my @ mx)

    def test_k0_reads_relations(self):
        ext = extend((0, 1, 0, 0))
        mx, my = multiplication_matrices(ext.basis, paper_relations(ext, (0, 1, 0, 0)))
        # x*1 = x, x*x = 1 + y, x*y = x
        assert_allclose(mx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        assert_allclose(my, np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float))

    def test_kneg_uses_cubic_relation(self):
        ext = extend((0, 1, 1, 0))
        mx, _ = multiplication_matrices(ext.basis, paper_relations(ext, (0, 1, 1, 0)))
        # x * X^2 = X^3 = 3X + Y
        assert_allclose(mx[:, 3], [0, 3, 1, 0])

    def test_missing_relation(self):
        basis = ((0, 0), (1, 0), (0, 1))
        only_x2 = (ColumnRelation((2, 0), {(0, 0): 1.0}),)
        with pytest.raises(MissingRelationError):
            multiplication_matrices(basis, only_x2)

    def test_non_finite_coefficient_raises(self):
        # a NaN coefficient must end the fill with an error, not keep it looping
        basis = ((0, 0), (1, 0), (0, 1))
        relations = (
            ColumnRelation((2, 0), {(0, 0): float("nan")}),
            ColumnRelation((1, 1), {(1, 0): 1.0}),
            ColumnRelation((0, 2), {(0, 0): 1.0}),
        )
        with pytest.raises(MomentProblemError) as info:
            multiplication_matrices(basis, relations)
        assert fields(info.value)[:2] == ("extend", "max |Mx, My|")
        assert math.isnan(info.value.value)


class TestExtractAtoms:
    def test_square_roots_of_unity(self):
        atoms = extract_atoms(extend((0, 0, 0, 0)))
        match_points(atoms, [(1, 1), (1, -1), (-1, 1), (-1, -1)], atol=1e-10)

    def test_three_point_flat_case(self):
        atoms = extract_atoms(extend((0, 1, 0, 0)))
        r2 = math.sqrt(2.0)
        match_points(atoms, [(0, -1), (r2, 1), (-r2, 1)], atol=1e-9)

    def test_golden_ratio_case(self):
        atoms = extract_atoms(extend((1, 0, 0, 0)))
        expected = [(PHI, 1), (PHI, -1), (1 - PHI, 1), (1 - PHI, -1)]
        match_points(atoms, expected, atol=1e-9)

    def test_sorted_output(self):
        atoms = extract_atoms(extend((0, 0, 0, 0)))
        assert atoms == sorted(atoms)

    @staticmethod
    def _diagonal(xs, ys):
        # Mx, My diagonal on the standard basis: the joint spectrum is exactly the pairs
        return dataclasses.replace(extend((0, 0, 0, 0)), pair=np.array((np.diag(xs), np.diag(ys))))

    def test_repeated_joint_spectrum_raises(self):
        ext = self._diagonal([1.0, 1.0, -1.0, -1.0], [1.0, 1.0 + 5e-9, -1.0, 1.0])
        with pytest.raises(MomentProblemError) as info:
            extract_atoms(ext)
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("joint spectrum", "atom gap")

    def test_atoms_apart_in_one_coordinate_pass(self):
        # two pairs are closer than MIN_ATOM_SEPARATION in one coordinate, apart in the other
        ext = self._diagonal([0.0, 0.0, 1.0, 1.0 + 5e-9], [0.0, 2e-8, 3.0, -3.0])
        assert extract_atoms(ext) == [(0.0, 0.0), (0.0, 2e-8), (1.0, 3.0), (1.0 + 5e-9, -3.0)]

    def test_nan_gap_raises(self, monkeypatch):
        # the y gap alone clears the threshold; the NaN x gap must still fail the check
        pairs = [(0.0, 0.0), (math.nan, 1.0), (2.0, 2.0)]
        monkeypatch.setattr(measure, "joint_eigen", lambda *args, **kwargs: pairs)
        with pytest.raises(MomentProblemError) as info:
            extract_atoms(extend((0, 0, 0, 0)))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("joint spectrum", "atom gap")


def _densities(atoms, basis, beta):
    """The solver's own density solve on the atoms' V_B."""
    return measure._densities(vandermonde(*zip(*atoms), basis), basis, beta)


class TestSolveDensities:
    def test_square_case(self):
        ext = extend((0, 0, 0, 0))
        atoms = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rho = _densities(atoms, ext.basis, seq_from_a((0, 0, 0, 0)))
        assert_allclose(rho, 0.25 * np.ones(4), atol=1e-12)

    def test_three_point_case(self):
        r2 = math.sqrt(2.0)
        atoms = [(0, -1), (r2, 1), (-r2, 1)]
        basis = ((0, 0), (1, 0), (0, 1))
        rho = _densities(atoms, basis, seq_from_a((0, 1, 0, 0)))
        assert_allclose(rho, [0.5, 0.25, 0.25], atol=1e-12)

    def test_single_atom(self):
        beta = AtomicMeasure((Atom(0, 0, 0.7),)).moments(0)
        rho = _densities([(0, 0)], ((0, 0),), beta)
        assert_allclose(rho, [0.7])

    def test_list_basis(self):
        ext = extend((0, 0, 0, 0))
        atoms = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rho = _densities(atoms, list(ext.basis), seq_from_a((0, 0, 0, 0)))
        assert_allclose(rho, 0.25 * np.ones(4), atol=1e-12)


class TestVerifyMeasure:
    def test_exact_measure(self):
        mu = AtomicMeasure(
            tuple(Atom(x, y, 0.25) for x, y in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        )
        check = verify_measure(mu, seq_from_a((0, 0, 0, 0)))
        assert check.max_moment_residual <= 1e-15
        assert check.min_weight == 0.25

    def test_perturbed_weight(self):
        atoms = [Atom(1, 1, 0.25 + 1e-3), Atom(1, -1, 0.25), Atom(-1, 1, 0.25), Atom(-1, -1, 0.25)]
        check = verify_measure(AtomicMeasure(tuple(atoms)), seq_from_a((0, 0, 0, 0)))
        assert check.residuals[0] == pytest.approx(1e-3, rel=1e-9)  # beta_00 off
        assert check.max_moment_residual >= 1e-3 - 1e-12

    def test_empty_measure(self):
        check = verify_measure(AtomicMeasure(()), seq_from_a((0, 0, 0, 0)))
        assert check.max_moment_residual == 1.0
        assert check.min_weight == 0.0

    def test_nan_atom_propagates(self):
        points = [(1, 1), (1, -1), (-1, 1), (-1, float("nan"))]
        mu = AtomicMeasure(tuple(Atom(x, y, 0.25) for x, y in points))
        check = verify_measure(mu, seq_from_a((0, 0, 0, 0)))
        assert math.isnan(check.max_moment_residual)

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_nan_weight_gives_nan_min_weight_in_any_order(self, order):
        # Python's min skips a NaN unless it comes first
        atoms = [(0, 0, 1.0), (1, 0, float("nan")), (0, 1, 0.5)]
        mu = AtomicMeasure(tuple(atoms[n] for n in order))
        assert math.isnan(verify_measure(mu, seq_from_a((0, 0, 0, 0))).min_weight)

    @pytest.mark.parametrize("state", ["warn", "raise"])
    @pytest.mark.parametrize("x, y", [(1e150, 1e150), (1e200, 1e-200)])  # 1e-200^2 underflows in np.power
    def test_overflowing_atom_gives_an_inf_residual(self, state, x, y):
        # x^2 y or x^3 leaves float range; the residual says so, without a warning whatever the caller's state
        with np.errstate(all=state):
            check = verify_measure(AtomicMeasure((Atom(x, y, 1.0),)), seq_from_a((0, 0, 0, 0)))
        assert check.max_moment_residual == math.inf


def _variety_residual(ext, points) -> float:
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    return measure._variety_residual(ext, vandermonde(x, y, ext.basis))


class TestWrittenOutPaths:
    """The solver's written-out loops give, byte for byte, what the generic forms give."""

    # an atom whose x**2 overflows, a NaN atom, a signed zero and ordinary atoms
    POINTS = [(0.3, -1.2), (1e200, 0.5), (math.nan, 0.7), (-0.0, 2.5), (-1.7, 1e-160)]

    @pytest.mark.parametrize("basis", [BASIS_K0, BASIS_KPOS, BASIS_KNEG])
    @pytest.mark.parametrize("rows", [[0, 3], [1, 4], [2, 3], [0, 1, 2, 3, 4], []])
    def test_vandermonde_is_the_basis_columns_of_the_table(self, basis, rows):
        x, y = [self.POINTS[k][0] for k in rows], [self.POINTS[k][1] for k in rows]
        columns = [monomial_index(b) for b in basis]
        expected = monomials_at(x, y, [1.0] * len(x), monomials_up_to(2))[:, columns]
        assert same_bytes(vandermonde(x, y, basis), expected)

    @pytest.mark.parametrize("basis", [BASIS_K0, BASIS_KPOS, BASIS_KNEG])
    def test_unit_weights_leave_the_basis_powers_as_they_are(self, basis):
        # V_B is the shared evaluator's w * x**i * y**j at w = 1.0, which is x**i * y**j bit for bit
        points = [p for p in self.POINTS if p[0] != 1e200] + [(-0.0, -0.0), (math.inf, 2.0), (3.0, -math.inf)]
        x, y = [p[0] for p in points], [p[1] for p in points]
        expected = np.array([[u**i * v**j for i, j in basis] for u, v in points])
        assert same_bytes(vandermonde(x, y, basis), expected)

    @pytest.mark.parametrize(
        "atoms",
        [
            [(1, 1, 0.25), (1, -1, 0.25), (-1, 1, 0.25), (-1, -1, 0.25 + 1e-3)],
            [(1e150, 1e150, 1.0)],  # x^2 y overflows: an inf residual
            [(1e200, 0.0, 1.0), (-1e200, 0.0, 1.0)],  # x^3 sums inf and -inf: a NaN residual
            [(0.5, math.nan, 1.0), (0.2, 0.1, 0.5)],  # a NaN atom
            [],
        ],
    )
    def test_verify_measure_is_the_array_difference(self, atoms):
        mu = AtomicMeasure(tuple(atoms))
        beta = seq_from_a((0.3, -0.8, 0.4, 1.1))
        with np.errstate(all="ignore"):  # inf - inf in the reference
            expected = np.abs(np.array(integrals_of(mu.atoms, 3)) - beta.values)
        check = verify_measure(mu, beta)
        assert same_bytes(check.residuals, expected)
        assert same_bytes(np.array(check.max_moment_residual), np.array(float(expected.max(initial=0.0))))

    def test_stacked_variety_product_is_the_two_products(self):
        # the variety gate multiplies V_B into the stack (Mx, My) at once
        for n in (3, 4, 5):
            for seed in range(20):
                ext = solve_cubic(MomentSequence(3, np.array(random_request(n, seed)["beta"])))[1].extension
                vb = vandermonde(*zip(*extract_atoms(ext)), ext.basis)
                assert same_bytes(vb @ ext.pair, np.array((vb.dot(ext.pair[0]), vb.dot(ext.pair[1]))))

    def test_solve_pulls_back_as_pullback_measure(self):
        for n in (3, 4, 5):
            for seed in range(20):
                beta = MomentSequence(3, np.array(random_request(n, seed)["beta"]))
                mu, report = solve_cubic(beta)
                ext, cert = report.extension, report.certificate
                atoms = extract_atoms(ext)
                vb = vandermonde(*zip(*atoms), ext.basis)
                rho = measure._densities(vb, ext.basis, cert.normalized).tolist()
                mass = float(beta.values[0])
                weighted = AtomicMeasure(tuple(Atom(x, y, r * mass) for (x, y), r in zip(atoms, rho)))
                expected = sorted(pullback_measure(weighted.atoms, cert.map))
                assert same_bytes(np.array(mu.atoms), np.array(expected))


class TestVarietyResidual:
    def test_empty_atom_set_meets_every_relation(self):
        assert _variety_residual(extend((0, 0, 0, 0)), []) == 0.0

    def test_on_and_off_variety(self):
        ext = extend((0, 0, 0, 0))
        assert _variety_residual(ext, [(1, 1), (1, -1), (-1, 1), (-1, -1)]) <= 1e-12
        assert _variety_residual(ext, [(2.0, 0.0)]) >= 1.0

    def test_nan_atom_propagates(self):
        points = [(1, 1), (1, -1), (-1, 1), (-1, float("nan"))]
        assert math.isnan(_variety_residual(extend((0, 0, 0, 0)), points))


class TestSolveCubic:
    def test_kpos_closed_form(self):
        mu, report = solve_cubic(seq_from_a((0, 0, 0, 0)))
        assert report.case is CaseTag.RECURSIVELY_DETERMINATE_K_POS
        assert report.extension.k == 1.0
        assert len(report.extension.basis) == 4 == len(mu.atoms)
        match_points([(a.x, a.y) for a in mu.atoms], [(1, 1), (1, -1), (-1, 1), (-1, -1)], atol=1e-10)
        assert_allclose([a.weight for a in mu.atoms], 0.25 * np.ones(4), atol=1e-10)
        assert report.check.max_moment_residual <= 1e-12
        assert report.commutator_norm <= 1e-12

    def test_k0_closed_form(self):
        mu, report = solve_cubic(seq_from_a((0, 1, 0, 0)))
        assert report.case is CaseTag.FLAT_K0
        assert len(mu.atoms) == 3 == len(report.extension.basis)
        r2 = math.sqrt(2.0)
        match_points([(a.x, a.y) for a in mu.atoms], [(0, -1), (r2, 1), (-r2, 1)], atol=1e-9)
        by_y = sorted(mu.atoms, key=lambda a: a.y)
        assert by_y[0].weight == pytest.approx(0.5, abs=1e-9)

    def test_kneg_roundtrip(self):
        mu, report = solve_cubic(seq_from_a((0, 1, 1, 0)))
        assert report.case is CaseTag.RANK_INCREASING_K_NEG
        assert len(mu.atoms) == 4
        assert report.check.max_moment_residual <= 1e-10
        assert report.extension.m3 is not None

    def test_kneg_route_puts_an_atom_at_the_mean(self):
        # row 0 of Mx and My is zero for any bump t: no basis monomial times x or y has a constant
        # term, so (0, 0) is a joint eigenvalue, the normalized mean, and pulls back to the input's mean
        inputs = [seq_from_a(a) for a in acceptance_draws()]
        inputs += [MomentSequence(3, np.array(random_request(n, s)["beta"])) for n in (3, 4, 5) for s in range(100)]
        solved = 0
        for beta in inputs:
            mu, report = solve_cubic(beta)
            if report.case is not CaseTag.RANK_INCREASING_K_NEG:
                continue
            assert not report.extension.pair[:, 0].any()
            b00, b10, b01 = beta.values[:3].tolist()
            x, y = b10 / b00, b01 / b00
            gap = min(max(abs(a.x - x), abs(a.y - y)) for a in mu.atoms)
            assert gap <= 1e-12 * max(1.0, abs(x), abs(y))
            solved += 1
        assert solved >= 700  # 677 of the acceptance draws and 48 of the random requests

    def test_mass_rescaling(self):
        beta = rescaled(seq_from_a((0, 0, 0, 0)), 5.0)
        mu, report = solve_cubic(beta)
        assert sum(a.weight for a in mu.atoms) == pytest.approx(5.0, abs=1e-10)
        assert report.check.max_moment_residual <= 1e-10

    def test_random_raw_instances(self):
        for seed in range(20):
            request = random_request(5, seed)
            beta = MomentSequence(3, np.array(request["beta"]))
            mu, report = solve_cubic(beta)
            assert report.check.max_moment_residual <= 1e-8
            assert report.check.min_weight > 1e-10
            assert len(mu.atoms) == (3 if abs(report.extension.k) <= 1e-10 else 4)
            assert len(report.extension.basis) == len(mu.atoms)

    def test_determinism(self):
        beta = MomentSequence(3, np.array(random_request(4, 99)["beta"]))
        first, _ = solve_cubic(beta)
        second, _ = solve_cubic(beta)
        assert first == second

    @pytest.mark.parametrize("a", [(0, 1, 0, 0), (0, 0, 0, 0), (0, 1, 1, 0)])  # k_zero, k_pos, k_neg
    def test_every_array_a_record_hands_out_is_read_only(self, a):
        beta = seq_from_a(a)
        mu, report = solve_cubic(beta)
        cert, ext, check = report.certificate, report.extension, verify_measure(mu, beta)
        # the array fields found by type, so a field added later is covered, and the arrays built on each read
        records = [report, cert, cert.normalized, ext, ext.moments, check]
        arrays = {
            f"{type(r).__name__}.{k}": v for r in records for k, v in vars(r).items() if isinstance(v, np.ndarray)
        }
        arrays.update({f"ExtensionResult.{k}": getattr(ext, k) for k in ("m2", "m3")})
        arrays.update({f"ExtensionResult.pair[{n}]": ext.pair[n] for n in (0, 1)})
        if ext.m3 is None:
            del arrays["ExtensionResult.m3"]
        assert {"NormalizationCertificate.map", "ExtensionResult.pair", "MeasureCheck.residuals"} <= set(arrays)
        assert [name for name, array in arrays.items() if array.flags.writeable] == []

    def test_singular_rejected(self):
        values = np.array([1, 0, 0, 0, 0, 1, 0, 0, 0, 0], dtype=float)
        with pytest.raises(SingularM1Error) as info:
            solve_cubic(MomentSequence(3, values))
        assert fields(info.value)[:2] == ("normalize", "d2")

    def test_accept_tolerance_enforced(self):
        beta = seq_from_a((0.3, -0.8, 0.4, 1.1))
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(beta, accept=1e-18)
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("verify", "max moment residual")

    @pytest.mark.parametrize("accept", [float("nan"), -1e-8, -math.inf])
    def test_accept_that_is_not_a_bound_raises_value_error(self, accept):
        beta = MomentSequence(3, np.array([1, 0, 0, 1, 0, 1, 0, 1, 0, 0], float))
        with pytest.raises(ValueError, match="accept"):
            solve_cubic(beta, accept)

    def test_accept_zero_and_inf_are_bounds(self):
        beta = seq_from_a((0.3, -0.8, 0.4, 1.1))
        residual = solve_cubic(beta, math.inf)[1].check.max_moment_residual
        assert 0.0 < residual <= 1e-9
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(beta, 0.0)
        assert fields(info.value) == ("verify", "max moment residual", residual, 0.0)

    @pytest.mark.parametrize("turn", range(6))
    @pytest.mark.parametrize(
        "a",
        [(6.1, -13.4, -3.9, -10.2), (19.1, -11.7, 9.0, 19.8), (-9.2, 12.4, -1.0, -18.6)],
    )
    def test_large_cubic_moments_keep_precision(self, a, turn):
        # k < 0 with |a| up to 30, each input rotated by turn * 30 degrees: the
        # atoms must come out accurate enough to reproduce the moments well
        # inside the default acceptance bound
        _, report = solve_cubic(seq_from_a(rotate_a(a, turn * math.pi / 6)))
        assert report.case is CaseTag.RANK_INCREASING_K_NEG
        assert report.check.max_moment_residual <= 1e-9

    @pytest.mark.parametrize("position, cubic", [(7, 1e140), (8, 1e140), (7, 1e160), (7, 1e200)])
    def test_overflowing_cubic_moments_raise(self, position, cubic):
        # k < 0 inputs whose relation coefficients, commutator or k itself
        # leave the float range end in a typed error, never a hang
        values = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        values[position] = cubic
        with pytest.raises(MomentProblemError):
            solve_cubic(MomentSequence(3, values))

    @pytest.mark.parametrize(
        "a, moment",
        [((0, 1, 0, -1e200), "beta_40"), ((1e200, 0, 0, 0), "beta_04"), ((0, 0, 0, 1e200), "beta_40")],
    )
    def test_overflowing_quartic_moments_fail_at_the_extension(self, a, moment):
        # the normalized moment overflows while Mx, My stay finite; without the
        # extension's gate these end in the density floor (k < 0) or the joint
        # eigenvector residual (k > 0)
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(seq_from_a(a))
        assert fields(info.value) == ("extend", moment, math.inf, None)

    def test_each_matrix_residual_is_bounded_on_its_own_scale(self):
        # the k > 0 matrices at a = (0, 0, 0, 1e280), whose beta_04 overflows, so
        # that a solve stops at the extension: the Mx residual is finite but far
        # above TOL_EIG * max(1, max |Mx|) = 1e-7, which a bound on the joint scale
        # 1e280 let through, and the My residual is NaN
        mx = np.array([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)], dtype=float).T
        my = np.array([(0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 1e280, 0), (0, 1, 0, 1e280)], dtype=float).T
        with pytest.raises(MomentProblemError) as info:
            linalg.joint_eigen(np.array((mx, my)))
        assert fields(info.value)[:2] == ("joint spectrum", "eigenvector residual")
        assert 1.0 < info.value.value < math.inf and info.value.bound == 1e-7

    def test_nan_residual_of_one_matrix_fails_joint_eigen(self):
        # a commuting pair whose My holds 9e307: y of the first atom overflows, so the My
        # residual is NaN while the Mx one is at rounding level, and the NaN-rejecting gate
        # must stop the pairs in joint_eigen, not pass them on to extract_atoms
        s = 9e307
        mx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        my = np.array([[s, s, 0.0], [s, s, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(MomentProblemError) as info:
            linalg.joint_eigen(np.array((mx, my)))
        assert fields(info.value)[:2] == ("joint spectrum", "eigenvector residual")
        assert math.isnan(info.value.value) and info.value.bound == pytest.approx(1e-7 * s)

    def test_huge_atom_fails_at_the_joint_spectrum_not_the_atom_gap(self):
        # k > 0 at the normalized a = (1e104, 0, 0, 0): the true atoms are (1e104, +-1) and
        # (about -1e-104, +-1); the pairs read back have y = +-1e-88, an My residual of 1.0,
        # which a bound of TOL_EIG * max(1, max |Mx|, max |My|) = 1e97 let through to an
        # atom gap; My's own scale is 1
        a = (1e104, 0, 0, 0)
        for run in (lambda: linalg.joint_eigen(extend(a).pair), lambda: solve_cubic(seq_from_a(a))):
            with pytest.raises(MomentProblemError) as info:
                run()
            assert type(info.value) is MomentProblemError
            assert fields(info.value)[:2] == ("joint spectrum", "eigenvector residual")
            assert info.value.value == pytest.approx(1.0) and info.value.bound == 1e-7

    @pytest.mark.parametrize(
        "a, residual, scale",
        [((1e20, 0, 0, 0), "inf", 1.0), ((0, 0, 0, 1e20), "inf", 1e20), ((1e60, 0, 0, 0), "inf", 1.0)],
    )
    def test_overflowing_joint_spectrum_fails_without_a_warning(self, a, residual, scale):
        # the My residual's products overflow to inf, which the gate rejects quietly, on My's own scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MomentProblemError) as info:
                solve_cubic(seq_from_a(a))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("joint spectrum", "eigenvector residual")
        assert repr(info.value.value) == residual and info.value.bound == pytest.approx(1e-7 * scale)

    def test_overflowing_atom_power_raises(self):
        # an atom near x = 1e104 leaves the densities no precision: the floor rejects them
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(seq_from_a((1e104, 0, 1, 0)))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("densities", "min density") and info.value.bound == 1e-10

    def test_atom_off_the_variety_fails_the_gate(self, monkeypatch):
        # moving one of the atoms (+-1, +-1) by 1e-3 keeps every density positive,
        # so only the variety gate can reject the measure
        def shifted(ext):
            (x, y), *rest = extract_atoms(ext)
            return [(x + 1e-3, y), *rest]

        monkeypatch.setattr(measure, "extract_atoms", shifted)
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(seq_from_a((0, 0, 0, 0)))
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("densities", "variety residual") and info.value.bound == 1e-7

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        a0=st.floats(-2, 2),
        a1=st.one_of(st.floats(-2, -0.2), st.floats(0.2, 2)),
        a2=st.floats(-2, 2),
        u=st.integers(-1200, -600).map(lambda n: n / 100),  # float draws pile up at -12 and -6
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_rank_is_the_atom_count_near_k_zero(self, a0, a1, a2, u, sign):
        # a3 puts k at +-10^u, on both sides of tol_k = 1e-10
        a3 = (sign * 10.0**u - 1.0 - a0 * a2 + a1 * a1 + a2 * a2) / a1
        try:
            mu, report = solve_cubic(seq_from_a((a0, a1, a2, a3)))
        except MomentProblemError:
            return
        assert len(report.extension.basis) == len(mu.atoms)
        assert (len(report.extension.basis) == 3) == (report.case is CaseTag.FLAT_K0)

    def test_variety_membership(self):
        for a in [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0.4, -0.9, 1.2, 0.5)]:
            beta = seq_from_a(a)
            mu, report = solve_cubic(beta)
            cert = report.certificate
            _, x, y = cert.map @ np.array([(1.0, at.x, at.y) for at in mu.atoms]).T
            for rel in paper_relations(report.extension, cert.normalized.values[6:]):
                poly = rel.polynomial()
                table = monomials_at(x.tolist(), y.tolist(), [1.0] * len(x), monomials_up_to(sum(rel.target)))
                values = table @ poly
                assert np.abs(values).max() <= 1e-7


def _scaled(beta, p: int, q: int, r: int) -> MomentSequence:
    """beta_ij times 2^(p i + q j + r), exactly: the moments after x, y and the mass are scaled by 2^p, 2^q, 2^r."""
    values = [math.ldexp(b, p * i + q * j + r) for b, (i, j) in zip(beta, monomials_up_to(3))]
    return MomentSequence(3, np.array(values))


def _outcome(beta: MomentSequence):
    """solve_cubic(beta) with no accept bound, which is not scale-free: (measure, report), or the error."""
    try:
        return solve_cubic(beta, math.inf)
    except MomentProblemError as error:
        return error


def _assert_scales_back(plain, scaled, p: int, q: int, r: int) -> None:
    """The scaled solve's atoms and weights, scaled back, are the plain solve's bits, with its case and k."""
    (mu, report), (scaled_mu, scaled_report) = plain, scaled
    back = [(math.ldexp(x, -p), math.ldexp(y, -q), math.ldexp(w, -r)) for x, y, w in scaled_mu.atoms]
    assert same_bytes(np.array(back), np.array(mu.atoms))
    assert (scaled_report.case, scaled_report.extension.k) == (report.case, report.extension.k)


REQUESTS = st.builds(lambda n, seed: random_request(n, seed)["beta"], st.integers(3, 6), st.integers(0, 2**32 - 1))
# inputs that fail at each gate an accept of inf leaves, one gate each
GATE_INPUTS = [
    [1, 0, 0, 0, 0, 1, 0, 0, 0, 0],  # normalize, d2
    [1, 0, 0, 1, 1, 1, 0, 0, 0, 0],  # normalize, d3
    [1, 0, 0, 1, 0, 1, 0, 1e200, 0, 0],  # extend, k
    [1, 0, 0, 1, 0, 1, 1e200, 0, 0, 0],  # extend, beta_04
    [1, 0, 0, 1, 0, 1, 0, 1e140, 0, 0],  # joint spectrum, max |Mx My - My Mx|
    [1, 0, 0, 1, 0, 1, 1e20, 0, 0, 0],  # joint spectrum, eigenvector residual
    [1, 0, 0, 1, 0, 1, 1e104, 0, 1, 0],  # densities, min density
]


class TestPowerOfTwoScaling:
    """Moments scaled by powers of two, which every product and quotient carries exactly (aim 3)."""

    @settings(derandomize=True, max_examples=200)
    @given(REQUESTS, st.integers(-10, 10), st.integers(-10, 10), st.integers(-40, 40))
    def test_a_scaled_answer_scales_back_bit_for_bit(self, beta, p, q, r):
        plain, scaled = _outcome(_scaled(beta, 0, 0, 0)), _outcome(_scaled(beta, p, q, r))
        if not isinstance(plain, MomentProblemError) and not isinstance(scaled, MomentProblemError):
            _assert_scales_back(plain, scaled, p, q, r)

    @settings(derandomize=True, max_examples=200)
    @given(st.one_of(REQUESTS, st.sampled_from(GATE_INPUTS)), st.integers(-40, 40))
    def test_mass_scaling_keeps_the_outcome(self, beta, r):
        plain, scaled = _outcome(_scaled(beta, 0, 0, 0)), _outcome(_scaled(beta, 0, 0, r))
        if isinstance(plain, MomentProblemError):
            assert isinstance(scaled, MomentProblemError)
            assert (type(scaled), *fields(scaled)[:2]) == (type(plain), *fields(plain)[:2])
        else:
            _assert_scales_back(plain, scaled, 0, 0, r)


def _counted(calls, name, fn):
    """fn, counting each call in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestCallBudget:
    CASES = [
        ((0, 1, 0, 0), CaseTag.FLAT_K0),
        ((0, 0, 0, 0), CaseTag.RECURSIVELY_DETERMINATE_K_POS),
        ((0, 1, 1, 0), CaseTag.RANK_INCREASING_K_NEG),
    ]
    # the stages of a solve, each the function the package exports under that name
    STAGES = [
        (normalize, "normalize_cubic"),
        (cubic, "extend"),
        (measure, "extract_atoms"),
        (linalg, "joint_eigen"),
        (normalize, "pullback_measure"),
        (measure, "verify_measure"),
    ]

    @pytest.mark.parametrize("a, case", CASES)
    def test_one_eig_inv_solve_and_verification_per_solve(self, monkeypatch, a, case):
        # the LAPACK calls go through the seam in linalg, and none through np.linalg's wrappers
        calls = collections.Counter()
        for name in ("eig", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, _counted(calls, f"np.linalg.{name}", getattr(np.linalg, name)))
        monkeypatch.setattr(linalg, "lapack_eig", _counted(calls, "eig", linalg.lapack_eig))
        monkeypatch.setattr(linalg, "lapack_inv", _counted(calls, "inv", linalg.lapack_inv))
        monkeypatch.setattr(measure, "lapack_solve", _counted(calls, "solve", measure.lapack_solve))
        monkeypatch.setattr(measure, "verify_measure", _counted(calls, "verify_measure", verify_measure))
        _, report = solve_cubic(seq_from_a(a))
        assert report.case is case
        assert calls == {"eig": 1, "inv": 1, "solve": 1, "verify_measure": 1}

    def count_stages(self, monkeypatch) -> collections.Counter:
        """Calls per stage from here on.

        Every module attribute bound to a stage is wrapped, as a name-based trace wraps them,
        so a solve that reaches a stage's work by another name shows as 0 calls of it.
        """
        calls = collections.Counter()
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cubicmoment"]
        for module, name in self.STAGES:
            fn = getattr(module, name)
            wrapper = _counted(calls, name, fn)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        monkeypatch.setattr(holder, attr, wrapper)
        return calls

    @pytest.mark.parametrize("a, case", CASES)
    def test_one_call_per_stage_per_solve(self, monkeypatch, a, case):
        calls = self.count_stages(monkeypatch)
        _, report = solve_cubic(seq_from_a(a))
        assert report.case is case
        assert calls == {name: 1 for _, name in self.STAGES}

    def test_a_density_floor_tie_runs_the_stages_from_extend_on_twice(self, monkeypatch):
        # the k > 0 attempt stops at the density floor, before the pullback and verification
        calls = self.count_stages(monkeypatch)
        _, report = solve_cubic(MomentSequence(3, TIE_SOLVES))
        assert report.case is CaseTag.FLAT_K0
        once = {"normalize_cubic", "pullback_measure", "verify_measure"}
        assert calls == {name: 1 if name in once else 2 for _, name in self.STAGES}

    @pytest.mark.parametrize(
        "beta, factored",
        [
            *((seq_from_a(a), 0) for a, _ in CASES),  # already normalized: the quarter turn alone
            (MomentSequence(3, np.array(random_request(4, 3)["beta"])), 2),
            (MomentSequence(3, [1, 0, 0, 1 + 2.0**-52, 0, 1, 0, 1, 1, 0]), 2),  # M(1) one ulp off I
        ],
        ids=["k_zero", "k_pos", "k_neg", "raw", "one ulp off"],
    )
    def test_normalization_factors_only_input_that_is_not_normalized(self, monkeypatch, beta, factored):
        calls = collections.Counter()
        for name in ("_whiten", "_push"):
            monkeypatch.setattr(normalize, name, _counted(calls, name, getattr(normalize, name)))
        solve_cubic(beta)
        assert calls == ({"_whiten": factored, "_push": factored} if factored else {})


class TestCombinationFallback:
    """Two distinct atoms whose normalized images tie under the first c make joint_eigen take the second."""

    # the third atom at angle t on a circle of radius 0.5 ties the first two under the first c
    TIES = [0.442121967853211, 5.841063339326374]

    @staticmethod
    def measure(t):
        third = Atom(0.5 * math.cos(t), 0.5 * math.sin(t) - 0.6, 0.2)
        return AtomicMeasure((Atom(0.3, 0.1, 0.3), Atom(-0.7, 0.4, 0.5), third))

    @pytest.mark.parametrize("t", TIES)
    def test_tied_k0_measure_solves(self, t):
        tied = self.measure(t)
        mu, report = solve_cubic(tied.moments(3))
        assert report.case is CaseTag.FLAT_K0
        assert report.check.max_moment_residual <= 1e-10
        match_points([(a.x, a.y) for a in mu.atoms], [(a.x, a.y) for a in tied.atoms], atol=1e-9)

    @pytest.mark.parametrize("t", TIES)
    def test_first_combination_fails_and_the_second_reads_the_pairs(self, t):
        ext = extend(normalize_cubic(self.measure(t).moments(3)).normalized.values[6:])
        first, second = linalg._COMBINATIONS
        with pytest.raises(MomentProblemError) as info:
            joint_eigen_reference(ext.pair[0], ext.pair[1], first)
        assert info.value.quantity == "eigenvector residual"
        assert linalg.joint_eigen(ext.pair) == joint_eigen_reference(ext.pair[0], ext.pair[1], second)

    def test_both_failing_raise_the_first_error(self, monkeypatch):
        def failing(M, c):
            raise MomentProblemError("joint spectrum", "c", c)

        monkeypatch.setattr(linalg, "_read_spectrum", failing)
        with pytest.raises(MomentProblemError) as info:
            linalg.joint_eigen(np.array((np.eye(3), np.eye(3))))
        assert info.value.value == linalg._COMBINATIONS[0]


class TestNearZeroKneg:
    """The k < 0 route's smallest density is of order |k|, so the band down to tol_k solves."""

    @pytest.mark.parametrize("seed", [313, 656, 738, 958])
    def test_random_four_atom_requests_solve(self, seed):
        # k is between -1.4e-3 and -4.7e-4 here, where a bump of 1 left a density below 1e-10
        beta = MomentSequence(3, np.array(random_request(4, seed)["beta"]))
        mu, report = solve_cubic(beta)
        assert report.case is CaseTag.RANK_INCREASING_K_NEG
        assert len(mu.atoms) == 4
        assert report.check.max_moment_residual <= 1e-8

    def test_band_below_k_zero_solves(self):
        # k = -10^u for u from -9.5 to -1.31; a3 puts each k on a normalized a
        rng = np.random.default_rng(2)
        worst = 0.0
        for u in np.arange(-950, -130) / 100:
            a0, a2 = rng.uniform(-2, 2, 2)
            a1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2)
            a3 = (-(10.0**u) - 1.0 - a0 * a2 + a1 * a1 + a2 * a2) / a1
            mu, report = solve_cubic(seq_from_a((a0, a1, a2, a3)))
            assert report.case is CaseTag.RANK_INCREASING_K_NEG and len(mu.atoms) == 4
            worst = max(worst, report.check.max_moment_residual)
        assert worst <= 1e-12


class TestTieFallback:
    """A k != 0 extension whose smallest density fails the floor is re-solved once on the k = 0 route."""

    @staticmethod
    def attempts(values):
        """The two attempts' errors or reports: the route k picks, then the k = 0 route."""
        beta = MomentSequence(3, np.array(values, dtype=float))
        cert = normalize_cubic(beta)
        first = extend(cert.normalized.values[6:])
        outcomes = []
        for ext in (first, extend(cert.normalized.values[6:], tol_k=abs(first.k))):
            try:
                outcomes.append(measure._recover(beta, cert, ext, TOL_ACCEPT)[1])
            except MomentProblemError as exc:
                assert exc.quantity in ("min density", "variety residual", "max moment residual"), exc
                outcomes.append(exc)
        return outcomes

    def test_a_tie_solves_on_the_k0_route(self):
        first, _ = self.attempts(TIE_SOLVES)
        assert fields(first)[:2] == ("densities", "min density")
        assert first.value == pytest.approx(4.72e-11, rel=1e-3)
        mu, report = solve_cubic(MomentSequence(3, TIE_SOLVES))
        assert report.case is CaseTag.FLAT_K0 and len(report.extension.basis) == len(mu.atoms) == 3
        assert report.extension.k == pytest.approx(2.886e-10, rel=1e-3) and report.extension.k > TOL_K
        assert report.check.max_moment_residual <= TOL_ACCEPT

    def test_both_routes_failing_raise_the_first_error(self):
        first, second = self.attempts(TIE_FAILS)
        assert fields(first) == ("densities", "min density", first.value, MIN_WEIGHT)
        assert first.value == pytest.approx(9.84e-11, rel=1e-3)
        assert fields(second)[:2] == ("verify", "max moment residual")
        assert second.value == pytest.approx(2.70e-8, rel=1e-2)
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(MomentSequence(3, TIE_FAILS))
        assert type(info.value) is MomentProblemError
        assert fields(info.value) == fields(first)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    @pytest.mark.parametrize(
        "a, failure, extends",
        [
            ((0, 0, 0, 0), "min density", 2),  # k > 0: the one failure that re-solves
            ((0, 1, 1, 0), "min density", 2),  # k < 0
            ((0, 1, 0, 0), "min density", 1),  # k = 0 has no other route
            ((0, 0, 0, 0), "variety residual", 1),
            ((0, 0, 0, 0), "max moment residual", 1),
        ],
    )
    def test_only_a_rank_4_density_floor_failure_re_solves(self, monkeypatch, a, failure, extends):
        calls = collections.Counter()
        monkeypatch.setattr(measure, "extend", _counted(calls, "extend", extend))
        accept = TOL_ACCEPT
        if failure == "min density":
            monkeypatch.setattr(measure, "_densities", lambda vb, basis, beta: np.zeros(len(basis)))
        elif failure == "variety residual":  # one atom moved off the variety, as in TestSolveCubic
            def shifted(ext):
                (x, y), *rest = extract_atoms(ext)
                return [(x + 1e-3, y), *rest]

            monkeypatch.setattr(measure, "extract_atoms", shifted)
        else:
            accept = 1e-18
        with pytest.raises(MomentProblemError) as info:
            solve_cubic(seq_from_a(a), accept)
        assert type(info.value) is MomentProblemError
        assert fields(info.value)[:2] == ("verify" if failure == "max moment residual" else "densities", failure)
        assert calls == {"extend": extends}
