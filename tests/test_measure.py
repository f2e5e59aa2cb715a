import dataclasses
import math

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
    SingularVandermondeError,
    Tolerances,
    VerificationError,
    extend,
    extend_k0,
    extend_kneg,
    extend_kpos,
    extract_atoms,
    monomial_table,
    solve_cubic,
    solve_densities,
    verify_measure,
)
from cubicmoment import linalg, measure
from cubicmoment.cubic import ColumnRelation, Monomial
from cubicmoment.cli import random_request

from _oracle import MissingRelationError, multiplication_matrices
from _util import match_points, seq_from_a

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestMultiplicationMatrices:
    def test_kpos_square_roots_of_unity(self):
        ext = extend_kpos((0, 0, 0, 0))
        mx, my = multiplication_matrices(ext.basis, ext.relations)
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
        ext = extend_k0((0, 1, 0, 0))
        mx, my = multiplication_matrices(ext.basis, ext.relations)
        # x*1 = x, x*x = 1 + y, x*y = x
        assert_allclose(mx, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        assert_allclose(my, np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float))

    def test_kneg_uses_cubic_relation(self):
        ext = extend_kneg((0, 1, 1, 0))
        mx, _ = multiplication_matrices(ext.basis, ext.relations)
        # x * X^2 = X^3 = 3X + Y
        assert_allclose(mx[:, 3], [0, 3, 1, 0])

    def test_missing_relation(self):
        basis = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
        only_x2 = (ColumnRelation(Monomial(2, 0), {Monomial(0, 0): 1.0}),)
        with pytest.raises(MissingRelationError):
            multiplication_matrices(basis, only_x2)

    def test_non_finite_coefficient_raises(self):
        # a NaN coefficient must end the fill with an error, not keep it looping
        basis = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
        relations = (
            ColumnRelation(Monomial(2, 0), {Monomial(0, 0): float("nan")}),
            ColumnRelation(Monomial(1, 1), {Monomial(1, 0): 1.0}),
            ColumnRelation(Monomial(0, 2), {Monomial(0, 0): 1.0}),
        )
        with pytest.raises(MomentProblemError, match="non-finite"):
            multiplication_matrices(basis, relations)


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
        return dataclasses.replace(extend((0, 0, 0, 0)), mx=np.diag(xs), my=np.diag(ys))

    def test_repeated_joint_spectrum_raises(self):
        ext = self._diagonal([1.0, 1.0, -1.0, -1.0], [1.0, 1.0 + 5e-9, -1.0, 1.0])
        with pytest.raises(SingularVandermondeError):
            extract_atoms(ext)

    def test_atoms_apart_in_one_coordinate_pass(self):
        # two pairs are closer than MIN_ATOM_SEPARATION in one coordinate, apart in the other
        ext = self._diagonal([0.0, 0.0, 1.0, 1.0 + 5e-9], [0.0, 2e-8, 3.0, -3.0])
        assert extract_atoms(ext) == [(0.0, 0.0), (0.0, 2e-8), (1.0, 3.0), (1.0 + 5e-9, -3.0)]

    def test_nan_gap_raises(self, monkeypatch):
        # the y gap alone clears the threshold; the NaN x gap must still fail the check
        pairs = [(0.0, 0.0), (math.nan, 1.0), (2.0, 2.0)]
        monkeypatch.setattr(measure, "joint_eigen", lambda *args, **kwargs: pairs)
        with pytest.raises(SingularVandermondeError):
            extract_atoms(extend((0, 0, 0, 0)))


class TestSolveDensities:
    def test_square_case(self):
        ext = extend((0, 0, 0, 0))
        atoms = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rho = solve_densities(atoms, ext.basis, seq_from_a((0, 0, 0, 0)))
        assert_allclose(rho, 0.25 * np.ones(4), atol=1e-12)

    def test_three_point_case(self):
        r2 = math.sqrt(2.0)
        atoms = [(0, -1), (r2, 1), (-r2, 1)]
        basis = (Monomial(0, 0), Monomial(1, 0), Monomial(0, 1))
        rho = solve_densities(atoms, basis, seq_from_a((0, 1, 0, 0)))
        assert_allclose(rho, [0.5, 0.25, 0.25], atol=1e-12)

    def test_single_atom(self):
        beta = AtomicMeasure((Atom(0, 0, 0.7),)).moments(0)
        rho = solve_densities([(0, 0)], (Monomial(0, 0),), beta)
        assert_allclose(rho, [0.7])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            solve_densities([(0, 0)], (Monomial(0, 0), Monomial(1, 0)), seq_from_a((0, 0, 0, 0)))

    def test_list_basis(self):
        ext = extend((0, 0, 0, 0))
        atoms = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        rho = solve_densities(atoms, list(ext.basis), seq_from_a((0, 0, 0, 0)))
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

    def test_empty_measure_meets_every_relation(self):
        ext = extend((0, 0, 0, 0))
        check = verify_measure(AtomicMeasure(()), seq_from_a((0, 0, 0, 0)), ext.relations)
        assert check.variety_residual == 0.0

    def test_variety_residual(self):
        ext = extend((0, 0, 0, 0))
        on_variety = AtomicMeasure(
            tuple(Atom(x, y, 0.25) for x, y in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        )
        off_variety = AtomicMeasure((Atom(2.0, 0.0, 1.0),))
        beta = seq_from_a((0, 0, 0, 0))
        assert verify_measure(on_variety, beta, ext.relations).variety_residual <= 1e-12
        assert verify_measure(off_variety, beta, ext.relations).variety_residual >= 1.0

    def test_nan_atom_propagates(self):
        ext = extend((0, 0, 0, 0))
        points = [(1, 1), (1, -1), (-1, 1), (-1, float("nan"))]
        mu = AtomicMeasure(tuple(Atom(x, y, 0.25) for x, y in points))
        check = verify_measure(mu, seq_from_a((0, 0, 0, 0)), ext.relations)
        assert math.isnan(check.max_moment_residual)
        assert math.isnan(check.variety_residual)


class TestSolveCubic:
    def test_kpos_closed_form(self):
        mu, report = solve_cubic(seq_from_a((0, 0, 0, 0)))
        assert report.case is CaseTag.RECURSIVELY_DETERMINATE_K_POS
        assert report.k == 1.0
        assert report.rank == 4 == report.variety_size
        match_points([(a.x, a.y) for a in mu.atoms], [(1, 1), (1, -1), (-1, 1), (-1, -1)], atol=1e-10)
        assert_allclose([a.weight for a in mu.atoms], 0.25 * np.ones(4), atol=1e-10)
        assert report.max_moment_residual <= 1e-12
        assert report.commutator_norm <= 1e-12

    def test_k0_closed_form(self):
        mu, report = solve_cubic(seq_from_a((0, 1, 0, 0)))
        assert report.case is CaseTag.FLAT_K0
        assert len(mu.atoms) == 3 == report.rank == report.variety_size
        r2 = math.sqrt(2.0)
        match_points([(a.x, a.y) for a in mu.atoms], [(0, -1), (r2, 1), (-r2, 1)], atol=1e-9)
        by_y = sorted(mu.atoms, key=lambda a: a.y)
        assert by_y[0].weight == pytest.approx(0.5, abs=1e-9)

    def test_kneg_roundtrip(self):
        mu, report = solve_cubic(seq_from_a((0, 1, 1, 0)))
        assert report.case is CaseTag.RANK_INCREASING_K_NEG
        assert len(mu.atoms) == 4
        assert report.max_moment_residual <= 1e-10
        assert report.extension.m3 is not None

    def test_mass_rescaling(self):
        beta = seq_from_a((0, 0, 0, 0)).rescaled(5.0)
        mu, report = solve_cubic(beta)
        assert mu.total_mass == pytest.approx(5.0, abs=1e-10)
        assert report.max_moment_residual <= 1e-10

    def test_random_raw_instances(self):
        for seed in range(20):
            request = random_request(5, seed)
            beta = MomentSequence(3, np.array(request["beta"]))
            mu, report = solve_cubic(beta)
            assert report.max_moment_residual <= 1e-8
            assert report.min_weight > 1e-10
            assert len(mu.atoms) == (3 if abs(report.k) <= 1e-10 else 4)
            assert report.rank == report.variety_size

    def test_determinism(self):
        beta = MomentSequence(3, np.array(random_request(4, 99)["beta"]))
        first, _ = solve_cubic(beta, seed=5)
        second, _ = solve_cubic(beta, seed=5)
        assert first == second

    @pytest.mark.parametrize("seed", [None, [1, 2], np.random.SeedSequence(7)])
    def test_unmemoised_seeds_solve(self, seed):
        before = linalg._int_seed_coefficient.cache_info().currsize
        mu, report = solve_cubic(MomentSequence(3, np.array(random_request(4, 99)["beta"])), seed=seed)
        assert len(mu.atoms) == report.rank
        assert report.max_moment_residual <= 1e-8
        assert linalg._int_seed_coefficient.cache_info().currsize == before

    def test_negative_seed_raises_numpy_value_error(self):
        with pytest.raises(ValueError):
            solve_cubic(seq_from_a((0, 0, 0, 0)), seed=-1)

    def test_singular_rejected(self):
        values = np.array([1, 0, 0, 0, 0, 1, 0, 0, 0, 0], dtype=float)
        with pytest.raises(SingularM1Error) as info:
            solve_cubic(MomentSequence(3, values))
        assert info.value.minor == "d2"

    def test_accept_tolerance_enforced(self):
        beta = seq_from_a((0.3, -0.8, 0.4, 1.1))
        with pytest.raises(VerificationError):
            solve_cubic(beta, tolerances=Tolerances(accept=1e-18))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "a",
        [(6.1, -13.4, -3.9, -10.2), (19.1, -11.7, 9.0, 19.8), (-9.2, 12.4, -1.0, -18.6)],
    )
    def test_large_cubic_moments_keep_precision(self, a, seed):
        # k < 0 with |a| up to 20: the atoms must come out accurate enough to
        # reproduce the moments well inside the default acceptance bound
        _, report = solve_cubic(seq_from_a(a), seed=seed)
        assert report.case is CaseTag.RANK_INCREASING_K_NEG
        assert report.max_moment_residual <= 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("position, cubic", [(7, 1e140), (8, 1e140), (7, 1e160), (7, 1e200)])
    def test_overflowing_cubic_moments_raise(self, position, cubic):
        # k < 0 inputs whose relation coefficients, {1, X, Y, X^2} block or k
        # itself leave the float range end in a typed error, never a hang
        values = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        values[position] = cubic
        with pytest.raises(MomentProblemError):
            solve_cubic(MomentSequence(3, values))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_of_one_matrix_fails_joint_eigen(self):
        # beta_30 = 1e280 normalizes to a3 = 1e280 (k > 0): the My eigenvector
        # residual is NaN while the Mx one is finite, and the NaN-rejecting gate
        # must stop it in joint_eigen, not pass it on to extract_atoms
        with pytest.raises(MomentProblemError, match="joint eigenvector residual nan"):
            solve_cubic(MomentSequence(3, [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1e280, 0.0, 0.0, 0.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_atom_power_raises(self):
        # an atom near x = 1e104 overflows x^3 in the solve's degree-3 monomial table
        with pytest.raises(VerificationError):
            solve_cubic(seq_from_a((1e104, 0, 1, 0)))

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
        assert report.rank == report.variety_size == len(mu.atoms)
        assert (report.rank == 3) == (report.case is CaseTag.FLAT_K0)

    def test_variety_membership(self):
        for a in [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0.4, -0.9, 1.2, 0.5)]:
            beta = seq_from_a(a)
            mu, report = solve_cubic(beta)
            cert = report.certificate
            x, y = np.array([cert.map.apply(at.x, at.y) for at in mu.atoms]).T
            for rel in report.extension.relations:
                poly = rel.polynomial()
                values = monomial_table(x, y, rel.target.degree) @ poly
                assert np.abs(values).max() <= 1e-7
