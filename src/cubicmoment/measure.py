"""Atomic-measure recovery from an extension certificate, and the solver.

The pipeline: normalize the input so M(1) = I, extend to a quartic moment
matrix, form the multiplication-by-x and -by-y matrices on the column-space
basis, take their joint spectrum as the atoms, solve the basis-restricted
Vandermonde system V_B for the densities, check on V_B that the atoms meet
the column relations in Mx, My, pull the measure back through the
normalizing map, and verify it against the original moments. The solver
never returns an unverified measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cubic import CaseTag, ExtensionResult, extend
from .errors import MAX_VARIETY_RESIDUAL, MIN_ATOM_SEPARATION, MIN_WEIGHT, TOL_ACCEPT, MomentProblemError
from .linalg import ERROR_STATE, QUIET_STATE, commutator_norm, joint_eigen, lapack_solve, largest
from .moments import (
    AtomicMeasure,
    MomentSequence,
    frozen_record,
    integrals_of,
    monomial_columns,
    monomials_at,
)
from .normalize import NormalizationCertificate, normalize_cubic, pullback_measure


@dataclass(frozen=True, eq=False)
class MeasureCheck:
    """Residual report from re-integrating a candidate measure.

    residuals is the read-only array of |sum rho x^i y^j - beta_ij| per
    monomial in degree-lex order. Equality is identity.
    """

    max_moment_residual: float
    residuals: np.ndarray
    min_weight: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """The records of a successful solve's stages, each value stated once; check is verify_measure(mu, beta).

    joint_eigen returns one atom per basis column, so the measure has
    exactly len(extension.basis) atoms: 3 for case k_zero, else 4. Equality is identity.
    """

    case: CaseTag  # extension.case, kept as a field: callers such as the benchmark runner read report.case
    certificate: NormalizationCertificate
    extension: ExtensionResult
    check: MeasureCheck

    @property
    def commutator_norm(self) -> float:
        """Largest entry of Mx My - My Mx, the quantity joint_eigen bounds."""
        return commutator_norm(self.extension.pair)


def extract_atoms(ext: ExtensionResult) -> list[tuple[float, float]]:
    """Atoms of the representing measure: the joint spectrum of (Mx, My).

    Returns the pairs sorted by (x, y). Flat extensions have distinct
    atoms, so two atoms closer than MIN_ATOM_SEPARATION in the max norm
    signal an upstream failure and raise MomentProblemError naming the
    atom gap, as does a NaN gap.
    """
    pairs = sorted(joint_eigen(ext.pair))
    for (x, y), (u, v) in combinations(pairs, 2):
        dx, dy = abs(x - u), abs(y - v)
        if math.isnan(dx + dy) or not (dx >= MIN_ATOM_SEPARATION or dy >= MIN_ATOM_SEPARATION):
            raise MomentProblemError("joint spectrum", "atom gap", largest([dx, dy]), MIN_ATOM_SEPARATION)
    return pairs


def _densities(vb, basis, beta: MomentSequence) -> np.ndarray:
    """Densities from V_B: solves V_B^T rho = (Lambda(t_1), ..., Lambda(t_r))^T; all NaN for a singular V_B."""
    return lapack_solve(vb.T, beta.values[monomial_columns(tuple(basis))])


def verify_measure(mu: AtomicMeasure, beta: MomentSequence) -> MeasureCheck:
    """Re-integrate every monomial of the sequence against the measure; a NaN weight makes min_weight NaN."""
    integrals = integrals_of(mu.atoms, beta.degree)
    residuals = [abs(t - b) for t, b in zip(integrals, beta.values.tolist())]
    array = np.array(residuals)
    array.setflags(write=False)
    weights = [a.weight for a in mu.atoms]
    return frozen_record(
        MeasureCheck,
        max_moment_residual=largest(residuals),
        residuals=array,
        min_weight=min(weights, default=0.0) if all(w == w for w in weights) else math.nan,
    )


def _variety_residual(ext: ExtensionResult, vb) -> float:
    """Largest |V_B M - diag(t) V_B| over M in (Mx, My), t = x or y (basis columns 1, 2).

    Row k of V_B is a left eigenvector of Mx and My with eigenvalues x_k, y_k
    exactly when atom k meets every relation they encode (Moller and Stetter
    1995). An empty V_B gives 0, and a NaN propagates.
    """
    gap = vb @ ext.pair - vb.T[1:3, :, None] * vb
    return float(np.abs(gap).max(initial=0.0))


def solve_cubic(beta: MomentSequence, accept: float = TOL_ACCEPT, *, seed=None) -> tuple[AtomicMeasure, SolveReport]:
    """Recover a 3- or 4-atomic representing measure for a degree-3 sequence.

    Returns the measure in the original coordinates together with a report
    whose verification fields are always populated; accept bounds its
    largest moment residual. seed is accepted and ignored, so callers
    written for the seeded solve keep working: the joint spectrum uses
    fixed combinations. A failed gate raises its stage's MomentProblemError
    (errors.py), SingularM1Error for an M(1) that is not safely positive
    definite, and never a numpy warning (linalg.QUIET_STATE).

    Near k = 0 a rank-4 route's smallest density is of order |k|, so one
    that fails the floor may be a tie at k = 0 in floating point: the
    stages after extend run once more on the flat rank-3 route, and when
    that attempt fails too the rank-4 error is raised. A NaN or negative
    accept raises ValueError; 0 and inf are valid.
    """
    if not accept >= 0.0:
        raise ValueError(f"accept must be a non-negative number, got {accept!r}")
    token = ERROR_STATE.set(QUIET_STATE)
    try:
        certificate = normalize_cubic(beta)
        a = certificate.normalized.values[6:].tolist()  # the cubic moments beta~_30, ..., beta~_03
        ext = extend(a)
        try:
            return _recover(beta, certificate, ext, accept)
        except MomentProblemError as first:
            if ext.case is CaseTag.FLAT_K0 or first.quantity != "min density":
                raise
            try:
                return _recover(beta, certificate, extend(a, tol_k=abs(ext.k)), accept)
            except MomentProblemError:
                raise first from None
    finally:
        ERROR_STATE.reset(token)


def _recover(beta, certificate, ext, accept) -> tuple[AtomicMeasure, SolveReport]:
    """The stages after extend: atoms, densities, pullback and verification of one extension."""
    atoms = extract_atoms(ext)
    vb = monomials_at(*zip(*atoms), [1.0] * len(atoms), ext.basis)  # V_B: row k is the basis at atom k
    rho = _densities(vb, ext.basis, certificate.normalized).tolist()
    if not all(r >= MIN_WEIGHT for r in rho):  # also rejects a NaN density
        if all(r != r for r in rho):  # a failed solve is all NaN: V_B is singular
            raise MomentProblemError("densities", "V_B")
        raise MomentProblemError("densities", "min density", float(np.min(rho)), MIN_WEIGHT)
    variety_residual = _variety_residual(ext, vb)
    if not variety_residual <= MAX_VARIETY_RESIDUAL:
        raise MomentProblemError("densities", "variety residual", variety_residual, MAX_VARIETY_RESIDUAL)
    mass = float(beta.values[0])
    # the mass multiplies the weights before the pullback, which leaves them as they are
    weighted = [(x, y, r * mass) for (x, y), r in zip(atoms, rho)]
    # the pulled-back atoms are Atoms, sorted once, so the record has nothing left to convert
    mu = frozen_record(AtomicMeasure, atoms=tuple(sorted(pullback_measure(weighted, certificate.map))))
    check = verify_measure(mu, beta)
    if not check.max_moment_residual <= accept:
        raise MomentProblemError("verify", "max moment residual", check.max_moment_residual, accept)
    return mu, frozen_record(SolveReport, case=ext.case, certificate=certificate, extension=ext, check=check)
