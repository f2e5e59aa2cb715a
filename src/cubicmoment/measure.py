"""Atomic-measure recovery from an extension certificate, and the solver.

The pipeline: normalize the input so M(1) = I, extend to a quartic moment
matrix, form the multiplication-by-x and -by-y matrices on the column-space
basis, take their joint spectrum as the atoms, solve the basis-restricted
Vandermonde system for the densities, pull the measure back through the
normalizing map, and verify the result against the original moments. The
solver never returns an unverified measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubic import TOL_K, CaseTag, ColumnRelation, ExtensionResult, extend, multiplication_matrices
from .errors import SingularVandermondeError, VerificationError
from .linalg import TOL_PSD, commutator_norm, joint_eigen, numeric_rank
from .moments import Atom, AtomicMeasure, MomentSequence, monomial_index, monomial_table
from .normalize import NormalizationCertificate, normalize_cubic, pullback_measure

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "SolveReport",
    "MeasureCheck",
    "multiplication_matrices",
    "extract_atoms",
    "solve_densities",
    "verify_measure",
    "solve_cubic",
    "AtomicMeasure",
    "Atom",
]

MIN_ATOM_SEPARATION = 1e-8
MAX_VARIETY_RESIDUAL = 1e-7  # largest |relation polynomial| accepted at a normalized atom


@dataclass(frozen=True)
class Tolerances:
    """Pipeline-level tolerances (the subset exposed on the command line).

    psd also serves as the numerical-rank threshold; weight is the smallest
    density accepted before the solve is declared faulty.
    """

    psd: float = TOL_PSD
    k: float = TOL_K
    accept: float = 1e-8
    weight: float = 1e-10


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SolveReport:
    """Verified diagnostics attached to every successful solve.

    rank equals variety_size here: flat extensions realize the extremal
    case of the variety condition rank <= #atoms <= #variety.
    """

    case: CaseTag
    k: float
    rank: int
    variety_size: int
    max_moment_residual: float
    min_weight: float
    certificate: NormalizationCertificate
    extension: ExtensionResult

    @property
    def commutator_norm(self) -> float:
        """Largest entry of Mx My - My Mx, the quantity joint_eigen bounds."""
        return commutator_norm(self.extension.mx, self.extension.my)


@dataclass(frozen=True)
class MeasureCheck:
    """Residual report from re-integrating a candidate measure.

    residuals holds |sum rho x^i y^j - beta_ij| per monomial in degree-lex
    order; variety_residual is the largest |relation polynomial| over the
    atoms (0 when no relations are supplied).
    """

    max_moment_residual: float
    residuals: np.ndarray
    min_weight: float
    variety_residual: float


def extract_atoms(
    ext: ExtensionResult, rng: np.random.Generator | None = None
) -> list[tuple[float, float]]:
    """Atoms of the representing measure: the joint spectrum of (Mx, My).

    Returns the pairs sorted by (x, y). Flat extensions have distinct
    atoms, so two atoms closer than MIN_ATOM_SEPARATION in the max norm
    signal an upstream failure and raise SingularVandermondeError.
    """
    pairs = sorted(joint_eigen(ext.mx, ext.my, rng=rng))
    points = np.array(pairs)
    gaps = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
    if not gaps[np.triu_indices(len(pairs), 1)].min(initial=np.inf) >= MIN_ATOM_SEPARATION:
        raise SingularVandermondeError(
            f"atoms closer than {MIN_ATOM_SEPARATION:g}: the joint spectrum is repeated"
        )
    return pairs


def solve_densities(atoms, basis, beta: MomentSequence) -> np.ndarray:
    """Densities from the basis-restricted Vandermonde system.

    Solves V_B^T rho = (Lambda(t_1), ..., Lambda(t_r))^T, where row k of
    V_B evaluates the basis monomials at atom k.
    """
    x, y = np.array(atoms, dtype=float).reshape(-1, 2).T
    columns = [monomial_index(b) for b in basis]
    if len(x) != len(columns):
        raise ValueError("need exactly as many atoms as basis monomials")
    vb = monomial_table(x, y, max(map(sum, basis), default=0))[:, columns]
    rhs = beta.values[columns]
    try:
        rho = np.linalg.solve(vb.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularVandermondeError(
            "coincident atoms made the Vandermonde system singular"
        ) from exc
    return rho


def verify_measure(
    mu: AtomicMeasure,
    beta: MomentSequence,
    relations: tuple[ColumnRelation, ...] = (),
) -> MeasureCheck:
    """Re-integrate every monomial of the sequence against the measure."""
    residuals = np.abs(mu.integrals(beta.degree) - beta.values)
    return MeasureCheck(
        max_moment_residual=float(residuals.max(initial=0.0)),
        residuals=residuals,
        min_weight=min((a.weight for a in mu.atoms), default=0.0),
        variety_residual=_variety_residual(
            relations, [a.x for a in mu.atoms], [a.y for a in mu.atoms]
        ),
    )


def _variety_residual(relations, x, y) -> float:
    """Largest |relation polynomial| over the points (x_k, y_k); a NaN propagates."""
    if not relations:
        return 0.0
    table = monomial_table(x, y, max(rel.target.degree for rel in relations))
    polys = [rel.polynomial() for rel in relations]
    return float(np.max([np.abs(table[:, : p.size] @ p) for p in polys], initial=0.0))


def solve_cubic(
    beta: MomentSequence,
    seed: int | None = 0,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[AtomicMeasure, SolveReport]:
    """Recover a 3- or 4-atomic representing measure for a degree-3 sequence.

    Returns the measure in the original coordinates together with a report
    whose verification fields are always populated. Raises SingularM1Error
    for inputs whose M(1) is not safely positive definite, and
    VerificationError if the recovered measure misses the moments by more
    than tolerances.accept or produces a density below tolerances.weight.
    """
    mass = beta[0, 0]
    certificate = normalize_cubic(beta)
    ext = extend(certificate.a_vec, tol_k=tolerances.k)
    atoms = extract_atoms(ext, rng=np.random.default_rng(seed))
    rho = solve_densities(atoms, ext.basis, certificate.normalized)
    smallest = float(rho.min())
    if not smallest >= tolerances.weight:
        # near-degenerate k < 0 sends one atom to infinity with density ~ k^4,
        # which is positive in exact arithmetic but numerically meaningless
        hint = (
            f" (k = {ext.k:.3e} is near-degenerate; the rank-4 construction "
            "carries a vanishing density there)"
            if abs(ext.k) < 1e-2
            else ""
        )
        raise VerificationError(
            f"density {smallest:.3e} below {tolerances.weight:g}{hint}"
        )
    variety_residual = _variety_residual(ext.relations, *zip(*atoms))
    if not variety_residual <= MAX_VARIETY_RESIDUAL:
        raise VerificationError(f"an atom violates a column relation by {variety_residual:.3e}")
    mu_normalized = AtomicMeasure(
        tuple(Atom(x, y, float(w)) for (x, y), w in zip(atoms, rho))
    )
    pulled = pullback_measure(mu_normalized, certificate.map)
    mu = AtomicMeasure(
        tuple(sorted(Atom(a.x, a.y, a.weight * mass) for a in pulled.atoms))
    )
    check = verify_measure(mu, beta)
    if not check.max_moment_residual <= tolerances.accept:
        raise VerificationError(
            f"recovered measure misses the moments by "
            f"{check.max_moment_residual:.3e} (tolerance {tolerances.accept:g})"
        )
    report = SolveReport(
        case=ext.case,
        k=ext.k,
        rank=numeric_rank(ext.m2.entries, tolerances.psd),
        variety_size=len(atoms),
        max_moment_residual=check.max_moment_residual,
        min_weight=check.min_weight,
        certificate=certificate,
        extension=ext,
    )
    return mu, report
