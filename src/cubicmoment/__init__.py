"""Solver for the nonsingular bivariate cubic truncated moment problem.

Given the ten real moments beta_ij (i + j <= 3) with a positive definite
quadratic moment matrix, this package constructs a quartic moment-matrix
extension, recovers a 3- or 4-atomic representing measure, and emits a
verifiable certificate: the extension matrices, the column relations that
cut out the support, and the moment residuals of the recovered measure.
"""

from .cubic import (
    CaseTag,
    ColumnRelation,
    ExtensionResult,
    beta04_formula,
    build_m3_kneg,
    classify_k,
    compute_k,
    extend,
    extend_k0,
    extend_kneg,
    extend_kpos,
    sos_certificate_check,
    x3_relation,
)
from .errors import (
    CommutatorError,
    ComplexAtomError,
    InconsistentRelationsError,
    MissingRelationError,
    MomentProblemError,
    RangeError,
    SingularM1Error,
    SingularVandermondeError,
    VerificationError,
)
from .linalg import (
    SmuljanResult,
    flat_completion,
    joint_eigen,
    numeric_rank,
    psd_min_eig,
    range_solve,
    smuljan_classify,
)
from .measure import (
    DEFAULT_TOLERANCES,
    MeasureCheck,
    SolveReport,
    Tolerances,
    extract_atoms,
    multiplication_matrices,
    solve_cubic,
    solve_densities,
    verify_measure,
)
from .moments import (
    Atom,
    AtomicMeasure,
    MomentMatrix,
    MomentSequence,
    Monomial,
    build_moment_matrix,
    column_of,
    monomial_index,
    monomial_table,
    monomials_up_to,
    riesz,
)
from .normalize import (
    AffineMap,
    NormalizationCertificate,
    build_J,
    degree_one_coeffs,
    minors,
    normalize_cubic,
    pullback_measure,
    transform_sequence,
)

__version__ = "0.1.0"
