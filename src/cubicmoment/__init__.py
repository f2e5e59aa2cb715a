"""Solver for the nonsingular bivariate cubic truncated moment problem.

Given the ten real moments beta_ij (i + j <= 3) with a positive definite
quadratic moment matrix, this package constructs a quartic moment-matrix
extension, recovers a 3- or 4-atomic representing measure, and emits a
verifiable certificate: the extension matrices, the column relations that
cut out the support, and the moment residuals of the recovered measure.

The package is the solver, its command line and the paper's closed forms.
The independent oracles the tests check it against (the Smul'jan block
tests, the fixed-point reducer for Mx and My, the Riesz functional) live
in tests/_oracle.py.
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
    MomentProblemError,
    SingularM1Error,
    SingularVandermondeError,
    VerificationError,
)
from .linalg import joint_eigen
from .measure import (
    DEFAULT_TOLERANCES,
    MeasureCheck,
    SolveReport,
    Tolerances,
    extract_atoms,
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
    monomial_index,
    monomial_table,
    monomials_up_to,
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
