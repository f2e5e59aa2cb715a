"""Solver for the nonsingular bivariate cubic truncated moment problem.

Given the ten real moments beta_ij (i + j <= 3) with a positive definite
quadratic moment matrix, this package constructs a quartic moment-matrix
extension, recovers a 3- or 4-atomic representing measure, and emits a
verifiable certificate: the extension matrices, the multiplication
matrices Mx, My (whose columns are the relations that cut out the support)
and the moment residuals of the recovered measure.

The package is the solver, its command line and the closed forms they
use. The independent oracles the tests check it against (the Smul'jan
block tests, the fixed-point reducer for Mx and My and the relations it
reads, the Riesz functional, the paper's normalizing map, and the paper's
k < 0 construction with the bump t = 1 and its beta_04 certificate) live in
tests/_oracle.py.
"""

from .cubic import (
    CaseTag,
    ExtensionResult,
    classify_k,
    compute_k,
    extend,
)
from .errors import MomentProblemError, SingularM1Error
from .linalg import joint_eigen
from .measure import (
    MeasureCheck,
    SolveReport,
    extract_atoms,
    solve_cubic,
    verify_measure,
)
from .moments import (
    Atom,
    AtomicMeasure,
    MomentSequence,
    build_moment_matrix,
    monomial_index,
    monomials_up_to,
)
from .normalize import (
    NormalizationCertificate,
    minors,
    normalize_cubic,
    pullback_measure,
)

__version__ = "0.1.0"
