"""The package's public surface and the records it hands back."""

import inspect

import numpy as np

import cubicmoment
from cubicmoment import MomentSequence, extend, solve_cubic, verify_measure

from _util import seq_from_a

PUBLIC_NAMES = {
    "Atom",
    "AtomicMeasure",
    "CaseTag",
    "CommutatorError",
    "ComplexAtomError",
    "ExtensionResult",
    "MeasureCheck",
    "MomentProblemError",
    "MomentSequence",
    "Monomial",
    "NormalizationCertificate",
    "SingularM1Error",
    "SingularVandermondeError",
    "SolveReport",
    "VerificationError",
    "build_moment_matrix",
    "classify_k",
    "compute_k",
    "extend",
    "extract_atoms",
    "joint_eigen",
    "minors",
    "monomial_index",
    "monomial_table",
    "monomials_up_to",
    "normalize_cubic",
    "pullback_measure",
    "solve_cubic",
    "verify_measure",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(cubicmoment).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 29


def test_array_holding_records_compare_by_identity_and_hash():
    values = seq_from_a((0.3, -0.8, 0.4, 1.1)).values
    first, second = MomentSequence(3, values), MomentSequence(3, values)
    assert np.array_equal(first.values, second.values)
    assert first == first and not first == second  # equal values, no ValueError
    mu, report = solve_cubic(first)
    again = solve_cubic(first)[1]
    assert report != again and report.extension != extend(report.certificate.a_vec)
    records = {
        first,
        second,
        report.certificate,
        report.extension,
        report,
        verify_measure(mu, first),
        verify_measure(mu, first),
    }
    assert len(records) == 7
