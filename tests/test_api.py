"""The package's public surface and the records it hands back."""

import argparse
import enum
import inspect

import numpy as np

import cubicmoment
from cubicmoment import MomentSequence, cli, extend, solve_cubic, verify_measure

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


# every parameter with a default of a public callable: a new setting has to change this table
DEFAULTS = {
    "CommutatorError": {"value": None, "bound": None},
    "ComplexAtomError": {"value": None, "bound": None},
    "MomentProblemError": {"value": None, "bound": None},
    "SingularM1Error": {"value": None, "bound": None},
    "SingularVandermondeError": {"value": None, "bound": None},
    "VerificationError": {"value": None, "bound": None},
    "classify_k": {"tol_k": 1e-10},
    "extend": {"tol_k": 1e-10},
    "monomial_table": {"weights": None},
    "solve_cubic": {"accept": 1e-08, "seed": None},
}

# each CLI subcommand's arguments (option strings, or the name of a positional) with their defaults
CLI_ARGUMENTS = {
    "solve": {"input": "-", "--emit-matrices": False, "--quiet": False},
    "verify": {"beta": None, "measure": None},
    "random": {"--atoms": 4, "--seed": 0},
    "info": {"input": "-"},
}


def test_settable_values_are_pinned():
    defaults = {}
    for name in PUBLIC_NAMES:
        value = getattr(cubicmoment, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, enum.Enum):  # Enum's own call
            continue
        params = inspect.signature(value).parameters.values()
        pinned = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
        if pinned:
            defaults[name] = pinned
    assert defaults == DEFAULTS


def test_cli_flags_are_pinned():
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    arguments = {
        command: {
            "/".join(a.option_strings) or a.dest: a.default
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for command, parser in commands.choices.items()
    }
    assert arguments == CLI_ARGUMENTS


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
