"""The package's public surface and the records it hands back."""

import argparse
import dataclasses
import enum
import importlib.metadata
import inspect
import tomllib
from pathlib import Path

import numpy as np

import cubicmoment
from cubicmoment import MomentSequence, cli, extend, solve_cubic, verify_measure

from _util import same_bytes, seq_from_a

PUBLIC_NAMES = {
    "Atom",
    "AtomicMeasure",
    "CaseTag",
    "ExtensionResult",
    "MeasureCheck",
    "MomentProblemError",
    "MomentSequence",
    "NormalizationCertificate",
    "SingularM1Error",
    "SolveReport",
    "build_moment_matrix",
    "classify_k",
    "compute_k",
    "extend",
    "extract_atoms",
    "joint_eigen",
    "minors",
    "monomial_index",
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
    assert len(PUBLIC_NAMES) == 23


# each record's fields with the public properties and methods its class defines: an alias has to change this table
RECORD_ATTRIBUTES = {
    "Atom": {"x", "y", "weight"},
    "AtomicMeasure": {"atoms", "moments"},
    "ExtensionResult": {"basis", "case", "commutator_norm", "k", "m2", "m3", "moments", "pair"},
    "MeasureCheck": {"backward_error", "max_moment_residual", "min_weight", "residuals"},
    "MomentSequence": {"degree", "truncated", "values"},
    "NormalizationCertificate": {"d2", "d3", "map", "normalized"},
    "SolveReport": {"case", "certificate", "check", "extension"},
}


def test_record_attributes_are_pinned():
    attributes = {}
    for name in PUBLIC_NAMES:
        record = getattr(cubicmoment, name)
        if hasattr(record, "_fields"):  # a NamedTuple
            fields = record._fields
        elif dataclasses.is_dataclass(record):
            fields = [f.name for f in dataclasses.fields(record)]
        else:
            continue
        attributes[name] = {*fields, *(attribute for attribute in vars(record) if not attribute.startswith("_"))}
    assert attributes == RECORD_ATTRIBUTES


def _floor(requires_python: str) -> tuple[int, ...]:
    """The version a ">=X.Y" specifier starts at, as a tuple of ints."""
    assert requires_python.startswith(">="), requires_python
    return tuple(int(part) for part in requires_python[2:].split("."))


def test_python_floor_is_not_below_numpys():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    floor = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    assert _floor(floor) >= _floor(importlib.metadata.metadata("numpy")["Requires-Python"])


# every parameter with a default of a public callable: a new setting has to change this table
DEFAULTS = {
    "MomentProblemError": {"value": None, "bound": None},
    "SingularM1Error": {"value": None, "bound": None},
    "extend": {"tol_k": None},
    "solve_cubic": {"accept": 1e-08, "seed": None},
}

# each CLI subcommand's arguments (option strings, or the name of a positional) with their defaults
CLI_ARGUMENTS = {
    "solve": {"input": "-", "--emit-matrices": False, "--quiet": False},
    "verify": {"beta": None, "measure": None},
    "random": {"--atoms": 4, "--seed": 0},
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
    assert report != again and report.extension != extend(report.certificate.normalized.values[6:])
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


def test_report_holds_its_stages_records():
    beta = seq_from_a((0.3, -0.8, 0.4, 1.1))
    mu, report = solve_cubic(beta)
    # the check is the solve's own verify_measure of the measure it returns, and case is the extension's
    assert same_bytes(report.check.residuals, verify_measure(mu, beta).residuals)
    assert report.case is report.extension.case
