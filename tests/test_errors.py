"""The one shape of a solver error, one row per gate of the five stages, and faults no intermediate gate checks."""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from cubicmoment import (
    Atom,
    AtomicMeasure,
    CaseTag,
    MomentProblemError,
    MomentSequence,
    SingularM1Error,
    extract_atoms,
    joint_eigen,
    normalize_cubic,
    solve_cubic,
)
from cubicmoment import cubic, errors, linalg, measure
from cubicmoment.cubic import BASIS_K0

from _util import failed_eig, fields, seq_from_a, solve_on_repeated_atoms

ERRORS = [
    SingularM1Error("normalize", "d2", 0.0, 1e-10),
    MomentProblemError("joint spectrum", "eigenvector residual", 1e-3, 1e-7),
    MomentProblemError("joint spectrum", "max |Im lambda|", 1e-12, 0.0),
    MomentProblemError("densities", "V_B"),
    MomentProblemError("verify", "backward error", math.inf, 1e-8),
    MomentProblemError("extend", "k", -math.inf),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda error: f"{type(error).__name__}-{error.quantity}")
def test_error_survives_pickle_and_copy(error):
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is type(error) and fields(twin) == fields(error)
        assert str(twin) == str(error)


def test_message_names_the_fields_it_has():
    assert str(ERRORS[0]) == "normalize failed: d2 = 0 (bound 1e-10)"
    assert str(ERRORS[3]) == "densities failed: V_B"
    assert str(ERRORS[5]) == "extend failed: k = -inf"


def test_accept_defaults_to_the_table():
    assert inspect.signature(solve_cubic).parameters["accept"].default == errors.TOL_ACCEPT


def _solve(values, accept=errors.TOL_ACCEPT):
    return lambda monkeypatch: solve_cubic(MomentSequence(3, np.array(values, dtype=float)), accept)


def _solve_a(a, accept=errors.TOL_ACCEPT):
    return lambda monkeypatch: solve_cubic(seq_from_a(a), accept)


def _defect(monkeypatch):
    # the normalized beta_00 off by 1e-6, a defect of the normalized M(1): the densities sum to it
    def off(beta):
        certificate = normalize_cubic(beta)
        values = certificate.normalized.values.copy()
        values[0] += 1e-6
        return dataclasses.replace(certificate, normalized=MomentSequence(3, values))

    monkeypatch.setattr(measure, "normalize_cubic", off)
    # M(1) is not I, so the factors run
    solve_cubic(AtomicMeasure((Atom(0.3, 0.1, 0.3), Atom(-0.7, 0.4, 0.5), Atom(0.2, -0.9, 0.2))).moments(3))


def _non_finite_entry(monkeypatch):
    x, y = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
    mx, my = (x, (1.0, math.nan, 0.0), (0.0, 0.0, 0.0)), (y, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    cubic._extension(CaseTag.FLAT_K0, 0.0, (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 1.0), BASIS_K0, mx, my)


def _failing_eig(monkeypatch):
    monkeypatch.setattr(linalg, "lapack_eig", failed_eig)  # NaN, as LAPACK returns it when eig fails
    solve_cubic(seq_from_a((0.4, -0.9, 1.2, 0.5)))


def _singular_basis(monkeypatch):
    monkeypatch.setattr(linalg, "lapack_eig", lambda a: (np.ones(len(a)), np.ones(a.shape)))
    solve_cubic(seq_from_a((0.4, -0.9, 1.2, 0.5)))


def _repeated_atoms(monkeypatch):
    # the second atom 5e-9 from the first: V_B is near singular
    def close(ext):
        pairs = extract_atoms(ext)
        pairs[1] = (pairs[0][0], pairs[0][1] + 5e-9)
        return pairs

    monkeypatch.setattr(measure, "extract_atoms", close)
    solve_cubic(seq_from_a((0, 0, 0, 0)))


def _off_the_variety(monkeypatch):
    def shifted(ext):
        (x, y), *rest = extract_atoms(ext)
        return [(x + 1e-3, y), *rest]

    monkeypatch.setattr(measure, "extract_atoms", shifted)
    solve_cubic(seq_from_a((0, 0, 0, 0)))


def _negative_weight(monkeypatch):
    # a pullback that flips a weight's sign: the backward error alone would take a tiny weight's flip
    pullback_measure = measure.pullback_measure

    def flipped(atoms, psi):
        first, *rest = pullback_measure(atoms, psi)
        return [first._replace(weight=-first.weight), *rest]

    monkeypatch.setattr(measure, "pullback_measure", flipped)
    solve_cubic(seq_from_a((0, 0, 0, 0)))


# four atoms near the line y = 483107.29: d3 = 5.9e4 lies below 64 u t3 = 6.4e6, and the pushed-forward M(1)
# of a factor that took it would round to an indefinite matrix
NEAR_LINE = AtomicMeasure(
    (
        Atom(-44501.38264829572, 483107.2875033109, 0.6925377303771841),
        Atom(41806.91316264958, 483107.2875032406, 0.47100608652878617),
        Atom(-30916.76938839168, 483107.2875029994, 0.6381984433326882),
        Atom(52756.54738342965, 483107.2875036431, 0.8273509685217525),
    )
)


def gate(name, trip, stage, quantity, kind=MomentProblemError):
    """One gate: what trips it, and the type and fields of the error it raises; only out of scope is a subclass."""
    return pytest.param(trip, kind, stage, quantity, id=name)


GATES = [
    # normalize
    gate("finite moments", _solve([1, 0, 0, 1, 0, 1, math.nan, 0, 0, 0]), "normalize", "beta_30"),
    gate("rescale", _solve([1e-300, 0, 0, 1e-300, 0, 1e-300, 1e10, 0, 0, 0]), "normalize", "1 / beta_00"),
    gate("d2", _solve([1, 0, 0, 0, 0, 1, 0, 0, 0, 0]), "normalize", "d2", SingularM1Error),
    gate("d3", _solve([1, 0, 0, 1, 1, 1, 0, 0, 0, 0]), "normalize", "d3", SingularM1Error),
    gate("pivot overflow", _solve([1, 0, 0, 1e300, 0, 1e300, 0, 0, 0, 0]), "normalize", "d3"),
    # finite moments whose whitened cubics overflow to a NaN refined d2
    gate("refined pivots", _solve([1, 0.9, 0, 1, 0, 1, 1.7e308, 0, 0, 0]), "normalize", "refined d2"),
    # extend
    gate("k", _solve([1, 0, 0, 1, 0, 1, 0, 1e200, 0, 0]), "extend", "k"),
    gate("finite quartics", _solve([1, 0, 0, 1, 0, 1, 1e200, 0, 0, 0]), "extend", "beta_04"),
    gate("Mx, My entries", _non_finite_entry, "extend", "max |Mx, My|"),
    # joint spectrum
    gate("eig", _failing_eig, "joint spectrum", "eig"),
    gate(
        "complex lambda",
        lambda monkeypatch: joint_eigen(np.array(([[0.0, -1.0], [1.0, 0.0]], np.eye(2)))),
        "joint spectrum",
        "max |Im lambda|",
    ),
    gate("eigenvector basis", _singular_basis, "joint spectrum", "eigenvector basis"),
    gate("eigenvector residual", _solve_a((1e20, 0, 0, 0)), "joint spectrum", "eigenvector residual"),
    # densities
    gate("Vandermonde solve", solve_on_repeated_atoms, "densities", "V_B"),
    gate("density floor", _solve_a((1e104, 0, 1, 0)), "densities", "min density"),
    # verify
    gate("returned weight", _negative_weight, "verify", "min weight"),
    gate("backward error", _solve_a((0.3, -0.8, 0.4, 1.1), accept=1e-18), "verify", "backward error"),
]

# faults that no intermediate gate checks (a defect of the normalized M(1), a pair that does not commute, two
# atoms 5e-9 apart, an atom off the variety) fail the answer's checks: a density that is not positive or a
# backward error above accept; and four atoms near a line are out of scope at the rounding-relative d3 bound
OTHER_INPUTS = [
    gate("refined pivots near a line", _solve(NEAR_LINE.moments(3).values), "normalize", "d3", SingularM1Error),
    gate("M(1) - I", _defect, "verify", "backward error"),
    # the atoms' powers overflow: the commutator norm is NaN, and so is the backward error
    gate("commutator", _solve([1, 0, 0, 1, 0, 1, 0, 1e140, 0, 0]), "verify", "backward error"),
    gate("atom gap", _repeated_atoms, "densities", "min density"),
    gate("variety residual", _off_the_variety, "verify", "backward error"),
]


@pytest.mark.parametrize("trip, kind, stage, quantity", GATES + OTHER_INPUTS)
def test_each_gate_raises_its_stage_error(monkeypatch, trip, kind, stage, quantity):
    with pytest.raises(MomentProblemError) as info:
        trip(monkeypatch)
    assert type(info.value) is kind
    assert fields(info.value)[:2] == (stage, quantity)


def test_the_fields_name_one_gate():
    # a new gate chooses fields that tell it apart; the class tells only the out-of-scope pivots apart
    names = {row.values[1:] for row in GATES}
    assert len(names) == len(GATES) == 17
    classes = {value for value in vars(errors).values() if isinstance(value, type)}
    assert classes == {MomentProblemError, SingularM1Error}
