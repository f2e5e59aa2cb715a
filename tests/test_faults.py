"""Fault injection: a solve whose stage output is corrupted raises or returns a measure the benchmark's oracle accepts.

The solver judges a measure by its positive densities and its backward error
alone, with no gate between the stages that could catch a wrong intermediate
value. So each stage's output is corrupted here, one fault at a time, and the
solve must still never return an unverified measure: it raises a
MomentProblemError, or the independent oracle of perfbench/oracle.py (3 or 4
atoms, finite positive weights, componentwise backward error at most 1e-6)
accepts what it returns. This is mutation testing (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from cubicmoment import Atom, MomentProblemError, MomentSequence, measure, solve_cubic

from gitexport import ROOT

sys.path.insert(0, str(ROOT / "perfbench"))  # the benchmark's own modules, imported as it imports them, unchanged

import workloads  # noqa: E402
from oracle import check_measure  # noqa: E402

SLICE = 30  # inputs per workload pool
SEED = 11


def _swap(v: list, i: int) -> None:
    j = (i + 1) % len(v)
    v[i], v[j] = v[j], v[i]


# each fault changes entry i of a stage output's flat list of floats in place
FAULTS = {
    "one ulp": lambda v, i: v.__setitem__(i, math.nextafter(v[i], math.inf)),
    "relative 1e-8": lambda v, i: v.__setitem__(i, v[i] * (1.0 + 1e-8)),
    "relative 1e-4": lambda v, i: v.__setitem__(i, v[i] * (1.0 + 1e-4)),
    "swap": _swap,
    "nan": lambda v, i: v.__setitem__(i, math.nan),
    "inf": lambda v, i: v.__setitem__(i, math.inf),
    "sign": lambda v, i: v.__setitem__(i, -v[i]),
}


def _faulty(values, fault: str, i: int) -> list[float]:
    """The floats of values with the fault applied at entry i (modulo their count)."""
    flat = [float(v) for v in values]
    FAULTS[fault](flat, i % len(flat))
    return flat


def _normalized(fault, i):
    """normalize_cubic whose normalized cubic moments, values[6:], carry the fault."""
    normalize_cubic = measure.normalize_cubic

    def patched(beta):
        certificate = normalize_cubic(beta)
        values = certificate.normalized.values
        cubic = _faulty(values[6:], fault, i)
        return dataclasses.replace(certificate, normalized=MomentSequence(3, [*values[:6].tolist(), *cubic]))

    return "normalize_cubic", patched


def _pair(fault, i):
    """extend whose stack (Mx, My) carries the fault in one entry."""
    extend = measure.extend

    def patched(a, tol_k=None):
        ext = extend(a, tol_k)
        pair = np.array(_faulty(ext.pair.ravel(), fault, i)).reshape(ext.pair.shape)
        return dataclasses.replace(ext, pair=pair)

    return "extend", patched


def _atoms(fault, i):
    """extract_atoms whose atoms (x, y) carry the fault; a swap exchanges two coordinates."""
    extract_atoms = measure.extract_atoms

    def patched(ext):
        pairs = extract_atoms(ext)
        flat = _faulty([c for pair in pairs for c in pair], fault, i)
        return list(zip(flat[::2], flat[1::2]))

    return "extract_atoms", patched


def _densities(fault, i):
    """The density solve whose densities carry the fault; sign flips a weight, swap exchanges two weights."""
    densities = measure._densities

    def patched(vb, basis, beta):
        return np.array(_faulty(densities(vb, basis, beta), fault, i))

    return "_densities", patched


def _pulled_back(fault, i):
    """pullback_measure whose atoms carry the fault: sign flips a weight, and swap moves two atoms' points."""
    pullback_measure = measure.pullback_measure

    def patched(atoms, psi):
        pulled = pullback_measure(atoms, psi)
        if fault in ("sign", "swap"):
            k = i % len(pulled)
            if fault == "sign":
                pulled[k] = pulled[k]._replace(weight=-pulled[k].weight)
            else:
                other = (k + 1) % len(pulled)
                (x, y, w), (u, v, z) = pulled[k], pulled[other]
                pulled[k], pulled[other] = Atom(u, v, w), Atom(x, y, z)
            return pulled
        flat = _faulty([c for atom in pulled for c in atom], fault, i)
        return [Atom(*flat[n : n + 3]) for n in range(0, len(flat), 3)]

    return "pullback_measure", patched


PATCH_POINTS = {
    "normalized cubics": _normalized,
    "pair": _pair,
    "atoms": _atoms,
    "densities": _densities,
    "pulled-back atoms": _pulled_back,
}


def _pool_slices():
    return [(name, beta) for name in workloads.GENERATORS for beta in workloads.generate(name, SEED, SLICE)]


@pytest.fixture(scope="module")
def pool():
    return _pool_slices()


@pytest.mark.parametrize("point", PATCH_POINTS)
def test_a_corrupted_stage_never_returns_an_unverified_measure(monkeypatch, pool, point):
    rng = np.random.default_rng(7)  # which entry each fault hits
    outcomes = {"raised": 0, "accepted": 0}
    for fault in FAULTS:
        for name, beta in pool:
            attribute, patched = PATCH_POINTS[point](fault, int(rng.integers(0, 64)))
            with monkeypatch.context() as patch:
                patch.setattr(measure, attribute, patched)
                try:
                    mu, _ = solve_cubic(MomentSequence(3, beta))
                except MomentProblemError:
                    outcomes["raised"] += 1
                    continue
            verdict = check_measure(beta, list(mu.atoms))
            assert verdict.ok, (point, fault, name, beta.tolist(), verdict.reason)
            outcomes["accepted"] += 1
    # both outcomes occur: one ulp is harmless, and a NaN never passes
    assert outcomes["raised"] > 0 and outcomes["accepted"] > 0, outcomes


def test_the_pools_solve_unpatched(pool):
    # the faults above start from inputs every one of which solves to an oracle-valid measure
    for name, beta in pool:
        mu, _ = solve_cubic(MomentSequence(3, beta))
        assert check_measure(beta, list(mu.atoms)).ok, (name, beta.tolist())
