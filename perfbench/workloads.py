"""Seeded input pools for the three benchmark workloads.

Each generator turns a workload seed into a list of ten-moment vectors
(degree-lex, beta_00 ... beta_03). The same seed gives the same list, and
different seeds give different lists. The solver sees only these vectors.

* generator_mixed: the CLI's own generator, cli.random_request(n, s), with
  n cycling through 3, 4, 5 over a seed range fixed by the workload seed.
  These are original coordinates with all three k cases.
* kneg_normalized: normalized input [1, 0, 0, 1, 0, 1, a0..a3] with a
  uniform in [-2, 2]^4 and k <= -0.05.
* ill_conditioned: even entries are 3-5 atom measures translated by up to
  1e3 (in units of their own spread), scaled per axis by 1e-3 to 1e3 and
  given a mass from 1e-12 to 1e12, each factor log-uniform; odd entries
  are normalized k < 0 input with a in [-20, 20]^4 and k <= -0.05.

The parameters of the k < 0 draws and of the affine moves are stratified
(see _stratified).
"""

from __future__ import annotations

import numpy as np

from oracle import moments_of

K_MARGIN = 0.05  # normalized k < 0 draws keep k <= -K_MARGIN
POOL_SIZE = {"generator_mixed": 1000, "kneg_normalized": 1000, "ill_conditioned": 6000}


def k_invariant(a) -> float:
    """k = (1 + a0 a2 + a1 a3) - (a1^2 + a2^2) of normalized cubic moments a."""
    a0, a1, a2, a3 = a
    return (1.0 + a0 * a2 + a1 * a3) - (a1 * a1 + a2 * a2)


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from [lo, hi], one in each of n equal strata, in random order.

    Stratifying the parameters that decide whether a solve succeeds keeps
    ok_ratio from swinging between seeds more than the solver does.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _normalized_kneg(rng: np.random.Generator, n: int, radius: float) -> list[np.ndarray]:
    """n vectors [1, 0, 0, 1, 0, 1, a] with a in [-radius, radius]^4 and k <= -K_MARGIN."""
    out: list[np.ndarray] = []
    while len(out) < n:
        draws = np.column_stack([_stratified(rng, n, -radius, radius) for _ in range(4)])
        out += [np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, *a]) for a in draws if k_invariant(a) <= -K_MARGIN]
    return out[:n]


def _m1_minors(beta) -> tuple[float, float]:
    """Leading minors d2, d3 of M(1) for a unit-mass sequence."""
    b10, b01, b20, b11, b02 = beta[1:6]
    m1 = np.array([[1.0, b10, b01], [b10, b20, b11], [b01, b11, b02]])
    return b20 - b10 * b10, float(np.linalg.det(m1))


def _poorly_scaled(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """n moment vectors of 3-5 atom measures moved far from the unit scale."""
    shift_exp = _stratified(rng, n, 0.0, 3.0)
    scale_exp = np.column_stack([_stratified(rng, n, -3.0, 3.0) for _ in range(2)])
    mass_exp = _stratified(rng, n, -12.0, 12.0)
    out = []
    for i in range(n):
        n_atoms = int(rng.integers(3, 6))
        while True:
            points = rng.uniform(-1.5, 1.5, size=(n_atoms, 2))
            weights = rng.uniform(0.2, 1.5, size=n_atoms)
            weights /= weights.sum()
            d2, d3 = _m1_minors(moments_of(points[:, 0], points[:, 1], weights))
            if d2 > 0.01 and d3 > 0.01:
                break
        shift = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** shift_exp[i]
        moved = (points + shift) * 10.0 ** scale_exp[i]
        out.append(moments_of(moved[:, 0], moved[:, 1], weights * 10.0 ** mass_exp[i]))
    return out


def generator_mixed(seed: int, size: int) -> list[np.ndarray]:
    from cubicmoment.cli import random_request

    first = seed * size
    return [
        np.array(random_request(3 + i % 3, first + i)["beta"], dtype=float)
        for i in range(size)
    ]


def kneg_normalized(seed: int, size: int) -> list[np.ndarray]:
    return _normalized_kneg(np.random.default_rng([seed, 1]), size, 2.0)


def ill_conditioned(seed: int, size: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 2])
    moved = _poorly_scaled(rng, (size + 1) // 2)
    kneg = _normalized_kneg(rng, size // 2, 20.0)
    return [moved[i // 2] if i % 2 == 0 else kneg[i // 2] for i in range(size)]


GENERATORS = {
    "generator_mixed": generator_mixed,
    "kneg_normalized": kneg_normalized,
    "ill_conditioned": ill_conditioned,
}


def generate(workload: str, seed: int, size: int | None = None) -> list[np.ndarray]:
    """The input pool of a workload; size defaults to POOL_SIZE[workload]."""
    if size is None:
        size = POOL_SIZE[workload]
    return GENERATORS[workload](seed, size)
