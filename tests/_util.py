"""Shared helpers for the test suite."""

import math

import numpy as np

from cubicmoment import MomentSequence, compute_k, monomials_up_to
from cubicmoment.moments import monomials_at

SUITE_SIZE = 1000
K0_HAND_POINTS = [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, -0.7)]  # k = 0 exactly


def fields(error) -> tuple:
    """(stage, quantity, value, bound) of a solver error."""
    return error.stage, error.quantity, error.value, error.bound


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: NaN payloads and signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def failed_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What a failed eig gufunc returns for the square a, where np.linalg.eig raises: complex w and V, all NaN."""
    nan = complex(math.nan, math.nan)
    return np.full(len(a), nan), np.full(a.shape, nan)


def power(v: float, e: int) -> float:
    """v^e as the running product ((1.0 * v) * v) * ..., which rounds v^2 correctly where C pow may not."""
    return math.prod([v] * e, start=1.0)


def vandermonde(x, y, basis) -> np.ndarray:
    """V_B as the density solve builds it: the basis monomials at the points (x_k, y_k), with unit weights."""
    x, y = list(map(float, x)), list(map(float, y))
    return monomials_at(x, y, [1.0] * len(x), basis)


def solve_on_repeated_atoms(monkeypatch):
    """solve_cubic of the square (+-1, +-1) with extract_atoms handing one atom twice, so V_B is singular."""
    from cubicmoment import measure

    monkeypatch.setattr(measure, "extract_atoms", lambda ext: [(1.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
    return measure.solve_cubic(seq_from_a((0, 0, 0, 0)))


def rescaled(beta: MomentSequence, factor: float) -> MomentSequence:
    """The sequence of beta's moments times factor, the products values * factor forms."""
    return MomentSequence(beta.degree, beta.values * factor)


def seq_from_a(a) -> MomentSequence:
    """Normalized degree-3 sequence with cubic moments a = (a0, a1, a2, a3)."""
    a0, a1, a2, a3 = (float(v) for v in a)
    return MomentSequence(3, np.array([1, 0, 0, 1, 0, 1, a0, a1, a2, a3], dtype=float))


def rotate_a(a, theta: float) -> tuple[float, float, float, float]:
    """The cubic moments a after rotating the measure by theta; mean 0, covariance I and k are kept."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    T = np.array([[[a[i + j + k] for k in range(2)] for j in range(2)] for i in range(2)], dtype=float)
    T = np.einsum("ip,jq,kr,pqr->ijk", R, R, R, T)
    return float(T[0, 0, 0]), float(T[0, 0, 1]), float(T[0, 1, 1]), float(T[1, 1, 1])


def acceptance_draws() -> list[tuple]:
    """The acceptance suite's inputs: SUITE_SIZE seeded a in [-2, 2]^4 with |k| >= 0.05, then K0_HAND_POINTS."""
    rng = np.random.default_rng(0)
    draws = []
    while len(draws) < SUITE_SIZE:
        a = tuple(rng.uniform(-2, 2, 4))
        if abs(compute_k(a)) >= 0.05:
            draws.append(a)
    return draws + K0_HAND_POINTS


def b2_block(a) -> np.ndarray:
    """The 3x3 block B(2): rows 1, X, Y against columns X^2, XY, Y^2."""
    a0, a1, a2, a3 = (float(v) for v in a)
    return np.array([[1.0, 0.0, 1.0], [a0, a1, a2], [a1, a2, a3]])


def gram_expected(a) -> np.ndarray:
    """B(2)^T B(2) written out entrywise (the flat completion target)."""
    a0, a1, a2, a3 = (float(v) for v in a)
    return np.array(
        [
            [1 + a0**2 + a1**2, a0 * a1 + a1 * a2, 1 + a0 * a2 + a1 * a3],
            [a0 * a1 + a1 * a2, a1**2 + a2**2, a1 * a2 + a2 * a3],
            [1 + a0 * a2 + a1 * a3, a1 * a2 + a2 * a3, 1 + a2**2 + a3**2],
        ]
    )


def quartics_of(beta: MomentSequence) -> tuple[float, float, float, float, float]:
    """(beta_40, beta_31, beta_22, beta_13, beta_04)."""
    return tuple(beta[4 - j, j] for j in range(5))


def is_hankel(M: np.ndarray, degree: int, tol: float = 0.0) -> bool:
    """Entry (u, v) of M(degree) must depend only on the exponent sum u + v."""
    labels = monomials_up_to(degree)
    assert M.shape == (len(labels), len(labels))
    groups: dict[tuple[int, int], list[float]] = {}
    for u, (i, j) in enumerate(labels):
        for v, (k, l) in enumerate(labels):
            groups.setdefault((i + k, j + l), []).append(float(M[u, v]))
    return all(max(vals) - min(vals) <= tol for vals in groups.values())


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def match_points(actual, expected, atol: float) -> None:
    """Compare two point sets up to ordering jitter from float ties."""
    actual = sorted(actual, key=lambda p: (round(p[0], 6), round(p[1], 6)))
    expected = sorted(expected, key=lambda p: (round(p[0], 6), round(p[1], 6)))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert abs(got[0] - want[0]) <= atol and abs(got[1] - want[1]) <= atol, (
            got,
            want,
        )
