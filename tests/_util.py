"""Shared helpers for the test suite."""

import numpy as np

from cubicmoment import MomentMatrix, MomentSequence, compute_k

SUITE_SIZE = 1000
K0_HAND_POINTS = [(0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, -0.7)]  # k = 0 exactly


def seq_from_a(a) -> MomentSequence:
    """Normalized degree-3 sequence with cubic moments a = (a0, a1, a2, a3)."""
    a0, a1, a2, a3 = (float(v) for v in a)
    return MomentSequence(3, np.array([1, 0, 0, 1, 0, 1, a0, a1, a2, a3], dtype=float))


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


def quartics_of(m2: MomentMatrix) -> tuple[float, float, float, float, float]:
    return (
        m2.moment((4, 0)),
        m2.moment((3, 1)),
        m2.moment((2, 2)),
        m2.moment((1, 3)),
        m2.moment((0, 4)),
    )


def is_hankel(M: MomentMatrix, tol: float = 0.0) -> bool:
    """Entry (u, v) must depend only on the exponent sum u + v."""
    groups: dict[tuple[int, int], list[float]] = {}
    for u, mu in enumerate(M.labels):
        for v, mv in enumerate(M.labels):
            groups.setdefault((mu.i + mv.i, mu.j + mv.j), []).append(
                float(M.entries[u, v])
            )
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
