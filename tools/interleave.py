"""Per-input timing of a base revision against the working tree, in one process.

Run from anywhere inside the repository:

    python3 tools/interleave.py --base HEAD --workload generator_mixed \\
        kneg_normalized ill_conditioned --seed 23 11 --seconds 30

The base revision is exported once with `git archive` into a temporary
directory. Its src/ is imported as the package cubicmoment_base, and the
working tree's src/ as cubicmoment, so both run in this process. Each
workload's input pool comes from perfbench/workloads.py, which this tool
imports and does not change.

Each (workload, seed) pair is timed in turn, workloads in the order given
and the seeds of each workload in the order given. The first TIMED_INPUTS
inputs of the pair's pool are timed, pass after pass, for --seconds: each
call on one side is followed at once by the same input on the other side,
the side that goes first alternating from pass to pass, and each input
keeps its fastest call on each side (as perfbench/run.py does). Each call
is solve_cubic(beta) with its defaults; a base whose solve_cubic still took
a seed defaulted it to 0, whose c is the first fixed combination, so both
sides do the same arithmetic.

For each pair the tool prints a block: each side's p50 and p95 over those
fastest calls, the median over the inputs of change time / base time, and
the share of inputs on which the change was faster.
It compares times only; tools/answer_hash.py checks that the answers are
equal. Drift in the machine's speed falls on both sides alike, so the
median ratio repeats far more closely than the medians of separate
benchmark runs do. Run as a script, it pins BLAS and OpenMP to one thread,
as perfbench/run.py does.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # numpy reads these once, when it loads
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gitexport import ROOT, export, load_package  # noqa: E402

TIMED_INPUTS = 400  # the first inputs of the pool, as in perfbench/run.py


def ratio_stats(base_ns: list[float], change_ns: list[float]) -> dict:
    """p50 and p95 in microseconds per side, and the median of the per-input ratios change / base.

    Entry k of each list is input k's fastest call on that side, in ns.
    "won" is the share of inputs whose ratio is below 1, the change faster.
    """
    if len(base_ns) != len(change_ns) or not base_ns:
        raise ValueError("need the same positive number of base and change times")
    if min(base_ns) <= 0 or min(change_ns) <= 0:
        raise ValueError("times must be positive")

    def p(samples, q):
        return float(np.percentile(np.asarray(samples, dtype=float), q)) / 1e3

    ratios = [c / b for b, c in zip(base_ns, change_ns)]
    return {
        "base": (p(base_ns, 50), p(base_ns, 95)),
        "change": (p(change_ns, 50), p(change_ns, 95)),
        "ratio": statistics.median(ratios),
        "won": sum(r < 1.0 for r in ratios) / len(ratios),
    }


def fastest_calls(sides, sequences, seconds: float) -> list[list[float]]:
    """Each input's fastest call per side, in ns, over whole passes that end after `seconds`."""
    best = [[float("inf")] * len(sequences) for _ in sides]
    solvers = [(cm.solve_cubic, cm.MomentProblemError) for cm in sides]
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    passes = 0
    while passes == 0 or clock() < deadline:
        order = (0, 1) if passes % 2 == 0 else (1, 0)
        for k in range(len(sequences)):
            for side in order:
                solve, typed = solvers[side]
                t0 = clock()
                try:
                    solve(sequences[k][side])
                except typed:
                    pass
                elapsed = clock() - t0
                if elapsed < best[side][k]:
                    best[side][k] = elapsed
        passes += 1
    return best


def time_pairs(sides, pairs, generate, seconds: float) -> list[tuple[str, int, int, dict]]:
    """(workload, seed, timed inputs, ratio_stats) for each (workload, seed) pair, in order.

    generate(workload, seed) gives the pair's input pool, whose first
    TIMED_INPUTS inputs are timed on both sides for `seconds`.
    """
    results = []
    for workload, seed in pairs:
        pool = generate(workload, seed)[:TIMED_INPUTS]
        sequences = [[cm.MomentSequence(3, beta) for cm in sides] for beta in pool]
        best = fastest_calls(sides, sequences, seconds)
        results.append((workload, seed, len(sequences), ratio_stats(*best)))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timing per (workload, seed) pair")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import cubicmoment
    import workloads

    pairs = [(workload, seed) for workload in args.workload for seed in args.seed]
    with tempfile.TemporaryDirectory(prefix="interleave-base-") as tmp:
        export(args.base, Path(tmp))
        base = load_package(Path(tmp) / "src", "cubicmoment_base")
        results = time_pairs((base, cubicmoment), pairs, workloads.generate, args.seconds)

    for workload, seed, timed, s in results:
        print(f"{workload} seed {seed}, {timed} timed inputs, {args.seconds:g} s, base {args.base} vs working tree")
        for side in ("base", "change"):
            p50, p95 = s[side]
            print(f"{side:6s} p50 {p50:8.1f} us  p95 {p95:8.1f} us")
        print(f"median per-input ratio change / base {s['ratio']:.3f}")
        print(f"change faster on {s['won']:.1%} of inputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
