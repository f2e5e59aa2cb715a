"""Paired benchmark runs of a base revision against the working tree.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --base HEAD --workload generator_mixed \\
        --pairs 10 --seconds 25 --first-seed 311

The base revision is exported with `git archive` into a temporary
directory. Pair i runs `perfbench/run.py --workload W --seed first-seed+i
--seconds S` once in the exported base and once in the working tree, with
the same settings; even pairs run the base first and odd pairs the working
tree first, so drift in the machine's load falls on both sides. Each
pair's runs use the same seed.

For every end-to-end metric of BENCHMARK.json the tool prints each side's
median and quartiles over its runs, the pairs the working tree wins, ties
and loses in the metric's better direction, and whether a gain holds:
there are at least ten pairs, the working tree wins at least nine tenths
of them (ties count for neither side), and the medians differ by more
than the distance between the base's quartiles. It also prints the
`failed` counts of both sides. Runs are sequential: one benchmark process
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from gitexport import ROOT, export

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pair_stats(base: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; better is "lower" or "higher".

    Pair i is (base[i], change[i]). A gain holds when there are at least
    MIN_PAIRS pairs, the change wins at least WIN_SHARE of them, ties
    counting for neither side, and its median is better than the base's by
    more than the base's interquartile distance.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    ties = sum(b == c for b, c in zip(base, change))
    base_q = quartiles(base)
    change_q = quartiles(change)
    gap = sign * (base_q[1] - change_q[1])  # > 0 when the change's median is better
    spread = base_q[2] - base_q[0]
    return {
        "base": base_q,
        "change": change_q,
        "wins": wins,
        "ties": ties,
        "losses": len(base) - wins - ties,
        "gain_holds": len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base) and gap > spread,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a tree; the JSON object on its last line of output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("base", base_tree), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                result = run_once(tree, args.workload, seed, args.seconds)
                runs[side].append(result)
                p50 = result["metrics"]["solve_p50_us"]["value"]
                print(f"pair {i} seed {seed} {side:6s} solve_p50_us {p50:.1f} failed {result['failed']}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, base {args.base} vs working tree")
    print("metric                 base median [q1, q3]            change median [q1, q3]          W/T/L  gain")
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = pair_stats(base, change, direction)
        b, c = s["base"], s["change"]
        print(
            f"{name:22s} {b[1]:10.4g} [{b[0]:.4g}, {b[2]:.4g}]  {c[1]:10.4g} [{c[0]:.4g}, {c[2]:.4g}]"
            f"  {s['wins']}/{s['ties']}/{s['losses']}  {'holds' if s['gain_holds'] else 'no'}"
        )
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"failed: base {failed['base']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
