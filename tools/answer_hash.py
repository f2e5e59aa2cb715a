"""Check that a base revision and the working tree give bit-identical answers.

Run from anywhere inside the repository:

    python3 tools/answer_hash.py --base HEAD --seeds 11 23

The base revision is exported with `git archive` into a temporary
directory. For each side, a child process imports cubicmoment from that
side's src/ and records, one input at a time:

* every input of the three perfbench workloads at each seed (the pools of
  perfbench/workloads.py, which this tool imports and does not change):
  the outcome of solve_cubic(beta, seed=0), that is the error type and
  message, or the atoms, k, rank, max_moment_residual and the bytes of
  extension.m2, m3, mx and my;
* the stdout and exit code of `random --atoms N --seed S` and of
  `solve --emit-matrices` on that output, for N in 3, 4, 5 and S in
  0..99, run in-process.

The tool prints one hash per side over all records. It exits 0 when the
hashes are equal; otherwise it prints the first input whose records
differ and exits 1. Sides run one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from gitexport import ROOT, export

WORKLOADS = ("generator_mixed", "kneg_normalized", "ill_conditioned")
CLI_ATOMS = (3, 4, 5)
CLI_SEEDS = range(100)


def solve_record(beta) -> bytes:
    """Everything the hash covers of solve_cubic(beta, seed=0)."""
    from cubicmoment import MomentSequence, solve_cubic

    beta = np.asarray(beta, dtype=float)
    try:
        mu, report = solve_cubic(MomentSequence(3, beta), seed=0)
    except Exception as exc:  # every outcome is part of the answer, an untyped error too
        return f"error {type(exc).__name__}: {exc}".encode()
    ext = report.extension
    m3 = ext.m3
    numbers = [
        np.array([tuple(a) for a in mu.atoms], dtype=float),
        np.array([report.k, report.rank, report.max_moment_residual], dtype=float),
        ext.m2.entries,
        np.empty(0) if m3 is None else m3.entries,
        ext.mx,
        ext.my,
    ]
    shapes = " ".join("x".join(map(str, np.shape(n))) for n in numbers)
    data = b"".join(np.ascontiguousarray(n, dtype=float).tobytes() for n in numbers)
    return f"ok {shapes}|".encode() + data


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the command line run in-process; stderr is dropped."""
    from cubicmoment.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def cli_record(atoms: int, seed: int, scratch: Path) -> bytes:
    """Exit codes and stdout of `random --atoms atoms --seed seed` piped into `solve --emit-matrices`."""
    code, request = _run_cli(["random", "--atoms", str(atoms), "--seed", str(seed)])
    path = scratch / "request.json"
    path.write_text(request)
    solve_code, answer = _run_cli(["solve", str(path), "--emit-matrices"])
    return f"{code}\n{request}\n{solve_code}\n{answer}".encode()


def records(seeds, scratch: Path):
    """(label, record) for every input the hash covers, in a fixed order."""
    import workloads

    for seed in seeds:
        for workload in WORKLOADS:
            for i, beta in enumerate(workloads.generate(workload, seed)):
                yield f"{workload} seed {seed} #{i} beta {beta.tolist()}", solve_record(beta)
    for atoms in CLI_ATOMS:
        for seed in CLI_SEEDS:
            label = f"solve --emit-matrices on random --atoms {atoms} --seed {seed}"
            yield label, cli_record(atoms, seed, scratch)


def digest(record: bytes) -> str:
    return hashlib.sha256(record).hexdigest()


def hash_tree(tree: Path, seeds) -> None:
    """Print one line per input, its record's digest and its label, for the solver in tree/src."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import cubicmoment

    origin = Path(cubicmoment.__file__).resolve()
    if not origin.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"cubicmoment was imported from {origin}, not from {tree / 'src'}")
    with tempfile.TemporaryDirectory(prefix="answer-hash-cli-") as tmp, np.errstate(all="ignore"):
        for label, record in records(seeds, Path(tmp)):
            print(f"{digest(record)} {label}")


def _side(tree: Path, seeds) -> list[tuple[str, str]]:
    """(digest, label) per input, from a child process that imports tree's solver."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MOMENT_SOLVER_SEED")}
    cmd = [sys.executable, __file__, "--tree", str(tree), "--seeds", *map(str, seeds)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"hashing {tree} failed:\n{done.stderr}")
    return [tuple(line.split(" ", 1)) for line in done.stdout.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 23], help="workload seeds")
    parser.add_argument("--tree", type=Path, help="only print the per-input digests of the solver in TREE")
    args = parser.parse_args(argv)
    if args.tree is not None:
        hash_tree(args.tree.resolve(), args.seeds)
        return 0

    with tempfile.TemporaryDirectory(prefix="answer-hash-base-") as tmp:
        export(args.base, Path(tmp))
        sides = {args.base: _side(Path(tmp), args.seeds), "working tree": _side(ROOT, args.seeds)}
    for name, lines in sides.items():
        total = hashlib.sha256("".join(d for d, _ in lines).encode()).hexdigest()
        print(f"{total}  {name} ({len(lines)} inputs)")
    base, tree = sides.values()
    for (base_digest, label), (tree_digest, tree_label) in zip(base, tree):
        if (base_digest, label) != (tree_digest, tree_label):
            print(f"first difference: {label}" + ("" if label == tree_label else f" / {tree_label}"))
            return 1
    if len(base) != len(tree):
        print(f"the sides cover {len(base)} and {len(tree)} inputs")
        return 1
    print("equal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
