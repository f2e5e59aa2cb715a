"""Check that a base revision and the working tree give bit-identical answers.

Run from anywhere inside the repository:

    python3 tools/answer_hash.py --base HEAD --seeds 11 23

The base revision is exported with `git archive` into a temporary
directory. Its src/ is imported as the package cubicmoment_base, and the
working tree's src/ as cubicmoment, so both sides run in this process.
For each side the tool records, one input at a time:

* every input of the three perfbench workloads at each seed (the pools of
  perfbench/workloads.py, which this tool imports and does not change):
  the outcome of solve_cubic(beta), that is the error's type, stage,
  quantity and the bits of its value and bound (its message, for an
  untyped error), or the atoms, extension.k, the rank len(extension.basis),
  the max_moment_residual of verify_measure(mu, beta) (the solve's own
  check, which older reports copied), the normalization certificate's d2
  and d3, the commutator norm linalg.commutator_norm(extension.pair) (a
  name every revision has), and the bytes of certificate.map,
  certificate.normalized.values and extension.m2, m3 and pair, and the
  exponent pairs of extension.basis;
* the stdout and exit code of `random --atoms N --seed S`, of
  `solve --emit-matrices` on that output and of `verify` on that request
  and answer, for N in 3, 4, 5 and S in 0..99, and of
  `solve --emit-matrices` and `verify` on the README's request, whose
  moments are already normalized, and on one request for each gate a
  request can reach, whose error documents and exit codes are recorded
  the same way, all run in-process.

The records fall into parts: one per (workload, seed) pool and outcome,
and one for the CLI records. The outcome is the case of that side's solve
(k_zero, k_pos or k_neg) or error, so an input whose outcome changes
leaves a part on one side and joins another, and both parts differ; the
parts of the outcomes a change leaves alone stay equal. The tool prints
one hash per part and side, and names, for each part that differs, the
first input whose records differ. Then, per pool, it counts the inputs
that changed outcome, from which to which, and the inputs that kept
their outcome but changed their record, and says whether every input
the base solved is unchanged. It exits 0 when every part's hashes are
equal and 1 otherwise. Sides run one after the other, the base first.

Both sides solve the same pool inputs, which perfbench/workloads.py draws
once, before either side runs, with the working tree's cli.random_request.
A change to random_request shows in the cli part, which records each
side's own `random` output, and the solvers are compared on identical
inputs.

The working tree's side also checks that the solver never warns: it
turns RuntimeWarnings into errors under numpy's default error state, so
a numpy warning is raised, recorded as an untyped error, and makes its
part differ. That state is set explicitly, so that a base which changed
numpy's global state cannot hide a warning. The base's side runs under
np.errstate(all="ignore") with the warning filters as they were, so that
revisions whose solver still warned can be compared.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from gitexport import ROOT, export, load_package

WORKLOADS = ("generator_mixed", "kneg_normalized", "ill_conditioned")
CLI_ATOMS = (3, 4, 5)
CLI_SEEDS = range(100)
CLI_REQUESTS = (
    '{"beta": [1, 0, 0, 1, 0, 1, 0, 0, 0, 0]}',  # the README's: the four points (+-1, +-1)
    # then one per gate a request can reach, so the error documents and their exit codes are hashed too
    '{"beta": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]}',  # normalize, d2 (out of scope)
    '{"beta": [1, 0, 0, 1, 1, 1, 0, 0, 0, 0]}',  # normalize, d3 (out of scope)
    '{"beta": [1, 0, 0, 1e+300, 0, 1e+300, 0, 0, 0, 0]}',  # normalize, d3 (the pivot overflows)
    '{"beta": [1, 0.9, 0, 1, 0, 1, 1.7e+308, 0, 0, 0]}',  # normalize, beta~_03 (a pushed cubic moment overflows)
    '{"beta": [1e-300, 0, 0, 1e-300, 0, 1e-300, 10000000000.0, 0, 0, 0]}',  # normalize, 1 / beta_00
    '{"beta": [1, 0, 0, 1, 0, 1, 0, 1e+200, 0, 0]}',  # extend, k
    '{"beta": [1, 0, 0, 1, 0, 1, 1e+200, 0, 0, 0]}',  # extend, beta_04
    '{"beta": [1, 0, 0, 1, 0, 1, 1e+20, 0, 0, 0]}',  # joint spectrum, eigenvector residual
    '{"beta": [1, 0, 0, 1, 0, 1, 1e+104, 0, 1, 0]}',  # densities, min density
    '{"beta": [1, 0, 0, 1, 0, 1, 0.3, -0.8, 0.4, 1.1], "tolerances": {"accept": 1e-18}}',  # verify, backward error
)


def solve_outcome(cm, beta) -> tuple[str, bytes]:
    """(outcome, record) of the solver package cm's solve_cubic(beta); the outcome is the case value or "error"."""
    beta = np.asarray(beta, dtype=float)
    try:
        sequence = cm.MomentSequence(3, beta)
        mu, report = cm.solve_cubic(sequence)
    except Exception as exc:  # every outcome is part of the answer, an untyped error too
        return "error", error_record(exc)
    ext, cert = report.extension, report.certificate
    m3 = ext.m3
    # read through names every revision has: the same function on the same inputs as the solve's check
    residual = cm.verify_measure(mu, sequence).max_moment_residual
    numbers = [
        np.array([tuple(a) for a in mu.atoms], dtype=float),
        np.array([ext.k, len(ext.basis), residual, cert.d2, cert.d3, cm.linalg.commutator_norm(ext.pair)], dtype=float),
        cert.map,
        cert.normalized.values,
        ext.m2,
        np.empty(0) if m3 is None else m3,
        ext.pair,
        np.array(ext.basis),
    ]
    shapes = " ".join("x".join(map(str, np.shape(n))) for n in numbers)
    data = b"".join(np.ascontiguousarray(n, dtype=float).tobytes() for n in numbers)
    return report.case.value, f"ok {shapes}|".encode() + data


def error_record(exc: Exception) -> bytes:
    """An error's type, stage, quantity and the bits of its value and bound, or its message without them.

    A change of wording leaves the fields as they are, and a moved bound changes them.
    """
    if not hasattr(exc, "quantity"):  # an untyped error
        return f"error {type(exc).__name__}: {exc}".encode()
    numbers = [None if v is None else float(v).hex() for v in (exc.value, exc.bound)]
    return f"error {type(exc).__name__}: {exc.stage} | {exc.quantity} | {numbers[0]} | {numbers[1]}".encode()


def solve_record(cm, beta) -> bytes:
    """Everything the hash covers of cm's solve_cubic(beta)."""
    return solve_outcome(cm, beta)[1]


def _run_cli(cm, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of cm's command line run in-process; stderr is dropped."""
    cli = importlib.import_module(f"{cm.__name__}.cli")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a warning the strict side raises, say: an untyped error is part of the answer
        return -1, out.getvalue() + error_record(exc).decode()
    return code, out.getvalue()


def cli_record(cm, atoms: int, seed: int, scratch: Path) -> bytes:
    """Exit codes and stdout of `random --atoms atoms --seed seed`, and of `_solve_and_verify` on its output."""
    code, request = _run_cli(cm, ["random", "--atoms", str(atoms), "--seed", str(seed)])
    path = scratch / "request.json"
    path.write_text(request)
    return f"{code}\n{request}\n".encode() + _solve_and_verify(cm, path)


def request_record(cm, request: str, scratch: Path) -> bytes:
    """Exit codes and stdout of `solve --emit-matrices` and `verify` on the request."""
    path = scratch / "request.json"
    path.write_text(request)
    return _solve_and_verify(cm, path)


def _solve_and_verify(cm, request: Path) -> bytes:
    """Exit codes and stdout of `solve --emit-matrices` on the request file and of `verify` on it and that answer."""
    solve_code, answer = _run_cli(cm, ["solve", str(request), "--emit-matrices"])
    measure = request.with_name("answer.json")
    measure.write_text(answer)
    verify_code, table = _run_cli(cm, ["verify", str(request), str(measure)])
    return f"{solve_code}\n{answer}\n{verify_code}\n{table}".encode()


def draw_pools(seeds) -> list[tuple[str, list]]:
    """(name, inputs) of each (workload, seed) pool, seeds outermost, drawn once for both sides."""
    import workloads

    return [(f"{workload} seed {seed}", workloads.generate(workload, seed)) for seed in seeds for workload in WORKLOADS]


def records(cm, pools, scratch: Path):
    """(part, label, record) for every input the hash covers, in a fixed order, for the solver package cm."""
    for pool, inputs in pools:
        for i, beta in enumerate(inputs):
            outcome, record = solve_outcome(cm, beta)
            yield f"{pool} {outcome}", f"{pool} #{i} beta {beta.tolist()}", record
    for atoms in CLI_ATOMS:
        for seed in CLI_SEEDS:
            label = f"solve --emit-matrices and verify on random --atoms {atoms} --seed {seed}"
            yield "cli", label, cli_record(cm, atoms, seed, scratch)
    for request in CLI_REQUESTS:
        yield "cli", f"solve --emit-matrices and verify on {request}", request_record(cm, request, scratch)


def digest(record: bytes) -> str:
    return hashlib.sha256(record).hexdigest()


def side(cm, pools, strict: bool) -> list[tuple[str, str, str]]:
    """(digest, part, label) per input of the pools and the CLI records, for the solver package cm.

    A strict side turns RuntimeWarnings into errors under numpy's default error state;
    the other runs all quiet.
    """
    if strict:
        state = np.errstate(divide="warn", over="warn", invalid="warn", under="ignore")
    else:
        state = np.errstate(all="ignore")
    with warnings.catch_warnings(), state, tempfile.TemporaryDirectory(prefix="answer-hash-cli-") as tmp:
        if strict:
            warnings.simplefilter("error", RuntimeWarning)
        return [(digest(record), part, label) for part, label, record in records(cm, pools, Path(tmp))]


def by_part(lines) -> dict[str, list[tuple[str, str]]]:
    """(digest, label) per input, grouped by part in the order the parts first appear."""
    parts: dict[str, list[tuple[str, str]]] = {}
    for d, part, label in lines:
        parts.setdefault(part, []).append((d, label))
    return parts


def part_hash(inputs: list[tuple[str, str]]) -> str:
    return hashlib.sha256("".join(d for d, _ in inputs).encode()).hexdigest()


def compare(base_name: str, base_lines, tree_name: str, tree_lines) -> tuple[list[str], bool]:
    """Report lines and whether the sides agree: one hash per part and side, and the
    first differing input of each part that differs."""
    base, tree = by_part(base_lines), by_part(tree_lines)
    report, equal = [], True
    for part in dict.fromkeys([*base, *tree]):
        left, right = base.get(part, []), tree.get(part, [])
        same = left == right
        equal &= same
        report.append(f"{part}: {'equal' if same else 'DIFFERENT'} ({len(left)} / {len(right)} inputs)")
        report.append(f"  {part_hash(left)}  {base_name}")
        report.append(f"  {part_hash(right)}  {tree_name}")
        if same:
            continue
        first = next(((a, b) for a, b in zip(left, right) if a != b), None)
        if first is None:
            report.append(f"  the sides cover {len(left)} and {len(right)} inputs")
        else:
            (_, label), (_, tree_label) = first
            report.append(f"  first difference: {label}" + ("" if label == tree_label else f" / {tree_label}"))
    return report, equal


def movements(base_name: str, base_lines, tree_lines) -> list[str]:
    """Report lines on what moved, matching inputs by label.

    One line per (workload, seed) pool: the inputs that changed outcome, from which to which, and
    the inputs that kept their outcome but changed their record. Then one line on whether every
    input the base solved is unchanged. The CLI part has no pool and is left out.
    """
    tree = {label: (d, part) for d, part, label in tree_lines}
    pools: dict[str, collections.Counter] = {}
    solved_moved = 0
    for d, part, label in base_lines:
        pool, _, outcome = part.rpartition(" ")
        if not pool:
            continue
        tree_d, tree_part = tree.get(label, (None, "missing"))
        tree_outcome = tree_part.rpartition(" ")[2]
        moves = pools.setdefault(pool, collections.Counter())
        if tree_outcome != outcome:
            moves[f"{outcome} -> {tree_outcome}"] += 1
        elif tree_d != d:
            moves["record"] += 1
        solved_moved += outcome != "error" and (tree_d, tree_outcome) != (d, outcome)
    report = []
    for pool, moves in pools.items():
        changed = ", ".join(f"{n} {move}" for move, n in moves.items() if move != "record") or "none"
        report.append(f"{pool} moves: {changed}; {moves['record']} kept their outcome and changed their record")
    if solved_moved:
        report.append(f"{solved_moved} inputs {base_name} solved changed")
    else:
        report.append(f"every input {base_name} solved is unchanged")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 23], help="workload seeds")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import cubicmoment

    pools = draw_pools(args.seeds)
    with tempfile.TemporaryDirectory(prefix="answer-hash-base-") as tmp:
        export(args.base, Path(tmp))
        base = side(load_package(Path(tmp) / "src", "cubicmoment_base"), pools, strict=False)
    tree = side(cubicmoment, pools, strict=True)
    report, equal = compare(args.base, base, "working tree", tree)
    print("\n".join([*report, *movements(args.base, base, tree)]))
    print("equal" if equal else "different")
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main())
