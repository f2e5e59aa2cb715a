"""The records that tools/answer_hash.py hashes, its per-part comparison and its loader; no git."""

import contextlib
import importlib
import io
import json
import shutil
import sys
import types
import warnings
from pathlib import Path

import numpy as np

import answer_hash
import cubicmoment
from cubicmoment import MomentProblemError, MomentSequence, cli, solve_cubic
from gitexport import ROOT, load_package

K_POS = [1, 0, 0, 1, 0, 1, 0, 0, 0, 0]  # the four atoms (+-1, +-1)
K_NEG = [1, 0, 0, 1, 0, 1, 0, 1, 1, 0]


def test_success_record_covers_atoms_and_matrices():
    record = answer_hash.solve_record(cubicmoment, K_NEG)
    assert record == answer_hash.solve_record(cubicmoment, np.array(K_NEG, dtype=float))
    mu, report = solve_cubic(MomentSequence(3, np.array(K_NEG, dtype=float)))
    ext, cert = report.extension, report.certificate
    assert record.startswith(b"ok 4x3 6 3x3 10 6x6 10x10 2x4x4 4x2|")
    atoms = np.array([tuple(a) for a in mu.atoms])
    scalars = np.array([ext.k, 4.0, report.check.max_moment_residual, cert.d2, cert.d3, report.commutator_norm])
    basis = np.array(ext.basis, dtype=float)
    parts = [atoms, scalars, cert.map, cert.normalized.values, ext.m2, ext.m3, ext.pair, basis]
    assert record.endswith(b"".join(p.tobytes() for p in parts))
    assert answer_hash.solve_record(cubicmoment, K_POS) != record


def test_error_record_names_type_and_fields():
    # d3 = 0 against its bound 64 u t3 = 6 * 2^-47 (t3 = 1 + 1 + 2 + 1 + 1), read as their exact bits
    record = answer_hash.solve_record(cubicmoment, [1, 0, 0, 1, 1, 1, 0, 0, 0, 0])
    assert record == f"error SingularM1Error: normalize | d3 | {0.0.hex()} | {(6 * 2.0**-47).hex()}".encode()


def test_error_record_without_fields_is_the_message():
    # an untyped error keeps its message; a typed one without a value or bound records None
    assert answer_hash.error_record(ValueError("bad input")) == b"error ValueError: bad input"
    error = MomentProblemError("densities", "V_B")
    assert answer_hash.error_record(error) == b"error MomentProblemError: densities | V_B | None | None"


def test_cli_record_is_reproducible(tmp_path):
    record = answer_hash.cli_record(cubicmoment, 4, 7, tmp_path)
    assert record == answer_hash.cli_record(cubicmoment, 4, 7, tmp_path)
    assert record.startswith(b"0\n{") and b'"matrices"' in record
    assert answer_hash.digest(record) != answer_hash.digest(answer_hash.cli_record(cubicmoment, 4, 8, tmp_path))


def test_request_record_covers_info_and_solve(tmp_path):
    request = answer_hash.CLI_REQUESTS[0]  # the README's
    record = answer_hash.request_record(cubicmoment, request, tmp_path)
    assert record == answer_hash.request_record(cubicmoment, request, tmp_path)
    assert record.startswith(b"0\n{") and b'"normalized_beta"' in record and b'"matrices"' in record
    assert record.endswith(b"(within tolerance 1e-08), min weight 2.500e-01\n")


def test_one_request_per_reachable_gate(tmp_path):
    # every request after the README's ends in its gate's error document: exit code, stage and quantity
    documents = []
    for request in answer_hash.CLI_REQUESTS[1:]:
        path = tmp_path / "request.json"
        path.write_text(request)
        code, out = answer_hash._run_cli(cubicmoment, ["solve", str(path)])
        error = json.loads(out)["error"]
        documents.append((code, error["code"], error["stage"], error["quantity"]))
    assert documents == [
        (2, 2, "normalize", "d2"),
        (2, 2, "normalize", "d3"),
        (3, 3, "normalize", "d3"),
        (3, 3, "normalize", "refined d2"),
        (3, 3, "normalize", "1 / beta_00"),
        (3, 3, "extend", "k"),
        (3, 3, "extend", "beta_04"),
        (3, 3, "joint spectrum", "eigenvector residual"),
        (3, 3, "densities", "min density"),
        (3, 3, "verify", "backward error"),
    ]


def test_a_changed_verify_line_changes_the_cli_part(monkeypatch, tmp_path):
    request = answer_hash.CLI_REQUESTS[0]  # the README's

    def cli_part():
        records = [
            answer_hash.cli_record(cubicmoment, 4, 7, tmp_path),
            answer_hash.request_record(cubicmoment, request, tmp_path),
        ]
        return records, answer_hash.part_hash([(answer_hash.digest(r), str(i)) for i, r in enumerate(records)])

    records, part = cli_part()
    assert all(b"\n0\n  moment" in r and b"(within tolerance 1e-08)" in r for r in records)
    verify = cli.cmd_verify

    def reworded(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = verify(args)
        print(out.getvalue().replace("within tolerance", "inside tolerance"), end="")
        return code

    monkeypatch.setattr(cli, "cmd_verify", reworded)
    changed, changed_part = cli_part()
    assert changed == [r.replace(b"within tolerance", b"inside tolerance") for r in records]
    assert changed_part != part


def test_a_warning_in_the_cli_is_an_untyped_record(monkeypatch):
    # RuntimeWarnings are errors in this suite, as they are in the working tree's child
    def main(argv):
        print("partial")
        return int(np.float64(1e308) * 10.0)

    monkeypatch.setattr(cli, "main", main)
    with np.errstate(over="warn"):
        code, out = answer_hash._run_cli(cubicmoment, ["solve"])
    assert (code, out) == (-1, "partial\nerror RuntimeWarning: overflow encountered in scalar multiply")


def _copy_src(into):
    """A copy of the working tree's src/ under into, where export leaves a base's."""
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def _forget(package):
    """Drop the package and its modules from sys.modules."""
    for name in [name for name in sys.modules if name.partition(".")[0] == package]:
        del sys.modules[name]


def _cut_to_one_pool(monkeypatch, pool) -> list[tuple[str, int]]:
    """Every workload and seed gives pool, and the CLI records are left out; returns the (workload, seed) draws."""
    drawn = []
    workloads = types.ModuleType("workloads")
    workloads.generate = lambda workload, seed: drawn.append((workload, seed)) or pool
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    monkeypatch.setattr(answer_hash, "WORKLOADS", ("pool",))
    monkeypatch.setattr(answer_hash, "CLI_ATOMS", ())
    monkeypatch.setattr(answer_hash, "CLI_REQUESTS", ())
    return drawn


def test_only_the_working_tree_side_turns_runtime_warnings_into_errors(monkeypatch, capsys):
    # both sides are the working tree's solver, the base a copy loaded by path, and each solve overflows a float
    def overflowing(cm):
        solve = cm.solve_cubic

        def solve_cubic(beta):
            np.float64(1e308) * 10.0
            return solve(beta)

        monkeypatch.setattr(cm, "solve_cubic", solve_cubic)
        return cm

    solved = answer_hash.digest(answer_hash.solve_record(cubicmoment, K_POS))
    warned = answer_hash.digest(b"error RuntimeWarning: overflow encountered in scalar multiply")
    monkeypatch.setattr(answer_hash, "export", lambda revision, into: _copy_src(into))
    monkeypatch.setattr(answer_hash, "load_package", lambda src, name: overflowing(load_package(src, name)))
    overflowing(cubicmoment)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts src/ and perfbench/ in front
    drawn = _cut_to_one_pool(monkeypatch, [np.array(K_POS, dtype=float)])
    try:
        # the caller's quiet numpy state and warning filters hide nothing from the working tree's side
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert answer_hash.main(["--base", "HEAD", "--seeds", "11"]) == 1
            warnings.warn("ignored", RuntimeWarning)  # main leaves the filters as they were
    finally:
        _forget("cubicmoment_base")
    assert drawn == [("pool", 11)]  # one draw of the pool, which both sides solve
    # the base's side records the solve as if nothing overflowed, the working tree's side the warning
    label = f"pool seed 11 #0 beta {[float(b) for b in K_POS]}"
    assert capsys.readouterr().out.splitlines() == [
        "pool seed 11 k_pos: DIFFERENT (1 / 0 inputs)",
        f"  {answer_hash.part_hash([(solved, label)])}  HEAD",
        f"  {answer_hash.part_hash([])}  working tree",
        "  the sides cover 1 and 0 inputs",
        "pool seed 11 error: DIFFERENT (0 / 1 inputs)",
        f"  {answer_hash.part_hash([])}  HEAD",
        f"  {answer_hash.part_hash([(warned, label)])}  working tree",
        "  the sides cover 0 and 1 inputs",
        "pool seed 11 moves: 1 k_pos -> error; 0 kept their outcome and changed their record",
        "1 inputs HEAD solved changed",
        "different",
    ]
    # under numpy's default state, where this suite raises the warning, the base's side stays quiet
    quiet = answer_hash.side(cubicmoment, answer_hash.draw_pools([11]), strict=False)
    assert quiet == [(solved, "pool seed 11 k_pos", label)]


def test_load_package_imports_a_second_copy_of_the_solver_from_its_own_src(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    _copy_src(tmp_path)
    try:
        copy = load_package(tmp_path / "src", "cubicmoment_copy")
        importlib.import_module("cubicmoment_copy.cli")
        modules = {name: m for name, m in sys.modules.items() if name.partition(".")[0] == "cubicmoment_copy"}
    finally:
        _forget("cubicmoment_copy")
    assert copy.solve_cubic is not solve_cubic
    assert {"cubicmoment_copy", "cubicmoment_copy.cli", "cubicmoment_copy.moments"} <= set(modules)
    assert all(Path(m.__file__).resolve().is_relative_to((tmp_path / "src").resolve()) for m in modules.values())
    for beta in workloads.generate("generator_mixed", 1)[:3]:
        assert answer_hash.solve_record(copy, beta) == answer_hash.solve_record(cubicmoment, beta)


def test_each_part_hashes_apart_and_names_its_first_difference():
    base = [
        ("a0", "pool seed 1", "pool seed 1 #0"),
        ("a1", "pool seed 1", "pool seed 1 #1"),
        ("a2", "pool seed 1", "pool seed 1 #2"),
        ("c0", "cli", "random 3 0"),
    ]
    tree = [*base[:1], ("b1", "pool seed 1", "pool seed 1 #1"), ("b2", "pool seed 1", "pool seed 1 #2"), base[3]]
    assert list(answer_hash.by_part(base)) == ["pool seed 1", "cli"]
    base_pool, tree_pool = ([(d, label) for d, _, label in side[:3]] for side in (base, tree))
    cli_hash = answer_hash.part_hash([("c0", "random 3 0")])
    report, equal = answer_hash.compare("base", base, "tree", tree)
    assert not equal
    assert report == [
        "pool seed 1: DIFFERENT (3 / 3 inputs)",
        f"  {answer_hash.part_hash(base_pool)}  base",
        f"  {answer_hash.part_hash(tree_pool)}  tree",
        "  first difference: pool seed 1 #1",
        "cli: equal (1 / 1 inputs)",
        f"  {cli_hash}  base",
        f"  {cli_hash}  tree",
    ]
    assert answer_hash.part_hash(base_pool) != answer_hash.part_hash(tree_pool)
    assert answer_hash.compare("base", base, "tree", base)[1]


def test_a_part_missing_on_one_side_differs():
    base = [("a0", "pool seed 1", "pool seed 1 #0"), ("c0", "cli", "random 3 0")]
    report, equal = answer_hash.compare("base", base, "tree", base[:1])
    assert not equal
    assert report[-4:] == [
        "cli: DIFFERENT (1 / 0 inputs)",
        f"  {answer_hash.part_hash([('c0', 'random 3 0')])}  base",
        f"  {answer_hash.part_hash([])}  tree",
        "  the sides cover 1 and 0 inputs",
    ]


def test_outcome_is_the_case_or_error():
    k_zero = [1, 0, 0, 1, 0, 1, 0, 1, 0, 0]
    singular = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    outcomes = {"k_pos": K_POS, "k_neg": K_NEG, "k_zero": k_zero, "error": singular}
    for outcome, beta in outcomes.items():
        assert answer_hash.solve_outcome(cubicmoment, beta) == (outcome, answer_hash.solve_record(cubicmoment, beta))


def test_pool_parts_split_by_outcome(monkeypatch, tmp_path):
    _cut_to_one_pool(monkeypatch, [np.array(beta, dtype=float) for beta in (K_POS, K_NEG, K_POS)])
    records = answer_hash.records(cubicmoment, answer_hash.draw_pools([5]), tmp_path)
    lines = [(answer_hash.digest(record), part, label) for part, label, record in records]
    assert [(part, label.split(" beta ")[0]) for _, part, label in lines] == [
        ("pool seed 5 k_pos", "pool seed 5 #0"),
        ("pool seed 5 k_neg", "pool seed 5 #1"),
        ("pool seed 5 k_pos", "pool seed 5 #2"),
    ]
    # an input that changes outcome on one side leaves the other outcome's part equal
    tree = [lines[0], ("e1", "pool seed 5 error", lines[1][2]), lines[2]]
    report, equal = answer_hash.compare("base", lines, "tree", tree)
    assert not equal
    assert [line for line in report if not line.startswith("  ")] == [
        "pool seed 5 k_pos: equal (2 / 2 inputs)",
        "pool seed 5 k_neg: DIFFERENT (1 / 0 inputs)",
        "pool seed 5 error: DIFFERENT (0 / 1 inputs)",
    ]


def test_movements_count_outcome_changes_and_changed_records_per_pool():
    base = [
        ("a0", "pool seed 1 error", "pool seed 1 #0"),
        ("a1", "pool seed 1 error", "pool seed 1 #1"),
        ("a2", "pool seed 1 k_pos", "pool seed 1 #2"),
        ("a3", "pool seed 1 k_neg", "pool seed 1 #3"),
        ("b0", "other seed 1 k_pos", "other seed 1 #0"),
        ("c0", "cli", "random 3 0"),
    ]
    tree = [
        ("t0", "pool seed 1 k_zero", "pool seed 1 #0"),
        *base[1:3],
        ("t3", "pool seed 1 k_neg", "pool seed 1 #3"),
        *base[4:5],
        ("t4", "cli", "random 3 0"),
    ]
    assert answer_hash.movements("base", base, tree) == [
        "pool seed 1 moves: 1 error -> k_zero; 1 kept their outcome and changed their record",
        "other seed 1 moves: none; 0 kept their outcome and changed their record",
        "1 inputs base solved changed",
    ]
    # only an error that now solves: every input the base solved is unchanged
    assert answer_hash.movements("base", base, [*tree[:3], *base[3:]]) == [
        "pool seed 1 moves: 1 error -> k_zero; 0 kept their outcome and changed their record",
        "other seed 1 moves: none; 0 kept their outcome and changed their record",
        "every input base solved is unchanged",
    ]
