"""Tests of the benchmark itself: inputs, oracle, tracer and runner.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import spans
import workloads

SMALL = 60


def _small_pool(cm, workload, seed=0, size=SMALL):
    return run.Pool.build(cm, workloads.generate(workload, seed, size))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_seed_fixes_the_inputs(cm, workload):
    first = workloads.generate(workload, 3, 12)
    again = workloads.generate(workload, 3, 12)
    other = workloads.generate(workload, 4, 12)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


def test_oracle_uses_the_solver_moment_order(cm):
    xs, ys, ws = [0.3, -1.2, 2.0, 0.7], [1.1, 0.4, -0.5, -2.0], [0.2, 0.5, 0.1, 0.9]
    mu = cm.AtomicMeasure(tuple(cm.Atom(x, y, w) for x, y, w in zip(xs, ys, ws)))
    np.testing.assert_allclose(oracle.moments_of(xs, ys, ws), mu.moments(3).values, rtol=1e-14)


def test_oracle_accepts_the_solver_answer_and_rejects_perturbed_weight(cm):
    beta = np.array(run.README_BETA)
    mu, _ = cm.solve_cubic(cm.MomentSequence(3, beta), seed=0)
    atoms = [(a.x, a.y, a.weight) for a in mu.atoms]
    assert oracle.check_measure(beta, atoms).ok
    x, y, w = atoms[0]
    perturbed = [(x, y, w * (1 + 1e-4))] + atoms[1:]
    verdict = oracle.check_measure(beta, perturbed)
    assert not verdict.ok
    assert verdict.residual > oracle.CHECK_RTOL


def test_oracle_rejects_bad_shapes():
    beta = run.README_BETA
    square = [(-1.0, -1.0, 0.25), (-1.0, 1.0, 0.25), (1.0, -1.0, 0.25), (1.0, 1.0, 0.25)]
    assert oracle.check_measure(beta, square).ok
    assert not oracle.check_measure(beta, square + [(0.0, 0.0, 0.0)]).ok
    assert not oracle.check_measure(beta, square[:2]).ok
    negative = square[:3] + [(1.0, 1.0, -0.25)]
    assert not oracle.check_measure(beta, negative).ok


def test_oracle_is_scale_free():
    xs, ys, ws = np.array([0.3, -1.2, 2.0]), np.array([1.1, 0.4, -0.5]), np.array([0.2, 0.5, 0.1])
    for shift, scale, mass in [(0.0, 1.0, 1.0), (300.0, 1e-3, 1e-12), (-50.0, 1e3, 1e12)]:
        moved_x, moved_y, moved_w = (xs + shift) * scale, ys / scale, ws * mass
        beta = oracle.moments_of(moved_x, moved_y, moved_w)
        assert oracle.relative_residual(beta, moved_x, moved_y, moved_w) < 1e-15
        bumped = moved_w.copy()
        bumped[0] *= 1 + 1e-5
        assert oracle.relative_residual(beta, moved_x, moved_y, bumped) > 1e-7


def test_case_mix(cm):
    kneg = run.correctness_pass(cm, _small_pool(cm, "kneg_normalized"))
    assert kneg.ok == SMALL
    assert set(kneg.cases) == {"k_neg"}
    mixed = run.correctness_pass(cm, _small_pool(cm, "generator_mixed"))
    assert set(mixed.cases) == {"k_zero", "k_pos", "k_neg"}
    assert not kneg.wrong and not mixed.wrong


def test_traced_and_untraced_passes_agree(cm):
    pool = _small_pool(cm, "ill_conditioned")
    plain = run.correctness_pass(cm, pool)
    with spans.Tracer():
        traced = run.correctness_pass(cm, pool)
    assert 0 < plain.ok < SMALL
    assert traced.ok == plain.ok
    assert traced.errors == plain.errors
    assert traced.reference == plain.reference


def test_counts_are_exact_and_repeat(cm):
    pool = _small_pool(cm, "generator_mixed", size=30)
    counts = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            result = run.correctness_pass(cm, pool)
        counts.append(tracer.calls())
    assert counts[0] == counts[1]
    assert counts[0]["measure.solve_cubic"] == 30
    assert counts[0]["measure.multiplication_matrices"] == 2 * 30
    # the second verify runs only when the first one passes
    assert counts[0]["measure.verify_measure"] >= 2 * result.ok


def test_absent_stages_are_reported_and_wrappers_removed(cm):
    originals = {
        (mod, name): getattr(sys.modules[mod], name)
        for mod in ("cubicmoment", "cubicmoment.measure", "cubicmoment.cubic")
        for name in ("solve_cubic", "span_reductions", "extend")
        if hasattr(sys.modules[mod], name)
    }
    stages = spans.STAGES + (("cubic", "no_such_stage"), ("no_such_module", "solve"))
    pool = _small_pool(cm, "kneg_normalized", size=5)
    with spans.Tracer(stages) as tracer:
        assert cm.solve_cubic is not originals[("cubicmoment", "solve_cubic")]
        run.correctness_pass(cm, pool)
    assert tracer.absent == ["cubic.no_such_stage", "no_such_module.solve"]
    assert tracer.calls()["cubic.no_such_stage"] == 0
    assert tracer.calls()["cubic.span_reductions"] == 3 * 5
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn


def test_self_time_excludes_children(cm):
    pool = _small_pool(cm, "kneg_normalized", size=10)
    with spans.Tracer() as tracer:
        run.correctness_pass(cm, pool)
    root = tracer.stats["measure.solve_cubic"]
    assert 0 < root.self_ns < root.total_ns
    assert sum(s.self_ns for s in tracer.stats.values()) == pytest.approx(root.total_ns, rel=1e-9)


def test_timed_loop_checks_answers(cm):
    pool = _small_pool(cm, "kneg_normalized", size=10)
    base = run.correctness_pass(cm, pool)
    loop = run.timed_loop(cm, pool, base.reference, 0.2)
    assert loop.calls > len(pool) and len(loop.timed("k_neg")) == len(pool)
    assert not loop.wrong
    # a stale reference forces the oracle to re-check every answer
    loop = run.timed_loop(cm, pool, [None] * len(pool), 0.2)
    assert len(loop.timed("k_neg")) == len(pool) and not loop.wrong


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_prints_every_metric(cm, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(workloads.POOL_SIZE, "kneg_normalized", 20)
    for trace, units in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
        args = ["--workload", "kneg_normalized", "--seed", "0", "--seconds", "0.1", "--trace", trace]
        assert run.main(args) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "generator_mixed", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
