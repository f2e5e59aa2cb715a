"""Closed-loop benchmark of cubicmoment.solve_cubic.

Run from the repository root:

    python3 perfbench/run.py --workload generator_mixed --seed 1 --seconds 25 --trace 0

One process and one thread. The runner pins BLAS and OpenMP to one thread
in its own environment before numpy loads, and imports cubicmoment from
the checkout's src/ (it refuses to run against any other copy).

A run has these steps:

1. Set-up: SETUP_REPEATS fresh interpreters each run first_solve.py, that
   is `cubicmoment solve` on the README's closed-form example. The answer
   is checked with the oracle. setup_s is the median wall time from spawn
   to exit.
2. The workload's input pool is generated from --seed (workloads.py).
3. Correctness pass: every input is solved once with seed=0 and every
   returned measure is checked by the oracle (oracle.py). This pass also
   warms up the process; no latency is taken from it. ok_ratio,
   accuracy_digits_p05 and the error tallies come from it, so they depend
   on the seed only.
4. Timed loop: the first TIMED_INPUTS inputs of the pool are solved in
   order, pass after pass, one call after the next, for --seconds. Each
   call is timed from entry to its return or raise, and each input keeps
   its fastest call (best of all passes, as timeit advises: slower repeats
   measure other tenants of the machine, not the solver). A returned
   measure must equal the one checked in step 3 or pass the oracle itself.

With --trace 1 the timed loop runs untraced for half the time and traced
for the other half (spans.py). A traced correctness pass over the whole
pool comes first; it gives exact calls per solve and must reproduce the
outcomes of step 3.

End-to-end metrics (--trace 0):

* solve_p50_us, solve_p95_us: median and 95th percentile over the timed
  inputs (400 samples, so 20 lie beyond p95) of each input's fastest
  call, failed calls included.
* solves_per_s: verified solves per second of a closed loop whose calls
  take those fastest times: the call rate over the timed inputs times
  ok_ratio. The pool's ok share is used, not that of the timed inputs, so
  that the figure does not swing with how many of 400 draws fail.
* ok_ratio: share of the pool whose solve returns and passes the oracle.
* accuracy_digits_p05: 5th percentile over ok solves of -log10 of the
  oracle's componentwise relative moment residual.
* setup_s: median wall time of the set-up probe in step 1.

Per-layer metrics (--trace 1):

* <stage>.us and <stage>.self_us for each stage in spans.STAGES: mean
  inclusive and self time per solve over the traced solves.
* <stage>.calls_per_solve: calls during the traced correctness pass
  divided by the pool size. This is an exact count; it repeats exactly for
  a given seed.
* case.<case>.p50_us and .p95_us: fastest calls of the timed inputs whose
  ok solve has that case, from the untraced half; 0 when there are none.
* errors.<type>.count: rejections in the correctness pass, by type.
* setup.import_s and setup.first_solve_s: the parts of setup_s before and
  inside the CLI's solve.
* trace.overhead_us: traced solve_p50_us minus untraced solve_p50_us.

Outcomes. A solve is ok when it returns and its measure passes the oracle.
A solve that raises a MomentProblemError is a typed rejection: the solver
declined to answer and said why. Rejections lower ok_ratio and are tallied
by type, but they are not failures of the benchmark. A returned measure
that fails the oracle, or an exception of any other type, is a failure:
it is counted in "failed", "correct" becomes false, and the runner exits
with code 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. The lines above it repeat every
metric with its unit, plus sample counts and error tallies.
"""

from __future__ import annotations

import os

# the runner, not the library, pins native thread pools; numpy reads these once
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import accuracy_digits, check_measure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
TIMED_INPUTS = 400  # the first inputs of the pool, solved over and over
SETUP_TIMEOUT_S = 60
README_BETA = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
CASES = ("k_zero", "k_pos", "k_neg")
ERROR_TYPES = (
    "MomentProblemError",
    "SingularM1Error",
    "RangeError",
    "CommutatorError",
    "ComplexAtomError",
    "MissingRelationError",
    "InconsistentRelationsError",
    "SingularVandermondeError",
    "VerificationError",
)
OTHER_TYPED = "other_typed"  # a MomentProblemError subclass not listed above
UNTYPED = "untyped"  # any other exception; a failure

END_TO_END = {
    "solve_p50_us": "us",
    "solve_p95_us": "us",
    "solves_per_s": "1/s",
    "ok_ratio": "ratio",
    "accuracy_digits_p05": "digits",
    "setup_s": "s",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for stage in spans.STAGE_NAMES:
        units[f"{stage}.us"] = "us"
        units[f"{stage}.self_us"] = "us"
        units[f"{stage}.calls_per_solve"] = "calls/solve"
    for case in CASES:
        units[f"case.{case}.p50_us"] = "us"
        units[f"case.{case}.p95_us"] = "us"
    for kind in (*ERROR_TYPES, OTHER_TYPED, UNTYPED):
        units[f"errors.{kind}.count"] = "count"
    units["setup.import_s"] = "s"
    units["setup.first_solve_s"] = "s"
    units["trace.overhead_us"] = "us"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def import_package():
    """Import cubicmoment from the checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cubicmoment
    except ImportError as exc:
        raise BenchError(f"cannot import cubicmoment from {SRC}: {exc}") from exc
    origin = Path(cubicmoment.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"cubicmoment was imported from {origin}, not from {SRC}")
    return cubicmoment


def error_kind(exc: BaseException, typed: type) -> str:
    name = type(exc).__name__
    if isinstance(exc, typed):
        return name if name in ERROR_TYPES else OTHER_TYPED
    return UNTYPED


@dataclass
class Pool:
    """The inputs of a run, as raw vectors and as solver arguments."""

    betas: list[np.ndarray]
    sequences: list

    @classmethod
    def build(cls, cm, betas) -> "Pool":
        return cls(betas, [cm.MomentSequence(3, beta) for beta in betas])

    def __len__(self) -> int:
        return len(self.betas)


@dataclass
class PassResult:
    """One solve of every input, each answer checked by the oracle."""

    reference: list = field(default_factory=list)  # atoms of ok solves, else None
    errors: Counter = field(default_factory=Counter)
    cases: Counter = field(default_factory=Counter)
    digits: list[float] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def ok(self) -> int:
        return len(self.digits)


def correctness_pass(cm, pool: Pool) -> PassResult:
    result = PassResult()
    for index, (beta, sequence) in enumerate(zip(pool.betas, pool.sequences)):
        atoms = None
        try:
            mu, report = cm.solve_cubic(sequence, seed=0)
        except Exception as exc:  # every outcome is tallied, none stops the pass
            kind = error_kind(exc, cm.MomentProblemError)
            result.errors[kind] += 1
            if kind == UNTYPED:
                result.wrong.append(f"input {index}: {type(exc).__name__}: {exc}")
        else:
            verdict = check_measure(beta, [(a.x, a.y, a.weight) for a in mu.atoms])
            if verdict.ok:
                atoms = tuple(mu.atoms)
                result.digits.append(accuracy_digits(verdict.residual))
                result.cases[report.case.value] += 1
            else:
                result.wrong.append(f"input {index}: {verdict.reason}")
        result.reference.append(atoms)
    return result


@dataclass
class LoopResult:
    """Fastest call per timed input, over every pass the loop made."""

    best_ns: list[float]  # math.inf for an input the loop never reached
    cases: list  # case of each ok input, else None
    calls: int = 0
    wrong: list[str] = field(default_factory=list)

    def timed(self, case: str | None = None) -> list[float]:
        """Best latencies of the reached inputs, optionally of one case."""
        return [
            b for b, c in zip(self.best_ns, self.cases)
            if b != math.inf and (case is None or c == case)
        ]


def timed_loop(cm, pool: Pool, reference: list, seconds: float) -> LoopResult:
    """Solve the first TIMED_INPUTS inputs in order, pass after pass, for `seconds`.

    Every call is timed from entry to its return or raise; each input keeps
    its fastest call. Every returned measure must equal the one checked in
    the correctness pass or pass the oracle itself.
    """
    n = min(len(pool), TIMED_INPUTS)
    result = LoopResult([math.inf] * n, [None] * n)
    best = result.best_ns
    solve = cm.solve_cubic  # looked up once, after any tracer is installed
    typed = cm.MomentProblemError
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    i = 0
    while True:
        k = i % n
        t0 = clock()
        try:
            mu, report = solve(pool.sequences[k], seed=0)
        except typed:
            t1 = clock()
        except Exception as exc:  # a failure, recorded and reported
            t1 = clock()
            result.wrong.append(f"input {k}: {type(exc).__name__}: {exc}")
        else:
            t1 = clock()
            atoms = mu.atoms
            if atoms == reference[k] or check_measure(
                pool.betas[k], [(a.x, a.y, a.weight) for a in atoms]
            ).ok:
                result.cases[k] = report.case.value
            else:
                result.wrong.append(f"input {k}: returned measure fails the oracle")
        if t1 - t0 < best[k]:
            best[k] = t1 - t0
        i += 1
        if t1 >= deadline:
            break
    result.calls = i
    return result


def percentile_us(samples_ns, q: float) -> float:
    """q-th percentile in microseconds; 0.0 for an empty sample."""
    if not samples_ns:
        return 0.0
    return float(np.percentile(np.asarray(samples_ns, dtype=float), q)) / 1e3


@dataclass
class SetupResult:
    total_s: float
    first_solve_s: float

    @property
    def import_s(self) -> float:
        return self.total_s - self.first_solve_s


def measure_setup(repeats: int) -> list[SetupResult]:
    """Time fresh `cubicmoment solve` interpreters on the README example."""
    request = json.dumps({"beta": README_BETA})
    results = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "first_solve.py")],
                input=request,
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up probe did not finish in {SETUP_TIMEOUT_S} s") from exc
        total = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        try:
            answer = json.loads(proc.stdout)
            atoms = [(a["x"], a["y"], a["weight"]) for a in answer["atoms"]]
            first = json.loads(proc.stderr.strip().splitlines()[-1])["first_solve_s"]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise BenchError(f"set-up probe printed an unreadable answer: {exc}") from exc
        verdict = check_measure(README_BETA, atoms)
        if not verdict.ok:
            raise BenchError(f"set-up probe answer fails the oracle: {verdict.reason}")
        results.append(SetupResult(total, first))
    return results


def stage_metrics(tracer: spans.Tracer, calls: dict[str, int], pool_size: int, solves: int) -> dict:
    metrics = {}
    for stage, stats in tracer.stats.items():
        metrics[f"{stage}.us"] = stats.total_ns / 1e3 / solves
        metrics[f"{stage}.self_us"] = stats.self_ns / 1e3 / solves
        metrics[f"{stage}.calls_per_solve"] = calls[stage] / pool_size
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (summary, metrics)."""
    cm = import_package()
    setup = measure_setup(SETUP_REPEATS)
    pool = Pool.build(cm, workloads.generate(workload, seed))
    base = correctness_pass(cm, pool)
    info = {
        "pool": len(pool),
        "cases": dict(base.cases),
        "errors": dict(base.errors),
    }
    wrong = list(base.wrong)

    if not trace:
        loop = timed_loop(cm, pool, base.reference, seconds)
        wrong += loop.wrong
        best = loop.timed()
        metrics = {
            "solve_p50_us": percentile_us(best, 50),
            "solve_p95_us": percentile_us(best, 95),
            "solves_per_s": base.ok / len(pool) * len(best) / (sum(best) / 1e9),
            "ok_ratio": base.ok / len(pool),
            "accuracy_digits_p05": float(np.percentile(base.digits, 5)) if base.digits else 0.0,
            "setup_s": statistics.median(s.total_s for s in setup),
        }
        attempted = len(pool) + loop.calls
        info["timed"] = f"{len(best)} inputs x {loop.calls / len(best):.1f} passes"
    else:
        plain = timed_loop(cm, pool, base.reference, seconds / 2)
        with spans.Tracer() as tracer:
            traced_pass = correctness_pass(cm, pool)
            calls = tracer.calls()
            traced = timed_loop(cm, pool, base.reference, seconds / 2)
        wrong += plain.wrong + traced_pass.wrong + traced.wrong
        if traced_pass.errors != base.errors or traced_pass.ok != base.ok:
            wrong.append(
                f"traced pass disagrees: ok {traced_pass.ok} vs {base.ok}, "
                f"errors {dict(traced_pass.errors)} vs {dict(base.errors)}"
            )
        metrics = stage_metrics(tracer, calls, len(pool), len(pool) + traced.calls)
        for case in CASES:
            metrics[f"case.{case}.p50_us"] = percentile_us(plain.timed(case), 50)
            metrics[f"case.{case}.p95_us"] = percentile_us(plain.timed(case), 95)
        for kind in (*ERROR_TYPES, OTHER_TYPED, UNTYPED):
            metrics[f"errors.{kind}.count"] = base.errors[kind]
        metrics["setup.import_s"] = statistics.median(s.import_s for s in setup)
        metrics["setup.first_solve_s"] = statistics.median(s.first_solve_s for s in setup)
        metrics["trace.overhead_us"] = percentile_us(traced.timed(), 50) - percentile_us(
            plain.timed(), 50
        )
        attempted = 2 * len(pool) + plain.calls + traced.calls
        info["timed"] = f"{len(plain.timed())} inputs x {plain.calls / len(plain.timed()):.1f} passes"
        info["traced"] = f"{len(traced.timed())} inputs x {traced.calls / len(traced.timed()):.1f} passes"
        info["case_inputs"] = {c: len(plain.timed(c)) for c in CASES}
        info["absent_stages"] = tracer.absent
    info["setup_repeats"] = len(setup)
    summary = {"attempted": attempted, "failed": len(wrong), "wrong": wrong[:10], **info}
    return summary, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        summary, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    for key, value in summary.items():
        print(f"# {key}: {value}")
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>16.6f} {unit}")
    correct = summary["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {name: {"value": metrics[name], "unit": u} for name, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
