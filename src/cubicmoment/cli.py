"""Command-line front end: JSON in, JSON (or a residual table) out.

Exit codes: 0 success, 1 malformed input, 2 out-of-scope input (singular
M(1)), 3 verification failure or a downstream solver fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .cubic import classify_k, compute_k
from .errors import MomentProblemError, SingularM1Error
from .measure import (
    DEFAULT_TOLERANCES,
    Tolerances,
    solve_cubic,
    verify_measure,
)
from .moments import (
    Atom,
    AtomicMeasure,
    MomentSequence,
    build_moment_matrix,
    monomials_up_to,
)
from .normalize import minors, normalize_cubic

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 2
EXIT_VERIFY = 3

SEED_ENV_VAR = "MOMENT_SOLVER_SEED"
BETA_LENGTH = 10  # degree-lex order beta_00 ... beta_03


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # malformed command lines are input errors, not argparse's default exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _fail(code: int, message: str) -> int:
    _emit({"error": {"code": code, "message": message}})
    return code


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_request(obj) -> tuple[MomentSequence, dict, int | None]:
    if not isinstance(obj, dict) or "beta" not in obj:
        raise _InputError('request must be a JSON object with a "beta" array')
    beta = obj["beta"]
    if not isinstance(beta, list) or len(beta) != BETA_LENGTH:
        raise _InputError(f'"beta" must hold exactly {BETA_LENGTH} numbers (degree-lex)')
    try:
        values = [float(v) for v in beta]
    except OverflowError as exc:  # an int beyond the float range
        raise _InputError('"beta" entries must be finite') from exc
    except (TypeError, ValueError) as exc:
        raise _InputError('"beta" entries must be numbers') from exc
    if not all(np.isfinite(values)):
        raise _InputError('"beta" entries must be finite')
    if values[0] <= 0.0:
        raise _InputError("beta_00 must be positive")
    tols = obj.get("tolerances", {})
    if not isinstance(tols, dict):
        raise _InputError('"tolerances" must be an object')
    unknown = set(tols) - {field.name for field in dataclasses.fields(Tolerances)}
    if unknown:
        raise _InputError(f"unknown tolerance keys: {sorted(unknown)}")
    seed = obj.get("seed")
    if seed is not None:
        seed = _seed('"seed"', seed)
    return MomentSequence(3, np.array(values)), tols, seed


def _resolve_tolerances(args, request_tols: dict) -> Tolerances:
    """Flag, then request body, then default; each given value must be finite and positive."""
    merged = dataclasses.asdict(DEFAULT_TOLERANCES)
    for key in merged:
        value = getattr(args, f"tol_{key}", None)
        if value is None:  # command-line flags win over the request body
            value = request_tols.get(key, merged[key])
        merged[key] = _tolerance(key, value)
    return Tolerances(**merged)


def _tolerance(key: str, value) -> float:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value <= sys.float_info.max):
        raise _InputError(f'tolerance "{key}" must be a finite positive number, got {value!r}')
    return float(value)


def _resolve_seed(args, request_seed: int | None) -> int:
    """Flag, then request body, then environment variable, then 0."""
    if getattr(args, "seed", None) is not None:
        return _seed("--seed", args.seed)
    if request_seed is not None:
        return request_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _seed(SEED_ENV_VAR, int(env))
        except ValueError:
            return _seed(SEED_ENV_VAR, env)
    return 0


def _seed(source: str, value) -> int:
    # bool is an int subclass, and numpy rejects a negative seed with a ValueError
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise _InputError(f"{source} must be a non-negative integer, got {value!r}")
    return value


def _map_payload(affine) -> dict:
    return {key: getattr(affine, key) for key in "abcdef"}


def cmd_solve(args) -> int:
    try:
        request = _read_json(args.input)
        beta, request_tols, request_seed = _parse_request(request)
        tolerances = _resolve_tolerances(args, request_tols)
        seed = _resolve_seed(args, request_seed)
    except _InputError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        mu, report = solve_cubic(beta, seed=seed, tolerances=tolerances)
    except SingularM1Error as exc:
        return _fail(EXIT_SINGULAR, str(exc))
    except MomentProblemError as exc:
        return _fail(EXIT_VERIFY, str(exc))
    cert = report.certificate
    payload = {
        "atoms": [{"x": a.x, "y": a.y, "weight": a.weight} for a in mu.atoms],
        "diagnostics": {
            "case": report.case.value,
            "k": report.k,
            "rank": report.rank,
            "variety_size": report.variety_size,
            "max_moment_residual": report.max_moment_residual,
            "min_weight": report.min_weight,
            "commutator_norm": report.commutator_norm,
            "d2": cert.d2,
            "d3": cert.d3,
            "a_vec": list(cert.a_vec),
            "map": _map_payload(cert.map),
        },
    }
    if args.emit_matrices:
        # all matrices live in the normalized coordinates of the map above
        m1 = build_moment_matrix(cert.normalized.truncated(2))
        matrices = {
            "m1": m1.entries.tolist(),
            "m2": report.extension.m2.entries.tolist(),
        }
        m3 = report.extension.m3
        if m3 is not None:
            matrices["m3"] = m3.entries.tolist()
        payload["matrices"] = matrices
    _emit(payload)
    if not args.quiet:
        print(
            f"{report.case.value}: {len(mu.atoms)} atoms, "
            f"max residual {report.max_moment_residual:.2e}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        beta_obj = _read_json(args.beta)
        beta, _, _ = _parse_request(beta_obj)
        measure_obj = _read_json(args.measure)
        mu = _parse_measure(measure_obj)
        tol = _tolerance("tol", args.tol)
    except _InputError as exc:
        return _fail(EXIT_INPUT, str(exc))
    check = verify_measure(mu, beta)
    print(f"{'moment':>8}  {'target':>22}  {'residual':>12}")
    for m, residual in zip(monomials_up_to(beta.degree), check.residuals):
        print(f"beta_{m.i}{m.j:<3}  {beta[m]:>22.15g}  {residual:>12.3e}")
    ok = check.max_moment_residual <= tol
    print(
        f"max residual {check.max_moment_residual:.3e} "
        f"({'within' if ok else 'EXCEEDS'} tolerance {tol:g}), "
        f"min weight {check.min_weight:.3e}"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_measure(obj) -> AtomicMeasure:
    if not isinstance(obj, dict) or "atoms" not in obj or not isinstance(obj["atoms"], list):
        raise _InputError('measure must be a JSON object with an "atoms" array')
    atoms = []
    for entry in obj["atoms"]:
        try:
            atom = Atom(float(entry["x"]), float(entry["y"]), float(entry["weight"]))
        except OverflowError as exc:  # an int beyond the float range
            raise _InputError('atom "x", "y", "weight" must be finite') from exc
        except (TypeError, KeyError, ValueError) as exc:
            raise _InputError('each atom needs numeric "x", "y", "weight"') from exc
        if not all(map(math.isfinite, atom)):
            raise _InputError('atom "x", "y", "weight" must be finite')
        atoms.append(atom)
    return AtomicMeasure(tuple(atoms))


def random_request(n_atoms: int, seed: int) -> dict:
    """Exact degree-3 moments of a random atomic measure.

    Draws are redone until both leading minors of the rescaled M(1) clear
    0.01, so the emitted instance is solidly nonsingular.
    """
    if n_atoms < 3:
        raise ValueError("need at least 3 atoms to make M(1) reliably nonsingular")
    rng = np.random.default_rng(seed)
    while True:
        points = rng.uniform(-1.5, 1.5, size=(n_atoms, 2))
        weights = rng.uniform(0.2, 1.5, size=n_atoms)
        mu = AtomicMeasure(
            tuple(Atom(x, y, w) for (x, y), w in zip(points, weights))
        )
        seq = mu.moments(3)
        d2, d3 = minors(seq.rescaled(1.0 / seq[0, 0]))
        if d2 > 0.01 and d3 > 0.01:
            return {"beta": [float(v) for v in seq.values], "seed": int(seed)}


def cmd_random(args) -> int:
    if args.atoms < 3:
        return _fail(EXIT_INPUT, "--atoms must be at least 3")
    try:
        seed = _resolve_seed(args, None)
    except _InputError as exc:
        return _fail(EXIT_INPUT, str(exc))
    _emit(random_request(args.atoms, seed))
    return EXIT_OK


def cmd_info(args) -> int:
    try:
        request = _read_json(args.input)
        beta, request_tols, _ = _parse_request(request)
        tol_k = _resolve_tolerances(args, request_tols).k
    except _InputError as exc:
        return _fail(EXIT_INPUT, str(exc))
    try:
        cert = normalize_cubic(beta)
        k = compute_k(cert.a_vec)
        case = classify_k(k, tol_k)
    except SingularM1Error as exc:
        return _fail(EXIT_SINGULAR, str(exc))
    except MomentProblemError as exc:
        return _fail(EXIT_VERIFY, str(exc))
    _emit(
        {
            "d2": cert.d2,
            "d3": cert.d3,
            "map": _map_payload(cert.map),
            "a_vec": list(cert.a_vec),
            "k": k,
            "case": case.value,
            "normalized_beta": [float(v) for v in cert.normalized.values],
        }
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubicmoment",
        description=(
            "Solve the nonsingular bivariate cubic moment problem: given the "
            "ten moments beta_00..beta_03 (degree-lex), recover a 3- or "
            "4-atomic representing measure with a verifiable certificate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    solve = sub.add_parser("solve", help="recover a representing measure from a JSON request")
    solve.add_argument("input", nargs="?", default="-", help="request file, or - for stdin")
    solve.add_argument("--tol-k", type=float, default=None, help="three-way case-split threshold on k")
    solve.add_argument("--tol-accept", type=float, default=None, help="largest admissible moment residual")
    solve.add_argument("--seed", type=int, default=None, help="seed for the randomized eigensolver")
    solve.add_argument("--emit-matrices", action="store_true", help="include m1/m2/(m3) row-major in the response")
    solve.add_argument("--quiet", action="store_true", help="suppress the stderr summary line")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a measure against a moment request")
    verify.add_argument("beta", help="moment request file")
    verify.add_argument("measure", help='measure file with an "atoms" array')
    verify.add_argument("--tol", type=float, default=DEFAULT_TOLERANCES.accept, help="largest admissible residual")
    verify.set_defaults(func=cmd_verify)

    random_cmd = sub.add_parser("random", help="emit a random solvable request (for testing)")
    random_cmd.add_argument("--atoms", type=int, default=4, help="number of atoms (>= 3)")
    random_cmd.add_argument("--seed", type=int, default=None, help="generator seed")
    random_cmd.set_defaults(func=cmd_random)

    info = sub.add_parser("info", help="normalization diagnostics only, no solve")
    info.add_argument("input", nargs="?", default="-", help="request file, or - for stdin")
    info.add_argument("--tol-k", type=float, default=None, help="case-split threshold on k")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with np.errstate(all="ignore"):  # an overflow shows as inf/nan or a typed error
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
