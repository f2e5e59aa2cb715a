"""Command-line front end: JSON in, JSON (or a residual table) out.

Exit codes: 0 success, 1 malformed input, 2 out-of-scope input (singular
M(1)), 3 verification failure or a downstream solver fault, 141 stdout
closed before the output was written (128 + SIGPIPE, as a shell reports
it). A closed stderr only drops solve's summary line. The commands raise;
main maps each error to its code and one JSON error document.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .cubic import classify_k, compute_k, tie_band
from .errors import TOL_ACCEPT, MomentProblemError, SingularM1Error
from .measure import solve_cubic, verify_measure
from .moments import (
    Atom,
    AtomicMeasure,
    MomentSequence,
    build_moment_matrix,
    monomials_up_to,
    sequence_length,
)
from .normalize import minors, normalize_cubic

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141

BETA_LENGTH = sequence_length(3)  # degree-lex order beta_00 ... beta_03


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # malformed command lines are input errors, not argparse's default exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _fail(code: int, exc: Exception) -> int:
    error = {"code": code, "message": str(exc)}
    if isinstance(exc, MomentProblemError):  # its fields; strict JSON has no inf or NaN, so those are null
        value, bound = [v if v is None or math.isfinite(v) else None for v in (exc.value, exc.bound)]
        error.update(stage=exc.stage, quantity=exc.quantity, value=value, bound=bound)
    _emit({"error": error})
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
    except RecursionError as exc:  # arrays or objects nested past the interpreter's recursion limit
        raise _InputError(f"invalid JSON in {path}: nested too deeply") from exc


def _parse_request(obj) -> tuple[MomentSequence, float]:
    """The moments and the accept tolerance (a backward error) of a request, TOL_ACCEPT when it sets none."""
    if not isinstance(obj, dict) or "beta" not in obj:
        raise _InputError('request must be a JSON object with a "beta" array')
    beta = obj["beta"]
    if not isinstance(beta, list) or len(beta) != BETA_LENGTH:
        raise _InputError(f'"beta" must hold exactly {BETA_LENGTH} numbers (degree-lex)')
    values = _finite_floats(beta, '"beta" entries must be numbers', '"beta" entries must be finite')
    if values[0] <= 0.0:
        raise _InputError("beta_00 must be positive")
    tols = obj.get("tolerances", {})
    if not isinstance(tols, dict):
        raise _InputError('"tolerances" must be an object')
    unknown = set(tols) - {"accept"}
    if unknown:
        raise _InputError(f"unknown tolerance keys: {sorted(unknown)}")
    accept = tols.get("accept", TOL_ACCEPT)
    if not (_is_number(accept) and 0 < accept <= sys.float_info.max):
        raise _InputError(f'tolerance "accept" must be a finite positive number, got {accept!r}')
    return MomentSequence(3, np.array(values)), float(accept)


def _is_number(value) -> bool:
    """A JSON number as json.load reads it: an int or a float, and not true or false, which are ints too."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_floats(values, not_numbers: str, not_finite: str) -> list[float]:
    """values as floats, raising not_numbers unless each is a JSON number and not_finite unless each is finite."""
    if not all(map(_is_number, values)):
        raise _InputError(not_numbers)
    try:
        floats = [float(v) for v in values]
    except OverflowError as exc:  # an int beyond the float range
        raise _InputError(not_finite) from exc
    if not all(map(math.isfinite, floats)):
        raise _InputError(not_finite)
    return floats


def _map_payload(psi) -> dict:
    """The coefficients a, ..., f of psi(x, y) = (a + b x + c y, d + e x + f y), rows 1-2 of psi."""
    return dict(zip("abcdef", psi[1:].ravel().tolist()))


def cmd_solve(args) -> int:
    beta, accept = _parse_request(_read_json(args.input))
    mu, report = solve_cubic(beta, accept)
    cert, ext, check = report.certificate, report.extension, report.check
    payload = {
        "atoms": [{"x": a.x, "y": a.y, "weight": a.weight} for a in mu.atoms],
        "diagnostics": {
            "case": report.case.value,
            "k": ext.k,
            "rank": len(ext.basis),
            "variety_size": len(mu.atoms),
            "max_moment_residual": check.max_moment_residual,
            "backward_error": check.backward_error,
            "min_weight": check.min_weight,
            "commutator_norm": report.commutator_norm,
            "d2": cert.d2,
            "d3": cert.d3,
            "a_vec": cert.normalized.values[6:].tolist(),
            "map": _map_payload(cert.map),
        },
    }
    if args.emit_matrices:
        # all matrices live in the normalized coordinates of the map above
        m1 = build_moment_matrix(cert.normalized.truncated(2))
        matrices = {
            "m1": m1.tolist(),
            "m2": ext.m2.tolist(),
        }
        m3 = ext.m3
        if m3 is not None:
            matrices["m3"] = m3.tolist()
        payload["matrices"] = matrices
    _emit(payload)
    if not args.quiet and sys.stderr is not None:  # None when fd 2 was closed at start: print would use stdout
        summary = f"{report.case.value}: {len(mu.atoms)} atoms, backward error {check.backward_error:.2e}"
        try:
            print(summary, file=sys.stderr, flush=True)
        except OSError:  # a closed stderr drops the summary, and the exit code stays the solve's
            _to_devnull(sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    beta, accept = _parse_request(_read_json(args.beta))
    mu = _parse_measure(_read_json(args.measure))
    check = verify_measure(mu, beta)
    print(f"{'moment':>8}  {'target':>22}  {'residual':>12}")
    for (i, j), residual in zip(monomials_up_to(beta.degree), check.residuals):
        print(f"beta_{i}{j:<3}  {beta[i, j]:>22.15g}  {residual:>12.3e}")
    ok = check.backward_error <= accept
    print(
        f"max residual {check.max_moment_residual:.3e}, "
        f"backward error {check.backward_error:.3e} ({'within' if ok else 'EXCEEDS'} tolerance {accept:g}), "
        f"min weight {check.min_weight:.3e}"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_measure(obj) -> AtomicMeasure:
    if not isinstance(obj, dict) or "atoms" not in obj or not isinstance(obj["atoms"], list):
        raise _InputError('measure must be a JSON object with an "atoms" array')
    messages = 'each atom needs numeric "x", "y", "weight"', 'atom "x", "y", "weight" must be finite'
    atoms = []
    for entry in obj["atoms"]:
        coordinates = [entry.get(key) for key in ("x", "y", "weight")] if isinstance(entry, dict) else [None]
        atoms.append(Atom(*_finite_floats(coordinates, *messages)))
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
        d2, d3 = minors(seq)
        if d2 > 0.01 and d3 > 0.01:
            return {"beta": [float(v) for v in seq.values], "seed": int(seed)}


def cmd_random(args) -> int:
    if args.atoms < 3:
        raise _InputError("--atoms must be at least 3")
    if args.seed < 0:  # numpy rejects a negative seed with a ValueError
        raise _InputError(f"--seed must be a non-negative integer, got {args.seed!r}")
    _emit(random_request(args.atoms, args.seed))
    return EXIT_OK


def cmd_info(args) -> int:
    beta, _ = _parse_request(_read_json(args.input))
    cert = normalize_cubic(beta)
    a = cert.normalized.values[6:].tolist()  # the cubic moments beta~_30, ..., beta~_03
    k = compute_k(a)
    _emit(
        {
            "d2": cert.d2,
            "d3": cert.d3,
            "map": _map_payload(cert.map),
            "a_vec": a,
            "k": k,
            "case": classify_k(k, tie_band(a)).value,  # the route solve tries first
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
    solve.add_argument("--emit-matrices", action="store_true", help="include m1/m2/(m3) row-major in the response")
    solve.add_argument("--quiet", action="store_true", help="suppress the stderr summary line")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check a measure against a moment request")
    verify.add_argument("beta", help="moment request file")
    verify.add_argument("measure", help='measure file with an "atoms" array')
    verify.set_defaults(func=cmd_verify)

    random_cmd = sub.add_parser("random", help="emit a random solvable request (for testing)")
    random_cmd.add_argument("--atoms", type=int, default=4, help="number of atoms (>= 3)")
    random_cmd.add_argument("--seed", type=int, default=0, help="generator seed")
    random_cmd.set_defaults(func=cmd_random)

    info = sub.add_parser("info", help="normalization diagnostics only, no solve")
    info.add_argument("input", nargs="?", default="-", help="request file, or - for stdin")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:
        _to_devnull(sys.stdout)  # nothing is printed
        return EXIT_PIPE
    return code


def _to_devnull(stream) -> None:
    """Point stream's file descriptor at os.devnull, so the flush at exit does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _run(args) -> int:
    """The command's exit code, each error mapped to its code and error document."""
    try:
        return args.func(args)
    except _InputError as exc:
        return _fail(EXIT_INPUT, exc)
    except SingularM1Error as exc:
        return _fail(EXIT_SINGULAR, exc)
    except MomentProblemError as exc:
        return _fail(EXIT_VERIFY, exc)


if __name__ == "__main__":
    sys.exit(main())
