import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmoment import (
    Atom,
    AtomicMeasure,
    MomentProblemError,
    SingularM1Error,
)
from cubicmoment import cli
from cubicmoment.cli import main, random_request

KPOS_REQUEST = {"beta": [1, 0, 0, 1, 0, 1, 0, 0, 0, 0]}
K0_REQUEST = {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 0, 0]}
KNEG_REQUEST = {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 1, 0]}
SINGULAR_D2 = {"beta": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]}
SINGULAR_D3 = {"beta": [1, 0, 0, 1, 1, 1, 0, 0, 0, 0]}
NOT_A_REQUEST = 'request must be a JSON object with a "beta" array'
NOT_A_MEASURE = 'measure must be a JSON object with an "atoms" array'
NOT_POSITIVE = 'tolerance "accept" must be a finite positive number, got {!r}'


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def solver_error(out: str) -> dict:
    """The error document of a solver error: strict JSON, with its four fields beside code and message."""
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert list(error) == ["code", "message", "stage", "quantity", "value", "bound"]
    return error


class TestSolve:
    def test_kpos_closed_form(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        code, out, err = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["case"] == "k_pos"
        assert payload["diagnostics"]["rank"] == 4
        atoms = sorted((round(a["x"]), round(a["y"])) for a in payload["atoms"])
        assert atoms == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for atom in payload["atoms"]:
            assert atom["weight"] == pytest.approx(0.25, abs=1e-10)
        assert err == ""

    def test_k0_case(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", K0_REQUEST)
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        payload = json.loads(out)
        assert code == 0
        assert payload["diagnostics"]["case"] == "k_zero"
        assert len(payload["atoms"]) == 3

    def test_summary_line_on_stderr(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        _, _, err = run_cli(capsys, ["solve", path])
        assert "k_pos" in err and "4 atoms" in err

    def test_without_stderr_stdout_is_one_json_document(self, tmp_path, capsys, monkeypatch):
        # fd 2 closed at start (`solve 2>&-`) leaves sys.stderr None, and print(file=None) writes to stdout
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        _, quiet, _ = run_cli(capsys, ["solve", path, "--quiet"])
        monkeypatch.setattr(sys, "stderr", None)
        code, out, _ = run_cli(capsys, ["solve", path])
        assert (code, out) == (0, quiet)
        assert json.loads(out)["diagnostics"]["case"] == "k_pos"

    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, monkeypatch):
        # json's parser recurses once per level and raises RecursionError past the interpreter's limit
        nested = "[" * 100_000 + "]" * 100_000
        deep = tmp_path / "deep.json"
        deep.write_text(nested)
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        for argv in (["solve", str(deep)], ["info", str(deep)], ["verify", req, str(deep)]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            assert json.loads(out)["error"] == {"code": 1, "message": f"invalid JSON in {deep}: nested too deeply"}
        monkeypatch.setattr(sys, "stdin", io.StringIO(nested))
        code, out, _ = run_cli(capsys, ["solve"])
        assert (code, json.loads(out)["error"]["message"]) == (1, "invalid JSON in -: nested too deeply")

    def test_singular_d2_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", SINGULAR_D2)
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 2
        payload = json.loads(out)
        error = solver_error(out)
        assert error["code"] == 2
        # d2 = 0 with its rounding scale t2 = |b20| + b10^2 = 0: the bound 64 u t2 is 0 too
        assert [error[key] for key in ("stage", "quantity", "value", "bound")] == ["normalize", "d2", 0.0, 0.0]
        assert "atoms" not in payload

    def test_overflowing_cubic_moment_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0, 1, 0, 1, 0, 1e200, 0, 0]})
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 3
        error = solver_error(out)
        # k = -inf is not JSON: the value is null, and the message still prints it
        assert (error["stage"], error["quantity"], error["value"], error["bound"]) == ("extend", "k", None, None)
        assert error["message"] == "extend failed: k = -inf"

    def test_singular_d3_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", SINGULAR_D3)
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 2
        assert solver_error(out)["quantity"] == "d3"

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out, _ = run_cli(capsys, ["solve", str(path), "--quiet"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == 1

    def test_wrong_length_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0]})
        code, _, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 1

    def test_nonpositive_mass_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", {"beta": [-1, 0, 0, 1, 0, 1, 0, 0, 0, 0]})
        code, _, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, ["solve", "/nonexistent/req.json", "--quiet"])
        assert code == 1

    def test_int_beyond_float_range_exits_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0, 1, 0, 1, 0, 10**400, 0, 0]})
        for argv in (["solve", path, "--quiet"], ["info", path]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            assert json.loads(out)["error"]["message"] == '"beta" entries must be finite'
        req = write_json(tmp_path, "ok.json", KPOS_REQUEST)
        measure = write_json(tmp_path, "measure.json", {"atoms": [{"x": 10**400, "y": 0, "weight": 1}]})
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 1
        assert json.loads(out)["error"]["message"] == 'atom "x", "y", "weight" must be finite'

    @pytest.mark.parametrize(
        "beta",
        [
            ["1", "0", "0", "1", "0", "1", "0", "0", "0", "0"],
            [True, 0, 0, True, 0, True, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, " 1 ", 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 1, 0, 0, 0, False],
        ],
    )
    def test_only_json_numbers_are_moments(self, tmp_path, capsys, beta):
        # strings and booleans that float() would read as the k_pos example are not numbers
        path = write_json(tmp_path, "req.json", {"beta": beta})
        for argv in (["solve", path, "--quiet"], ["info", path]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            assert json.loads(out)["error"]["message"] == '"beta" entries must be numbers'

    def test_emit_matrices(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KNEG_REQUEST)
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet", "--emit-matrices"])
        assert code == 0
        matrices = json.loads(out)["matrices"]
        assert np.allclose(matrices["m1"], np.eye(3))
        assert np.asarray(matrices["m2"]).shape == (6, 6)
        assert np.asarray(matrices["m3"]).shape == (10, 10)

    def test_no_m3_for_kpos(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        _, out, _ = run_cli(capsys, ["solve", path, "--quiet", "--emit-matrices"])
        assert "m3" not in json.loads(out)["matrices"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KNEG_REQUEST)
        _, first, _ = run_cli(capsys, ["solve", path, "--quiet"])
        _, second, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert first == second

    @pytest.mark.parametrize("seed", [0, -1, "x"])
    def test_request_seed_is_ignored(self, tmp_path, capsys, seed):
        plain = write_json(tmp_path, "plain.json", KNEG_REQUEST)
        seeded = write_json(tmp_path, "seeded.json", dict(KNEG_REQUEST, seed=seed))
        expected = run_cli(capsys, ["solve", plain, "--emit-matrices"])
        assert expected[0] == 0
        assert run_cli(capsys, ["solve", seeded, "--emit-matrices"]) == expected

    def test_seed_flag_is_unrecognized(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KNEG_REQUEST)
        with pytest.raises(SystemExit) as info:
            main(["solve", path, "--seed", "3"])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --seed 3" in err

    def test_request_tolerance_override(self, tmp_path, capsys):
        request = dict(KPOS_REQUEST, tolerances={"accept": 1e-3})
        path = write_json(tmp_path, "req.json", request)
        code, _, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 0

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(KPOS_REQUEST)))
        code, out, _ = run_cli(capsys, ["solve", "--quiet"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["case"] == "k_pos"


    @pytest.mark.parametrize(
        "body, message",
        [
            ([], NOT_A_REQUEST),
            (KPOS_REQUEST["beta"], NOT_A_REQUEST),
            ({"tolerances": {}}, NOT_A_REQUEST),
            (dict(KPOS_REQUEST, tolerances=[]), '"tolerances" must be an object'),
            *[
                (dict(KPOS_REQUEST, tolerances={"k": k}), "unknown tolerance keys: ['k']")
                for k in (None, float("inf"), float("nan"), 1e-10)
            ],
            *[
                (dict(KPOS_REQUEST, tolerances={"accept": v}), NOT_POSITIVE.format(v))
                for v in (True, 0, -1.0, float("inf"), float("nan"), 10**400)
            ],
        ],
    )
    def test_malformed_request_exits_1(self, tmp_path, capsys, body, message):
        path = write_json(tmp_path, "req.json", body)
        measure = write_json(tmp_path, "measure.json", {"atoms": []})
        outs = set()
        # a malformed request is malformed for every command
        for argv in (["solve", path], ["info", path], ["verify", path, measure]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            outs.add(out)
        (out,) = outs
        assert json.loads(out) == {"error": {"code": 1, "message": message}}

    @pytest.mark.parametrize("argv", [["solve", "--tol-accept", "1e-6"], ["verify", "--tol", "0.1"]])
    def test_tolerance_flags_are_unrecognized(self, tmp_path, capsys, argv):
        # the request's accept is the only accept setting on the command line
        command, *flags = argv
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        files = [req] if command == "solve" else [req, write_json(tmp_path, "measure.json", {"atoms": []})]
        with pytest.raises(SystemExit) as info:
            main([command, *files, *flags])
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + json.dumps(KPOS_REQUEST).encode("utf-16-le"))
        good = write_json(tmp_path, "req.json", KPOS_REQUEST)
        measure = write_json(tmp_path, "measure.json", {"atoms": []})
        for argv in (["solve", str(bad)], ["info", str(bad)], ["verify", str(bad), measure], ["verify", good, str(bad)]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 1
            assert "UTF-8" in json.loads(out)["error"]["message"]

    def test_psd_tolerance_is_unknown(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", dict(KPOS_REQUEST, tolerances={"psd": 1e-10}))
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 1
        assert json.loads(out)["error"]["message"] == "unknown tolerance keys: ['psd']"
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        with pytest.raises(SystemExit) as info:
            main(["solve", path, "--tol-psd", "1e-10"])
        assert info.value.code == 1
        assert "unrecognized arguments: --tol-psd" in capsys.readouterr().err

    def test_rank_is_the_atom_count_at_small_k(self, tmp_path, capsys):
        # k = 3e-10 is beyond tol_k, so the rank-4 k > 0 route gives four atoms,
        # although M(2) has an eigenvalue of order k
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 0, 3e-10]})
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 0
        payload = json.loads(out)
        diagnostics = payload["diagnostics"]
        assert diagnostics["case"] == "k_pos"
        assert len(payload["atoms"]) == diagnostics["rank"] == diagnostics["variety_size"] == 4


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        code, out, _ = run_cli(capsys, ["solve", req, "--quiet"])
        assert code == 0
        measure = write_json(tmp_path, "measure.json", json.loads(out))
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 0
        assert "beta_00" in out and "max residual" in out
        strict = write_json(tmp_path, "strict.json", dict(KPOS_REQUEST, tolerances={"accept": 1e-18}))
        code, out, _ = run_cli(capsys, ["verify", strict, measure])
        assert code == 3
        assert "(EXCEEDS tolerance 1e-18)" in out

    def test_verify_judges_by_the_request_accept_as_solve_does(self, tmp_path, capsys):
        # a near-tie with k just above its tie band (tests/test_measure.py's TIE_FAILS): the k = 0 route's
        # backward error, about 3.98e-7, is within the request's accept 1e-6 but not the default 1e-8
        beta = [1, 0, 0, 1, 0, 1, -444.1486624295237, -694.3378775092427, -1085.3329447795145, -1696.5839710198004]
        req = write_json(tmp_path, "req.json", {"beta": beta, "tolerances": {"accept": 1e-6}})
        code, out, _ = run_cli(capsys, ["solve", req, "--quiet"])
        assert code == 0
        assert 3.9e-7 < json.loads(out)["diagnostics"]["backward_error"] < 4.0e-7
        measure = write_json(tmp_path, "measure.json", json.loads(out))
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 0
        assert "(within tolerance 1e-06)" in out
        default = write_json(tmp_path, "default.json", {"beta": beta})
        code, out, _ = run_cli(capsys, ["verify", default, measure])
        assert code == 3
        assert "(EXCEEDS tolerance 1e-08)" in out
        code, out, _ = run_cli(capsys, ["solve", default, "--quiet"])
        assert code == 3

    def test_perturbed_weight_exits_3(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        _, out, _ = run_cli(capsys, ["solve", req, "--quiet"])
        payload = json.loads(out)
        payload["atoms"][0]["weight"] += 1e-3
        measure = write_json(tmp_path, "measure.json", payload)
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 3
        assert "EXCEEDS" in out

    def test_loose_tolerance_passes(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        _, out, _ = run_cli(capsys, ["solve", req, "--quiet"])
        payload = json.loads(out)
        payload["atoms"][0]["weight"] += 1e-3
        measure = write_json(tmp_path, "measure.json", payload)
        loose = write_json(tmp_path, "loose.json", dict(KPOS_REQUEST, tolerances={"accept": 0.1}))
        code, out, _ = run_cli(capsys, ["verify", loose, measure])
        assert code == 0
        assert "within tolerance 0.1" in out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        code, _, _ = run_cli(capsys, ["verify", req, str(tmp_path / "nope.json")])
        assert code == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            # the exact measure of KPOS_REQUEST, the points (+-1, +-1), with NaN in place of x = 1
            (
                {"atoms": [{"x": x, "y": y, "weight": 0.25} for x in (math.nan, -1.0) for y in (1.0, -1.0)]},
                'atom "x", "y", "weight" must be finite',
            ),
            ([], NOT_A_MEASURE),
            ({}, NOT_A_MEASURE),
            ({"atoms": None}, NOT_A_MEASURE),
            ({"atoms": {"x": 1, "y": 1, "weight": 1}}, NOT_A_MEASURE),
        ],
    )
    def test_malformed_measure_exits_1(self, tmp_path, capsys, payload, message):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        measure = write_json(tmp_path, "measure.json", payload)
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 1
        assert json.loads(out) == {"error": {"code": 1, "message": message}}

    @pytest.mark.parametrize(
        "atom",
        [
            {"x": "1", "y": True, "weight": "0.25"},
            {"x": 1, "y": 1, "weight": "0.25"},
            {"x": True, "y": 1, "weight": 0.25},
            {"x": 1, "y": " 1 ", "weight": 0.25},
        ],
    )
    def test_only_json_numbers_are_atom_fields(self, tmp_path, capsys, atom):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        # the exact measure of KPOS_REQUEST with one atom (1, 1, 0.25) written as given
        atoms = [atom] + [{"x": sx, "y": sy, "weight": 0.25} for sx, sy in ((1, -1), (-1, 1), (-1, -1))]
        measure = write_json(tmp_path, "measure.json", {"atoms": atoms})
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 1
        assert json.loads(out)["error"]["message"] == 'each atom needs numeric "x", "y", "weight"'

    def test_overflowing_atom_exits_3(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        atoms = [{"x": 1e200, "y": 0, "weight": 1}]  # x^2 overflows the float range
        measure = write_json(tmp_path, "measure.json", {"atoms": atoms})
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 3
        assert "max residual nan, backward error nan (EXCEEDS" in out


class TestRandom:
    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, ["random", "--atoms", "4", "--seed", "7"])
        _, second, _ = run_cli(capsys, ["random", "--atoms", "4", "--seed", "7"])
        assert first == second
        payload = json.loads(first)
        assert len(payload["beta"]) == 10
        assert payload["seed"] == 7

    def test_pipes_into_solve(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["random", "--atoms", "5", "--seed", "11"])
        assert code == 0
        path = write_json(tmp_path, "req.json", json.loads(out))
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 0
        assert json.loads(out)["diagnostics"]["max_moment_residual"] <= 1e-8

    def test_too_few_atoms_rejected(self, capsys):
        code, out, _ = run_cli(capsys, ["random", "--atoms", "2"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == 1
        # the command checks before the generator, which checks for its other callers
        with pytest.raises(ValueError, match="need at least 3 atoms"):
            random_request(2, 0)

    def test_negative_seed_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, ["random", "--seed", "-1"])
        assert code == 1
        assert "non-negative integer" in json.loads(out)["error"]["message"]

    def test_seed_defaults_to_0(self, capsys, monkeypatch):
        monkeypatch.setenv("MOMENT_SOLVER_SEED", "42")  # no environment value reaches the generator
        _, default, _ = run_cli(capsys, ["random", "--atoms", "4"])
        _, zero, _ = run_cli(capsys, ["random", "--atoms", "4", "--seed", "0"])
        assert default == zero


class TestInfo:
    def test_kpos_diagnostics(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        code, out, _ = run_cli(capsys, ["info", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 1.0
        assert payload["case"] == "k_pos"
        assert payload["d2"] == 1.0 and payload["d3"] == 1.0
        assert payload["normalized_beta"][:6] == [1, 0, 0, 1, 0, 1]

    def test_k0_diagnostics(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", K0_REQUEST)
        _, out, _ = run_cli(capsys, ["info", path])
        assert json.loads(out)["k"] == pytest.approx(0.0, abs=1e-14)

    def test_singular_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", SINGULAR_D2)
        code, out, _ = run_cli(capsys, ["info", path])
        assert code == 2
        assert solver_error(out)["quantity"] == "d2"

    def test_out_of_scope_pivot_exits_2_like_solve(self, tmp_path, capsys):
        # four atoms near the line y = 483107.29: d3 = 5.9e4 is below its rounding scale 64 u t3 = 6.4e6, so
        # the input is out of scope (exit 2); with a pivot bound relative to the largest entry of M(1), the
        # pushed-forward M(1) rounded to an indefinite matrix, a fault (exit 3)
        atoms = [
            (-44501.38264829572, 483107.2875033109, 0.6925377303771841),
            (41806.91316264958, 483107.2875032406, 0.47100608652878617),
            (-30916.76938839168, 483107.2875029994, 0.6381984433326882),
            (52756.54738342965, 483107.2875036431, 0.8273509685217525),
        ]
        mu = AtomicMeasure(tuple(Atom(x, y, w) for x, y, w in atoms))
        path = write_json(tmp_path, "req.json", {"beta": mu.moments(3).values.tolist()})
        code, info_out, _ = run_cli(capsys, ["info", path])
        assert code == 2
        error = solver_error(info_out)
        assert (error["stage"], error["quantity"]) == ("normalize", "d3") and 0.0 < error["value"] <= error["bound"]
        code, solve_out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert (code, solve_out) == (2, info_out)

    @pytest.mark.parametrize(
        "beta, stage, quantity, value",
        [
            # 1 / beta_00 = inf, and 5.2e280 finite, whose rescaled beta_20 overflows
            ([1e-320, 0, 0, 1, 0, 1, 0, 0, 0, 0], "normalize", "1 / beta_00", None),
            ([1.9055892520074806e-281, 1, 0, 3.4256647162012635e27, 0, 0, 0, 0, 0, 0], "normalize", "1 / beta_00",
             1 / 1.9055892520074806e-281),
            ([1, 0, 0, 1e300, 0, 1e300, 0, 0, 0, 0], "normalize", "d3", None),  # d3 = inf
            ([1, 0, 0, 1, 0, 1, 0, 1e200, 0, 0], "extend", "k", None),  # k = -inf
            ([1, 0.9, 0, 1, 0, 1, 1.7e308, 0, 0, 0], "normalize", "refined d2", None),  # the whitened cubics overflow
        ],
    )
    def test_overflowing_normalization_exits_3(self, tmp_path, capsys, beta, stage, quantity, value):
        path = write_json(tmp_path, "req.json", {"beta": beta})
        for argv in (["info", path], ["solve", path, "--quiet"]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 3
            error = solver_error(out)
            assert (error["stage"], error["quantity"], error["value"]) == (stage, quantity, value)

    def test_k_is_not_settable(self, tmp_path, capsys):
        # k = 0.3: info reports k_pos, the route solve tries first, and neither takes a tie band
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 0, 0.3]})
        _, out, _ = run_cli(capsys, ["info", path])
        assert json.loads(out)["case"] == "k_pos"
        for command in ("solve", "info"):
            with pytest.raises(SystemExit) as info:
                main([command, path, "--tol-k", "0.5"])
            assert info.value.code == 1
            assert "unrecognized arguments: --tol-k 0.5" in capsys.readouterr().err
        request = {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 0, 0.3], "tolerances": {"k": 0.5}}
        path = write_json(tmp_path, "req.json", request)
        for command in ("solve", "info"):
            code, out, _ = run_cli(capsys, [command, path])
            assert code == 1
            assert json.loads(out)["error"]["message"] == "unknown tolerance keys: ['k']"


class TestTypedErrorExits:
    """Each subcommand's stage raises; main maps every typed error to one exit code and one JSON document."""

    @pytest.mark.parametrize(
        "error, code, numbers",
        [
            (SingularM1Error("normalize", "d2", 0.0, 1.0), 2, [0.0, 1.0]),
            (MomentProblemError("joint spectrum", "max |Mx My - My Mx|", 1e-3, 1e-9), 3, [1e-3, 1e-9]),
            (MomentProblemError("joint spectrum", "max |Im lambda|", 1e-12, 0.0), 3, [1e-12, 0.0]),
            (MomentProblemError("densities", "V_B"), 3, [None, None]),
            (MomentProblemError("verify", "max moment residual", math.nan, math.inf), 3, [None, None]),
            (MomentProblemError("extend", "k", -math.inf), 3, [None, None]),
        ],
        ids=lambda value: f"{type(value).__name__}-{value.quantity}" if isinstance(value, Exception) else str(value),
    )
    @pytest.mark.parametrize(
        "command, stage", [("solve", "solve_cubic"), ("info", "normalize_cubic"), ("verify", "verify_measure")]
    )
    def test_one_exit_per_error(self, tmp_path, capsys, monkeypatch, command, stage, error, code, numbers):
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, stage, raising)
        argv = [command, write_json(tmp_path, "req.json", KPOS_REQUEST)]
        if command == "verify":
            atoms = [{"x": sx, "y": sy, "weight": 0.25} for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
            argv.append(write_json(tmp_path, "measure.json", {"atoms": atoms}))
        exit_code, out, _ = run_cli(capsys, argv)
        assert exit_code == code
        # a number that is not finite is null, so the document stays strict JSON
        value, bound = numbers
        fields = {"stage": error.stage, "quantity": error.quantity, "value": value, "bound": bound}
        assert out == json.dumps({"error": {"code": code, "message": str(error), **fields}}, indent=2) + "\n"
        assert solver_error(out)["message"] == str(error)

    def test_input_error_document_keeps_its_bytes(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0]})
        _, out, _ = run_cli(capsys, ["solve", path])
        message = '"beta" must hold exactly 10 numbers (degree-lex)'
        assert out == json.dumps({"error": {"code": 1, "message": message}}, indent=2) + "\n"


class TestSelfConsistency:
    def test_solve_output_verifies_over_100_seeds(self, tmp_path, capsys):
        for seed in range(100):
            code, out, _ = run_cli(capsys, ["random", "--atoms", "4", "--seed", str(seed)])
            assert code == 0
            req = write_json(tmp_path, "req.json", json.loads(out))
            code, out, _ = run_cli(capsys, ["solve", req, "--quiet"])
            assert code == 0
            measure = write_json(tmp_path, "measure.json", json.loads(out))
            code, _, _ = run_cli(capsys, ["verify", req, measure])
            assert code == 0


JSON_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
)
REQUESTS = st.fixed_dictionaries(
    {
        "beta": st.one_of(
            st.lists(JSON_VALUES, max_size=12),
            st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=10, max_size=10),
            st.builds(lambda n, seed: random_request(n, seed)["beta"], st.integers(3, 5), st.integers(0, 999)),
        )
    },
    optional={
        "seed": st.one_of(st.integers(max_value=-1), st.booleans(), st.text(max_size=4)),
        "tolerances": st.dictionaries(
            st.one_of(st.sampled_from(["k", "accept"]), st.text(max_size=4)), JSON_VALUES, max_size=3
        ),
    },
)


class TestProperty:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(request=REQUESTS)
    def test_every_request_gets_one_json_answer(self, request):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "req.json"
            path.write_text(json.dumps(request))
            for argv in (["solve", str(path), "--quiet"], ["info", str(path)]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                assert code in (0, 1, 2, 3)
                json.loads(out.getvalue(), parse_constant=_reject_constant)


class TestConsoleEntry:
    def test_installed_script(self, tmp_path):
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        proc = subprocess.run(
            [sys.executable, "-m", "cubicmoment", "solve", path, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["diagnostics"]["case"] == "k_pos"

    def test_usage_error_exits_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cubicmoment", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_overflow_prints_no_warning(self, tmp_path, capsys):
        # the overflow reaches the output as a typed error or a nan residual, not as numpy noise
        overflowing = write_json(tmp_path, "big.json", {"beta": [1, 0, 0, 1, 0, 1, 0, 1e140, 0, 0]})
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        measure = write_json(tmp_path, "measure.json", {"atoms": [{"x": 1e200, "y": 0, "weight": 1}]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, ["solve", overflowing, "--quiet"])
            assert code == 3 and solver_error(out)["quantity"] == "backward error"
            code, out, _ = run_cli(capsys, ["verify", req, measure])
            assert code == 3 and "backward error nan (EXCEEDS" in out

    def test_closed_stdout_exits_141_quietly(self):
        # as in `random | solve | head -4`: the reader is gone before solve writes
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cubicmoment", "solve", "--quiet"],
                stdin=subprocess.PIPE,
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        _, err = proc.communicate(json.dumps(KPOS_REQUEST).encode())
        assert (proc.returncode, err) == (cli.EXIT_PIPE, b"")

    def test_closed_stderr_keeps_stdout_and_exit_code(self, tmp_path):
        # as in `solve 2>&1 >out | head -0`: the summary line's reader is gone, the answer's is not
        path = write_json(tmp_path, "req.json", KPOS_REQUEST)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "cubicmoment", "solve", path]
        normal = subprocess.run(argv, capture_output=True, env=env)
        assert normal.returncode == 0 and normal.stderr.startswith(b"k_pos: 4 atoms")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=write_end, env=env)
        finally:
            os.close(write_end)
        out, _ = proc.communicate()
        assert (proc.returncode, out) == (0, normal.stdout)

    def test_import_does_not_load_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import cubicmoment.cli, sys; assert 'scipy' not in sys.modules"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
