import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cubicmoment.cli import main

KPOS_REQUEST = {"beta": [1, 0, 0, 1, 0, 1, 0, 0, 0, 0]}
K0_REQUEST = {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 0, 0]}
KNEG_REQUEST = {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 1, 0]}
SINGULAR_D2 = {"beta": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]}
SINGULAR_D3 = {"beta": [1, 0, 0, 1, 1, 1, 0, 0, 0, 0]}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_singular_d2_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", SINGULAR_D2)
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == 2
        assert "d2" in payload["error"]["message"]
        assert "atoms" not in payload

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_cubic_moment_exits_3(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", {"beta": [1, 0, 0, 1, 0, 1, 0, 1e200, 0, 0]})
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 3
        assert "not finite" in json.loads(out)["error"]["message"]

    def test_singular_d3_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "req.json", SINGULAR_D3)
        code, out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 2
        assert "d3" in json.loads(out)["error"]["message"]

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
        _, first, _ = run_cli(capsys, ["solve", path, "--quiet", "--seed", "3"])
        _, second, _ = run_cli(capsys, ["solve", path, "--quiet", "--seed", "3"])
        assert first == second

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
        "tolerances, flags",
        [
            ({"psd": "abc"}, []),
            ({"k": None}, []),
            ({"accept": True}, []),
            ({"psd": -1}, []),
            ({"accept": 0}, []),
            ({"k": float("inf")}, []),
            ({"k": float("nan")}, []),
            ({"accept": 10**400}, []),
            ({}, ["--tol-psd", "-1"]),
            ({}, ["--tol-k", "nan"]),
            ({}, ["--tol-accept", "inf"]),
        ],
    )
    def test_malformed_tolerance_exits_1(self, tmp_path, capsys, tolerances, flags):
        path = tmp_path / "req.json"
        path.write_text(json.dumps(dict(KPOS_REQUEST, tolerances=tolerances)))
        commands = ("solve", "info") if flags[:1] in ([], ["--tol-k"]) else ("solve",)
        for command in commands:
            code, out, _ = run_cli(capsys, [command, str(path), *flags])
            assert code == 1
            assert "finite positive number" in json.loads(out)["error"]["message"]


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        code, out, _ = run_cli(capsys, ["solve", req, "--quiet"])
        assert code == 0
        measure = write_json(tmp_path, "measure.json", json.loads(out))
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 0
        assert "beta_00" in out and "max residual" in out

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
        code, _, _ = run_cli(capsys, ["verify", req, measure, "--tol", "0.1"])
        assert code == 0

    def test_missing_file_exits_1(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        code, _, _ = run_cli(capsys, ["verify", req, str(tmp_path / "nope.json")])
        assert code == 1


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

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MOMENT_SOLVER_SEED", "42")
        _, via_env, _ = run_cli(capsys, ["random", "--atoms", "4"])
        _, via_flag, _ = run_cli(capsys, ["random", "--atoms", "4", "--seed", "42"])
        assert via_env == via_flag


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
        code, _, _ = run_cli(capsys, ["info", path])
        assert code == 2

    def test_tol_k_resolves_like_solve(self, tmp_path, capsys):
        # k = 0.3: a request tol_k of 0.5 sends it to k_zero, unless a flag overrides it
        request = {"beta": [1, 0, 0, 1, 0, 1, 0, 1, 0, 0.3], "tolerances": {"k": 0.5}}
        path = write_json(tmp_path, "req.json", request)
        _, out, _ = run_cli(capsys, ["info", path])
        assert json.loads(out)["case"] == "k_zero"
        code, _, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert code == 3  # solve takes the same k_zero route, whose relations do not hold here
        _, out, _ = run_cli(capsys, ["info", path, "--tol-k", "1e-10"])
        assert json.loads(out)["case"] == "k_pos"


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
