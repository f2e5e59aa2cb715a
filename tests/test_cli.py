import contextlib
import io
import json
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

from cubicmoment import Atom, AtomicMeasure
from cubicmoment.cli import main, random_request

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
            ({"k": None}, []),
            ({"accept": True}, []),
            ({"accept": 0}, []),
            ({"k": float("inf")}, []),
            ({"k": float("nan")}, []),
            ({"accept": 10**400}, []),
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

    @pytest.mark.parametrize(
        "request_seed, argv, env_seed",
        [
            (-1, ["solve"], None),
            (True, ["solve"], None),
            (None, ["solve", "--seed", "-1"], None),
            (None, ["solve"], "-3"),
            (None, ["random", "--seed", "-1"], None),
        ],
    )
    def test_malformed_seed_exits_1(self, tmp_path, capsys, monkeypatch, request_seed, argv, env_seed):
        if env_seed is not None:
            monkeypatch.setenv("MOMENT_SOLVER_SEED", env_seed)
        request = KPOS_REQUEST if request_seed is None else dict(KPOS_REQUEST, seed=request_seed)
        path = write_json(tmp_path, "req.json", request)
        inputs = [path, "--quiet"] if argv[0] == "solve" else []
        code, out, _ = run_cli(capsys, [*argv, *inputs])
        assert code == 1
        assert "non-negative integer" in json.loads(out)["error"]["message"]

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

    @pytest.mark.parametrize(
        "flags, x",
        [
            (["--tol", "nan"], 1.0),
            (["--tol", "-1"], 1.0),
            (["--tol", "0"], 1.0),
            (["--tol", "inf"], 1.0),
            ([], float("nan")),
        ],
    )
    def test_malformed_tolerance_or_atom_exits_1(self, tmp_path, capsys, flags, x):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        # the exact measure of KPOS_REQUEST, the points (+-1, +-1), with x in place of x = 1
        atoms = [{"x": sx, "y": sy, "weight": 0.25} for sx in (x, -1.0) for sy in (1.0, -1.0)]
        measure = write_json(tmp_path, "measure.json", {"atoms": atoms})
        code, out, _ = run_cli(capsys, ["verify", req, measure, *flags])
        assert code == 1
        assert "finite" in json.loads(out)["error"]["message"]

    def test_overflowing_atom_exits_3(self, tmp_path, capsys):
        req = write_json(tmp_path, "req.json", KPOS_REQUEST)
        atoms = [{"x": 1e200, "y": 0, "weight": 1}]  # x^2 overflows the float range
        measure = write_json(tmp_path, "measure.json", {"atoms": atoms})
        code, out, _ = run_cli(capsys, ["verify", req, measure])
        assert code == 3
        assert "max residual nan (EXCEEDS" in out


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

    def test_normalization_fault_exits_3_like_solve(self, tmp_path, capsys):
        # four atoms of weight 1/4 translated by 1e4: M(1) is too ill-conditioned to map to I
        points = [(0.3, 0.1), (-0.7, 0.4), (0.2, -0.9), (0.5, 0.6)]
        mu = AtomicMeasure(tuple(Atom(x + 1e4, y + 1e4, 0.25) for x, y in points))
        path = write_json(tmp_path, "req.json", {"beta": mu.moments(3).values.tolist()})
        code, info_out, _ = run_cli(capsys, ["info", path])
        assert code == 3
        assert "M(1) = I" in json.loads(info_out)["error"]["message"]
        code, solve_out, _ = run_cli(capsys, ["solve", path, "--quiet"])
        assert (code, solve_out) == (3, info_out)

    @pytest.mark.parametrize(
        "beta, message",
        [
            ([1e-320, 0, 0, 1, 0, 1, 0, 0, 0, 0], "rescaling by 1 / beta_00"),
            ([1.9055892520074806e-281, 1, 0, 3.4256647162012635e27, 0, 0, 0, 0, 0, 0], "rescaling"),
            ([1, 0, 0, 1e300, 0, 1e300, 0, 0, 0, 0], "minors of M(1) overflow"),
            ([1, 0, 0, 1, 0, 1, 0, 1e200, 0, 0], "k = -inf is not finite"),
        ],
    )
    def test_overflowing_normalization_exits_3(self, tmp_path, capsys, beta, message):
        path = write_json(tmp_path, "req.json", {"beta": beta})
        for argv in (["info", path], ["solve", path, "--quiet"]):
            code, out, _ = run_cli(capsys, argv)
            assert code == 3
            assert message in json.loads(out)["error"]["message"]

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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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
            assert code == 3 and "error" in json.loads(out)
            code, out, _ = run_cli(capsys, ["verify", req, measure])
            assert code == 3 and "max residual nan (EXCEEDS" in out

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
