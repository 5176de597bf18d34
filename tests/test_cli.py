"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import membrane_eig as me
from membrane_eig.cli import main

DIAG21 = "2,0,0,1,0,0"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eigs_sheet_text(capsys):
    code, out, err = run_cli(capsys, "eigs", "--f", DIAG21)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "eigensystem: sheet(mu=1.0)"
    assert "lambda[0] = 1.8450498305872594" in lines
    assert "lambda[1] = 1.0924501694127406" in lines
    assert "lambda[2] = 0.875" in lines
    assert "lambda[3] = 1.125" in lines
    assert "lambda[4] = 0.9375" in lines
    assert "lambda[5] = 0.75" in lines
    # slot-1 eigenmatrix rows, sign-canonicalized (first component positive)
    i = lines.index("lambda[1] = 1.0924501694127406")
    assert lines[i + 1] == "  [0.9347217015464174, 0.0]"
    assert lines[i + 2] == "  [0.0, -0.35538055751288666]"


def test_eigs_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "eigs", "--f", DIAG21, "--mu", "2.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "sheet(mu=2.5)"
    assert payload["f"] == [[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    eig = me.sheet_eigensystem(2.5, me.svd32(np.array(payload["f"])))
    assert payload["eigenvalues"] == [float(v) for v in eig.values]
    assert np.array_equal(np.array(payload["eigenmatrices"]), eig.matrices)


def test_eigs_invariant_route(capsys):
    code, out, _ = run_cli(capsys, "eigs", "--f", DIAG21, "--invariant", "I1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eigensystem: I1"
    assert "lambda[2] = 0.6666666666666666" in lines
    assert "lambda[4] = 0.5" in lines
    assert "lambda[5] = 1.0" in lines


def test_eigs_bad_f_count(capsys):
    code, out, err = run_cli(capsys, "eigs", "--f", "1,2,3")
    assert code == 2
    assert out == ""
    assert "6 comma-separated numbers" in err


def test_eigs_degenerate_exit_one(capsys):
    code, out, err = run_cli(capsys, "eigs", "--f", "0,0,0,0,0,0", "--invariant", "I1")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_eigs_sheet_domain_floor_exit_one(capsys):
    code, _, err = run_cli(capsys, "eigs", "--f", "1e-5,0,0,1e-5,0,0")
    assert code == 1
    assert "error:" in err


def test_check_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "9", "--trials", "20")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    n = len(lines) - 1
    assert lines[-1] == f"{n}/{n} checks passed"
    assert "max_err=" in lines[0] and "tol=" in lines[0]


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "9", "--trials", "20", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["seed"] == 9
    assert payload["trials"] == 20
    assert {c["name"] for c in payload["checks"]} >= {
        "svd_reconstruction",
        "invariant_hvp_fd",
        "sheet_spectrum_oracle",
        "psd_projection",
        "fem_descent",
    }


def test_check_failure_exit_code(capsys, monkeypatch):
    import importlib

    invariants_module = importlib.import_module("membrane_eig.invariants")
    original = invariants_module._hvp_i3
    monkeypatch.setattr(
        invariants_module, "_hvp_i3", lambda svd, w: -original(svd, w)
    )
    code, out, _ = run_cli(capsys, "check", "--trials", "10")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample:" in out


def test_solve_scene_cli(capsys, stretch_scene):
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "termination: converged"
    assert lines[1].startswith("iterations: ")
    assert lines[2].startswith("final energy: ")
    assert lines[3].startswith("final grad norm: ")
    assert lines[4].startswith("output: ")


def test_solve_missing_scene(capsys, tmp_path):
    code, out, err = run_cli(capsys, "solve", "--scene", str(tmp_path / "no.json"))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_bench_output(capsys):
    code, out, _ = run_cli(capsys, "bench", "--trials", "3")
    assert code == 0
    assert "speedup" in out
    assert "analytic" in out and "fd_jacobi" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "membrane_eig", "eigs", "--f", DIAG21],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "lambda[0] = 1.8450498305872594" in result.stdout


def test_console_script_on_path():
    # The tests run from a source tree, where the installed `membrane-eig`
    # script may be absent, so run the entry point that pyproject.toml
    # declares for it.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["membrane-eig"] == "membrane_eig.cli:main"
    module, func = scripts["membrane-eig"].split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code, "eigs", "--f", DIAG21, "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["eigenvalues"][5] == 0.75
