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
    # A DomainError is a ValueError too, but a below-floor F is well formed.
    for mu in ("1.0", "2.5"):
        code, _, err = run_cli(capsys, "eigs", "--f", "1e-5,0,0,1e-5,0,0", "--mu", mu)
        assert code == 1
        assert err.startswith("error:") and "below the sheet floor" in err


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


def test_check_json_is_strict_when_an_error_is_nan(capsys, monkeypatch):
    def nan_hvp(svd, fdot):
        nan = np.full(np.shape(fdot), np.nan)
        return nan, nan, nan

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    invariants_module = sys.modules["membrane_eig.invariants"]
    monkeypatch.setattr(invariants_module, "invariant_hvp", nan_hvp)
    code, out, _ = run_cli(capsys, "check", "--seed", "1", "--trials", "20", "--json")
    assert code == 1
    payload = json.loads(out, parse_constant=reject)
    failed = {c["name"]: c for c in payload["checks"] if not c["passed"]}
    assert failed["invariant_hvp_fd"]["max_error"] is None
    assert payload["all_passed"] is False


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


def test_solve_negative_max_iters_writes_nothing(capsys, stretch_scene):
    spec = json.loads(stretch_scene.read_text())
    spec["max_iters"] = -1
    stretch_scene.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not (stretch_scene.parent / spec["output_dir"]).exists()


def test_solve_zero_i3_floor_writes_nothing(capsys, stretch_scene):
    spec = json.loads(stretch_scene.read_text())
    spec["model"]["i3_floor"] = 0.0
    stretch_scene.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "i3_floor" in err
    assert not (stretch_scene.parent / spec["output_dir"]).exists()


def test_solve_gravity_on_a_vertex_in_no_triangle_writes_nothing(capsys, stretch_scene):
    mesh = stretch_scene.parent / "sheet.obj"
    loose = mesh.read_text().count("v ")
    with open(mesh, "a", encoding="utf-8") as fh:
        fh.write("v 2.0 2.0 0.0\n")
    spec = json.loads(stretch_scene.read_text())
    spec["gravity"] = [0.0, 0.0, -0.01]
    stretch_scene.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"vertex {loose} is in no triangle" in err
    assert not (stretch_scene.parent / spec["output_dir"]).exists()


def test_solve_face_index_too_large_for_int_writes_nothing(capsys, stretch_scene):
    mesh = stretch_scene.parent / "sheet.obj"
    lineno = len(mesh.read_text().splitlines()) + 1
    with open(mesh, "a", encoding="utf-8") as fh:
        fh.write("f 1 2 99999999999999999999\n")
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 2
    assert out == ""
    assert err == f"error: {mesh}:{lineno}: face index out of range\n"
    assert not (stretch_scene.parent / "out").exists()


# Scene edits that load_scene must reject, each with the name it reports.
MALFORMED_SCENES = {
    "no_mesh": (lambda spec: spec.pop("mesh"), "'mesh'"),
    "no_mu": (lambda spec: spec["model"].pop("mu"), "'mu'"),
    "pin_without_vertex": (lambda spec: spec["pins"][0].pop("vertex"), "'vertex'"),
    "pin_without_target": (lambda spec: spec["pins"][0].pop("target"), "'target'"),
    "nan_mu": (lambda spec: spec["model"].update(mu=float("nan")), "mu"),
    "nan_tol": (lambda spec: spec.update(tol=float("nan")), "tol"),
    "negative_tol": (lambda spec: spec.update(tol=-1e-8), "tol"),
    "infinite_tol": (lambda spec: spec.update(tol=float("inf")), "tol"),
    # Each field must have its JSON type; a value of another type is
    # rejected, neither coerced nor left to fail later.
    "null_mesh": (lambda spec: spec.update(mesh=None), "'mesh'"),
    "null_mu": (lambda spec: spec["model"].update(mu=None), "'mu'"),
    "number_pins": (lambda spec: spec.update(pins=5), "'pins'"),
    "number_target": (lambda spec: spec["pins"][0].update(target=3), "'target'"),
    "number_output_dir": (lambda spec: spec.update(output_dir=5), "'output_dir'"),
    "fractional_vertex": (lambda spec: spec["pins"][0].update(vertex=1.7), "'vertex'"),
    "fractional_max_iters": (lambda spec: spec.update(max_iters=2.5), "'max_iters'"),
    "bool_tol": (lambda spec: spec.update(tol=True), "'tol'"),
    "string_gravity": (lambda spec: spec.update(gravity=["0", "0", "-1"]), "'gravity'"),
    # JSON integers have any size; one that no float holds is rejected by
    # the name of its key.
    "huge_mu": (lambda spec: spec["model"].update(mu=10**400), "'mu'"),
    "huge_tol": (lambda spec: spec.update(tol=10**400), "'tol'"),
    "huge_vertex": (lambda spec: spec["pins"][0].update(vertex=10**400), "'vertex'"),
    "huge_target": (lambda spec: spec["pins"][0].update(target=[10**400, 0, 0]), "'target'"),
    "huge_gravity": (lambda spec: spec.update(gravity=[0, 0, -(10**400)]), "'gravity'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_SCENES))
def test_solve_malformed_scene_writes_nothing(capsys, stretch_scene, case):
    edit, named = MALFORMED_SCENES[case]
    spec = json.loads(stretch_scene.read_text())
    edit(spec)
    stretch_scene.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err
    assert not (stretch_scene.parent / "out").exists()


def test_solve_non_object_scene_writes_nothing(capsys, stretch_scene):
    stretch_scene.write_text(json.dumps([json.loads(stretch_scene.read_text())]))
    code, out, err = run_cli(capsys, "solve", "--scene", str(stretch_scene))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "JSON object" in err
    assert not (stretch_scene.parent / "out").exists()


@pytest.mark.parametrize("mu", ["nan", "0", "-1", "inf"])
def test_eigs_bad_mu_exit_two(capsys, mu):
    code, out, err = run_cli(capsys, "eigs", "--f", DIAG21, "--mu", mu)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "mu must be finite and > 0" in err


def test_eigs_non_finite_f_exit_two(capsys):
    code, out, err = run_cli(capsys, "eigs", "--f", "nan,0,0,1,0,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("command", ["check", "bench"])
def test_zero_trials_exit_two(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--trials", "0"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "error: argument --trials" in captured.err


@pytest.mark.parametrize("seed", ["-1", "2.5", "x"])
def test_bad_seed_exit_two(capsys, seed):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--seed", seed, "--trials", "1"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "error: argument --seed: expected an integer >= 0" in captured.err


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


def test_package_import_leaves_the_cli_unloaded():
    code = "import sys, membrane_eig; print('membrane_eig.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_import_and_eigs_leave_scipy_unloaded():
    # scipy.sparse loads at the first sparse call, or on reading fem.spla.
    code = (
        "import sys, membrane_eig\n"
        "print('scipy.sparse' in sys.modules)\n"
        "from membrane_eig.cli import main\n"
        f"main(['eigs', '--f', '{DIAG21}', '--json'])\n"
        "print('scipy.sparse' in sys.modules)\n"
        "membrane_eig.fem.spla\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-2], lines[-1]) == ("False", "False", "True")
    assert '"eigenvalues"' in result.stdout
