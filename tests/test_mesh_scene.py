"""OBJ round trips, grid generation, and JSON scene loading/solving."""

import json

import numpy as np
import pytest

import membrane_eig as me


def test_grid_mesh_layout():
    positions, triangles = me.grid_mesh(2, 3)
    assert positions.shape == (12, 3)
    assert triangles.shape == (12, 3)
    # vertex (i, j) lives at index i + j * (nx + 1), at (i / nx, j / ny)
    assert np.array_equal(positions[0], [0.0, 0.0, 0.0])
    assert np.array_equal(positions[2], [1.0, 0.0, 0.0])
    assert np.array_equal(positions[3], [0.0, 1.0 / 3.0, 0.0])
    assert np.array_equal(positions[11], [1.0, 1.0, 0.0])
    # first quad splits into [a, b, d], [a, d, c]
    assert np.array_equal(triangles[0], [0, 1, 4])
    assert np.array_equal(triangles[1], [0, 4, 3])


def test_grid_mesh_orientation_consistent():
    positions, triangles = me.grid_mesh(3, 2)
    for tri in triangles:
        a, b, c = positions[tri]
        normal = np.cross(b - a, c - a)
        assert normal[2] > 0.0


def test_grid_mesh_rejects_empty():
    with pytest.raises(ValueError):
        me.grid_mesh(0, 3)


def test_obj_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    positions = rng.uniform(-3, 3, (7, 3))
    triangles = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6]])
    path = tmp_path / "mesh.obj"
    me.save_obj(path, positions, triangles)
    loaded_p, loaded_t = me.load_obj(path)
    assert np.array_equal(loaded_p, positions)
    assert np.array_equal(loaded_t, triangles)


def test_obj_reader_handles_slashes_and_comments(tmp_path):
    path = tmp_path / "slashed.obj"
    path.write_text(
        "# comment line\n"
        "v 0 0 0\n"
        "v 1 0 0\n"
        "v 0 1 0\n"
        "vn 0 0 1\n"
        "vt 0 0\n"
        "f 1/1/1 2/2/1 3/3/1\n"
        "\n"
        "g ignored\n"
    )
    positions, triangles = me.load_obj(path)
    assert positions.shape == (3, 3)
    assert np.array_equal(triangles, [[0, 1, 2]])


def test_obj_reader_rejects_quads(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ValueError, match="triangle"):
        me.load_obj(path)


def test_obj_reader_rejects_bad_indices(tmp_path):
    zero = tmp_path / "zero.obj"
    zero.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(ValueError, match="positive"):
        me.load_obj(zero)
    out = tmp_path / "range.obj"
    out.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(ValueError, match="out of range"):
        me.load_obj(out)


def test_obj_reader_rejects_bad_vertices(tmp_path):
    short = tmp_path / "short.obj"
    short.write_text("v 0 0\n")
    with pytest.raises(ValueError, match="malformed"):
        me.load_obj(short)
    nonfinite = tmp_path / "nan.obj"
    nonfinite.write_text("v 0 0 nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        me.load_obj(nonfinite)


def test_obj_reader_missing_file(tmp_path):
    with pytest.raises(OSError):
        me.load_obj(tmp_path / "absent.obj")


def test_save_obj_exact_bytes(tmp_path):
    path = tmp_path / "tri.obj"
    positions = np.array([[0.0, 0.1, -2.5], [1.0 / 3.0, 1e-20, 7.0], [-0.0, 2.0, 1e16]])
    me.save_obj(path, positions, np.array([[0, 1, 2]]))
    assert path.read_bytes() == (
        b"v 0.0 0.1 -2.5\n"
        b"v 0.3333333333333333 1e-20 7.0\n"
        b"v -0.0 2.0 1e+16\n"
        b"f 1 2 3\n"
    )


def test_load_scene_fields(stretch_scene):
    problem, x0, config, output_dir = me.load_scene(stretch_scene)
    assert problem.n_vertices == 121
    assert len(problem.elements) == 200
    assert isinstance(problem.model, me.NeoHookeanSheet)
    assert problem.model.mu == 1.0
    assert len(problem.pin_vertices) == 22
    assert config.tol == 1e-8
    assert config.max_iters == 100
    assert output_dir.is_absolute()
    assert output_dir.name == "out"
    # x0 carries the pin targets already
    assert np.max(np.abs(x0[problem.pin_vertices] - problem.pin_targets)) == 0.0


def test_load_scene_default_output_dir(tmp_path):
    positions, triangles = me.grid_mesh(1, 1)
    me.save_obj(tmp_path / "m.obj", positions, triangles)
    scene = tmp_path / "droop.json"
    scene.write_text(json.dumps({"mesh": "m.obj", "model": {"type": "neo_hookean_sheet", "mu": 1.0}}))
    _, _, _, output_dir = me.load_scene(scene)
    assert output_dir == (tmp_path / "droop_out").resolve()


def test_load_scene_unknown_model(tmp_path):
    positions, triangles = me.grid_mesh(1, 1)
    me.save_obj(tmp_path / "m.obj", positions, triangles)
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps({"mesh": "m.obj", "model": {"type": "stvk"}}))
    with pytest.raises(ValueError, match="unknown model type"):
        me.load_scene(scene)


def test_solve_and_export_outputs(stretch_scene):
    positions, report, output_dir = me.solve_scene(stretch_scene)
    assert report.termination == "converged"
    frames = sorted(output_dir.glob("frame_*.obj"))
    # one frame per history row: the initial state plus each accepted step
    assert len(frames) == len(report.history)
    assert frames[0].name == "frame_0000.obj"

    first_p, first_t = me.load_obj(frames[0])
    problem, x0, _, _ = me.load_scene(stretch_scene)
    assert np.array_equal(first_p, x0)
    last_p, _ = me.load_obj(frames[-1])
    assert np.array_equal(last_p, positions)
    assert np.array_equal(first_t, problem.elements)

    with open(output_dir / "report.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["termination"] == "converged"
    assert payload["iterations"] == report.iterations
    assert len(payload["history"]) == len(report.history)

    csv_lines = (output_dir / "convergence.csv").read_text().splitlines()
    assert csv_lines[0] == "iter,energy,grad_norm,step"
    assert len(csv_lines) == 1 + len(report.history)
    it, energy, grad_norm, step = csv_lines[1].split(",")
    assert it == "0"
    assert float(energy) == report.history[0][1]
    assert float(step) == 0.0


def test_solve_scene_deterministic(stretch_scene, tmp_path):
    _, _, out1 = me.solve_scene(stretch_scene)
    spec = json.loads(stretch_scene.read_text())
    spec["output_dir"] = str(tmp_path / "second")
    rerun = stretch_scene.parent / "again.json"
    rerun.write_text(json.dumps(spec))
    _, _, out2 = me.solve_scene(rerun)

    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
