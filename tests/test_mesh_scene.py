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


@pytest.mark.parametrize("size", [2.0, 2.5, True, "3", 0])
def test_grid_mesh_sizes_must_be_integers(size):
    # The library's integer rule: a whole float or a bool is not a size.
    for nx, ny in ((size, 2), (2, size)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            me.grid_mesh(nx, ny)


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


def line_by_line_obj(path):
    """The OBJ reader that converted one line at a time, kept as the
    oracle of load_obj's arrays and errors."""
    positions = []
    triangles = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ValueError(f"{path}:{lineno}: malformed vertex record")
                positions.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                verts = parts[1:]
                if len(verts) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: only triangle faces are supported, "
                        f"got {len(verts)} vertices"
                    )
                idx = []
                for v in verts:
                    i = int(v.split("/")[0])
                    if i < 1:
                        raise ValueError(
                            f"{path}:{lineno}: face indices must be positive"
                        )
                    idx.append(i - 1)
                triangles.append(idx)
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    triangles = np.asarray(triangles, dtype=int).reshape(-1, 3)
    if not np.all(np.isfinite(positions)):
        raise ValueError(f"{path}: non-finite vertex coordinates")
    if triangles.size and triangles.max() >= len(positions):
        raise ValueError(f"{path}: face index out of range")
    return positions, triangles


OBJ_CORPUS = [
    "# every record type the reader meets",
    "mtllib sheet.mtl",
    "o sheet",
    "v 0 0 0",
    "  v\t1.5 0 0 1.0",
    "\tv 0 1.5 0",
    "v 1.5 1.5 0.25 1",
    "v +3 1_0 -0.0",
    "v 1e-3 -2.5E2 \u0663.5",
    "vt 0 0",
    "vt 1 0",
    "vn 0 0 1",
    "",
    "g group one",
    "usemtl skin",
    "s off",
    "f 1 2 3",
    "f 2/1/1 4/2/1 3/1/1",
    "  f\t1//1 +2//1 5//1  ",
    "#f 9 9 9",
    "f 4/2 6/1 5",
    "",
]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_obj_reader_matches_line_by_line_reader(tmp_path, newline):
    path = tmp_path / "corpus.obj"
    path.write_bytes(newline.join(OBJ_CORPUS).encode("utf-8"))
    positions, triangles = me.load_obj(path)
    expected = line_by_line_obj(path)
    assert positions.shape == (6, 3) and triangles.shape == (4, 3)
    for got, want in zip((positions, triangles), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# Faulty OBJ files, each with the line its error must name (None: an error
# that names no line).  Where a file has several faults, the first in file
# order is the one reported.
BAD_OBJS = {
    "quad": ("v 0 0 0\nv 1 0 0\nv 1 1 0\n# c\n\nf 1 2 3\nf 1 2 3 1\n", 7),
    "edge": ("v 0 0 0\nv 1 0 0\nf 1 2\n", 3),
    "zero_index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 0 1 2\n", 5),
    "negative_index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf 1/1 -1/1 2/1\n", 5),
    "short_vertex": ("v 0 0 0\n\n  v 1 0\nf 1 2 3\n", 3),
    "bare_vertex": ("v 0 0 0\nv\n", 2),
    "text_coordinate": ("v 0 0 0\nv 1 zero 0\n", None),
    "hex_coordinate": ("v 0 0 0x10\n", None),
    "fractional_index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.0\n", None),
    "empty_index": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 /2 3\n", None),
    "text_before_quad": ("v 0 0 0\nv 1 y 0\nf 1 2 3 4\n", None),
    "quad_before_text": ("v 0 0 0\nf 1 2 3 4\nv 1 y 0\n", 2),
    "zero_before_text": ("v 0 0 0\nf 0 1 2\nf 1 x 2\n", 2),
    "text_then_zero_in_one_face": ("v 0 0 0\nf 1 x 0\n", None),
    "zero_then_text_in_one_face": ("v 0 0 0\nf 0 x 1\n", 2),
    "short_vertex_after_quad": ("f 1 2 3 4\nv 0 0\n", 1),
}


@pytest.mark.parametrize("case", list(BAD_OBJS))
def test_obj_reader_reports_the_first_fault(tmp_path, case):
    text, lineno = BAD_OBJS[case]
    path = tmp_path / f"{case}.obj"
    path.write_text(text)
    with pytest.raises(ValueError) as expected:
        line_by_line_obj(path)
    with pytest.raises(ValueError) as got:
        me.load_obj(path)
    assert str(got.value) == str(expected.value)
    if lineno is None:
        assert not str(got.value).startswith(f"{path}:")
    else:
        assert str(got.value).startswith(f"{path}:{lineno}: ")


def test_obj_reader_rejects_a_face_index_too_large_for_int(tmp_path):
    path = tmp_path / "huge.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 99999999999999999999\n")
    with pytest.raises(ValueError) as got:
        me.load_obj(path)
    assert str(got.value) == f"{path}:5: face index out of range"


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
