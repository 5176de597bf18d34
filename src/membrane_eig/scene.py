"""Scene files: JSON description of a membrane solve, plus output writing.

Schema (paths are resolved relative to the scene file's directory)::

    {
      "mesh": "sheet.obj",                   # string
      "model": {"type": "neo_hookean_sheet", "mu": 1.0},
      "pins": [{"vertex": 0, "target": [0.0, 0.0, 0.0]}, ...],
      "gravity": [0.0, 0.0, -9.8],          # optional, default zero
      "tol": 1e-8,                           # optional number
      "max_iters": 100,                      # optional integer
      "output_dir": "out"                    # optional string
    }

Each field must have its JSON type: ``mu`` is a number, ``vertex`` an
integer, each ``target`` an array of numbers; true and false are not
numbers.  The sheet's area floor is the constant ``models.I3_FLOOR``, so a
model that sets ``i3_floor`` is rejected.

Outputs: one OBJ per accepted Newton iterate (frame_0000.obj is the initial
state), ``report.json`` with the solve trace, and ``convergence.csv`` with
``iter,energy,grad_norm,step`` rows.  All numbers are written with repr so
serial runs are byte-for-byte reproducible.
"""

import json
from pathlib import Path

from .fem import NewtonConfig, make_problem, newton_solve
from .mesh import _FaceBlock, load_obj, save_obj
from .models import NeoHookeanSheet

__all__ = ["load_scene", "solve_scene", "solve_and_export"]


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "array of numbers": lambda x: isinstance(x, list) and all(map(_is_number, x)),
}


def _field(spec, key, where, kind, default=None):
    """``spec[key]`` if it is a JSON ``kind`` (see _JSON_TYPES), else
    ``default`` when the key is absent and ``default`` is not None.  Raises
    a ValueError naming the key if ``where`` is not a JSON object, lacks a
    required ``key``, or holds a value of another type."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in spec:
        if default is None:
            raise ValueError(f"{where} has no {key!r}")
        return default
    value = spec[key]
    if not _JSON_TYPES[kind](value):
        raise ValueError(
            f"{where} {key!r} must be a JSON {kind}, got {json.dumps(value)}"
        )
    return value


def _build_model(spec):
    kind = _field(spec, "type", "model", "string")
    if kind != "neo_hookean_sheet":
        raise ValueError(
            f"unknown model type {kind!r}; supported: 'neo_hookean_sheet'"
        )
    if "i3_floor" in spec:
        raise ValueError(
            "model 'i3_floor' is not a setting: the sheet's area floor is "
            "fixed at models.I3_FLOOR"
        )
    return NeoHookeanSheet(float(_field(spec, "mu", "model", "number")))


def load_scene(path):
    """Parse a scene file.

    Raises ValueError naming the key when a required field is missing or
    a field has the wrong JSON type.

    Returns
    -------
    (problem, x0, config, output_dir)
        ``x0`` is the mesh's vertex positions with pins applied;
        ``output_dir`` is an absolute Path (not yet created).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    base = path.parent

    mesh = _field(spec, "mesh", "scene", "string")
    model = _build_model(_field(spec, "model", "scene", "object"))
    pins = [
        (
            _field(p, "vertex", f"pins[{k}]", "integer"),
            _field(p, "target", f"pins[{k}]", "array of numbers"),
        )
        for k, p in enumerate(_field(spec, "pins", "scene", "array", []))
    ]
    gravity = _field(spec, "gravity", "scene", "array of numbers", [0.0, 0.0, 0.0])
    config = NewtonConfig(
        tol=float(_field(spec, "tol", "scene", "number", 1e-8)),
        max_iters=_field(spec, "max_iters", "scene", "integer", 100),
    )
    output_dir = _field(spec, "output_dir", "scene", "string", path.stem + "_out")
    positions, triangles = load_obj(base / mesh)
    problem = make_problem(positions, triangles, model, pins=pins, gravity=gravity)
    x0 = problem.apply_pins(positions)
    return problem, x0, config, (base / output_dir).resolve()


def solve_and_export(problem, x0, config, output_dir):
    """Run the Newton solve and write frames, report.json, convergence.csv.

    The OBJ frames use the problem's (E, 3) element index array as faces.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    faces = _FaceBlock(problem.elements)

    def write_frame(iteration, positions):
        save_obj(output_dir / f"frame_{iteration:04d}.obj", positions, faces)

    positions, report = newton_solve(problem, x0, config, callback=write_frame)

    with open(output_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(output_dir / "convergence.csv", "w", encoding="utf-8") as fh:
        fh.write("iter,energy,grad_norm,step\n")
        for it, energy, grad_norm, step in report.history:
            fh.write(f"{it},{energy!r},{grad_norm!r},{step!r}\n")
    return positions, report


def solve_scene(path):
    """Load a scene file, solve it, and write its outputs.

    Returns (positions, report, output_dir).
    """
    problem, x0, config, output_dir = load_scene(path)
    positions, report = solve_and_export(problem, x0, config, output_dir)
    return positions, report, output_dir
