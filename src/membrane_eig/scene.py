"""Scene files: JSON description of a membrane solve, plus output writing.

Schema (paths are resolved relative to the scene file's directory)::

    {
      "mesh": "sheet.obj",
      "model": {"type": "neo_hookean_sheet", "mu": 1.0},
      "pins": [{"vertex": 0, "target": [0.0, 0.0, 0.0]}, ...],
      "gravity": [0.0, 0.0, -9.8],          # optional, default zero
      "tol": 1e-8,                           # optional
      "max_iters": 100,                      # optional
      "output_dir": "out"                    # optional
    }

Outputs: one OBJ per accepted Newton iterate (frame_0000.obj is the initial
state), ``report.json`` with the solve trace, and ``convergence.csv`` with
``iter,energy,grad_norm,step`` rows.  All numbers are written with repr so
serial runs are byte-for-byte reproducible.
"""

import json
from pathlib import Path

from .fem import NewtonConfig, make_problem, newton_solve
from .mesh import load_obj, save_obj
from .models import NeoHookeanSheet

__all__ = ["load_scene", "solve_scene", "solve_and_export"]


def _build_model(spec):
    kind = spec.get("type")
    if kind == "neo_hookean_sheet":
        kwargs = {"mu": float(spec["mu"])}
        if "i3_floor" in spec:
            kwargs["i3_floor"] = float(spec["i3_floor"])
        return NeoHookeanSheet(**kwargs)
    raise ValueError(
        f"unknown model type {kind!r}; supported: 'neo_hookean_sheet'"
    )


def load_scene(path):
    """Parse a scene file.

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

    positions, triangles = load_obj(base / spec["mesh"])
    model = _build_model(spec.get("model", {}))
    pins = [
        (int(p["vertex"]), [float(x) for x in p["target"]])
        for p in spec.get("pins", [])
    ]
    problem = make_problem(
        positions,
        triangles,
        model,
        pins=pins,
        gravity=spec.get("gravity"),
    )
    config = NewtonConfig(
        tol=float(spec.get("tol", 1e-8)),
        max_iters=int(spec.get("max_iters", 100)),
    )
    x0 = problem.apply_pins(positions)
    output = base / spec.get("output_dir", path.stem + "_out")
    return problem, x0, config, output.resolve()


def solve_and_export(problem, x0, config, output_dir, triangles=None):
    """Run the Newton solve and write frames, report.json, convergence.csv.

    ``triangles`` is needed for the OBJ frames; if omitted, the problem's
    (E, 3) element index array is used (correct for meshes built by
    make_problem from a triangle list).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if triangles is None:
        triangles = problem.elements

    def write_frame(iteration, positions):
        save_obj(output_dir / f"frame_{iteration:04d}.obj", positions, triangles)

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
