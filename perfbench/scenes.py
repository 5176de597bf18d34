"""The benchmark's scenes: a pinned quad-split grid, written as OBJ + JSON.

The grid, the pins and the load are built here from scratch (no call into
the program), so the independent reference in ``reference.py`` and the
checks in ``verify.py`` see exactly the geometry the program reads back.

Every scene has the same symmetry: vertex (i, j) of an n x n grid and
vertex (n - i, n - j) are swapped by a 180 degree rotation about the
sheet's centre.  Each quad is split along its (i, j)-(i+1, j+1) diagonal,
which that rotation maps to another such diagonal, and the pins and the
load are rotation-invariant too.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MU = 1.0
TOL = 1e-8
MAX_ITERS = 100


@dataclass(frozen=True)
class SceneSpec:
    """A square n x n quad grid on [0, 1]^2 whose left and right vertex
    columns are pinned at ``stretch`` times their rest separation, with a
    constant per-vertex force ``gravity``."""

    name: str
    n: int
    stretch: float
    gravity: tuple


SCENES = {
    "stretch": SceneSpec("stretch", 14, 1.5, (0.0, 0.0, 0.0)),
    "drape": SceneSpec("drape", 20, 1.4, (0.0, 0.0, -0.01)),
}


def grid(n):
    """Rest positions ((n+1)^2, 3) and triangles (2 n^2, 3) of the grid.

    Vertex (i, j) sits at (i / n, j / n, 0) with index i + j (n + 1).
    """
    ticks = np.arange(n + 1) / n
    x, y = np.meshgrid(ticks, ticks, indexing="xy")
    rest = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
    tris = []
    for j in range(n):
        for i in range(n):
            a = i + j * (n + 1)
            b, c = a + 1, a + n + 1
            tris.append((a, b, c + 1))
            tris.append((a, c + 1, c))
    return rest, np.array(tris, dtype=int)


def pins(spec, rest):
    """{vertex: target} for the left and right columns, centred at x = 1/2."""
    n = spec.n
    out = {}
    for j in range(n + 1):
        for i in (0, n):
            v = i + j * (n + 1)
            x = 0.5 + spec.stretch * (rest[v, 0] - 0.5)
            out[v] = np.array([x, rest[v, 1], 0.0])
    return out


def rotation_partner(n):
    """Index map v -> the vertex a 180 degree turn about the centre sends
    v to: (i, j) -> (n - i, n - j), which is v -> last - v."""
    return (n + 1) ** 2 - 1 - np.arange((n + 1) ** 2)


def write_obj(path, positions, triangles):
    with open(path, "w", encoding="utf-8") as fh:
        for p in positions:
            fh.write("v %r %r %r\n" % tuple(float(c) for c in p))
        for t in triangles:
            fh.write("f %d %d %d\n" % tuple(int(k) + 1 for k in t))


def read_obj_positions(path):
    """Vertex positions of an OBJ file (``v`` records only)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                rows.append([float(c) for c in line.split()[1:4]])
    return np.array(rows, dtype=float).reshape(-1, 3)


def write_scene(spec, directory):
    """Write ``<name>.obj`` and ``<name>.json`` (output dir ``<name>_out``)
    into ``directory``; returns the scene file's Path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rest, tris = grid(spec.n)
    write_obj(directory / f"{spec.name}.obj", rest, tris)
    scene = {
        "mesh": f"{spec.name}.obj",
        "model": {"type": "neo_hookean_sheet", "mu": MU},
        "pins": [
            {"vertex": int(v), "target": [float(c) for c in t]}
            for v, t in pins(spec, rest).items()
        ],
        "gravity": list(spec.gravity),
        "tol": TOL,
        "max_iters": MAX_ITERS,
        "output_dir": f"{spec.name}_out",
    }
    path = directory / f"{spec.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene, fh)
    return path
