"""Minimal triangle-mesh I/O (Wavefront OBJ) and structured grid generation."""

import numpy as np

from .fem import _require_int

__all__ = ["grid_mesh", "load_obj", "save_obj"]


def load_obj(path):
    """Read vertex positions and triangle indices from an OBJ file.

    Only ``v`` and ``f`` records are interpreted; other record types are
    skipped.  Faces must be triangles (an n-gon raises ValueError) and may
    use the v/vt/vn syntax, of which only the vertex index is kept.  A face
    index that names no vertex raises ValueError.

    Returns
    -------
    (positions, triangles) : ((N, 3) float ndarray, (M, 3) int ndarray)
    """
    with open(path, "r", encoding="utf-8") as fh:
        records = [line.split() for line in fh.read().split("\n")]
    verts = [r[1:4] for r in records if r and r[0] == "v"]
    faces = [r[1:] for r in records if r and r[0] == "f"]
    try:
        positions = np.array(verts, dtype=float).reshape(len(verts), 3)
        corners = [c.partition("/")[0] for face in faces for c in face]
        triangles = np.array(corners, dtype=int).reshape(-1, 3) - 1
        if set(map(len, faces)) - {3} or triangles.min(initial=0) < 0:
            raise ValueError("malformed record")
    except (ValueError, OverflowError):
        _raise_first_fault(path, records)
        raise
    if not np.all(np.isfinite(positions)):
        raise ValueError(f"{path}: non-finite vertex coordinates")
    if triangles.size and triangles.max() >= len(positions):
        raise ValueError(f"{path}: face index out of range")
    return positions, triangles


def _raise_first_fault(path, records):
    """Raise the error of the first malformed ``v`` or ``f`` record, as
    converting the records one by one in file order would."""
    for lineno, parts in enumerate(records, start=1):
        where = f"{path}:{lineno}:"
        if parts[:1] == ["v"]:
            if len(parts) < 4:
                raise ValueError(f"{where} malformed vertex record")
            [float(x) for x in parts[1:4]]
        elif parts[:1] == ["f"]:
            if len(parts) != 4:
                raise ValueError(
                    f"{where} only triangle faces are supported, "
                    f"got {len(parts) - 1} vertices"
                )
            for corner in parts[1:]:
                index = int(corner.partition("/")[0])
                if index < 1:
                    raise ValueError(f"{where} face indices must be positive")
                if index > np.iinfo(int).max:  # int() takes it, numpy cannot
                    raise ValueError(f"{where} face index out of range")


class _FaceBlock(str):
    """The ``f`` lines of a triangle array, which ``save_obj`` accepts in
    place of the array, so that the frames of a solve share one."""

    def __new__(cls, triangles):
        rows = (np.asarray(triangles, dtype=int) + 1).tolist()
        return super().__new__(cls, "".join(f"f {a} {b} {c}\n" for a, b, c in rows))


def save_obj(path, positions, triangles):
    """Write a triangle mesh as OBJ.  Floats use repr for exact round-trips."""
    positions = np.asarray(positions, dtype=float)
    # tolist() hands over Python floats and ints, whose repr and str are
    # the exact text; the file is written in one call.
    lines = [f"v {x!r} {y!r} {z!r}\n" for x, y, z in positions.tolist()]
    faces = triangles if isinstance(triangles, _FaceBlock) else _FaceBlock(triangles)
    lines.append(faces)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def grid_mesh(nx, ny):
    """Regular (nx x ny)-quad grid over the unit square in the z = 0 plane,
    each quad split in two.

    Returns ((nx+1)*(ny+1) positions, 2*nx*ny triangles).  Vertex (i, j)
    sits at (i / nx, j / ny, 0) with index i + j * (nx + 1).  Raises
    ValueError unless nx and ny are integers >= 1 (a bool is not).
    """
    _require_int("nx", nx, 1)
    _require_int("ny", ny, 1)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    positions = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
    # Quad (i, j) has corners a, b = a + 1, c = a + nx + 1 and d = c + 1.
    a = (np.arange(nx) + (nx + 1) * np.arange(ny)[:, None]).ravel()
    b, c, d = a + 1, a + nx + 1, a + nx + 2
    return positions, np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3)
