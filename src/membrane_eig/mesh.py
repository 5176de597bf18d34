"""Minimal triangle-mesh I/O (Wavefront OBJ) and structured grid generation."""

import numpy as np

__all__ = ["grid_mesh", "load_obj", "save_obj"]


def load_obj(path):
    """Read vertex positions and triangle indices from an OBJ file.

    Only ``v`` and ``f`` records are interpreted; other record types are
    skipped.  Faces must be triangles (an n-gon raises ValueError) and may
    use the v/vt/vn syntax, of which only the vertex index is kept.

    Returns
    -------
    (positions, triangles) : ((N, 3) float ndarray, (M, 3) int ndarray)
    """
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


def save_obj(path, positions, triangles):
    """Write a triangle mesh as OBJ.  Floats use repr for exact round-trips."""
    positions = np.asarray(positions, dtype=float)
    triangles = np.asarray(triangles, dtype=int) + 1
    # tolist() hands over Python floats and ints, whose repr and str are
    # the exact text; the file is written in one call.
    lines = [f"v {x!r} {y!r} {z!r}\n" for x, y, z in positions.tolist()]
    lines += [f"f {a} {b} {c}\n" for a, b, c in triangles.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def grid_mesh(nx, ny):
    """Regular (nx x ny)-quad grid over the unit square in the z = 0 plane,
    each quad split in two.

    Returns ((nx+1)*(ny+1) positions, 2*nx*ny triangles).  Vertex (i, j)
    sits at (i / nx, j / ny, 0) with index i + j * (nx + 1).
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid_mesh needs at least one quad per side")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    positions = np.array([[x, y, 0.0] for y in ys for x in xs])
    triangles = []
    for j in range(ny):
        for i in range(nx):
            a = i + j * (nx + 1)
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            triangles.append([a, b, d])
            triangles.append([a, d, c])
    return positions, np.asarray(triangles, dtype=int)
