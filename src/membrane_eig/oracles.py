"""Independent numerical oracles: finite differences and a dense symmetric
eigensolver.  Everything here is deliberately decoupled from the closed
forms it is used to check.

The finite-difference oracles take one 3x2 F or a stack (B..., 3, 2) of
them, under the kernels' shape rule: the result gains the stack's leading
axes.  They take a function ``fn`` that maps an (n, 3, 2) stack of
deformation gradients to its n scalar values, and call it once per oracle
call, on the perturbation stacks of every F at once.  Their results equal,
bitwise, what a loop calling ``fn`` on one F at a time would give, as long
as ``fn`` treats each member of a stack as it would treat it alone.

The eigensolver rotates nested lists of Python floats one scalar at a
time.  Its values and vectors equal, bitwise, those of the same cyclic
Jacobi loop rotating whole numpy rows and columns.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["fd_gradient", "fd_hessian6", "jacobi_eigen_sym", "NotSymmetric"]


_MAX_SWEEPS = 60


class NotSymmetric(ValueError):
    """Input matrix is not symmetric within tolerance."""


@dataclass(frozen=True, eq=False)
class Spectrum6:
    """Eigenvalues (ascending) and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _validated(f, h):
    """f's row-major flattening (B..., 6) and h as a float."""
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (3, 2):
        raise ValueError(f"f must be 3x2 or a stack of 3x2, got shape {f.shape}")
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    return f.reshape(f.shape[:-2] + (6,)), h


def _values(fn, x):
    """fn's values (B..., m) on the stack x (B..., m, 6) of flattened Fs."""
    n = x.size // 6
    values = np.asarray(fn(x.reshape(n, 3, 2)), dtype=float)
    if values.shape != (n,):
        raise ValueError(
            f"fn must map an ({n}, 3, 2) stack to {n} values, "
            f"got shape {values.shape}"
        )
    return values.reshape(x.shape[:-1])


def _axis_steps(flat, h):
    """(B..., 12, 6): each flattened F plus h e_k for k = 0..5, then minus
    h e_k.  Tiling and stepping in place keeps each entry exactly f +- h
    (adding a 0.0 offset would turn a -0.0 entry into 0.0)."""
    k = np.arange(6)
    x = np.tile(flat[..., None, None, :], (2, 6, 1))
    x[..., 0, k, k] += h
    x[..., 1, k, k] -= h
    return x.reshape(flat.shape[:-1] + (12, 6))


def fd_gradient(fn, f, h=1e-5):
    """Central-difference gradient of a scalar function of a 3x2 matrix.

    ``fn`` maps an (n, 3, 2) stack to its n values.  It is called once, on
    the 12 Fs f +- h e_k of each F of ``f`` (one 3x2, or a (B..., 3, 2)
    stack giving a (B..., 3, 2) result); each gradient entry is
    (fn(f + h e_k) - fn(f - h e_k)) / (2 h), exactly as a loop over single
    Fs would form it.

    Raises
    ------
    ValueError
        If f is not 3x2 or a stack of 3x2, h is not finite and > 0, or fn
        does not return exactly one value per perturbed F.
    """
    flat, h = _validated(f, h)
    plus, minus = np.split(_values(fn, _axis_steps(flat, h)), 2, axis=-1)
    return ((plus - minus) / (2.0 * h)).reshape(flat.shape[:-1] + (3, 2))


def fd_hessian6(fn, f, h=1e-4):
    """Central second-difference 6x6 Hessian over row-major flattening.

    ``fn`` maps an (n, 3, 2) stack to its n values.  It is called once, on
    73 Fs per F of ``f`` (one 3x2, or a (B..., 3, 2) stack giving a
    (B..., 6, 6) result): f itself, f +- h e_i for the diagonal, and the
    four corners f +- h e_i +- h e_j of each pair i < j.  The differences
    are formed with the same operands in the same order as a loop over
    single Fs.

    The default step is larger than fd_gradient's because second differences
    divide by h^2; at h = 1e-5 roundoff alone would exceed most of the
    tolerances this oracle certifies.  Output is symmetrized.

    Raises
    ------
    ValueError
        If f is not 3x2 or a stack of 3x2, h is not finite and > 0, or fn
        does not return exactly one value per perturbed F.
    """
    flat, h = _validated(f, h)
    batch = flat.shape[:-1]
    i, j = np.triu_indices(6, k=1)
    pair = np.arange(len(i))
    # [..., pp/pm/mp/mm, pair, entry]
    corner = np.tile(flat[..., None, None, :], (4, len(i), 1))
    for c, (si, sj) in enumerate(((h, h), (h, -h), (-h, h), (-h, -h))):
        corner[..., c, pair, i] += si
        corner[..., c, pair, j] += sj
    x = [flat[..., None, :], _axis_steps(flat, h), corner.reshape(batch + (-1, 6))]
    values = _values(fn, np.concatenate(x, axis=-2))
    # f, the 6 + 6 axis steps, then 15 pairs at each of the 4 corners.
    f0, plus, minus, pp, pm, mp, mm = np.split(values, [1, 7, 13, 28, 43, 58], axis=-1)
    out = np.zeros(batch + (6, 6))
    k = np.arange(6)
    out[..., k, k] = (plus - 2.0 * f0 + minus) / (h * h)
    out[..., i, j] = (pp - pm - mp + mm) / (4.0 * h * h)
    out[..., j, i] = out[..., i, j]
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def jacobi_eigen_sym(a):
    """Dense symmetric eigendecomposition by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below 1e-14 times the
    matrix norm, at most 60 times.  Eigenvalues are returned ascending with
    their eigenvector columns; each vector's largest-magnitude component is
    made positive so the output is deterministic.

    The rotations run on nested lists of Python floats, one scalar at a
    time: each entry gets the same IEEE operations, in the same order, as a
    numpy loop rotating whole rows and columns would give it, so the
    results equal that loop's bitwise.  The stop test and the final sort
    run in numpy.  The loop runs on a copy scaled by a power of two near
    1 / max|a|, and the values are scaled back, so it holds for entries of
    any magnitude.

    Raises
    ------
    ValueError
        If a is not a nonempty square matrix, or has a non-finite entry.
    NotSymmetric
        If max|a - a^T| > 1e-10.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    n = a.shape[0]
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise NotSymmetric("matrix is not symmetric to 1e-10")

    # Rotate a / 2^e, 2^e ~ max|a|: the scaling is exact, neither a + a^T
    # nor the norms that square entries overflow or underflow, and the
    # 1e-300 skip is relative to max|a|.  The values are scaled back at the
    # end.
    e = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a, -e)
    a = 0.5 * (a + a.T)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return Spectrum6(values=np.zeros(n), vectors=np.eye(n))
    a = a.tolist()
    v = np.eye(n).tolist()

    def off(m):
        o = np.array(m)
        np.fill_diagonal(o, 0.0)
        return np.linalg.norm(o)

    for _ in range(_MAX_SWEEPS):
        if off(a) <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                row_p, row_q = a[p], a[q]
                apq = row_p[q]
                if abs(apq) <= 1e-300:
                    continue
                # Stable rotation angle (Golub & Van Loan sym. Schur 2x2).
                tau = (row_q[q] - row_p[p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # Columns p and q, then rows p and q, then v's columns.
                for row in a:
                    rp, rq = row[p], row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq
                for k in range(n):
                    rp, rq = row_p[k], row_q[k]
                    row_p[k] = c * rp - s * rq
                    row_q[k] = s * rp + c * rq
                for row in v:
                    rp, rq = row[p], row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq

    values = np.ldexp(np.diag(np.array(a)), e)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = np.array(v)[:, order]
    for k in range(n):
        lead = np.argmax(np.abs(vectors[:, k]))
        if vectors[lead, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return Spectrum6(values=values, vectors=vectors)
