"""Independent numerical oracles: finite differences and a dense symmetric
eigensolver.  Everything here is deliberately decoupled from the closed
forms it is used to check.

The finite-difference oracles take a function ``fn`` that maps an
(n, 3, 2) stack of deformation gradients to its n scalar values, and call
it once per oracle call on the whole perturbation stack.  Their results
equal, bitwise, what a loop calling ``fn`` on one F at a time would give,
as long as ``fn`` treats each member of a stack as it would treat it alone.

The eigensolver rotates nested lists of Python floats one scalar at a
time.  Its values and vectors equal, bitwise, those of the same cyclic
Jacobi loop rotating whole numpy rows and columns.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotSymmetric",
    "Spectrum6",
    "fd_gradient",
    "fd_hessian6",
    "jacobi_eigen_sym",
]


_MAX_SWEEPS = 60


class NotSymmetric(ValueError):
    """Input matrix is not symmetric within tolerance."""


@dataclass(frozen=True, eq=False)
class Spectrum6:
    """Eigenvalues (ascending) and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _validated(f, h):
    f = np.asarray(f, dtype=float)
    if f.shape != (3, 2):
        raise ValueError(f"f must be 3x2, got shape {f.shape}")
    h = float(h)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    return f, h


def _values(fn, x):
    """fn's n values on the (n, 6) stack x of row-major flattened Fs."""
    n = len(x)
    values = np.asarray(fn(x.reshape(n, 3, 2)), dtype=float)
    if values.shape != (n,):
        raise ValueError(
            f"fn must map an ({n}, 3, 2) stack to {n} values, "
            f"got shape {values.shape}"
        )
    return values


def _axis_steps(flat, h):
    """(12, 6): the flattened F plus h e_k for k = 0..5, then minus h e_k."""
    k = np.arange(6)
    x = np.tile(flat, (2, 6, 1))
    x[0, k, k] += h
    x[1, k, k] -= h
    return x.reshape(12, 6)


def fd_gradient(fn, f, h=1e-5):
    """Central-difference gradient of a scalar function of a 3x2 matrix.

    ``fn`` maps an (n, 3, 2) stack to its n values.  It is called once, on
    the 12 Fs f +- h e_k; each gradient entry is (fn(f + h e_k) -
    fn(f - h e_k)) / (2 h), exactly as a loop over single Fs would form it.

    Raises
    ------
    ValueError
        If f is not 3x2, h is not finite and > 0, or fn does not return
        exactly 12 values.
    """
    f, h = _validated(f, h)
    plus, minus = _values(fn, _axis_steps(f.reshape(6), h)).reshape(2, 6)
    return ((plus - minus) / (2.0 * h)).reshape(3, 2)


def fd_hessian6(fn, f, h=1e-4):
    """Central second-difference 6x6 Hessian over row-major flattening.

    ``fn`` maps an (n, 3, 2) stack to its n values.  It is called once, on
    73 Fs: f itself, f +- h e_i for the diagonal, and the four corners
    f +- h e_i +- h e_j of each pair i < j.  The differences are formed with
    the same operands in the same order as a loop over single Fs.

    The default step is larger than fd_gradient's because second differences
    divide by h^2; at h = 1e-5 roundoff alone would exceed most of the
    tolerances this oracle certifies.  Output is symmetrized.

    Raises
    ------
    ValueError
        If f is not 3x2, h is not finite and > 0, or fn does not return
        exactly 73 values.
    """
    f, h = _validated(f, h)
    flat = f.reshape(6)
    i, j = np.triu_indices(6, k=1)
    pair = np.arange(len(i))
    corner = np.tile(flat, (4, len(i), 1))  # [pp/pm/mp/mm, pair, entry]
    for c, (si, sj) in enumerate(((h, h), (h, -h), (-h, h), (-h, -h))):
        corner[c, pair, i] += si
        corner[c, pair, j] += sj
    x = np.concatenate([flat[None], _axis_steps(flat, h), corner.reshape(-1, 6)])
    values = _values(fn, x)
    f0 = values[0]
    plus, minus = values[1:13].reshape(2, 6)
    pp, pm, mp, mm = values[13:].reshape(4, len(i))
    out = np.zeros((6, 6))
    k = np.arange(6)
    out[k, k] = (plus - 2.0 * f0 + minus) / (h * h)
    out[i, j] = (pp - pm - mp + mm) / (4.0 * h * h)
    out[j, i] = out[i, j]
    return 0.5 * (out + out.T)


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
    run in numpy; the stop test's norms are taken on a copy scaled by a
    power of two, so it holds for entries of any magnitude.

    Raises
    ------
    ValueError
        If a is not a nonempty square matrix.
    NotSymmetric
        If max|a - a^T| > 1e-10.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise NotSymmetric("matrix is not symmetric to 1e-10")

    a = 0.5 * (a + a.T)
    # The norms square entries: take them on a / 2^e, 2^e ~ max|a|, which
    # is exact and neither overflows nor underflows.
    e = int(np.frexp(np.max(np.abs(a)))[1])
    norm = np.linalg.norm(np.ldexp(a, -e))
    if norm == 0.0:
        return Spectrum6(values=np.zeros(n), vectors=np.eye(n))
    a = a.tolist()
    v = np.eye(n).tolist()

    def off(m):
        o = np.ldexp(m, -e)
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

    values = np.diag(np.array(a))
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = np.array(v)[:, order]
    for k in range(n):
        lead = np.argmax(np.abs(vectors[:, k]))
        if vectors[lead, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return Spectrum6(values=values, vectors=vectors)
