"""Independent numerical oracles: finite differences and a dense symmetric
eigensolver.  Everything here is deliberately decoupled from the closed
forms it is used to check.
"""

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


def fd_gradient(fn, f, h=1e-5):
    """Central-difference gradient of a scalar function of a 3x2 matrix."""
    f = np.asarray(f, dtype=float)
    out = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            fp = f.copy()
            fm = f.copy()
            fp[i, j] += h
            fm[i, j] -= h
            out[i, j] = (fn(fp) - fn(fm)) / (2.0 * h)
    return out


def fd_hessian6(fn, f, h=1e-4):
    """Central second-difference 6x6 Hessian over row-major flattening.

    The default step is larger than fd_gradient's because second differences
    divide by h^2; at h = 1e-5 roundoff alone would exceed most of the
    tolerances this oracle certifies.  Output is symmetrized.
    """
    f = np.asarray(f, dtype=float).reshape(6).copy()

    def at(x):
        return fn(x.reshape(3, 2))

    out = np.zeros((6, 6))
    f0 = at(f)
    for i in range(6):
        xp = f.copy()
        xm = f.copy()
        xp[i] += h
        xm[i] -= h
        out[i, i] = (at(xp) - 2.0 * f0 + at(xm)) / (h * h)
        for j in range(i + 1, 6):
            xpp = f.copy()
            xpm = f.copy()
            xmp = f.copy()
            xmm = f.copy()
            xpp[i] += h
            xpp[j] += h
            xpm[i] += h
            xpm[j] -= h
            xmp[i] -= h
            xmp[j] += h
            xmm[i] -= h
            xmm[j] -= h
            out[i, j] = (at(xpp) - at(xpm) - at(xmp) + at(xmm)) / (4.0 * h * h)
            out[j, i] = out[i, j]
    return 0.5 * (out + out.T)


def jacobi_eigen_sym(a):
    """Dense symmetric eigendecomposition by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below 1e-14 times the
    matrix norm, at most 60 times.  Eigenvalues are returned ascending with
    their eigenvector columns; each vector's largest-magnitude component is
    made positive so the output is deterministic.

    Raises
    ------
    NotSymmetric
        If max|a - a^T| > 1e-10.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise NotSymmetric("matrix is not symmetric to 1e-10")

    a = 0.5 * (a + a.T)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return Spectrum6(values=np.zeros(n), vectors=np.eye(n))
    v = np.eye(n)

    def off(m):
        o = m.copy()
        np.fill_diagonal(o, 0.0)
        return np.linalg.norm(o)

    for _ in range(_MAX_SWEEPS):
        if off(a) <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Stable rotation angle (Golub & Van Loan sym. Schur 2x2).
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = a[:, p].copy()
                rq = a[:, q].copy()
                a[:, p] = c * rp - s * rq
                a[:, q] = s * rp + c * rq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                rp = v[:, p].copy()
                rq = v[:, q].copy()
                v[:, p] = c * rp - s * rq
                v[:, q] = s * rp + c * rq

    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    for k in range(n):
        lead = np.argmax(np.abs(vectors[:, k]))
        if vectors[lead, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return Spectrum6(values=values, vectors=vectors)
