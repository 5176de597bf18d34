"""Stretch invariants of a 3x2 deformation gradient: values, gradients,
Hessian-vector products, and full closed-form Hessian eigensystems.

With F = U pad(sigma1, sigma2) V^T the three invariants are

    I1 = sigma1 + sigma2        (sum of principal stretches)
    I2 = F : F = sigma1^2 + sigma2^2
    I3 = sigma1 * sigma2        (area stretch ratio)

and they satisfy I1^2 = I2 + 2*I3.  Any isotropic membrane energy density is
a function of these three, so its gradient and Hessian are assembled from the
per-invariant pieces computed here.

Every Hessian here is a linear operator on 3x2 matrices.  Its six eigenpairs
(eigenvalue, unit-Frobenius-norm 3x2 eigenmatrix) are returned in a fixed
slot order used package-wide:

    [diag-block mode 1, diag-block mode 2, twist, flip, normal-1, normal-2]

where, writing L[C] = U C V^T for a 3x2 coefficient matrix C,

    twist    = L[[0,-1],[1,0],[0,0]] / sqrt(2)
    flip     = L[[0, 1],[1,0],[0,0]] / sqrt(2)
    normal-1 = L[[0, 0],[0,0],[1,0]]
    normal-2 = L[[0, 0],[0,0],[0,1]]

and the two diag-block modes lie in span{L[E11], L[E22]} (in-plane diagonal
perturbations).  The first four slots have an identically zero third row in
the rotated frame; the last two live entirely in that row.

Every function takes one decomposition or a stack of them (see ``svd32``)
through the same code, and a stack's results equal its members' bitwise.
``invariant_hvp`` also takes k perturbations per decomposition.
"""

import math
from dataclasses import dataclass

import numpy as np

from .svd import SIGMA_EPS, _per_member

__all__ = [
    "DegenerateHessian",
    "Invariants",
    "EigenSystem6",
    "invariants",
    "invariant_gradients",
    "invariant_hvp",
    "invariant_eigensystem",
]

_SQRT_HALF = math.sqrt(0.5)

# Coefficient matrices of the modes shared by every eigensystem (slots
# 2-5), in the rotated frame.
_C_TWIST = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 0.0]]) * _SQRT_HALF
_C_FLIP = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]) * _SQRT_HALF
_C_N1 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
_C_N2 = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
_C_MODES = np.stack([_C_TWIST, _C_FLIP, _C_N1, _C_N2])


class DegenerateHessian(ValueError):
    """An invariant Hessian formula divides by a vanishing sigma combination."""

    def __init__(self, invariant, sigma):
        self.invariant = invariant
        self.sigma = tuple(sigma)
        super().__init__(
            f"Hessian of {invariant} is degenerate at sigma = {self.sigma}"
        )


@dataclass(frozen=True)
class Invariants:
    """Invariant values at one deformation gradient."""

    i1: float
    i2: float
    i3: float


@dataclass(frozen=True, eq=False)
class EigenSystem6:
    """Six eigenpairs of a Hessian acting on 3x2 matrices.

    ``values`` is shape (6,), ``matrices`` is shape (6, 3, 2) with
    unit-Frobenius-norm, pairwise-orthogonal eigenmatrices, ordered by the
    package-wide slot convention (see module docstring).  An eigensystem
    of a stack of decompositions carries the stack's leading axes:
    (..., 6) and (..., 6, 3, 2).
    """

    values: np.ndarray
    matrices: np.ndarray

    def pairs(self):
        """Iterate (eigenvalue, eigenmatrix) pairs in slot order."""
        return zip(self.values, self.matrices)

    def apply(self, x):
        """Apply the represented operator: sum_i values[i] (q_i : x) q_i."""
        dots = np.einsum("...kij,...ij->...k", self.matrices, np.asarray(x, float))
        return np.einsum("...k,...kij->...ij", self.values * dots, self.matrices)

    def dense6(self):
        """Materialize as a symmetric 6x6 matrix over row-major flattening."""
        q = self.matrices.reshape(self.matrices.shape[:-3] + (6, 6))
        return (np.swapaxes(q, -1, -2) * self.values[..., None, :]) @ q


def _batch_shape(parts):
    """The common shape of parts that are scalars or arrays of one shape."""
    return max((getattr(p, "shape", ()) for p in parts), key=len)


def _pack(parts):
    """Stack n parts along a new last axis, giving (..., n).  Each part is a
    scalar or an array of one common shape."""
    shape = _batch_shape(parts)
    if not shape:
        return np.array(parts, dtype=float)
    out = np.empty(shape + (len(parts),))
    for k, p in enumerate(parts):
        out[..., k] = p
    return out


def _slot_coeffs(va, vb):
    """(..., 6, 3, 2) coefficient stack in slot order: the diag-block modes
    with coordinates va = (va0, va1) and vb on (E11, E22), then twist, flip
    and the normals."""
    out = np.zeros(_batch_shape(va + vb) + (6, 3, 2))
    out[..., 0, 0, 0], out[..., 0, 1, 1] = va
    out[..., 1, 0, 0], out[..., 1, 1, 1] = vb
    out[..., 2:, :, :] = _C_MODES
    return out


# I1 and I3 share their diag-block modes, the scale and antiscale
# directions.  I2's Hessian is 2 Id, so any orthonormal basis is exact; it
# takes E11 and E22.
_C_SLOTS_I13 = _slot_coeffs((_SQRT_HALF, _SQRT_HALF), (_SQRT_HALF, -_SQRT_HALF))
_C_SLOTS_I2 = _slot_coeffs((1.0, 0.0), (0.0, 1.0))


def _eigensystem6(svd, values, coeffs):
    """Pair six eigenvalues with the lifts of a (..., 6, 3, 2) coefficient
    stack; a (6, 3, 2) stack is shared by every decomposition of a stack."""
    missing = svd.u.ndim + 1 - coeffs.ndim
    if missing:
        coeffs = coeffs.reshape((1,) * missing + coeffs.shape)
    return EigenSystem6(values=_pack(values), matrices=svd.lift(coeffs))


def invariants(svd):
    """Invariant values from a decomposition."""
    s1, s2 = svd.sigma
    return Invariants(i1=s1 + s2, i2=s1 * s1 + s2 * s2, i3=s1 * s2)


def invariant_gradients(svd, f):
    """Gradients of (I1, I2, I3) with respect to F, each a 3x2 array (or a
    stack of them, for a stack of decompositions).

    g1 = U pad(1, 1) V^T, g2 = 2 F, g3 = U pad(sigma2, sigma1) V^T.
    Defined for every decomposition, degenerate or not.
    """
    s1, s2 = svd.sigma
    u2 = svd.u[..., :, :2]
    vt = np.swapaxes(svd.v, -1, -2)
    g1 = u2 @ vt
    g2 = 2.0 * np.asarray(f, dtype=float)
    g3 = (u2 * _pack((s2, s1))[..., None, :]) @ vt
    return g1, g2, g3


def _hvp_i1(svd, w):
    # w = U^T Fdot V, shaped as fdot.  Divides by sigma1 + sigma2, sigma1,
    # sigma2.
    s1, s2 = (_per_member(s, svd, w) for s in svd.sigma)
    s12 = s1 + s2
    coeffs = np.zeros_like(w)
    coeffs[..., 0, 1] = (w[..., 0, 1] - w[..., 1, 0]) / s12
    coeffs[..., 1, 0] = (w[..., 1, 0] - w[..., 0, 1]) / s12
    coeffs[..., 2, 0] = w[..., 2, 0] / s1
    coeffs[..., 2, 1] = w[..., 2, 1] / s2
    return svd.lift(coeffs)


def _hvp_i3(svd, w):
    # Divides by sigma1 and sigma2.
    s1, s2 = (_per_member(s, svd, w) for s in svd.sigma)
    coeffs = np.empty_like(w)
    coeffs[..., 0, 0] = w[..., 1, 1]
    coeffs[..., 0, 1] = -w[..., 1, 0]
    coeffs[..., 1, 0] = -w[..., 0, 1]
    coeffs[..., 1, 1] = w[..., 0, 0]
    coeffs[..., 2, 0] = (s2 / s1) * w[..., 2, 0]
    coeffs[..., 2, 1] = (s1 / s2) * w[..., 2, 1]
    return svd.lift(coeffs)


def _require(svd, invariant):
    s1, s2 = svd.sigma
    # count_nonzero reads a Python bool and a boolean array alike.
    if np.count_nonzero((s1 <= SIGMA_EPS) | (s2 <= SIGMA_EPS) | (s1 + s2 <= SIGMA_EPS)):
        raise DegenerateHessian(invariant, svd.sigma)


def invariant_hvp(svd, fdot):
    """Hessian-vector products (H1:Fdot, H2:Fdot, H3:Fdot).

    ``svd`` is one decomposition or a stack of them, (B...), and ``fdot``
    holds one 3x2 matrix per decomposition, (B..., 3, 2), or k of them,
    (B..., k, 3, 2).  Each product has fdot's shape, and a stack's
    products equal its members' bitwise.  H2:Fdot = 2 Fdot exactly.  H1
    and H3 are evaluated through the rotated frame and require
    nondegenerate singular values.

    Raises
    ------
    DegenerateHessian
        Naming I1 when some decomposition's singular values are
        degenerate.
    """
    fdot = np.asarray(fdot, dtype=float)
    _require(svd, "I1")
    w = svd.rotate(fdot)
    return _hvp_i1(svd, w), 2.0 * fdot, _hvp_i3(svd, w)


def invariant_eigensystem(which, svd):
    """Closed-form eigensystem of one invariant's Hessian.

    Parameters
    ----------
    which : str
        "I1", "I2", or "I3".
    svd : Svd32

    Returns
    -------
    EigenSystem6

    Notes
    -----
    I2's Hessian is 2 * identity, so any orthonormal basis works; its
    diag-block slots are E11 and E22.  I1 and I3 require nondegenerate
    singular values.
    """
    s1, s2 = svd.sigma
    # Constant values are given the shape of s1 (a float, or an array over
    # a stack) by adding 0.0 * s1.
    if which == "I2":
        return _eigensystem6(svd, (2.0 + 0.0 * s1,) * 6, _C_SLOTS_I2)
    if which == "I1":
        _require(svd, "I1")
        zero = 0.0 * s1
        values = (zero, zero, 2.0 / (s1 + s2), zero, 1.0 / s1, 1.0 / s2)
        return _eigensystem6(svd, values, _C_SLOTS_I13)
    if which == "I3":
        _require(svd, "I3")
        one = 1.0 + 0.0 * s1
        values = (one, -one, one, -one, s2 / s1, s1 / s2)
        return _eigensystem6(svd, values, _C_SLOTS_I13)
    raise ValueError(f"unknown invariant {which!r}; expected 'I1', 'I2' or 'I3'")
