"""Thin SVD of 3x2 deformation gradients, with fixed conventions, and its rates.

A membrane deformation gradient F maps 2D material coordinates into 3D world
space, so F is 3x2.  Its thin SVD is written

    F = U * pad(sigma1, sigma2) * V^T

where pad() stacks diag(sigma1, sigma2) on a zero third row, U is 3x3
orthogonal and V is 2x2 orthogonal.  The representatives are fixed so that
downstream closed forms are unambiguous:

* sigma1 >= sigma2 >= 0,
* det(U) = det(V) = +1,
* the third column of U equals u1 x u2 and is the deformed surface normal.

``svd32`` computes the decomposition from the closed-form symmetric
eigendecomposition of F^T F (a single atan2 rotation), with sigma_i taken as
||F v_i|| and deficient U columns completed by Gram-Schmidt.  Ties at
sigma1 = sigma2 fall out of the atan2 branch at angle 0, so V = Id there.

``svd32`` takes one 3x2 matrix or a stack (..., 3, 2), and a single matrix
runs as a stack of one: there is one code path.  The stack is held
component-major, so each step is one elementwise array operation over all
matrices (one arctan2 per matrix, dot and cross products written out as
products, norms as nested hypot so tiny entries do not underflow), and the
column swap and the two degenerate cases (F v1 = 0, and a u2 that needs
completing) are masked fallbacks that run only where they apply.  Every
matrix of a stack therefore gets exactly the arithmetic it would get alone.

``svd_rates`` differentiates the decomposition.  For a velocity Fdot, the
matrix W = U^T Fdot V decomposes as

    W = [[ sigma1_dot,                -(sigma2*wz + sigma1*al) ],
         [ sigma1*wz + sigma2*al,      sigma2_dot              ],
         [ -sigma1*wy,                 sigma2*wx               ]]

where (wx, wy, wz) are the angular-velocity components of U and al is the
in-plane rotation rate of V.  The diagonal gives the singular value rates,
the third row gives wy and wx (tilting of the surface normal), and the
off-diagonal 2x2 part is a linear system for (wz, al):

    [[sigma2, sigma1],  @  [wz, al]^T  =  [-W01, W10]^T
     [sigma1, sigma2]]

singular exactly when sigma1 = sigma2 or sigma1 + sigma2 = 0.

The kernels here and in ``invariants`` and ``models`` have one shape rule:
numpy broadcasting over leading batch axes.  A decomposition of a (B...)
stack takes matrices (B..., 3, 2).  One decomposition takes k of them as
(k, 3, 2); a stack takes k per member, (B..., k, 3, 2), once its arrays
carry a trailing batch axis of length 1, (B..., 1).
"""

from dataclasses import dataclass

import numpy as np

# Degeneracy threshold for rate and Hessian formulas that divide by sigma
# combinations.  Construction of the SVD itself uses relative guards instead.
SIGMA_EPS = 1e-10

__all__ = ["Svd32", "svd32", "svd_rates", "DegenerateRates"]


class DegenerateRates(ValueError):
    """A rate component is not identifiable at the given singular values.

    ``which`` names the failing component: "omega_y" (sigma1 ~ 0), "omega_x"
    (sigma2 ~ 0), or "omega_z_alpha" (sigma1 ~ sigma2 or sigma1 + sigma2 ~ 0).
    ``element`` is the flat index of the first degenerate member of a stack
    of decompositions, else None, and ``sigma`` is that member's (s1, s2).
    """

    def __init__(self, which, sigma, element=None):
        self.which = which
        self.sigma = tuple(sigma)
        self.element = element
        where = "" if element is None else f"element {element}: "
        super().__init__(
            f"{where}SVD rate component {which} is degenerate at sigma = {self.sigma}"
        )


def _first_member(bad, values):
    """Where the mask ``bad`` first holds: ``values`` (arrays shaped like
    ``bad``) at that member as floats, and its flat index; for a ``bad``
    that is one bool, ``values`` as given and None."""
    if not np.ndim(bad):
        return tuple(values), None
    k = int(np.flatnonzero(bad)[0])
    return tuple(float(np.ravel(x)[k]) for x in values), k


@dataclass(frozen=True, eq=False)
class Svd32:
    """Thin SVD of a 3x2 matrix under this module's conventions.

    For a stack of matrices every attribute gains the stack's leading
    axes: ``u`` is (..., 3, 3), ``v`` is (..., 2, 2) and ``sigma`` holds
    two (...) arrays.

    Attributes
    ----------
    u : (3, 3) ndarray
        Orthogonal, det +1.  Columns u1, u2 span the deformed tangent plane.
    sigma : (float, float)
        Singular values, sigma[0] >= sigma[1] >= 0.
    v : (2, 2) ndarray
        Orthogonal, det +1 (a rotation).
    """

    u: np.ndarray
    sigma: tuple
    v: np.ndarray

    @property
    def normal(self):
        """Deformed surface normal: the third column of U (= u1 x u2)."""
        return self.u[..., :, 2]

    def reconstruct(self):
        """Return U * pad(sigma1, sigma2) * V^T as a 3x2 array (or stack)."""
        pad = np.stack(self.sigma, axis=-1)[..., None, :]
        return (self.u[..., :, :2] * pad) @ np.swapaxes(self.v, -1, -2)

    def lift(self, coeffs):
        """Map rotated-frame coefficients to world space: U @ C @ V^T.

        ``coeffs`` (..., 3, 2) broadcasts against the decomposition's batch
        axes, and the result has the broadcast shape.  This inverts
        C = U^T Fdot V.
        """
        return self.u @ coeffs @ np.swapaxes(self.v, -1, -2)

    def rotate(self, x):
        """Map world-space matrices to rotated-frame coefficients: U^T @ X @ V.

        The inverse of ``lift``, broadcasting the same way.
        """
        return np.swapaxes(self.u, -1, -2) @ np.asarray(x, dtype=float) @ self.v


@dataclass(frozen=True, eq=False)
class SvdRates:
    """First-order response of an Svd32 to a perturbation of its matrix.

    ``omega`` holds (omega_x, omega_y, omega_z), the angular velocity of U
    expressed in the frame of U's columns; ``alpha`` is the rotation rate
    of V.  Each rate is a float, or a (B...) array for a stack.
    """

    sigma_dot: tuple
    omega: tuple
    alpha: float

    def reconstruct(self, svd):
        """Rebuild the velocity U @ W @ V^T encoded by these rates, (B..., 3, 2)
        for the (B...) decompositions ``svd`` they were taken at."""
        s1, s2 = svd.sigma
        wx, wy, wz = self.omega
        al = self.alpha
        w = np.empty(np.shape(s1) + (3, 2))
        w[..., 0, 0], w[..., 1, 1] = self.sigma_dot
        w[..., 0, 1] = -(s2 * wz + s1 * al)
        w[..., 1, 0] = s1 * wz + s2 * al
        w[..., 2, 0] = -s1 * wy
        w[..., 2, 1] = s2 * wx
        return svd.lift(w)


def _sum3(x):
    # Sum over the leading axis of length 3, written out so that every
    # matrix of a stack sees the same additions in the same order.
    return x[0] + x[1] + x[2]


def _norm3(x):
    # Euclidean norm over the leading axis of length 3.  hypot neither
    # underflows nor overflows where a sum of squares would: the square of
    # an entry below 1e-154 is subnormal and has lost digits.
    return np.hypot(np.hypot(x[0], x[1]), x[2])


def svd32(f):
    """Thin SVD of a 3x2 matrix, or of a stack of them, with the module's
    sign and order conventions.

    Parameters
    ----------
    f : (3, 2) or (..., 3, 2) array_like
        Finite entries.

    Returns
    -------
    Svd32
        With sigma1 >= sigma2 >= 0, det(U) = det(V) = +1, and
        U[..., :, 2] = u1 x u2.  For one matrix ``sigma`` holds two floats;
        for a stack, ``u`` is (..., 3, 3), ``v`` is (..., 2, 2) and
        ``sigma`` holds two (...) arrays.  Each matrix of a stack gets the
        same elementwise arithmetic as it would alone, so a stack's result
        equals its members' results bitwise.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (3, 2):
        raise ValueError(f"f must be 3x2 or a stack of 3x2, got shape {f.shape}")
    # count_nonzero rather than .all(): many callers pass a single F.
    if np.count_nonzero(np.isfinite(f)) != f.size:
        raise ValueError("f has non-finite entries")
    batch = f.shape[:-2]
    # Component-major layout: ft[k, i] is the (E,) array of F[k, i].
    ft = f.reshape(-1, 3, 2).transpose(1, 2, 0)
    # Closed-form eigenvectors of the symmetric 2x2 F^T F: one rotation.
    gram = _sum3(ft[:, :, None] * ft[:, None, :])
    theta = 0.5 * np.arctan2(2.0 * gram[0, 1], gram[0, 0] - gram[1, 1])
    c, sn = np.cos(theta), np.sin(theta)
    v = np.concatenate((c, -sn, sn, c)).reshape(2, 2, -1)
    w = ft[:, 0, None] * v[0] + ft[:, 1, None] * v[1]
    # ||F v_i|| is accurate for tiny singular values where sqrt of the
    # F^T F eigenvalue would be dominated by cancellation noise.
    sa, sb = _norm3(w)
    swap = sa < sb
    if np.count_nonzero(swap):
        # Swap columns; negating the new second column keeps det(V) = +1.
        v = np.where(swap, np.stack([v[:, 1], -v[:, 0]], axis=1), v)
        w = np.where(swap, np.stack([w[:, 1], -w[:, 0]], axis=1), w)
        sa, sb = np.where(swap, sb, sa), np.where(swap, sa, sb)
    wa, wb = w[:, 0], w[:, 1]

    # The masked fallbacks below are rare; the common case pays one
    # count_nonzero for each.
    # Below 2**-1000 the entries of wa may be subnormal, and their norm has
    # lost too many digits to normalise by: (d, d, 0) with d = 5e-324 has
    # norm d.  Scaling by a power of two is exact there, so normalise a
    # rescaled copy.  A zero column gets e1.
    tiny = sa < 2.0**-1000
    if np.count_nonzero(tiny):
        wa = np.where(tiny, wa * 2.0**1000, wa)
        na = _norm3(wa)
        dead = na == 0.0
        u1 = wa / np.where(dead, 1.0, na)
        u1[:, dead] = np.array([[1.0], [0.0], [0.0]])
    else:
        u1 = wa / sa
    u2 = wb - _sum3(u1 * wb) * u1
    n2 = _norm3(u2)
    # Complete u2 only where it is roundoff (a few eps * sa): a completed u2
    # misplaces sigma2, so a larger floor would misplace sigma2 ~ 1e-12.
    bad = n2 <= 1e-13 * np.maximum(1.0, sa)
    if np.count_nonzero(bad):
        u2 = u2 / np.where(bad, 1.0, n2)
        u2[:, bad] = _orthogonal_completion(u1[:, bad])
    else:
        u2 = u2 / n2
    # u3 = u1 x u2 (a unit vector, as u1 and u2 are orthonormal), with the
    # cyclic shifts taken as slices of a doubled copy.
    r1, r2 = np.concatenate((u1, u1)), np.concatenate((u2, u2))
    u3 = r1[1:4] * r2[2:5] - r1[2:5] * r2[1:4]
    # (column, row, element) -> (element, row, column)
    u = np.concatenate((u1, u2, u3)).reshape(3, 3, -1).transpose(2, 1, 0)
    v = v.transpose(2, 0, 1)

    # One matrix is decomposed as a stack of one and unwrapped.
    if not batch:
        return Svd32(u=u[0], sigma=(float(sa[0]), float(sb[0])), v=v[0])
    return Svd32(
        u=u.reshape(batch + (3, 3)),
        sigma=(sa.reshape(batch), sb.reshape(batch)),
        v=v.reshape(batch + (2, 2)),
    )


def _orthogonal_completion(u1):
    # Columns of the (3, k) array u1 are unit vectors.  Start each from the
    # coordinate axis least aligned with it, then project.
    cols = np.arange(u1.shape[1])
    k = np.argmin(np.abs(u1), axis=0)
    w = -u1[k, cols] * u1
    w[k, cols] += 1.0
    return w / _norm3(w)


def svd_rates(svd, fdot):
    """Differentiate the SVD: rates of sigma, U's rotation, V's rotation.

    Parameters
    ----------
    svd : Svd32
        One decomposition or a stack of them, (B...), at the base point.
    fdot : (B..., 3, 2) array_like
        One perturbation direction per decomposition.

    Returns
    -------
    SvdRates
        Each rate is a (B...) array, and a stack's rates equal its members'
        bitwise.  For one decomposition each rate is a float.

    Raises
    ------
    ValueError
        If fdot is not finite or not shaped (B..., 3, 2).
    DegenerateRates
        If a rate component of some decomposition is not identifiable:
        omega_y needs sigma1 > SIGMA_EPS, omega_x needs sigma2 > SIGMA_EPS,
        and (omega_z, alpha) need |sigma1 - sigma2| > SIGMA_EPS and
        sigma1 + sigma2 > SIGMA_EPS.
    """
    fdot = np.asarray(fdot, dtype=float)
    batch = svd.u.shape[:-2]
    if fdot.shape != batch + (3, 2):
        raise ValueError(
            f"fdot must hold one 3x2 per decomposition, {batch + (3, 2)}, "
            f"got shape {fdot.shape}"
        )
    if np.count_nonzero(np.isfinite(fdot)) != fdot.size:
        raise ValueError("fdot has non-finite entries")
    s1, s2 = svd.sigma
    for which, bad in (
        ("omega_y", s1 <= SIGMA_EPS),
        ("omega_x", s2 <= SIGMA_EPS),
        ("omega_z_alpha", (s1 - s2 <= SIGMA_EPS) | (s1 + s2 <= SIGMA_EPS)),
    ):
        # count_nonzero reads a Python bool and a boolean array alike.
        if np.count_nonzero(bad):
            raise DegenerateRates(which, *_first_member(bad, svd.sigma))

    w = svd.rotate(fdot)
    wy = -w[..., 2, 0] / s1
    wx = w[..., 2, 1] / s2
    # 2x2 solve for the coupled in-plane rotation rates.
    r1 = -w[..., 0, 1]
    r2 = w[..., 1, 0]
    det = s2 * s2 - s1 * s1
    wz = (s2 * r1 - s1 * r2) / det
    al = (s2 * r2 - s1 * r1) / det
    rates = (w[..., 0, 0], w[..., 1, 1], wx, wy, wz, al)
    # One decomposition's rates unwrap to floats, as svd32 unwraps one F.
    if not batch:
        rates = tuple(map(float, rates))
    return SvdRates(sigma_dot=rates[:2], omega=rates[2:5], alpha=rates[5])
