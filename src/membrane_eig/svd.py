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
    """

    def __init__(self, which, sigma):
        self.which = which
        self.sigma = tuple(sigma)
        super().__init__(
            f"SVD rate component {which} is degenerate at sigma = {self.sigma}"
        )


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

        ``coeffs`` is one 3x2 matrix or a (k, 3, 2) stack of them per
        decomposition; the result has the same shape.  This inverts
        C = U^T Fdot V.
        """
        u = _per_member(self.u, self, coeffs)
        vt = _per_member(np.swapaxes(self.v, -1, -2), self, coeffs)
        return u @ coeffs @ vt

    def rotate(self, x):
        """Map world-space matrices to rotated-frame coefficients: U^T @ X @ V.

        The inverse of ``lift``, taking the same shapes.
        """
        ut = _per_member(np.swapaxes(self.u, -1, -2), self, x)
        v = _per_member(self.v, self, x)
        return ut @ np.asarray(x, dtype=float) @ v


def _per_member(a, svd, x):
    """View ``a`` (one value or block per decomposition of ``svd``: (B...)
    or (B..., ...)) to line up with ``x``, one 3x2 per decomposition,
    (B..., 3, 2), or k of them, (B..., k, 3, 2); for the latter a stack's
    ``a`` gains an axis after B.  The one rule for the optional k axis."""
    nb = svd.u.ndim - 2
    if nb and np.ndim(x) > nb + 2 and np.ndim(a) >= nb:
        return a[(slice(None),) * nb + (None,)]
    return a


@dataclass(frozen=True, eq=False)
class SvdRates:
    """First-order response of an Svd32 to a perturbation of its matrix.

    ``omega`` holds (omega_x, omega_y, omega_z), the angular velocity of U
    expressed in the frame of U's columns; ``alpha`` is the rotation rate
    of V.
    """

    sigma_dot: tuple
    omega: tuple
    alpha: float

    def reconstruct(self, svd):
        """Rebuild the velocity U @ W @ V^T encoded by these rates."""
        s1, s2 = svd.sigma
        wx, wy, wz = self.omega
        al = self.alpha
        w = np.array(
            [
                [self.sigma_dot[0], -(s2 * wz + s1 * al)],
                [s1 * wz + s2 * al, self.sigma_dot[1]],
                [-s1 * wy, s2 * wx],
            ]
        )
        return svd.lift(w)


def _as_mat32(f, name="f"):
    f = np.asarray(f, dtype=float)
    if f.shape != (3, 2):
        raise ValueError(f"{name} must be 3x2, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{name} has non-finite entries")
    return f


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
    # count_nonzero rather than .all(): this runs once per F in the checks.
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
    dead = sa == 0.0
    if np.count_nonzero(dead):
        u1 = wa / np.where(dead, 1.0, sa)
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
        One decomposition (not a stack) at the base point.
    fdot : (3, 2) array_like
        Perturbation direction.

    Returns
    -------
    SvdRates

    Raises
    ------
    ValueError
        If ``svd`` is a stack of decompositions or fdot is not a finite 3x2.
    DegenerateRates
        If a rate component is not identifiable: omega_y needs sigma1 >
        SIGMA_EPS, omega_x needs sigma2 > SIGMA_EPS, and (omega_z, alpha)
        need |sigma1 - sigma2| > SIGMA_EPS and sigma1 + sigma2 > SIGMA_EPS.
    """
    if svd.u.ndim != 2:
        raise ValueError("svd_rates takes one decomposition, not a stack")
    fdot = _as_mat32(fdot, "fdot")
    s1, s2 = svd.sigma
    if s1 <= SIGMA_EPS:
        raise DegenerateRates("omega_y", svd.sigma)
    if s2 <= SIGMA_EPS:
        raise DegenerateRates("omega_x", svd.sigma)
    if s1 - s2 <= SIGMA_EPS or s1 + s2 <= SIGMA_EPS:
        raise DegenerateRates("omega_z_alpha", svd.sigma)

    w = svd.rotate(fdot)
    wy = -w[2, 0] / s1
    wx = w[2, 1] / s2
    # 2x2 solve for the coupled in-plane rotation rates.
    r1 = -w[0, 1]
    r2 = w[1, 0]
    det = s2 * s2 - s1 * s1
    wz = (s2 * r1 - s1 * r2) / det
    al = (s2 * r2 - s1 * r1) / det
    return SvdRates(
        sigma_dot=(float(w[0, 0]), float(w[1, 1])),
        omega=(float(wx), float(wy), float(wz)),
        alpha=float(al),
    )

