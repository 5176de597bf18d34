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

import math
from dataclasses import dataclass

import numpy as np

# Degeneracy threshold for rate and Hessian formulas that divide by sigma
# combinations.  Construction of the SVD itself uses relative guards instead.
SIGMA_EPS = 1e-10

__all__ = [
    "SIGMA_EPS",
    "DegenerateRates",
    "Svd32",
    "SvdRates",
    "svd32",
    "svd_rates",
    "lifted_perturbation",
]


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
        return self.u[:, 2]

    def reconstruct(self):
        """Return U * pad(sigma1, sigma2) * V^T as a 3x2 array."""
        return (self.u[:, :2] * self.sigma) @ self.v.T

    def lift(self, coeffs):
        """Map rotated-frame coefficients to world space: U @ C @ V^T.

        ``coeffs`` is one 3x2 matrix or a (k, 3, 2) stack of them; the
        result has the same shape.  This inverts C = U^T Fdot V.
        """
        return self.u @ coeffs @ self.v.T


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


def _orthogonal_completion(u1):
    # Start from the coordinate axis least aligned with u1, then project.
    k = int(np.argmin(np.abs(u1)))
    e = np.zeros(3)
    e[k] = 1.0
    w = e - (u1 @ e) * u1
    return w / np.linalg.norm(w)


def svd32(f):
    """Thin SVD of a 3x2 matrix with the module's sign and order conventions.

    Parameters
    ----------
    f : (3, 2) array_like
        Finite entries.

    Returns
    -------
    Svd32
        With sigma1 >= sigma2 >= 0, det(U) = det(V) = +1, and
        U[:, 2] = u1 x u2.
    """
    f = _as_mat32(f)
    s = f.T @ f
    # Closed-form eigenvectors of the symmetric 2x2 F^T F: one rotation.
    theta = 0.5 * math.atan2(s[0, 1] + s[1, 0], s[0, 0] - s[1, 1])
    c, sn = math.cos(theta), math.sin(theta)
    va = np.array([c, sn])
    vb = np.array([-sn, c])
    wa = f @ va
    wb = f @ vb
    # ||F v_i|| is accurate for tiny singular values where sqrt of the
    # F^T F eigenvalue would be dominated by cancellation noise.
    sa = float(np.linalg.norm(wa))
    sb = float(np.linalg.norm(wb))
    if sa < sb:
        # Swap columns; negating the new second column keeps det(V) = +1.
        va, vb = vb, -va
        wa, wb = wb, -wa
        sa, sb = sb, sa
    v = np.column_stack([va, vb])

    if sa > 0.0:
        u1 = wa / sa
    else:
        u1 = np.array([1.0, 0.0, 0.0])
    u2 = wb - (u1 @ wb) * u1
    n2 = float(np.linalg.norm(u2))
    if n2 > 1e-12 * max(1.0, sa):
        u2 = u2 / n2
    else:
        u2 = _orthogonal_completion(u1)
    u3 = np.cross(u1, u2)
    u3 = u3 / np.linalg.norm(u3)
    u = np.column_stack([u1, u2, u3])
    return Svd32(u=u, sigma=(sa, sb), v=v)


def svd_rates(svd, fdot):
    """Differentiate the SVD: rates of sigma, U's rotation, V's rotation.

    Parameters
    ----------
    svd : Svd32
        Decomposition at the base point.
    fdot : (3, 2) array_like
        Perturbation direction.

    Returns
    -------
    SvdRates

    Raises
    ------
    DegenerateRates
        If a rate component is not identifiable: omega_y needs sigma1 >
        SIGMA_EPS, omega_x needs sigma2 > SIGMA_EPS, and (omega_z, alpha)
        need |sigma1 - sigma2| > SIGMA_EPS and sigma1 + sigma2 > SIGMA_EPS.
    """
    fdot = _as_mat32(fdot, "fdot")
    s1, s2 = svd.sigma
    if s1 <= SIGMA_EPS:
        raise DegenerateRates("omega_y", svd.sigma)
    if s2 <= SIGMA_EPS:
        raise DegenerateRates("omega_x", svd.sigma)
    if s1 - s2 <= SIGMA_EPS or s1 + s2 <= SIGMA_EPS:
        raise DegenerateRates("omega_z_alpha", svd.sigma)

    w = svd.u.T @ fdot @ svd.v
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


def lifted_perturbation(svd, a, b, c, d, e, f):
    """Map coefficients in the rotated frame to a world-space perturbation.

    Returns U @ [[a, b], [c, d], [e, f]] @ V^T.  The six coefficients are the
    entries of U^T Fdot V, so this inverts that change of frame.
    """
    return svd.lift(np.array([[a, b], [c, d], [e, f]], dtype=float))
