"""Isotropic membrane energy densities over the stretch invariants, their
derivatives, and closed-form Hessian eigensystems.

A model is any object with a ``derivs(inv)`` method mapping an
:class:`~membrane_eig.invariants.Invariants` to a :class:`ModelDerivs`
(energy value plus first and second partials with respect to I1, I2, I3).
The generic assembler ``energy_eigensystem`` turns those scalars into the
full six-pair Hessian eigensystem of psi(F):

* twist, flip and the two normal modes are always eigenmatrices, with

      lam_twist  = 2 f2 + 2 f1 / (s1 + s2) + f3
      lam_flip   = 2 f2 - f3
      lam_norm1  = 2 f2 + f1 / s1 + f3 * s2 / s1
      lam_norm2  = 2 f2 + f1 / s2 + f3 * s1 / s2

* the remaining two eigenpairs come from a 2x2 symmetric matrix acting on
  the in-plane diagonal subspace span{L[E11], L[E22]}:

      A = 2 f2 Id + f3 [[0,1],[1,0]] + sum_kl f_kl ghat_k ghat_l^T

  with ghat_1 = (1, 1), ghat_2 = (2 s1, 2 s2), ghat_3 = (s2, s1) the
  gradients' diagonal coefficients in the rotated frame.

``NeoHookeanSheet`` is the incompressible sheet density

    psi = mu/2 * (I2 + 1/I3^2 - 3)

whose volume term penalizes area change; its eigensystem also has fully
closed forms (``sheet_eigensystem``), including the reduced 2x2 block

    A = mu * Id + mu/I3^4 * [[3 s2^2, 2 I3], [2 I3, 3 s1^2]]

with eigenvalues mu + mu (3 I2 +- gamma) / (2 I3^4) for
gamma = sqrt(16 I3^2 + beta^2), beta = 3 (s2^2 - s1^2), and eigenvectors
(beta + gamma, 4 I3) for the larger and (beta - gamma, 4 I3) for the
smaller.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .svd import SIGMA_EPS
from .invariants import (
    DegenerateHessian,
    EigenSystem6,
    _eigensystem6,
    _hvp_i1,
    _hvp_i3,
    _require,
    _rotated,
    _slot_coeffs,
    invariant_gradients,
    invariants,
)

__all__ = [
    "DomainError",
    "ModelDerivs",
    "NeoHookeanSheet",
    "energy_gradient",
    "energy_hvp",
    "energy_eigensystem",
    "sheet_eigensystem",
    "project_psd",
]


class DomainError(ValueError):
    """The invariants lie outside a model's admissible domain."""

    def __init__(self, message, element=None):
        self.element = element
        super().__init__(message)


@dataclass(frozen=True)
class ModelDerivs:
    """Energy value and partial derivatives with respect to (I1, I2, I3).

    ``fk`` is d psi / d Ik and ``fkl`` is the symmetric second partial.
    """

    psi: float
    f1: float = 0.0
    f2: float = 0.0
    f3: float = 0.0
    f11: float = 0.0
    f12: float = 0.0
    f13: float = 0.0
    f22: float = 0.0
    f23: float = 0.0
    f33: float = 0.0

    def second_partials(self):
        """The symmetric 3x3 matrix of second partials."""
        return np.array(
            [
                [self.f11, self.f12, self.f13],
                [self.f12, self.f22, self.f23],
                [self.f13, self.f23, self.f33],
            ]
        )

    def scaled(self, factor):
        """Derivatives of factor * psi (all fields scale linearly)."""
        return replace(
            self,
            psi=factor * self.psi,
            f1=factor * self.f1,
            f2=factor * self.f2,
            f3=factor * self.f3,
            f11=factor * self.f11,
            f12=factor * self.f12,
            f13=factor * self.f13,
            f22=factor * self.f22,
            f23=factor * self.f23,
            f33=factor * self.f33,
        )


@dataclass(frozen=True)
class NeoHookeanSheet:
    """Incompressible neo-Hookean sheet: psi = mu/2 * (I2 + 1/I3^2 - 3).

    The inverse-square area term stands in for the eliminated thickness
    stretch, so the domain requires I3 >= i3_floor > 0.
    """

    mu: float
    i3_floor: float = 1e-6

    def derivs(self, inv):
        if inv.i3 < self.i3_floor:
            raise DomainError(
                f"I3 = {inv.i3} below the sheet floor {self.i3_floor}"
            )
        mu = self.mu
        r = 1.0 / inv.i3
        r2 = r * r
        return ModelDerivs(
            psi=0.5 * mu * (inv.i2 + r2 - 3.0),
            f2=0.5 * mu,
            f3=-mu * r2 * r,
            f33=3.0 * mu * r2 * r2,
        )


def energy_gradient(model, svd, f):
    """Gradient of psi(F): sum_k f_k * g_k, a 3x2 array."""
    d = model.derivs(invariants(svd))
    g1, g2, g3 = invariant_gradients(svd, f)
    return d.f1 * g1 + d.f2 * g2 + d.f3 * g3


def energy_hvp(model, svd, fdot):
    """Hessian-vector product of psi(F) applied to fdot.

    Assembles sum_k f_k (H_k : fdot) + sum_kl f_kl (g_l : fdot) g_k, touching
    only the invariant Hessians whose coefficients are nonzero, so a pure-I2
    model works at any decomposition.
    """
    fdot = np.asarray(fdot, dtype=float)
    d = model.derivs(invariants(svd))
    out = np.zeros((3, 2))
    if d.f2 != 0.0:
        out += (2.0 * d.f2) * fdot
    if d.f1 != 0.0 or d.f3 != 0.0:
        w = _rotated(svd, fdot)
        if d.f1 != 0.0:
            _require(svd, "I1")
            out += d.f1 * _hvp_i1(svd, w)
        if d.f3 != 0.0:
            _require(svd, "I3")
            out += d.f3 * _hvp_i3(svd, w)
    sp = d.second_partials()
    if sp.any():
        g = np.stack(invariant_gradients(svd, svd.reconstruct()))
        dots = np.einsum("kij,ij->k", g, fdot)
        out += np.einsum("kl,l,kij->ij", sp, dots, g)
    return out


def _symeig2(a):
    """Eigenpairs of a symmetric 2x2, rotation-ordered and deterministic.

    Returns ((la, va), (lb, vb)) with va = (cos t, sin t), vb = (-sin t,
    cos t) for t = 0.5 * atan2(2 a01, a00 - a11), each flipped so its first
    nonzero component is positive.  An exactly repeated root gives t = 0 and
    the canonical axis basis.
    """
    a00, a11 = float(a[0, 0]), float(a[1, 1])
    a01 = 0.5 * (float(a[0, 1]) + float(a[1, 0]))
    t = 0.5 * math.atan2(2.0 * a01, a00 - a11)
    c, s = math.cos(t), math.sin(t)
    la = c * c * a00 + 2.0 * c * s * a01 + s * s * a11
    lb = s * s * a00 - 2.0 * c * s * a01 + c * c * a11
    va = np.array([c, s])
    vb = np.array([-s, c])
    if va[0] < 0.0 or (va[0] == 0.0 and va[1] < 0.0):
        va = -va
    if vb[0] < 0.0 or (vb[0] == 0.0 and vb[1] < 0.0):
        vb = -vb
    return (la, va), (lb, vb)


def _reduced_block(d, s1, s2):
    a = 2.0 * d.f2 * np.eye(2) + d.f3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = d.second_partials()
    if sp.any():
        ghat = np.array([[1.0, 1.0], [2.0 * s1, 2.0 * s2], [s2, s1]])
        a += ghat.T @ sp @ ghat
    return a


def _mode_values(d, s1, s2):
    lam_twist = 2.0 * d.f2 + 2.0 * d.f1 / (s1 + s2) + d.f3
    lam_flip = 2.0 * d.f2 - d.f3
    lam_n1 = 2.0 * d.f2 + d.f1 / s1 + d.f3 * s2 / s1
    lam_n2 = 2.0 * d.f2 + d.f1 / s2 + d.f3 * s1 / s2
    return lam_twist, lam_flip, lam_n1, lam_n2


def _assemble_eigensystem(d, svd):
    s1, s2 = svd.sigma
    (la, va), (lb, vb) = _symeig2(_reduced_block(d, s1, s2))
    values = (la, lb) + _mode_values(d, s1, s2)
    return _eigensystem6(svd, values, _slot_coeffs(va, vb))


def energy_eigensystem(model, svd):
    """Six-pair Hessian eigensystem of psi(F) for any isotropic model.

    Requires nondegenerate singular values (sigma2 > SIGMA_EPS) and
    invariants inside the model's domain.
    """
    s1, s2 = svd.sigma
    if s1 <= SIGMA_EPS or s2 <= SIGMA_EPS or s1 + s2 <= SIGMA_EPS:
        raise DegenerateHessian("energy", svd.sigma)
    d = model.derivs(invariants(svd))
    return _assemble_eigensystem(d, svd)


def sheet_eigensystem(mu, svd, i3_floor=1e-6):
    """Closed-form Hessian eigensystem of the neo-Hookean sheet.

    Agrees with ``energy_eigensystem(NeoHookeanSheet(mu), svd)`` but uses the
    explicit block solution: with beta = 3 (s2^2 - s1^2) and gamma =
    sqrt(16 I3^2 + beta^2), the in-plane diagonal block has eigenvalues
    mu + mu (3 I2 +- gamma) / (2 I3^4); the (beta + gamma, 4 I3) direction
    carries the larger one.  beta + gamma is evaluated as
    16 I3^2 / (gamma - beta) to dodge cancellation when I3 is small.
    """
    s1, s2 = svd.sigma
    i3 = s1 * s2
    if i3 < i3_floor:
        raise DomainError(f"I3 = {i3} below the sheet floor {i3_floor}")
    i2 = s1 * s1 + s2 * s2
    r3 = mu / (i3 * i3 * i3)

    lam_twist = mu - r3
    lam_flip = mu + r3
    lam_n1 = mu - r3 * s2 / s1
    lam_n2 = mu - r3 * s1 / s2

    beta = 3.0 * (s2 * s2 - s1 * s1)
    gamma = math.hypot(4.0 * i3, beta)
    half = mu / (2.0 * i3 ** 4)
    lam_plus = mu + half * (3.0 * i2 + gamma)
    lam_minus = mu + half * (3.0 * i2 - gamma)

    # beta <= 0 always (s1 >= s2), so gamma - beta is additive, and the
    # stable quotient below equals beta + gamma.
    vp = np.array([16.0 * i3 * i3 / (gamma - beta), 4.0 * i3])
    vm = np.array([gamma - beta, -4.0 * i3])  # -(beta - gamma, 4 I3)
    np_, nm = np.linalg.norm(vp), np.linalg.norm(vm)
    if np_ < 1e-12 or nm < 1e-12:
        # Guarded fallback; unreachable for I3 >= i3_floor.
        d = NeoHookeanSheet(mu, i3_floor).derivs(invariants(svd))
        return _assemble_eigensystem(d, svd)
    # Same sign canonicalization as the generic 2x2 route: first component
    # positive (gamma - beta > 0 whenever I3 is above the floor).
    values = (lam_plus, lam_minus, lam_twist, lam_flip, lam_n1, lam_n2)
    return _eigensystem6(svd, values, _slot_coeffs(vp / np_, vm / nm))


def project_psd(eig):
    """Clamp an eigensystem's eigenvalues at zero (PSD projection).

    Returns an EigenSystem6 with the same eigenmatrices.
    """
    return EigenSystem6(values=np.maximum(eig.values, 0.0), matrices=eig.matrices)


# Old name of the projected type, kept as an alias because perfbench/tracing.py
# traces ProjectedHessian.dense6.
ProjectedHessian = EigenSystem6
