"""Isotropic membrane energy densities over the stretch invariants, their
derivatives, and closed-form Hessian eigensystems.

A model is any object with a ``derivs(inv)`` method mapping an
:class:`~membrane_eig.invariants.Invariants` to a :class:`ModelDerivs`
(energy value plus first and second partials with respect to I1, I2, I3).
The invariants may be (E,) arrays over a stack of elements; ``derivs`` then
answers with arrays and raises DomainError naming the first element outside
the domain.  The eigensystem functions, ``project_psd``,
``energy_gradient`` and ``energy_hvp`` take one decomposition or a stack
of them through the same code, under the ``svd`` module's one shape
rule: numpy broadcasting over the leading batch axes.  The generic
assembler ``energy_eigensystem`` turns those scalars into the full
six-pair Hessian eigensystem of psi(F):

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

whose volume term penalizes area change, for a finite mu > 0 on the fixed
domain I3 >= I3_FLOOR = 1e-6; its eigensystem also has fully closed forms
(``sheet_eigensystem``), including the reduced 2x2 block

    A = mu * Id + mu/I3^4 * [[3 s2^2, 2 I3], [2 I3, 3 s1^2]]

with eigenvalues mu + mu (3 I2 +- gamma) / (2 I3^4) for
gamma = sqrt(16 I3^2 + beta^2), beta = 3 (s2^2 - s1^2), and eigenvectors
(beta + gamma, 4 I3) for the larger and (beta - gamma, 4 I3) for the
smaller.
"""

import math
from dataclasses import dataclass

import numpy as np

from .invariants import (
    EigenSystem6,
    _eigensystem6,
    _pack,
    _require,
    _slot_coeffs,
    invariant_gradients,
    invariant_hvp,
    invariants,
)
from .svd import _first_member

__all__ = [
    "NeoHookeanSheet",
    "ModelDerivs",
    "DomainError",
    "energy_gradient",
    "energy_hvp",
    "energy_eigensystem",
    "sheet_eigensystem",
    "project_psd",
]

# The sheet's domain is I3 >= I3_FLOOR; its 1/I3^2 area term blows up at 0.
I3_FLOOR = 1e-6


class DomainError(ValueError):
    """The invariants lie outside a model's admissible domain.

    ``element`` is the flat index of the first offending entry when the
    invariants are arrays over a stack of elements, else None.
    """

    def __init__(self, message, element=None):
        self.element = element
        super().__init__(message)


def _check_mu(mu):
    """Raise ValueError unless the stiffness ``mu`` is finite and > 0."""
    try:
        ok = math.isfinite(mu) and mu > 0.0
    except OverflowError:  # an int that no float holds
        ok = False
    if not ok:
        raise ValueError(f"mu must be finite and > 0, got {mu}")


def _check_floor(i3):
    """Raise DomainError if I3 (a float or an array) is below I3_FLOOR."""
    bad = i3 < I3_FLOOR
    if not np.count_nonzero(bad):
        return
    (value,), k = _first_member(bad, (i3,))
    where = "" if k is None else f"element {k}: "
    raise DomainError(
        f"{where}I3 = {value} below the sheet floor {I3_FLOOR}", element=k
    )


@dataclass(frozen=True)
class ModelDerivs:
    """Energy value and partial derivatives with respect to (I1, I2, I3).

    ``fk`` is d psi / d Ik and ``fkl`` is the symmetric second partial.
    Each field is a float, or an array over a stack of elements.
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
        """The symmetric 3x3 matrix of second partials, (..., 3, 3)."""
        p = _pack(
            (
                self.f11, self.f12, self.f13,
                self.f12, self.f22, self.f23,
                self.f13, self.f23, self.f33,
            )
        )
        return p.reshape(p.shape[:-1] + (3, 3))


@dataclass(frozen=True)
class NeoHookeanSheet:
    """Incompressible neo-Hookean sheet: psi = mu/2 * (I2 + 1/I3^2 - 3).

    The stiffness ``mu`` must be finite and > 0; the domain is I3 >= I3_FLOOR.
    """

    mu: float

    def __post_init__(self):
        _check_mu(self.mu)

    def derivs(self, inv):
        _check_floor(inv.i3)
        mu = self.mu
        r = 1.0 / inv.i3
        r2 = r * r
        return ModelDerivs(
            psi=0.5 * mu * (inv.i2 + r2 - 3.0),
            f2=0.5 * mu,
            f3=-mu * r2 * r,
            f33=3.0 * mu * r2 * r2,
        )


def _per_matrix(c):
    """Shape ``c``, one coefficient per decomposition or a scalar, to scale
    that decomposition's 3x2 matrices."""
    return c[..., None, None] if np.ndim(c) else c


def _stress(d, svd, f):
    """d psi / dF = sum_k f_k g_k for one F (3x2) or a stack (..., 3, 2)."""
    g1, g2, g3 = invariant_gradients(svd, f)
    c1, c2, c3 = (_per_matrix(c) for c in (d.f1, d.f2, d.f3))
    return c1 * g1 + c2 * g2 + c3 * g3


def energy_gradient(model, svd, f):
    """Gradient of psi(F): sum_k f_k * g_k, a 3x2 array (or a stack)."""
    return _stress(model.derivs(invariants(svd)), svd, f)


def energy_hvp(model, svd, fdot):
    """Hessian-vector product of psi(F) applied to fdot.

    Takes the shapes ``invariant_hvp`` takes: one decomposition or a stack
    of them, (B...), with fdot (B..., 3, 2) broadcast against it; the
    result has the broadcast shape, and a stack's results equal its
    members' bitwise.
    Assembles sum_k f_k (H_k : fdot) + sum_kl f_kl (g_l : fdot) g_k, with
    H_k : fdot from ``invariant_hvp``.  That call is made only when some f1
    or f3 is nonzero, so a pure-I2 model works at any decomposition.
    """
    fdot = np.asarray(fdot, dtype=float)
    d = model.derivs(invariants(svd))
    c1, c2, c3 = (_per_matrix(c) for c in (d.f1, d.f2, d.f3))
    out = (2.0 * c2) * fdot
    if np.count_nonzero(d.f1) or np.count_nonzero(d.f3):
        h1, _, h3 = invariant_hvp(svd, fdot)
        out = out + c1 * h1 + c3 * h3
    sp = d.second_partials()
    if np.count_nonzero(sp):
        g = np.stack(invariant_gradients(svd, svd.reconstruct()), axis=-3)
        sp = np.broadcast_to(sp, g.shape[:-3] + (3, 3))
        dots = np.einsum("...lij,...ij->...l", g, fdot)
        out = out + np.einsum("...kl,...l,...kij->...ij", sp, dots, g)
    return out


def _symeig2(a):
    """Eigenpairs of a symmetric 2x2 (or of a stack, (..., 2, 2)),
    rotation-ordered and deterministic.

    Returns ((la, va), (lb, vb)) with va = (cos t, sin t), vb = (-sin t,
    cos t) for t = 0.5 * atan2(2 a01, a00 - a11), each flipped so its first
    nonzero component is positive.  An exactly repeated root gives t = 0 and
    the canonical axis basis.  Vectors are returned as pairs of components.
    """
    a00, a11 = a[..., 0, 0], a[..., 1, 1]
    a01 = 0.5 * (a[..., 0, 1] + a[..., 1, 0])
    t = 0.5 * np.arctan2(2.0 * a01, a00 - a11)
    c, s = np.cos(t), np.sin(t)
    cs = 2.0 * c * s * a01
    la = c * c * a00 + cs + s * s * a11
    lb = s * s * a00 - cs + c * c * a11
    # |t| <= pi/2 and cos(pi/2) rounds to 6e-17, so c > 0 and va needs no
    # flip; vb's first component -s is negative exactly when s > 0.
    sign = 1.0 - 2.0 * (s > 0.0)
    return (la, (c, s)), (lb, (-sign * s, sign * c))


def _reduced_block(d, s1, s2):
    """The symmetric 2x2 block on the in-plane diagonal subspace, (..., 2, 2)
    for arrays of singular values."""
    shape = getattr(s1, "shape", ())
    a = np.empty(shape + (2, 2))
    a[..., 0, 0] = a[..., 1, 1] = 2.0 * d.f2
    a[..., 0, 1] = a[..., 1, 0] = d.f3
    sp = d.second_partials()
    if np.count_nonzero(sp):
        ghat = _pack((1.0, 1.0, 2.0 * s1, 2.0 * s2, s2, s1)).reshape(shape + (3, 2))
        a += np.swapaxes(ghat, -1, -2) @ sp @ ghat
    return a


def _mode_values(d, s1, s2):
    lam_twist = 2.0 * d.f2 + 2.0 * d.f1 / (s1 + s2) + d.f3
    lam_flip = 2.0 * d.f2 - d.f3
    lam_n1 = 2.0 * d.f2 + d.f1 / s1 + d.f3 * s2 / s1
    lam_n2 = 2.0 * d.f2 + d.f1 / s2 + d.f3 * s1 / s2
    return lam_twist, lam_flip, lam_n1, lam_n2


def _assemble_eigensystem(d, svd):
    """Six-pair eigensystem from model derivatives at a decomposition (or
    at a stack of them, with ``d``'s fields as arrays over the stack)."""
    s1, s2 = svd.sigma
    (la, va), (lb, vb) = _symeig2(_reduced_block(d, s1, s2))
    values = (la, lb) + _mode_values(d, s1, s2)
    return _eigensystem6(svd, values, _slot_coeffs(va, vb))


def energy_eigensystem(model, svd):
    """Six-pair Hessian eigensystem of psi(F) for any isotropic model.

    Requires nondegenerate singular values (sigma2 > SIGMA_EPS) and
    invariants inside the model's domain.
    """
    _require(svd, "energy")
    return _assemble_eigensystem(model.derivs(invariants(svd)), svd)


def sheet_eigensystem(mu, svd):
    """Closed-form Hessian eigensystem of the neo-Hookean sheet.

    Agrees with ``energy_eigensystem(NeoHookeanSheet(mu), svd)`` but uses the
    explicit block solution: with beta = 3 (s2^2 - s1^2) and gamma =
    sqrt(16 I3^2 + beta^2), the in-plane diagonal block has eigenvalues
    mu + mu (3 I2 +- gamma) / (2 I3^4); the (beta + gamma, 4 I3) direction
    carries the larger one.  beta + gamma is evaluated as
    16 I3^2 / (gamma - beta) to dodge cancellation when I3 is small.
    ``svd`` may be a stack of decompositions.  Raises ValueError unless
    ``mu`` is finite and > 0, and DomainError below I3_FLOOR.
    """
    _check_mu(mu)
    s1, s2 = svd.sigma
    i3 = s1 * s2
    _check_floor(i3)
    i2 = s1 * s1 + s2 * s2
    r3 = mu / (i3 * i3 * i3)

    lam_twist = mu - r3
    lam_flip = mu + r3
    lam_n1 = mu - r3 * s2 / s1
    lam_n2 = mu - r3 * s1 / s2

    beta = 3.0 * (s2 * s2 - s1 * s1)
    gamma = np.hypot(4.0 * i3, beta)
    half = mu / (2.0 * ((i3 * i3) * (i3 * i3)))
    lam_plus = mu + half * (3.0 * i2 + gamma)
    lam_minus = mu + half * (3.0 * i2 - gamma)

    # beta <= 0 always (s1 >= s2), so gamma - beta is additive, and the
    # stable quotient below equals beta + gamma.
    vp = (16.0 * i3 * i3 / (gamma - beta), 4.0 * i3)
    vm = (gamma - beta, -4.0 * i3)  # -(beta - gamma, 4 I3)
    # Both norms are at least 4 I3 > 0.  Same sign canonicalization as the
    # generic 2x2 route: first component positive (gamma - beta > 0).
    np_ = np.sqrt(vp[0] * vp[0] + vp[1] * vp[1])
    nm = np.sqrt(vm[0] * vm[0] + vm[1] * vm[1])
    values = (lam_plus, lam_minus, lam_twist, lam_flip, lam_n1, lam_n2)
    coeffs = _slot_coeffs((vp[0] / np_, vp[1] / np_), (vm[0] / nm, vm[1] / nm))
    return _eigensystem6(svd, values, coeffs)


def project_psd(eig):
    """Clamp an eigensystem's eigenvalues at zero (PSD projection).

    Returns an EigenSystem6 with the same eigenmatrices.
    """
    return EigenSystem6(values=np.maximum(eig.values, 0.0), matrices=eig.matrices)


# Old name of the projected type, kept as an alias because perfbench/tracing.py
# traces ProjectedHessian.dense6.
ProjectedHessian = EigenSystem6
