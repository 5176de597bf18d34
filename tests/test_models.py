"""Model derivatives, the generic eigensystem assembler, the closed-form
sheet eigensystem, and PSD projection."""

import math

import numpy as np
import pytest

from membrane_eig import (
    DegenerateHessian,
    DomainError,
    EigenSystem6,
    ModelDerivs,
    NeoHookeanSheet,
    Svd32,
    energy_eigensystem,
    energy_gradient,
    energy_hvp,
    fd_gradient,
    invariant_eigensystem,
    invariant_gradients,
    invariants,
    jacobi_eigen_sym,
    project_psd,
    sheet_eigensystem,
    svd32,
)
from membrane_eig.checks import random_f_admissible
from membrane_eig.invariants import Invariants
from membrane_eig.models import I3_FLOOR

R = math.sqrt(0.5)
LAM_PLUS_21 = 1.0 + (15.0 + math.sqrt(145.0)) / 32.0
LAM_MINUS_21 = 1.0 + (15.0 - math.sqrt(145.0)) / 32.0


def test_model_derivs_layout():
    d = ModelDerivs(psi=1.0, f12=2.0, f23=3.0, f33=4.0)
    sp = d.second_partials()
    assert np.array_equal(sp, sp.T)
    assert sp[0, 1] == 2.0 and sp[1, 2] == 3.0 and sp[2, 2] == 4.0
    # Fields may be arrays over a stack of elements.
    stacked = ModelDerivs(psi=np.ones(2), f12=np.array([2.0, 4.0]), f23=3.0, f33=4.0)
    sp = stacked.second_partials()
    assert sp.shape == (2, 3, 3)
    assert np.array_equal(sp, np.swapaxes(sp, 1, 2))
    assert sp[1, 0, 1] == 4.0 and sp[1, 1, 2] == 3.0 and sp[1, 2, 2] == 4.0


def test_sheet_derivs_diag21(diag21):
    _, s = diag21
    d = NeoHookeanSheet(1.0).derivs(invariants(s))
    assert d.psi == 1.125
    assert d.f1 == 0.0 and d.f2 == 0.5
    assert d.f3 == -0.125 and d.f33 == 0.1875
    assert d.f11 == d.f12 == d.f13 == d.f22 == d.f23 == 0.0


def test_sheet_derivs_rest_state():
    d = NeoHookeanSheet(1.0).derivs(Invariants(i1=2.0, i2=2.0, i3=1.0))
    assert d.psi == 0.0
    assert d.f3 == -1.0 and d.f33 == 3.0


def test_sheet_derivs_match_fd_in_i3():
    # Derivative chain: f3 against FD of psi, f33 against FD of analytic f3
    # (a second difference of psi itself is rounding-limited near 5e-4).
    mu, i2, i3 = 1.7, 4.2, 0.8
    model = NeoHookeanSheet(mu)
    h = 1e-6

    def at(x):
        return model.derivs(Invariants(i1=0.0, i2=i2, i3=x))

    d = at(i3)
    fd_f3 = (at(i3 + h).psi - at(i3 - h).psi) / (2.0 * h)
    fd_f33 = (at(i3 + h).f3 - at(i3 - h).f3) / (2.0 * h)
    assert abs(fd_f3 - d.f3) < 1e-7
    assert abs(fd_f33 - d.f33) < 1e-7


def test_sheet_domain_floor():
    model = NeoHookeanSheet(1.0)
    with pytest.raises(DomainError):
        model.derivs(Invariants(i1=1.0, i2=1.0, i3=1e-7))
    # The floor is the constant I3_FLOOR, and I3 on it is admissible.
    model.derivs(Invariants(i1=1.0, i2=1.0, i3=I3_FLOOR))
    with pytest.raises(DomainError):
        model.derivs(Invariants(i1=1.0, i2=1.0, i3=np.nextafter(I3_FLOOR, 0.0)))
    for mu in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mu"):
            NeoHookeanSheet(mu)


HUGE = [pytest.param(10**400, id="huge"), pytest.param(-(10**400), id="-huge")]


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf] + HUGE)
def test_sheet_eigensystem_rejects_bad_mu(diag21, mu):
    # The same check as NeoHookeanSheet's, and not a DomainError: a bad mu
    # is malformed input, not an F outside the domain.  An int that no
    # float holds is such an input too.
    with pytest.raises(ValueError, match="mu must be finite and > 0") as exc:
        sheet_eigensystem(mu, diag21[1])
    assert not isinstance(exc.value, DomainError)
    with pytest.raises(ValueError, match="mu must be finite and > 0"):
        NeoHookeanSheet(mu)


def test_energy_gradient_diag21(diag21):
    f, s = diag21
    g = energy_gradient(NeoHookeanSheet(1.0), s, f)
    assert np.max(np.abs(g - [[1.875, 0.0], [0.0, 0.75], [0.0, 0.0]])) < 1e-15


def test_energy_gradient_matches_fd():
    model = NeoHookeanSheet(1.3)
    f = np.array([[1.2, 0.1], [-0.2, 0.9], [0.3, -0.4]])

    def psi(m):
        return model.derivs(invariants(svd32(m))).psi

    g = energy_gradient(model, svd32(f), f)
    assert np.max(np.abs(fd_gradient(psi, f) - g)) < 1e-7


def test_energy_hvp_diag21(diag21):
    f, s = diag21
    d1 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    hv = energy_hvp(NeoHookeanSheet(1.0), s, d1)
    assert np.max(np.abs(hv - [[1.1875, 0.0], [0.0, 0.25], [0.0, 0.0]])) < 1e-15


def test_energy_hvp_pure_i2_model_ignores_degeneracy():
    class Stretch:
        def derivs(self, inv):
            return ModelDerivs(psi=inv.i2, f2=1.0)

    s = svd32(np.zeros((3, 2)))  # fully degenerate decomposition
    fdot = np.array([[0.2, -0.5], [0.8, 0.1], [-0.3, 0.7]])
    assert np.array_equal(energy_hvp(Stretch(), s, fdot), 2.0 * fdot)
    # A stack with a degenerate member, and k Fdots per decomposition.
    stack = svd32(np.array([np.zeros((3, 2)), np.eye(3)[:, :2]]))
    fdots = np.array([[fdot, -fdot, fdot]] * 2)
    assert np.array_equal(energy_hvp(Stretch(), stack, fdots), 2.0 * fdots)


def test_energy_eigensystem_block_diag21(diag21):
    _, s = diag21
    eig = energy_eigensystem(NeoHookeanSheet(1.0), s)
    assert abs(eig.values[0] - LAM_PLUS_21) < 1e-12
    assert abs(eig.values[1] - LAM_MINUS_21) < 1e-12
    assert np.max(np.abs(eig.values[2:] - [0.875, 1.125, 0.9375, 0.75])) < 1e-15


def test_energy_eigensystem_residuals(diag21):
    _, s = diag21
    model = NeoHookeanSheet(1.0)
    eig = energy_eigensystem(model, s)
    for lam, q in eig.pairs():
        hq = energy_hvp(model, s, q)
        assert np.max(np.abs(hq - lam * q)) <= 1e-12 * max(1.0, abs(lam))


def test_energy_eigensystem_tie():
    # sigma = (1, 1): block [[4, 2], [2, 4]] -> 6 with (1,1)/sqrt2,
    # 2 with (1,-1)/sqrt2 after sign canonicalization.
    s = svd32(np.eye(3)[:, :2])
    eig = energy_eigensystem(NeoHookeanSheet(1.0), s)
    assert abs(eig.values[0] - 6.0) < 1e-12
    assert abs(eig.values[1] - 2.0) < 1e-12
    assert np.max(np.abs(eig.matrices[0] - [[R, 0.0], [0.0, R], [0.0, 0.0]])) < 1e-12
    assert np.max(np.abs(eig.matrices[1] - [[R, 0.0], [0.0, -R], [0.0, 0.0]])) < 1e-12
    assert np.max(np.abs(eig.values[2:] - [0.0, 2.0, 0.0, 0.0])) < 1e-12


def test_energy_eigensystem_degenerate_raises():
    with pytest.raises(DegenerateHessian) as exc:
        energy_eigensystem(NeoHookeanSheet(1.0), svd32(np.zeros((3, 2))))
    assert exc.value.invariant == "energy"


def test_sheet_eigensystem_diag21(diag21):
    _, s = diag21
    eig = sheet_eigensystem(1.0, s)
    expected = [LAM_PLUS_21, LAM_MINUS_21, 0.875, 1.125, 0.9375, 0.75]
    assert np.max(np.abs(eig.values - expected)) < 1e-12
    # beta = -9, gamma = sqrt(145); larger eigenvalue on (beta+gamma, 4 I3).
    gamma = math.sqrt(145.0)
    vp = np.array([gamma - 9.0, 8.0])
    vp /= np.linalg.norm(vp)
    assert np.max(np.abs(np.diag(eig.matrices[0]) - vp)) < 1e-12
    vm = np.array([gamma + 9.0, -8.0])
    vm /= np.linalg.norm(vm)
    assert np.max(np.abs(np.diag(eig.matrices[1]) - vm)) < 1e-12


def test_sheet_matches_generic_slotwise():
    model = NeoHookeanSheet(1.0)
    rng = np.random.default_rng(17)
    fs, _ = random_f_admissible(rng, 100)
    for f in fs:
        s = svd32(f)
        a = sheet_eigensystem(1.0, s)
        b = energy_eigensystem(model, s)
        scale = max(1.0, float(np.max(np.abs(b.values))))
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * scale
        assert np.max(np.abs(a.matrices - b.matrices)) <= 1e-10


def test_sheet_mu_scales_spectrum(diag21):
    _, s = diag21
    one = sheet_eigensystem(1.0, s)
    three = sheet_eigensystem(3.0, s)
    assert np.max(np.abs(three.values - 3.0 * one.values)) < 1e-12
    assert np.max(np.abs(three.matrices - one.matrices)) == 0.0


def test_sheet_eigenvector_stable_near_tiny_sigma2():
    # gamma - beta cancels catastrophically in the naive beta + gamma; the
    # stable quotient must keep the block eigenpair residual at FP level.
    f = np.array([[2.0, 0.0], [0.0, 1e-5], [0.0, 0.0]])
    s = svd32(f)
    eig = sheet_eigensystem(1.0, s)
    s1, s2 = s.sigma
    i3 = s1 * s2
    mu = 1.0
    block = mu * np.eye(2) + (mu / i3 ** 4) * np.array(
        [[3.0 * s2 ** 2, 2.0 * i3], [2.0 * i3, 3.0 * s1 ** 2]]
    )
    scale = np.max(np.abs(block))
    for slot in (0, 1):
        v = np.diag(s.u.T @ eig.matrices[slot] @ s.v)
        resid = block @ v - eig.values[slot] * v
        assert np.max(np.abs(resid)) <= 1e-12 * scale


def test_sheet_domain_floor_and_fallback_guard():
    f = np.array([[1e-4, 0.0], [0.0, 1e-4], [0.0, 0.0]])
    with pytest.raises(DomainError):
        sheet_eigensystem(1.0, svd32(f))
    # Just above the floor (I3 = 2e-6) the spectrum is huge but finite.
    g = np.array([[2e-3, 0.0], [0.0, 1e-3], [0.0, 0.0]])
    eig = sheet_eigensystem(1.0, svd32(g))
    assert np.all(np.isfinite(eig.values))
    assert np.all(np.isfinite(eig.matrices))


def test_project_psd_clamps_i3(diag21):
    _, s = diag21
    eig = invariant_eigensystem("I3", s)
    proj = project_psd(eig)
    assert np.array_equal(proj.values, [1.0, 0.0, 1.0, 0.0, 0.5, 2.0])
    assert np.array_equal(proj.matrices, eig.matrices)


def test_project_psd_apply_and_dense(diag21):
    _, s = diag21
    eig = energy_eigensystem(NeoHookeanSheet(1.0), s)
    proj = project_psd(eig)
    assert isinstance(proj, EigenSystem6)
    x = np.array([[0.3, -0.9], [1.2, 0.4], [-0.5, 0.8]])
    via_dense = (proj.dense6() @ x.reshape(6)).reshape(3, 2)
    assert np.max(np.abs(proj.apply(x) - via_dense)) < 1e-13
    quad = float(np.sum(x * proj.apply(x)))
    assert quad >= -1e-12


def test_project_psd_idempotent_and_psd_oracle():
    rng = np.random.default_rng(23)
    model = NeoHookeanSheet(1.0)
    fs, _ = random_f_admissible(rng, 50)
    for f in fs:
        proj = project_psd(energy_eigensystem(model, svd32(f)))
        again = project_psd(proj)
        assert np.array_equal(again.values, proj.values)
        assert np.min(proj.values) >= 0.0
        min_eig = jacobi_eigen_sym(proj.dense6()).values[0]
        assert min_eig >= -1e-10


_SHEET = NeoHookeanSheet(1.3)
# Each kernel maps (F, svd32(F), X) to its output, for one F or a stack; X
# is one 3x2 per F for ``apply``.  The HVPs' stack contract, with its
# optional Fdot axis, is test_hvp_of_a_stack_equals_its_members_bitwise.
_STACKED_KERNELS = {
    "svd32": lambda f, s, x: svd32(f),
    "invariant_gradients": lambda f, s, x: invariant_gradients(s, f),
    "invariant_eigensystem_I1": lambda f, s, x: invariant_eigensystem("I1", s),
    "invariant_eigensystem_I2": lambda f, s, x: invariant_eigensystem("I2", s),
    "invariant_eigensystem_I3": lambda f, s, x: invariant_eigensystem("I3", s),
    "sheet_eigensystem": lambda f, s, x: sheet_eigensystem(_SHEET.mu, s),
    "energy_eigensystem": lambda f, s, x: energy_eigensystem(_SHEET, s),
    "energy_gradient": lambda f, s, x: energy_gradient(_SHEET, s, f),
    "project_psd_apply": lambda f, s, x: project_psd(energy_eigensystem(_SHEET, s)).apply(x),
    "project_psd_dense6": lambda f, s, x: project_psd(sheet_eigensystem(_SHEET.mu, s)).dense6(),
}


def _arrays(out):
    """A kernel's output as a list of arrays (or floats, for one F)."""
    if isinstance(out, Svd32):
        return [out.u, *out.sigma, out.v]
    if isinstance(out, EigenSystem6):
        return [out.values, out.matrices]
    return list(out) if isinstance(out, tuple) else [out]


@pytest.mark.parametrize("kernel", sorted(_STACKED_KERNELS))
def test_kernel_on_a_stack_equals_its_members_bitwise(kernel):
    fn = _STACKED_KERNELS[kernel]
    rng = np.random.default_rng(5)
    fs, _ = random_f_admissible(rng, 200)
    xs = rng.standard_normal(fs.shape)
    stacked = _arrays(fn(fs, svd32(fs), xs))
    for i, (f, x) in enumerate(zip(fs, xs)):
        member = _arrays(fn(f, svd32(f), x))
        assert len(member) == len(stacked)
        for a, b in zip(stacked, member):
            assert np.array_equal(a[i], b), (kernel, i)
