"""Invariant values, gradients, Hessian actions, and closed eigensystems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membrane_eig import (
    DegenerateHessian,
    ModelDerivs,
    NeoHookeanSheet,
    energy_eigensystem,
    energy_hvp,
    fd_gradient,
    invariant_eigensystem,
    invariant_gradients,
    invariant_hvp,
    invariants,
    svd32,
)
from membrane_eig.checks import random_f_admissible

R = math.sqrt(0.5)


def test_values_diag21(diag21):
    _, s = diag21
    inv = invariants(s)
    assert (inv.i1, inv.i2, inv.i3) == (3.0, 5.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
def test_value_identities(entries):
    f = np.array(entries).reshape(3, 2)
    inv = invariants(svd32(f))
    assert inv.i1 >= 0.0 and inv.i2 >= 0.0 and inv.i3 >= 0.0
    assert abs(inv.i2 - float(np.sum(f * f))) <= 1e-12 * max(1.0, inv.i2)
    assert abs(inv.i1 ** 2 - (inv.i2 + 2.0 * inv.i3)) <= 1e-12 * max(1.0, inv.i2)


def test_gradients_diag21(diag21):
    f, s = diag21
    g1, g2, g3 = invariant_gradients(s, f)
    assert np.array_equal(g1, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(g2, 2.0 * f)
    assert np.array_equal(g3, [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])


def test_gradients_match_fd_generic():
    f = np.array([[1.1, -0.3], [0.4, 0.9], [-0.7, 0.6]])
    s = svd32(f)
    grads = invariant_gradients(s, f)
    fns = (
        lambda m: invariants(svd32(m)).i1,
        lambda m: invariants(svd32(m)).i2,
        lambda m: invariants(svd32(m)).i3,
    )
    for fn, g in zip(fns, grads):
        assert np.max(np.abs(fd_gradient(fn, f) - g)) < 1e-7


def test_gradients_defined_at_degenerate_sigma():
    f = np.zeros((3, 2))
    g1, g2, g3 = invariant_gradients(svd32(f), f)
    assert np.all(np.isfinite(g1))
    assert np.array_equal(g2, np.zeros((3, 2)))
    assert np.array_equal(g3, np.zeros((3, 2)))


def test_hvp_i1_rotation_coupling(diag21):
    _, s = diag21
    fdot = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    h1 = invariant_hvp(s, fdot)[0]
    third = 1.0 / 3.0
    assert np.max(np.abs(h1 - [[0.0, third], [-third, 0.0], [0.0, 0.0]])) < 1e-15


def test_hvp_i3_worked_example(diag21):
    _, s = diag21
    fdot = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    h3 = invariant_hvp(s, fdot)[2]
    assert np.max(np.abs(h3 - [[4.0, -3.0], [-2.0, 1.0], [2.5, 12.0]])) < 1e-14


def test_hvp_i2_is_twice_identity():
    f = np.array([[0.4, 1.2], [-0.8, 0.1], [0.9, -0.5]])
    fdot = np.array([[1.0, -2.0], [0.3, 0.7], [-1.1, 0.2]])
    h2 = invariant_hvp(svd32(f), fdot)[1]
    assert np.array_equal(h2, 2.0 * fdot)


def test_hvp_degenerate_names_i1_first():
    s = svd32(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateHessian) as exc:
        invariant_hvp(s, np.ones((3, 2)))
    assert exc.value.invariant == "I1"
    assert exc.value.sigma == (1.0, 0.0)


def test_eigensystem_i1_diag21(diag21):
    _, s = diag21
    eig = invariant_eigensystem("I1", s)
    assert np.array_equal(eig.values, [0.0, 0.0, 2.0 / 3.0, 0.0, 0.5, 1.0])
    assert np.max(np.abs(eig.matrices[0] - [[R, 0.0], [0.0, R], [0.0, 0.0]])) < 1e-15
    assert np.max(np.abs(eig.matrices[1] - [[R, 0.0], [0.0, -R], [0.0, 0.0]])) < 1e-15
    assert np.max(np.abs(eig.matrices[2] - [[0.0, -R], [R, 0.0], [0.0, 0.0]])) < 1e-15
    assert np.max(np.abs(eig.matrices[3] - [[0.0, R], [R, 0.0], [0.0, 0.0]])) < 1e-15
    assert np.array_equal(eig.matrices[4], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(eig.matrices[5], [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])


def test_eigensystem_i2_identity_times_two():
    f = np.array([[0.6, -1.3], [1.8, 0.2], [-0.4, 0.9]])
    s = svd32(f)
    eig = invariant_eigensystem("I2", s)
    assert np.array_equal(eig.values, np.full(6, 2.0))
    q = eig.matrices.reshape(6, 6)
    assert np.max(np.abs(q @ q.T - np.eye(6))) < 1e-12
    x = np.array([[0.5, 1.0], [-0.2, 0.8], [1.4, -0.6]])
    assert np.max(np.abs(eig.apply(x) - 2.0 * x)) < 1e-12
    # Slots 2-5 are twist, flip and the normals, as in every eigensystem.
    assert np.array_equal(eig.matrices[2:], invariant_eigensystem("I3", s).matrices[2:])


def test_eigensystem_i3_diag21(diag21):
    _, s = diag21
    eig = invariant_eigensystem("I3", s)
    assert np.array_equal(eig.values, [1.0, -1.0, 1.0, -1.0, 0.5, 2.0])


def test_eigensystem_unknown_invariant(diag21):
    with pytest.raises(ValueError):
        invariant_eigensystem("I4", diag21[1])


def test_eigensystem_degenerate_raises():
    s = svd32(np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    for which in ("I1", "I3"):
        with pytest.raises(DegenerateHessian) as exc:
            invariant_eigensystem(which, s)
        assert exc.value.invariant == which
    # I2 stays defined at any decomposition.
    invariant_eigensystem("I2", s)


def test_i1_null_modes(diag21):
    _, s = diag21
    eig = invariant_eigensystem("I1", s)
    for slot in (0, 1, 3):
        hq = invariant_hvp(s, eig.matrices[slot])[0]
        assert np.max(np.abs(hq)) < 1e-14


def test_eigensystem_residuals_generic():
    f = np.array([[1.4, 0.2], [-0.5, 1.1], [0.3, -0.8]])
    s = svd32(f)
    for k, which in enumerate(("I1", "I2", "I3")):
        eig = invariant_eigensystem(which, s)
        for lam, q in eig.pairs():
            hq = invariant_hvp(s, q)[k]
            assert np.max(np.abs(hq - lam * q)) <= 1e-12 * max(1.0, abs(lam))


def test_apply_matches_dense6():
    f = np.array([[0.8, -0.1], [0.6, 1.2], [-0.9, 0.4]])
    s = svd32(f)
    x = np.array([[0.2, -1.5], [0.9, 0.3], [0.7, -0.6]])
    for which in ("I1", "I2", "I3"):
        eig = invariant_eigensystem(which, s)
        via_dense = (eig.dense6() @ x.reshape(6)).reshape(3, 2)
        assert np.max(np.abs(eig.apply(x) - via_dense)) < 1e-13


def test_hvp_matches_eigensystem_apply():
    f = np.array([[1.0, 0.5], [-0.3, 1.6], [0.2, -0.4]])
    s = svd32(f)
    x = np.array([[0.4, 0.9], [-1.2, 0.1], [0.8, 0.5]])
    hvps = invariant_hvp(s, x)
    for k, which in enumerate(("I1", "I2", "I3")):
        eig = invariant_eigensystem(which, s)
        assert np.max(np.abs(eig.apply(x) - hvps[k])) < 1e-12


class _QuadraticI1:
    """psi = (I1 - 2)^2."""

    def derivs(self, inv):
        return ModelDerivs(psi=(inv.i1 - 2.0) ** 2, f1=2.0 * (inv.i1 - 2.0), f11=2.0)


def test_hvp_of_a_stack_equals_its_members_bitwise():
    rng = np.random.default_rng(41)
    sheet = NeoHookeanSheet(1.3)
    kernels = (
        invariant_hvp,
        lambda s, x: (energy_hvp(sheet, s, x),),
        # f11 is a float shared by every decomposition of a stack.
        lambda s, x: (energy_hvp(_QuadraticI1(), s, x),),
    )
    # One decomposition with a (k, 3, 2) stack of Fdots.
    for _ in range(20):
        s = svd32(rng.uniform(-2.0, 2.0, size=(3, 2)))
        eig = invariant_eigensystem("I3", s)
        for stack in (eig.matrices, rng.standard_normal((4, 3, 2))):
            for hvp in kernels:
                hvps = hvp(s, stack)
                for i, fdot in enumerate(stack):
                    for h, one in zip(hvps, hvp(s, fdot)):
                        assert h.shape == stack.shape
                        assert np.array_equal(h[i], one)
    # A stack of decompositions (B...) with one Fdot each, (B..., 3, 2), or
    # k each, (B..., k, 3, 2), against the stack with a trailing batch axis
    # of length 1, (B..., 1): k != B, k = B, and two batch axes.
    for batch, k in (((4,), ()), ((4,), (5,)), ((4,), (4,)), ((2, 3), (2,))):
        for _ in range(5):
            fs, _ = random_f_admissible(rng, math.prod(batch))
            fdots = rng.standard_normal(fs.shape[:1] + k + (3, 2))
            s = svd32(fs.reshape(batch + (1,) * len(k) + (3, 2)))
            for hvp in kernels:
                hvps = hvp(s, fdots.reshape(batch + k + (3, 2)))
                for i, (f, fdot) in enumerate(zip(fs, fdots)):
                    for h, one in zip(hvps, hvp(svd32(f), fdot)):
                        assert np.array_equal(h.reshape(fdots.shape)[i], one)


def test_hvp_of_a_stack_at_a_degenerate_decomposition_raises():
    s = svd32(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateHessian) as exc:
        invariant_hvp(s, np.ones((3, 3, 2)))
    assert exc.value.invariant == "I1"
    # One decomposition names no member, and its message is unchanged.
    assert exc.value.element is None
    assert str(exc.value) == "Hessian of I1 is degenerate at sigma = (1.0, 0.0)"
    # A stack names its first degenerate member by flat index, with that
    # member's singular values, through every kernel that needs them.
    fs, _ = random_f_admissible(np.random.default_rng(29), 6)
    fs[4:] = [[1.0, 0.0], [0.0, 1e-12], [0.0, 0.0]]  # 4 is named, not 5
    kernels = {
        "I1": lambda s: invariant_hvp(s, np.ones(s.u.shape[:-2] + (3, 2))),
        "I3": lambda s: invariant_eigensystem("I3", s),
        "energy": lambda s: energy_eigensystem(NeoHookeanSheet(1.0), s),
    }
    for stack, k in ((fs[2:5], 2), (fs.reshape(2, 3, 3, 2), 4)):
        for name, kernel in kernels.items():
            with pytest.raises(DegenerateHessian) as exc:
                kernel(svd32(stack))
            assert (exc.value.invariant, exc.value.element) == (name, k)
            assert exc.value.sigma == (1.0, 1e-12)
            assert all(type(x) is float for x in exc.value.sigma)
            assert str(exc.value) == (
                f"element {k}: Hessian of {name} is degenerate at "
                "sigma = (1.0, 1e-12)"
            )
