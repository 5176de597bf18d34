"""Thin 3x2 SVD: conventions, reconstruction, rates, degeneracy errors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from membrane_eig import DegenerateRates, svd32, svd_rates
from membrane_eig.svd import SIGMA_EPS


def assert_conventions(svd):
    s1, s2 = svd.sigma
    assert s1 >= s2 >= 0.0
    assert np.max(np.abs(svd.u.T @ svd.u - np.eye(3))) < 1e-12
    assert np.max(np.abs(svd.v.T @ svd.v - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(svd.u) - 1.0) < 1e-12
    assert abs(np.linalg.det(svd.v) - 1.0) < 1e-12
    assert np.max(np.abs(svd.normal - np.cross(svd.u[:, 0], svd.u[:, 1]))) < 1e-12


def test_identity_pad():
    f = np.eye(3)[:, :2]
    s = svd32(f)
    assert s.sigma == (1.0, 1.0)
    assert np.array_equal(s.u, np.eye(3))
    assert np.array_equal(s.v, np.eye(2))


def test_diag21(diag21):
    f, s = diag21
    assert s.sigma == (2.0, 1.0)
    assert np.array_equal(s.v, np.eye(2))
    assert np.array_equal(s.normal, [0.0, 0.0, 1.0])
    assert np.max(np.abs(s.reconstruct() - f)) < 1e-15


def test_diag_order_swap_keeps_det():
    # sigma order forces a column swap; both determinants must stay +1.
    f = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    s = svd32(f)
    assert s.sigma == (2.0, 1.0)
    assert_conventions(s)
    assert np.max(np.abs(s.reconstruct() - f)) < 1e-15


def test_antidiagonal_exchange():
    f = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    s = svd32(f)
    assert s.sigma == (1.0, 1.0)
    assert_conventions(s)
    assert np.max(np.abs(s.reconstruct() - f)) < 1e-15
    # Tie in F^T F means V = Id; U carries the exchange, normal flips down.
    assert np.array_equal(s.v, np.eye(2))
    assert np.array_equal(s.normal, [0.0, 0.0, -1.0])


def test_rank_one():
    f = np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    s = svd32(f)
    assert s.sigma == (3.0, 0.0)
    assert_conventions(s)
    assert np.max(np.abs(s.reconstruct() - f)) < 1e-15


def test_zero_matrix():
    s = svd32(np.zeros((3, 2)))
    assert s.sigma == (0.0, 0.0)
    assert_conventions(s)
    assert np.max(np.abs(s.reconstruct())) == 0.0


def test_tiny_sigma2_reconstructs():
    f = np.array([[1.0, 0.0], [0.0, 1e-13], [0.0, 0.0]])
    s = svd32(f)
    assert s.sigma[1] == pytest.approx(1e-13, rel=1e-6)
    assert_conventions(s)
    assert np.max(np.abs(s.reconstruct() - f)) < 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        svd32(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        svd32(np.full((3, 2), np.nan))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
# Subnormal entries whose norm rounds to the entry itself.
@example([5e-324, 0.0, 5e-324, 0.0, 0.0, 0.0])
def test_reconstruction_total(entries):
    f = np.array(entries).reshape(3, 2)
    s = svd32(f)
    assert_conventions(s)
    assert np.max(np.abs(s.reconstruct() - f)) <= 1e-12 * max(1.0, np.linalg.norm(f))


def test_rates_rotation_example(diag21):
    _, s = diag21
    fdot = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 0.0]])
    r = svd_rates(s, fdot)
    assert r.sigma_dot == pytest.approx((0.0, 0.0), abs=1e-15)
    assert r.omega[2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert r.alpha == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_rates_normal_tilt_example(diag21):
    _, s = diag21
    fdot = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    r = svd_rates(s, fdot)
    assert r.omega[1] == pytest.approx(-0.5, abs=1e-15)
    assert r.omega[0] == 0.0
    assert r.sigma_dot == (0.0, 0.0)


def test_rates_sigma_dot_diagonal(diag21):
    _, s = diag21
    fdot = np.array([[0.7, 0.0], [0.0, -0.3], [0.0, 0.0]])
    r = svd_rates(s, fdot)
    assert r.sigma_dot == pytest.approx((0.7, -0.3), abs=1e-15)


def test_rates_reconstruct_roundtrip():
    f = np.array([[1.3, -0.4], [0.2, 0.8], [-0.6, 0.1]])
    s = svd32(f)
    fdot = np.array([[0.3, 1.1], [-0.7, 0.2], [0.5, -0.9]])
    r = svd_rates(s, fdot)
    assert np.max(np.abs(r.reconstruct(s) - fdot)) < 1e-12


def test_rates_degenerate_tie():
    s = svd32(np.eye(3)[:, :2])
    with pytest.raises(DegenerateRates) as exc:
        svd_rates(s, np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
    assert exc.value.which == "omega_z_alpha"
    assert exc.value.sigma == (1.0, 1.0)


def test_rates_degenerate_rank_one():
    s = svd32(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateRates) as exc:
        svd_rates(s, np.ones((3, 2)))
    assert exc.value.which == "omega_x"


def test_rates_degenerate_zero():
    s = svd32(np.zeros((3, 2)))
    with pytest.raises(DegenerateRates) as exc:
        svd_rates(s, np.ones((3, 2)))
    assert exc.value.which == "omega_y"


def test_sigma_eps_is_the_rate_threshold():
    f = np.array([[1.0, 0.0], [0.0, SIGMA_EPS / 2.0], [0.0, 0.0]])
    with pytest.raises(DegenerateRates):
        svd_rates(svd32(f), np.ones((3, 2)))


def test_rates_reject_a_stack_of_decompositions():
    s = svd32(np.array([np.diag([2.0, 1.0, 0.0])[:, :2]] * 2))
    with pytest.raises(ValueError, match="one decomposition") as exc:
        svd_rates(s, np.ones((3, 2)))
    assert not isinstance(exc.value, DegenerateRates)


def test_lifted_perturbation_identity_frame():
    s = svd32(np.eye(3)[:, :2])
    out = s.lift(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    out = s.lift(np.array([[0.0, 0.0], [0.0, 0.0], [2.0, -3.0]]))
    assert np.array_equal(out, [[0.0, 0.0], [0.0, 0.0], [2.0, -3.0]])


def test_lifted_perturbation_roundtrip():
    f = np.array([[0.9, -1.4], [1.7, 0.3], [-0.2, 1.1]])
    s = svd32(f)
    coeffs = np.array([[0.3, -1.2], [0.8, 0.5], [-0.7, 1.6]])
    out = s.lift(coeffs)
    back = s.rotate(out)
    assert np.array_equal(back, s.u.T @ out @ s.v)
    assert np.max(np.abs(back - coeffs)) < 1e-12
    # rotate-then-lift returns the world-space matrix.
    assert np.max(np.abs(s.lift(s.rotate(f)) - f)) < 1e-12
    stack = np.random.default_rng(4).uniform(-2.0, 2.0, size=(6, 3, 2))
    lifted = s.lift(stack)
    rotated = s.rotate(stack)
    assert lifted.shape == rotated.shape == (6, 3, 2)
    for c, q, r in zip(stack, lifted, rotated):
        assert np.array_equal(q, s.lift(c))
        assert np.array_equal(r, s.rotate(c))


# F whose rounded ||F v_a|| falls below ||F v_b|| (a near-tie), so svd32
# takes its column-swap branch; without the swap sigma would be ascending.
SWAP_F = np.array(
    [
        [-0.3301722008904464, -0.4615752126934596],
        [0.9404672513088752, -0.08631487932821791],
        [-0.08067011202848115, 0.8828918759585133],
    ]
)


def _special_fs():
    return [
        np.eye(3)[:, :2],  # tie: V = Id
        np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]),  # tie, normal flips
        np.array([[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),  # rank 1: tiny u2
        np.zeros((3, 2)),  # sa = 0
        SWAP_F,
        np.array([[1.0, 0.0], [0.0, 1e-13], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 2.9544349174516435e-157]]),
        # sigma2 = 1e-12: a real u2, not a completion that misplaces sigma2.
        np.array([[0.0, 0.0], [1e-12, 0.0], [0.0, 1.0]]),
    ]


def test_stack_matches_single_calls_bitwise():
    rng = np.random.default_rng(12)
    fs = np.concatenate([np.array(_special_fs()), rng.uniform(-2.0, 2.0, (40, 3, 2))])
    stack = svd32(fs)
    assert stack.u.shape == (len(fs), 3, 3)
    assert stack.v.shape == (len(fs), 2, 2)
    assert stack.sigma[0].shape == stack.sigma[1].shape == (len(fs),)
    for k, f in enumerate(fs):
        one = svd32(f)
        assert np.array_equal(stack.u[k], one.u)
        assert np.array_equal(stack.v[k], one.v)
        assert (stack.sigma[0][k], stack.sigma[1][k]) == one.sigma
        assert_conventions(one)
        assert np.array_equal(one.normal, np.cross(one.u[:, 0], one.u[:, 1]))
        assert np.max(np.abs(one.reconstruct() - f)) <= 1e-12 * max(1.0, np.linalg.norm(f))
    # A stack of one, and a stack with two leading axes, agree as well.
    single = svd32(fs[4][None])
    assert np.array_equal(single.u[0], svd32(fs[4]).u)
    grid = svd32(fs[:6].reshape(2, 3, 3, 2))
    assert np.array_equal(grid.u.reshape(6, 3, 3), stack.u[:6])
    assert np.array_equal(grid.sigma[1].ravel(), stack.sigma[1][:6])
    assert np.max(np.abs(stack.reconstruct() - fs)) < 1e-12 * 4.0


def test_stack_masked_fallbacks():
    # sa = 0 and a tiny u2 each take a masked fallback, inside a stack of
    # ordinary matrices that must not be touched by it.
    fs = np.array([np.diag([2.0, 1.0, 0.0])[:, :2], np.zeros((3, 2)), _special_fs()[2]])
    s = svd32(fs)
    assert np.array_equal(s.u[0], np.eye(3))
    assert (s.sigma[0][1], s.sigma[1][1]) == (0.0, 0.0)
    assert np.array_equal(s.u[1][:, 0], [1.0, 0.0, 0.0])
    assert (s.sigma[0][2], s.sigma[1][2]) == (3.0, 0.0)
    for k in (1, 2):
        u = s.u[k]
        assert np.max(np.abs(u.T @ u - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
    assert svd32(np.zeros((0, 3, 2))).u.shape == (0, 3, 3)


def test_stack_input_validation():
    with pytest.raises(ValueError):
        svd32(np.zeros((4, 2, 3)))
    bad = np.zeros((4, 3, 2))
    bad[2, 1, 0] = np.inf
    with pytest.raises(ValueError):
        svd32(bad)
