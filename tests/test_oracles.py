"""The finite-difference and Jacobi oracles, validated on closed forms
before anything else trusts them."""

import numpy as np
import pytest

from membrane_eig import oracles
from membrane_eig import (
    NotConverged,
    NotSymmetric,
    fd_gradient,
    fd_hessian6,
    jacobi_eigen_sym,
    project_psd,
    sheet_eigensystem,
    svd32,
)
from membrane_eig.checks import _invariant_fn, _sheet_psi, random_f_admissible

F0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def quartic(f):
    # psi = (F:F)^2, gradient 4 (F:F) F, Hessian 8 vec vec^T + 4 (F:F) Id;
    # one value per member of an (n, 3, 2) stack.
    s = np.sum(f * f, axis=(-2, -1))
    return s * s


def test_fd_gradient_quartic():
    grad = fd_gradient(quartic, F0, h=1e-5)
    exact = 4.0 * float(np.sum(F0 * F0)) * F0
    assert np.max(np.abs(grad - exact)) < 1e-5 * np.max(np.abs(exact))


def test_fd_gradient_linear_is_exact():
    direction = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.25]])
    grad = fd_gradient(lambda f: np.sum(direction * f, axis=(-2, -1)), F0)
    assert np.max(np.abs(grad - direction)) < 1e-9


def test_fd_hessian6_quartic():
    dense = fd_hessian6(quartic, F0, h=1e-4)
    v = F0.reshape(6)
    exact = 8.0 * np.outer(v, v) + 4.0 * float(v @ v) * np.eye(6)
    assert dense.shape == (6, 6)
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.max(np.abs(dense - exact)) < 1e-5 * np.max(np.abs(exact))


def test_fd_hessian6_quadratic_row_major_layout():
    # psi touching only F[0,1] (flat index 1) and F[2,0] (flat index 4)
    def psi(f):
        return 3.0 * f[..., 0, 1] * f[..., 2, 0]

    dense = fd_hessian6(psi, np.zeros((3, 2)))
    expected = np.zeros((6, 6))
    expected[1, 4] = expected[4, 1] = 3.0
    assert np.max(np.abs(dense - expected)) < 1e-9


def _loop_fd_gradient(fn, f, h):
    # The per-F reference: one fn call per perturbed F.
    out = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            fp = f.copy()
            fm = f.copy()
            fp[i, j] += h
            fm[i, j] -= h
            out[i, j] = (fn(fp) - fn(fm)) / (2.0 * h)
    return out


def _loop_fd_hessian6(fn, f, h):
    f = f.reshape(6).copy()

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


class _Counting:
    # Counts its calls and keeps every F it is given.
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.fs = []

    def __call__(self, x):
        self.calls += 1
        self.fs.extend(np.asarray(x, dtype=float).reshape(-1, 3, 2))
        return self.fn(x)


@pytest.mark.parametrize("name", ["sheet", "I1", "I2", "I3"])
def test_batched_oracles_equal_per_f_loops_bitwise(name):
    # A lone F, an (n,) stack and a (2, 3) stack: one fn call each, and
    # every member bitwise equal to the per-F loop on it alone.
    fn = _sheet_psi if name == "sheet" else _invariant_fn(name)
    rng = np.random.default_rng(2024)
    fs, _ = random_f_admissible(rng, 6)
    for h in (1e-3, 1e-4, 1e-5):
        for oracle, loop in (
            (fd_gradient, _loop_fd_gradient),
            (fd_hessian6, _loop_fd_hessian6),
        ):
            expected = np.array([loop(fn, f, h) for f in fs])
            grid = expected.reshape((2, 3) + expected.shape[1:])
            cases = list(zip(fs, expected))
            cases += [(fs, expected), (fs.reshape(2, 3, 3, 2), grid)]
            for f, want in cases:
                counted = _Counting(fn)
                fast = oracle(counted, f, h=h)
                assert counted.calls == 1
                assert fast.shape == want.shape
                assert np.array_equal(fast, want)


@pytest.mark.parametrize(
    "oracle, loop",
    [(fd_gradient, _loop_fd_gradient), (fd_hessian6, _loop_fd_hessian6)],
)
def test_oracles_perturb_exactly_the_loops_fs(oracle, loop):
    # The oracle hands fn the same Fs as the per-F loop, bit for bit: an
    # entry that is not stepped keeps its sign, -0.0 included.
    f = np.array([[-0.0, 1.0], [0.0, -0.0], [2.0, -0.0]])
    for stack in (f, np.stack([f, -f])):
        seen, looped = _Counting(quartic), _Counting(quartic)
        oracle(seen, stack, h=1e-4)
        for member in stack.reshape(-1, 3, 2):
            loop(looped, member, 1e-4)
        assert sorted(x.tobytes() for x in seen.fs) == sorted(
            x.tobytes() for x in looped.fs
        )


@pytest.mark.parametrize("oracle", [fd_gradient, fd_hessian6])
def test_oracles_reject_a_non_3x2_f(oracle):
    for shape in ((2, 3), (4, 2, 3), (6,), ()):
        with pytest.raises(ValueError, match="3x2 or a stack of 3x2"):
            oracle(quartic, np.zeros(shape))


@pytest.mark.parametrize("oracle", [fd_gradient, fd_hessian6])
@pytest.mark.parametrize(
    "h", [0.0, -1e-5, np.nan, np.inf, True, np.True_, pytest.param(10**400, id="10**400")]
)
def test_oracles_reject_a_bad_step(oracle, h):
    with pytest.raises(ValueError, match="h must be"):
        oracle(quartic, F0, h=h)


@pytest.mark.parametrize("oracle", [fd_gradient, fd_hessian6])
def test_oracles_reject_a_string_step(oracle):
    # The number rule of mu and tol: a string is not a number.
    with pytest.raises(TypeError):
        oracle(quartic, F0, h="1e-5")


@pytest.mark.parametrize("oracle", [fd_gradient, fd_hessian6])
@pytest.mark.parametrize(
    "fn",
    [
        lambda f: 3.0 * f[0, 1] * f[2, 0],  # scalar-only: indexes the stack
        lambda f: float(np.sum(f * f)),  # one value for the whole stack
        lambda f: np.sum(f * f, axis=-1),  # (n, 3) values
    ],
)
def test_oracles_reject_an_fn_that_is_not_batched(oracle, fn):
    for f in (F0, np.stack([F0, 2.0 * F0])):
        with pytest.raises(ValueError, match="stack"):
            oracle(fn, f)


def test_jacobi_diagonal_sorted_ascending():
    spec = jacobi_eigen_sym(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(spec.values, [-1.0, 2.0, 3.0])
    assert np.array_equal(spec.vectors, np.eye(3)[:, [1, 2, 0]])


def test_jacobi_2x2_closed_form():
    spec = jacobi_eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.max(np.abs(spec.values - np.array([1.0, 3.0]))) < 1e-14
    r = np.sqrt(0.5)
    # Sign rule: the largest-magnitude component is made positive.
    assert np.max(np.abs(spec.vectors[:, 0] - np.array([r, -r]))) < 1e-14
    assert np.max(np.abs(spec.vectors[:, 1] - np.array([r, r]))) < 1e-14


def test_jacobi_reconstructs_known_spectrum():
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    lam = np.array([-4.0, -0.5, 0.0, 1.0, 1.0, 9.0])
    a = (q * lam) @ q.T
    spec = jacobi_eigen_sym(a)
    assert np.max(np.abs(spec.values - lam)) < 1e-12
    assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(6))) < 1e-13
    recon = (spec.vectors * spec.values) @ spec.vectors.T
    assert np.max(np.abs(recon - a)) < 1e-12


def test_jacobi_zero_matrix():
    spec = jacobi_eigen_sym(np.zeros((4, 4)))
    assert np.all(spec.values == 0.0)
    assert np.max(np.abs(spec.vectors - np.eye(4))) == 0.0


def test_jacobi_rejects_nonsymmetric():
    a = np.eye(3)
    a[0, 1] = 1e-6
    with pytest.raises(NotSymmetric):
        jacobi_eigen_sym(a)


def test_jacobi_rejects_non_finite_input():
    # A NaN passes the symmetry test, since nan > 1e-10 is false, and would
    # come out as NaN eigenvalues.
    for bad in (np.nan, np.inf, -np.inf):
        a = _symmetric(np.random.default_rng(37), 6)
        a[1, 4] = a[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jacobi_eigen_sym(a)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 3), (0, 0), (2, 0, 0)])
def test_jacobi_rejects_a_non_square_input(shape):
    with pytest.raises(ValueError, match="expected a square matrix"):
        jacobi_eigen_sym(np.zeros(shape))


def test_jacobi_names_the_first_rejected_member_of_a_stack():
    stack = np.array([_symmetric(np.random.default_rng(38 + k), 4) for k in range(6)])
    stack[4, 0, 3] = np.nan
    stack[2, 1, 2] += 1e-6
    stack[5, 2, 1] = np.inf
    with pytest.raises(ValueError, match="member 4 has non-finite"):
        jacobi_eigen_sym(stack)
    stack[4, 0, 3] = stack[5, 2, 1] = 0.0
    # The member's flat index over the batch axes.
    with pytest.raises(NotSymmetric, match="member 2 is not symmetric"):
        jacobi_eigen_sym(stack.reshape(2, 3, 4, 4))


def test_jacobi_on_an_empty_stack():
    spec = jacobi_eigen_sym(np.zeros((0, 5, 5)))
    assert spec.values.shape == (0, 5)
    assert spec.vectors.shape == (0, 5, 5)


def _round_robin(n):
    # The circle method's rounds, m = n rounded up to even: round r pairs
    # r with m - 1 and every i < j < m - 1 with i + j = 2r mod (m - 1).
    # For odd n, the index n is idle.
    m = n + n % 2
    for r in range(m - 1):
        pairs = [(r, m - 1)] + [
            (i, j)
            for i in range(m - 1)
            for j in range(i + 1, m - 1)
            if (i + j - 2 * r) % (m - 1) == 0
        ]
        pairs = [pq for pq in pairs if n not in pq]
        if pairs:
            yield tuple(sorted(pairs))


@pytest.mark.parametrize("n", range(1, 10))
def test_jacobi_rounds_cover_each_pair_once_with_disjoint_pairs(n):
    rounds = oracles._rounds(n)
    assert list(rounds) == list(_round_robin(n))
    assert len(rounds) == (0 if n == 1 else n - 1 + n % 2)
    pairs = [pq for pairs in rounds for pq in pairs]
    assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    for pairs in rounds:
        assert len(pairs) == n // 2
        assert len({i for pq in pairs for i in pq}) == 2 * len(pairs)


def _numpy_jacobi(a):
    # The reference: the rotation loop on numpy rows and columns.
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    a = 0.5 * (a + a.T)
    # The stop test's norms are taken on a / 2^e, with 2^e ~ max|a|.
    e = int(np.frexp(np.max(np.abs(a)))[1])
    norm = np.linalg.norm(np.ldexp(a, -e))
    if norm == 0.0:
        return np.zeros(n), np.eye(n)
    v = np.eye(n)

    def off(m):
        o = np.ldexp(m, -e)
        np.fill_diagonal(o, 0.0)
        return np.linalg.norm(o)

    for _ in range(60):
        if off(a) <= 1e-14 * norm:
            break
        for pairs in _round_robin(n):
            # Every angle of the round from its starting a, then the
            # columns of all its pairs, then their rows.
            turns = []
            for i, j in pairs:
                apq = a[i, j]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[j, j] - a[i, i]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                turns.append((i, j, c, t * c))
            for m in (a, v):
                for i, j, c, s in turns:
                    rp = m[:, i].copy()
                    rq = m[:, j].copy()
                    m[:, i] = c * rp - s * rq
                    m[:, j] = s * rp + c * rq
            for i, j, c, s in turns:
                rp = a[i, :].copy()
                rq = a[j, :].copy()
                a[i, :] = c * rp - s * rq
                a[j, :] = s * rp + c * rq

    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    for k in range(n):
        lead = np.argmax(np.abs(vectors[:, k]))
        if vectors[lead, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return values, vectors


def _assert_jacobi_matches_numpy_loop(a):
    # A lone matrix, or each member of a stack, equals bit for bit the
    # reference on that matrix and the lone call on it (which runs the
    # other rotation sweep), and the result gains the stack's leading axes.
    spec = jacobi_eigen_sym(a)
    n = a.shape[-1]
    assert spec.values.shape == a.shape[:-1]
    assert spec.vectors.shape == a.shape
    values, vectors = spec.values.reshape(-1, n), spec.vectors.reshape(-1, n, n)
    for k, member in enumerate(a.reshape(-1, n, n)):
        lone = jacobi_eigen_sym(member)
        for ref in (_numpy_jacobi(member), (lone.values, lone.vectors)):
            assert values[k].tobytes() == ref[0].tobytes()
            assert vectors[k].tobytes() == ref[1].tobytes()


def _symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T)


@pytest.mark.parametrize("n", [2, 6])
def test_jacobi_equals_numpy_rotation_loop_on_random_matrices(n):
    rng = np.random.default_rng(31 + n)
    for _ in range(20):
        _assert_jacobi_matches_numpy_loop(_symmetric(rng, n))


def test_jacobi_equals_numpy_rotation_loop_on_sheet_hessians():
    rng = np.random.default_rng(32)
    fs, _ = random_f_admissible(rng, 5)
    for f in fs:
        s = svd32(f)
        _assert_jacobi_matches_numpy_loop(project_psd(sheet_eigensystem(1.3, s)).dense6())
        _assert_jacobi_matches_numpy_loop(fd_hessian6(_sheet_psi, f))


@pytest.mark.parametrize(
    "a",
    [
        np.diag([3.0, -1.0, 2.0, 0.0]),
        np.array([[-2.5]]),
        np.array([[1.0, 1e-310, 0.0], [1e-310, 2.0, 0.5], [0.0, 0.5, 3.0]]),
        _symmetric(np.random.default_rng(33), 6, scale=1e150),
        _symmetric(np.random.default_rng(34), 6, scale=1e-150),
        # At these scales an unscaled stop test's norm overflows or
        # underflows.
        _symmetric(np.random.default_rng(35), 6, scale=1e200),
        _symmetric(np.random.default_rng(36), 6, scale=1e-200),
    ],
    ids=[
        "diagonal",
        "1x1",
        "skipped-1e-310",
        "scale-1e150",
        "scale-1e-150",
        "scale-1e200",
        "scale-1e-200",
    ],
)
def test_jacobi_equals_numpy_rotation_loop_on_edge_cases(a):
    _assert_jacobi_matches_numpy_loop(a)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e200, 1e-200, 1e-301, 1e-310, 5e307])
def test_jacobi_spectrum_at_extreme_scales(scale):
    # Here an unscaled stop test's norm overflows (no rotation runs) or
    # underflows (the zero-matrix return), at 1e-301 and below an absolute
    # 1e-300 skip leaves the matrix unrotated, and at 5e307 an unscaled
    # a + a^T overflows.
    spec = jacobi_eigen_sym(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(spec.values / scale, [-1.0, 3.0], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [2, 6])
def test_jacobi_stack_equals_lone_calls_on_random_matrices(n):
    rng = np.random.default_rng(41 + n)
    for size in (1, 2, 20):
        stack = np.array([_symmetric(rng, n) for _ in range(size)])
        _assert_jacobi_matches_numpy_loop(stack)


def test_jacobi_stack_equals_lone_calls_on_sheet_hessians():
    rng = np.random.default_rng(43)
    fs, s = random_f_admissible(rng, 12)
    grid = fs[:6].reshape(2, 3, 3, 2)
    for stack in (
        project_psd(sheet_eigensystem(1.3, s)).dense6(),
        fd_hessian6(_sheet_psi, fs),
        fd_hessian6(_sheet_psi, grid),
    ):
        _assert_jacobi_matches_numpy_loop(stack)


def test_jacobi_stack_equals_lone_calls_when_every_member_skips_a_pair():
    # a_01 is exactly 0.0 in every member, so in the first sweep the round
    # holding (0, 1) skips that pair in all of them at once (for n = 3 it
    # is the round's only pair; for n = 6 the round turns two others):
    # each must come through it unchanged, and the masked rotation must
    # form no warning.
    rng = np.random.default_rng(45)
    for n in (3, 6):
        stack = np.array([_symmetric(rng, n) for _ in range(4)])
        stack[:, 0, 1] = stack[:, 1, 0] = 0.0
        _assert_jacobi_matches_numpy_loop(stack)


def test_jacobi_stack_equals_lone_calls_on_mixed_members():
    # Members that leave the sweep at different times or never enter it,
    # skip different pairs, or sit at extreme scales, side by side.
    rng = np.random.default_rng(44)
    skipped = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    skipped[:3, :3] = [[1.0, 1e-310, 0.0], [1e-310, 2.0, 0.5], [0.0, 0.5, 3.0]]
    members = [
        np.zeros((6, 6)),
        _symmetric(rng, 6),
        np.diag([3.0, -1.0, 2.0, 0.0, 5.0, -4.0]),
        skipped,
        np.full((6, 6), -0.0),
        _symmetric(rng, 6, scale=1e-200),
        _symmetric(rng, 6),
        _symmetric(rng, 6, scale=1e200),
    ]
    for stack in (np.array(members), np.array(members).reshape(2, 4, 6, 6)):
        _assert_jacobi_matches_numpy_loop(stack)


def test_jacobi_raises_on_an_unconverged_matrix(monkeypatch):
    # One sweep leaves a random 6x6 matrix far above its stop test.
    monkeypatch.setattr(oracles, "_MAX_SWEEPS", 1)
    a = _symmetric(np.random.default_rng(46), 6)
    with pytest.raises(NotConverged, match="matrix is not converged after 1 "):
        jacobi_eigen_sym(a)
    # A diagonal matrix and a 2x2 one meet the stop test within one sweep.
    jacobi_eigen_sym(np.diag([3.0, 1.0, 2.0]))
    jacobi_eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_jacobi_names_the_first_unconverged_member_of_a_stack(monkeypatch):
    monkeypatch.setattr(oracles, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(47)
    members = [np.zeros((6, 6)), np.diag(np.arange(6.0))]
    stack = np.array(members + [_symmetric(rng, 6), _symmetric(rng, 6)])
    with pytest.raises(NotConverged, match="member 2 is not converged"):
        jacobi_eigen_sym(stack)
    # The member's flat index over the batch axes.
    with pytest.raises(NotConverged, match="member 2 is not converged"):
        jacobi_eigen_sym(stack.reshape(2, 2, 6, 6))
    spec = jacobi_eigen_sym(stack[:2])
    assert np.array_equal(spec.values[1], np.arange(6.0))


def test_jacobi_private_entry_returns_the_unconverged_mask(monkeypatch):
    # The stacked entry behind jacobi_eigen_sym raises nothing for an
    # unconverged member: it returns the mask over the batch axes, and
    # every converged member's bits equal its lone public call.
    monkeypatch.setattr(oracles, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(47)
    members = [np.zeros((6, 6)), np.diag(np.arange(6.0))]
    stack = np.array(members + [_symmetric(rng, 6), _symmetric(rng, 6)])
    spec, unconverged = oracles._eigen_sym(stack.reshape(2, 2, 6, 6))
    assert unconverged.tolist() == [[False, False], [True, True]]
    assert spec.values.shape == (2, 2, 6) and spec.vectors.shape == (2, 2, 6, 6)
    for k, member in enumerate(members):
        lone = jacobi_eigen_sym(member)
        assert spec.values[0, k].tobytes() == lone.values.tobytes()
        assert spec.vectors[0, k].tobytes() == lone.vectors.tobytes()
    _, lone_unconverged = oracles._eigen_sym(stack[2])
    assert lone_unconverged.shape == () and lone_unconverged
