"""Independent numerical oracles: finite differences and a dense symmetric
eigensolver.  Everything here is deliberately decoupled from the closed
forms it is used to check; the one thing shared with them is the number
rule that checks a finite-difference step, and no arithmetic.

The finite-difference oracles take one 3x2 F or a stack (B..., 3, 2) of
them, under the kernels' shape rule: the result gains the stack's leading
axes.  They take a function ``fn`` that maps an (n, 3, 2) stack of
deformation gradients to its n scalar values, and call it once per oracle
call, on the perturbation stacks of every F at once.  Their results equal,
bitwise, what a loop calling ``fn`` on one F at a time would give, as long
as ``fn`` treats each member of a stack as it would treat it alone.

The eigensolver takes one n x n matrix or a stack (B..., n, n) of them,
under the same rule.  One function body checks, scales, symmetrizes,
sorts and signs every input as a stack of m members; only its rotation
sweep depends on the input's shape.  Both sweeps take the pairs (p, q)
in the same round-robin order (Brent & Luk 1985): n - 1 rounds of n/2
disjoint pairs for even n, n rounds with one index idle for odd n.  A
round takes all its rotation angles from the matrix it starts from, then
turns the columns of all its pairs, then their rows.  A lone matrix is
rotated as nested lists of Python floats, one scalar at a time, and a
stack sweeps all its members at once, each round acting in one set of
numpy calls on the rows and columns of every member still sweeping.  Both
give each entry the same IEEE operations, so a member's result equals,
bitwise, the lone call on that matrix.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .svd import _require_finite

__all__ = [
    "fd_gradient", "fd_hessian6", "jacobi_eigen_sym", "NotSymmetric", "NotConverged"
]


_MAX_SWEEPS = 60


class NotSymmetric(ValueError):
    """Input matrix is not symmetric within tolerance."""


class NotConverged(RuntimeError):
    """A matrix is still above the stop test after the last Jacobi sweep."""


@dataclass(frozen=True, eq=False)
class Spectrum6:
    """Eigenvalues (ascending) and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _validated(f, h):
    """f's row-major flattening (B..., 6) and h as a float.  h follows the
    package's number rule (``svd._require_finite``): a string is a
    TypeError, and a bool is not a number."""
    f = np.asarray(f, dtype=float)
    if f.shape[-2:] != (3, 2):
        raise ValueError(f"f must be 3x2 or a stack of 3x2, got shape {f.shape}")
    _require_finite("h", h)
    return f.reshape(f.shape[:-2] + (6,)), float(h)


def _values(fn, x):
    """fn's values (B..., m) on the stack x (B..., m, 6) of flattened Fs."""
    n = x.size // 6
    values = np.asarray(fn(x.reshape(n, 3, 2)), dtype=float)
    if values.shape != (n,):
        raise ValueError(
            f"fn must map an ({n}, 3, 2) stack to {n} values, "
            f"got shape {values.shape}"
        )
    return values.reshape(x.shape[:-1])


def _axis_steps(flat, h):
    """(B..., 12, 6): each flattened F plus h e_k for k = 0..5, then minus
    h e_k.  Tiling and stepping in place keeps each entry exactly f +- h
    (adding a 0.0 offset would turn a -0.0 entry into 0.0)."""
    k = np.arange(6)
    x = np.tile(flat[..., None, None, :], (2, 6, 1))
    x[..., 0, k, k] += h
    x[..., 1, k, k] -= h
    return x.reshape(flat.shape[:-1] + (12, 6))


def fd_gradient(fn, f, h=1e-5):
    """Central-difference gradient of a scalar function of a 3x2 matrix.

    ``fn`` maps an (n, 3, 2) stack to its n values.  It is called once, on
    the 12 Fs f +- h e_k of each F of ``f`` (one 3x2, or a (B..., 3, 2)
    stack giving a (B..., 3, 2) result); each gradient entry is
    (fn(f + h e_k) - fn(f - h e_k)) / (2 h), exactly as a loop over single
    Fs would form it.

    Raises
    ------
    ValueError
        If f is not 3x2 or a stack of 3x2, h is not finite and > 0 (or is
        a bool), or fn does not return exactly one value per perturbed F.
    TypeError
        If h is not a real number (a string, say).
    """
    flat, h = _validated(f, h)
    plus, minus = np.split(_values(fn, _axis_steps(flat, h)), 2, axis=-1)
    return ((plus - minus) / (2.0 * h)).reshape(flat.shape[:-1] + (3, 2))


def fd_hessian6(fn, f, h=1e-4):
    """Central second-difference 6x6 Hessian over row-major flattening.

    ``fn`` maps an (n, 3, 2) stack to its n values.  It is called once, on
    73 Fs per F of ``f`` (one 3x2, or a (B..., 3, 2) stack giving a
    (B..., 6, 6) result): f itself, f +- h e_i for the diagonal, and the
    four corners f +- h e_i +- h e_j of each pair i < j.  The differences
    are formed with the same operands in the same order as a loop over
    single Fs.

    The default step is larger than fd_gradient's because second differences
    divide by h^2; at h = 1e-5 roundoff alone would exceed most of the
    tolerances this oracle certifies.  Output is symmetrized.

    Raises
    ------
    ValueError
        If f is not 3x2 or a stack of 3x2, h is not finite and > 0 (or is
        a bool), or fn does not return exactly one value per perturbed F.
    TypeError
        If h is not a real number (a string, say).
    """
    flat, h = _validated(f, h)
    batch = flat.shape[:-1]
    i, j = np.triu_indices(6, k=1)
    pair = np.arange(len(i))
    # [..., pp/pm/mp/mm, pair, entry]
    corner = np.tile(flat[..., None, None, :], (4, len(i), 1))
    for c, (si, sj) in enumerate(((h, h), (h, -h), (-h, h), (-h, -h))):
        corner[..., c, pair, i] += si
        corner[..., c, pair, j] += sj
    x = [flat[..., None, :], _axis_steps(flat, h), corner.reshape(batch + (-1, 6))]
    values = _values(fn, np.concatenate(x, axis=-2))
    # f, the 6 + 6 axis steps, then 15 pairs at each of the 4 corners.
    f0, plus, minus, pp, pm, mp, mm = np.split(values, [1, 7, 13, 28, 43, 58], axis=-1)
    out = np.zeros(batch + (6, 6))
    k = np.arange(6)
    out[..., k, k] = (plus - 2.0 * f0 + minus) / (h * h)
    out[..., i, j] = (pp - pm - mp + mm) / (4.0 * h * h)
    out[..., j, i] = out[..., i, j]
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _asymmetric(a):
    """Where a matrix, or each member of a (B..., n, n) stack, is not
    symmetric: max|a - a^T| > 1e-10 max(1, max|a|).  The oracle's one
    symmetry rule; a member with a non-finite entry does not count here."""
    big = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1)) > 1e-10 * big


def _refuse(bad, shape, error, what):
    """Raise ``error`` if ``bad`` holds for some member of an input of
    ``shape``, naming a lone matrix as such and a stack's first such member
    by its flat index."""
    if bad.any():
        who = "matrix" if len(shape) == 2 else f"member {np.flatnonzero(bad)[0]}"
        raise error(f"{who} {what}")


def jacobi_eigen_sym(a):
    """Dense symmetric eigendecomposition by round-robin Jacobi rotations.

    Each sweep visits every pair p < q once, in rounds of disjoint pairs
    (``_rounds``): a round takes all its angles from the matrix it starts
    from, then rotates the columns of all its pairs, then their rows.  It
    sweeps until the off-diagonal Frobenius norm drops below 1e-14 times
    the matrix norm, at most 60 times.  Eigenvalues are returned ascending
    with their eigenvector columns; each vector's largest-magnitude
    component is made positive so the output is deterministic.

    ``a`` is one n x n matrix or a (B..., n, n) stack of them, giving
    (B..., n) values and (B..., n, n) vectors.  One body, ``_eigen_sym``,
    treats every input as an (m, n, n) stack: it checks the members,
    rotates a copy of each scaled by a power of two near 1 / max|a| (so the
    loop holds for entries of any magnitude, and the values are scaled
    back), and sorts and signs the results.  Only the rotation sweep
    depends on the input's shape: a lone matrix runs ``_sweep_floats`` and
    a stack ``_sweep_stack``.  Both give each entry the same IEEE
    operations, in the same order, as a numpy loop rotating one matrix's
    whole rows and columns round by round, so every member equals,
    bitwise, the lone call on that matrix.

    Raises
    ------
    ValueError
        If a is not a nonempty square matrix or a stack of them, or has a
        non-finite entry; for a stack, the message names the first such
        member by its flat index.
    NotSymmetric
        If max|a - a^T| > 1e-10 max(1, max|a|), for a stack in some
        member; the message names the first.
    NotConverged
        If a matrix, for a stack some member, is still above the stop test
        after the last sweep; the message names the first.
    """
    spectrum, unconverged = _eigen_sym(a)
    what = f"is not converged after {_MAX_SWEEPS} sweeps"
    _refuse(unconverged, spectrum.vectors.shape, NotConverged, what)
    return spectrum


def _eigen_sym(a):
    """``jacobi_eigen_sym`` up to its convergence test: the spectrum of
    ``a``, and the (B...) mask of the matrices still above the stop test
    after the last sweep, whose values and vectors are where that sweep
    left them.  It raises the other errors of ``jacobi_eigen_sym``."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    shape, n = a.shape, a.shape[-1]
    a = a.reshape((-1, n, n))
    bad = ~np.isfinite(a).all(axis=(1, 2))
    _refuse(bad, shape, ValueError, "has non-finite entries")
    _refuse(_asymmetric(a), shape, NotSymmetric, "is not symmetric to a relative 1e-10")

    # Rotate a / 2^e, 2^e ~ max|a|: the scaling is exact, neither a + a^T
    # nor the norms that square entries overflow or underflow, and the
    # 1e-300 skip is relative to max|a|.
    e = np.frexp(np.abs(a).max(axis=(1, 2)))[1]
    a = np.ldexp(a, -e[:, None, None])
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    norm = _frobenius(a)
    a[norm == 0.0] = 0.0  # a zero matrix gives +0.0 values and the identity
    # [a; v] of each member, (m, 2n, n): one column rotation updates both.
    full = np.concatenate((a, np.eye(n)[None].repeat(len(a), 0)), axis=1)
    unconverged = (_sweep_floats if len(shape) == 2 else _sweep_stack)(full, norm)

    diag, member = np.arange(n), np.arange(len(a))[:, None]
    values = np.ldexp(full[:, diag, diag], e[:, None])
    order = np.argsort(values, axis=1, kind="stable")
    # Row k of each member's vectors here is its eigenvector k.
    vectors = np.swapaxes(full[:, n:], 1, 2)[member, order]
    lead = np.argmax(np.abs(vectors), axis=2)
    vectors = np.where(vectors[member, diag, lead, None] < 0.0, -vectors, vectors)
    spectrum = Spectrum6(
        values=values[member, order].reshape(shape[:-1]),
        vectors=np.swapaxes(vectors, 1, 2).reshape(shape),
    )
    return spectrum, unconverged.reshape(shape[:-2])


def _frobenius(x):
    """The Frobenius norm of each matrix of a (k, r, c) stack, as one dot
    product of its row-major entries: bitwise np.linalg.norm of that
    matrix alone, which a norm over two axes is not."""
    flat = x.reshape(len(x), x.shape[1] * x.shape[2])
    return np.sqrt(flat[:, None, :] @ flat[:, :, None]).reshape(-1)


@functools.cache
def _rounds(n):
    """The round-robin order of one sweep over an n x n matrix: a tuple of
    rounds, each a tuple of disjoint pairs (p, q), p < q, so that every
    pair p < q lies in exactly one round.  Indices 0..m-1, m = n rounded
    up to even, take the circle method: round r pairs r with m - 1 and
    (r - k) mod (m - 1) with (r + k) mod (m - 1) for k = 1..m/2 - 1, and
    for odd n the index m - 1 = n stands for idle.  So even n has n - 1
    rounds of n/2 pairs, and odd n has n rounds of (n - 1)/2 pairs."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        pairs = [(r, m - 1)] + [
            ((r - k) % (m - 1), (r + k) % (m - 1)) for k in range(1, m // 2)
        ]
        rounds.append(tuple(sorted((min(x), max(x)) for x in pairs if n not in x)))
    return tuple(pairs for pairs in rounds if pairs)


def _sweep_floats(full, norm):
    """Rotate the one member [a; v] of ``full`` (1, 2n, n) in place, as
    nested lists of Python floats, one scalar at a time, and return
    whether it is still above its stop test after ``_MAX_SWEEPS`` sweeps,
    as a (1,) mask.  Each round takes every angle from the round's starting
    a, then turns the columns of all its pairs in a and v, then their rows
    in a, so each entry gets the IEEE operations of ``_sweep_stack`` and of
    the numpy loop; v's columns turn with a's, which gives the same bits,
    since v's update never reads a's rows."""
    n = full.shape[2]
    w = full[0].tolist()
    a = w[:n]  # a's rows, shared with w
    for sweep in range(_MAX_SWEEPS + 1):
        off = np.array(a)
        np.fill_diagonal(off, 0.0)
        converged = np.linalg.norm(off) <= 1e-14 * norm[0]
        if converged or sweep == _MAX_SWEEPS:
            break
        for pairs in _rounds(n):
            turns = []
            for p, q in pairs:
                apq = a[p][q]
                if abs(apq) <= 1e-300:
                    continue
                # Stable rotation angle (Golub & Van Loan sym. Schur 2x2).
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                turns.append((p, q, c, t * c))
            # Columns p and q of a and v, then rows p and q of a.
            for row in w:
                for p, q, c, s in turns:
                    rp, rq = row[p], row[q]
                    row[p] = c * rp - s * rq
                    row[q] = s * rp + c * rq
            for p, q, c, s in turns:
                row_p, row_q = a[p], a[q]
                for k in range(n):
                    rp, rq = row_p[k], row_q[k]
                    row_p[k] = c * rp - s * rq
                    row_q[k] = s * rp + c * rq
    full[0] = w
    return np.array([not converged])


@functools.cache
def _round_slots(n):
    """For each round of ``_rounds(n)``, the flat indices into the rows of
    [a; v] (2n, n, ...) reshaped to (2n * n, ...): its pairs' a_pq, a_qq
    and a_pp (3, k), the entries of their columns p and q in a and v
    (2, 2n, k), and those of their rows p and q in a (2, n, k)."""
    rows, cols = np.arange(n)[:, None], np.arange(2 * n)[:, None]
    slots = []
    for pairs in _rounds(n):
        p, q = np.array(pairs).T
        slots.append(
            (
                np.array([p * n + q, q * n + q, p * n + p]),
                np.array([cols * n + p, cols * n + q]),
                np.array([p * n + rows, q * n + rows]),
            )
        )
    return tuple(slots)


def _sweep_stack(full, norm):
    """Rotate the members [a; v] of ``full`` (m, 2n, n) in place, all at
    once on numpy rows and columns, and return the (m,) mask of the members
    still above their stop test after ``_MAX_SWEEPS`` sweeps.

    Each round runs once on rows and columns holding every sweeping member:
    the angles of all its pairs, each member with its own c and s, then the
    columns of all its pairs in a and v, then their rows in a, leaving
    unchanged the members whose a_pq it skips.  A member leaves at the
    first sweep whose stop test it meets, and a zero matrix never enters.
    The member axis is last, and a round gathers and scatters its entries
    by flat index (``_round_slots``).
    """
    n = full.shape[2]
    full = full.transpose(1, 2, 0)
    # w holds the members still sweeping; take and compress keep it
    # C-contiguous, so ``flat`` is a view of it.
    live = np.flatnonzero(norm != 0.0)
    w, limit = full.take(live, axis=2), 1e-14 * norm[live]
    diag = np.arange(n)
    # tau * tau overflows to inf as a Python float does, giving t = 0.
    with np.errstate(over="ignore"):
        for sweep in range(_MAX_SWEEPS + 1):
            off = w[:n].transpose(2, 0, 1).copy()
            off[:, diag, diag] = 0.0
            done = _frobenius(off) <= limit
            if done.any():
                full[..., live[done]] = w[..., done]
                w, live, limit = w.compress(~done, axis=2), live[~done], limit[~done]
            if not live.size or sweep == _MAX_SWEEPS:
                break
            flat = w.reshape(2 * n * n, -1)
            for angle, cols, rows in _round_slots(n):
                apq, aqq, app = flat[angle]
                skip = np.abs(apq) <= 1e-300
                if skip.any():
                    apq = np.where(skip, 1.0, apq)  # no 0 / 0 where unused
                else:
                    skip = None
                tau = (aqq - app) / (2.0 * apq)
                root = np.sqrt(1.0 + tau * tau)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + root)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # (c x - s y, s x + c y) as (c, s) x + (-s, c) y: the same
                # bits, since u - v is u + (-v).
                turn = np.array(((c, s), (-s, c)))[:, :, None]
                # Columns p and q of a and v, then rows p and q of a.
                for slots in (cols, rows):
                    xy = flat[slots]
                    new = turn[0] * xy[0] + turn[1] * xy[1]
                    flat[slots] = new if skip is None else np.where(skip, xy, new)
        full[..., live] = w
    unconverged = np.zeros(len(norm), dtype=bool)
    unconverged[live] = True
    return unconverged
