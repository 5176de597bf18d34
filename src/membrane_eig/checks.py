"""Randomized verification of every documented invariant and property.

``run_checks`` runs each named check on seeded random inputs and returns
one CheckReport per check.  Failures are reported with the worst
counterexample, never raised.

Every F sample comes from one drawer, ``_draw(rng, n, accept)``.  In
each round it draws the n - got raw Fs still missing (entries uniform in
(-2, 2)) as one stack, decomposes it with one ``svd32`` call for
``accept``, and keeps, in draw order, the Fs that pass with their
decompositions, until it has n: one ``svd32`` call per round and none
after.  It returns the (n, 3, 2) stack f and svd32(f), which, with the
generator's final state, equal bitwise what n single draws would give.
The floors are such conditions: sigma2 > 0.05 for nondegeneracy, also
sigma1 - sigma2 > 0.05 where SVD rates must exist, and I3 > 0.05 for
sheet checks.

A check is registered in definition order by ``_check(tol, sample=None,
share=1)`` and runs n = max(1, trials // share) trials; mesh- and
solver-level checks use a share above 1, and each report records its
count.  A sampled check is one call on its whole ensemble,
``check(rng, *sample(rng, n))``: ``check(rng, f, s)`` for the F-sampled
checks, ``check(rng, a)`` for the Jacobi oracle's (n, 6, 6) symmetric
matrices.  It draws its own perturbations after the ensemble, each kind in
one call for all n trials in trial order, calls each FD oracle once per
function on the whole ensemble and the Jacobi oracle once on the stack of
all its matrices, and returns a list of (n,) or (n, k) error arrays, row t
holding trial t's errors.  A check without a sampler is called n times as
``check(rng)``, each call returning one error or a list; the FEM gradient
check evaluates all its perturbed states in one stacked ``total_energy``
call.  The report keeps the largest error, a NaN counting as the largest
and the first trial winning ties, and fails when it exceeds ``tol``; it
carries that trial's sample as its counterexample where there is one.
Kernels are looked up through their modules at call time, so a patched
kernel is the one checked.

``run_bench`` times the sheet's closed-form spectrum against the FD +
Jacobi oracle route on the checks' sheet and admissible sampler.
"""

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fem as fem_mod
from . import invariants as inv_mod
from . import mesh as mesh_mod
from . import models as mod_mod
from . import oracles as orc_mod
from . import svd as svd_mod

__all__ = ["run_bench", "run_checks", "CheckReport"]

# Floors of the nondegenerate and gapped samplers.
_MIN_SIGMA2 = 0.05
_MIN_GAP = 0.05


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check over its trial ensemble."""

    name: str
    trials: int
    max_error: float
    tol: float
    passed: bool
    counterexample: object = None

    def to_dict(self):
        """JSON-ready fields; a NaN or infinite ``max_error`` becomes None."""
        return {
            "name": self.name,
            "trials": self.trials,
            "max_error": self.max_error if math.isfinite(self.max_error) else None,
            "tol": self.tol,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def _report(name, trials, tol, errors, witnesses=None):
    """Report the largest entry of ``errors``, an (n, k) array whose row t
    holds the errors of trial t, whose sample is ``witnesses[t]`` (a flat
    array where there are no witnesses).  A NaN counts as larger than any number,
    and among equal errors the first in trial order is kept: np.argmax's
    rule."""
    flat = np.ravel(errors)
    k = int(np.argmax(flat)) if flat.size else None
    # No errors, or only zeros such as np.maximum(0.0, -0.0), read 0.0.
    worst = float(flat[k]) if k is not None and flat[k] else 0.0
    passed = bool(worst <= tol)
    witness = None if passed or witnesses is None else witnesses[k // errors.shape[1]]
    return CheckReport(
        name=name,
        trials=trials,
        max_error=worst,
        tol=float(tol),
        passed=passed,
        counterexample=None if witness is None else np.asarray(witness).tolist(),
    )


_CHECKS = []


def _check(tol, sample=None, share=1):
    """Register a check function as the check named after it."""

    def register(check):
        name = check.__name__.removeprefix("_check_")

        @functools.wraps(check)
        def run(rng, trials):
            n = max(1, trials // share)
            if sample is None:
                errors = [np.ravel(check(rng)) for _ in range(n)]
                return _report(name, n, tol, np.concatenate(errors))
            args = sample(rng, n)
            return _report(name, n, tol, np.column_stack(check(rng, *args)), args[0])

        run.sample = sample
        _CHECKS.append(run)
        return run

    return register


def random_f(rng, n):
    """An (n, 3, 2) stack of raw test gradients, entries uniform in (-2, 2)."""
    return rng.uniform(-2.0, 2.0, size=(n, 3, 2))


def _draw(rng, n, accept=None):
    """Draw raw Fs until n pass ``accept``; return the (n, 3, 2) stack f of
    them in draw order and svd32(f).

    Each round draws the n - got candidates still missing as one stack,
    decomposes it with one ``svd32`` call, and keeps the candidates, and
    their decompositions, where ``accept`` maps that decomposition to True
    (all of them without ``accept``).
    """
    kept, got = [], 0
    while got < n:
        f = random_f(rng, n - got)
        s = svd_mod.svd32(f)
        keep = slice(None) if accept is None else accept(s)
        kept.append([x[keep] for x in (f, s.u, *s.sigma, s.v)])
        got += len(kept[-1][0])
    f, u, s1, s2, v = map(np.concatenate, zip(*kept))
    return f, svd_mod.Svd32(u=u, sigma=(s1, s2), v=v)


def random_f_nondegenerate(rng, n):
    """A pair (f, svd32(f)) of n Fs with sigma2 > 0.05."""
    return _draw(rng, n, lambda s: s.sigma[1] > _MIN_SIGMA2)


def random_f_gapped(rng, n):
    # Nondegenerate and with sigma1 - sigma2 > 0.05, so the rates exist.
    return _draw(
        rng,
        n,
        lambda s: (s.sigma[1] > _MIN_SIGMA2) & (s.sigma[0] - s.sigma[1] > _MIN_GAP),
    )


def random_f_admissible(rng, n, min_i3=0.05):
    """A pair (f, svd32(f)) of n Fs with I3 = sigma1*sigma2 above
    ``min_i3``."""
    return _draw(rng, n, lambda s: s.sigma[0] * s.sigma[1] > min_i3)


def _unit_fdot(rng, n):
    d = rng.uniform(-1.0, 1.0, size=(n, 3, 2))
    return d / orc_mod._frobenius(d)[:, None, None]


def _jacobi(stack):
    """The Jacobi oracle on a (B..., m, m) stack of symmetric matrices, in
    one call: its (B..., m) eigenvalues and (B..., m, m) eigenvectors.
    Both are NaN for a matrix the oracle rejects as asymmetric or leaves
    unconverged, so that trial fails with its witness instead of raising
    out of run_checks."""
    values, vectors = np.full(stack.shape[:-1], np.nan), np.full(stack.shape, np.nan)
    kept = ~orc_mod._asymmetric(stack)
    spec, unconverged = orc_mod._eigen_sym(stack[kept])
    kept[kept] = ~unconverged
    values[kept], vectors[kept] = spec.values[~unconverged], spec.vectors[~unconverged]
    return values, vectors


def _each(s):
    """The (n,) decompositions s as (n, 1): by broadcasting, member t then
    meets row t of an (n, k, 3, 2) stack."""
    sigma = tuple(x[:, None] for x in s.sigma)
    return svd_mod.Svd32(u=s.u[:, None], sigma=sigma, v=s.v[:, None])


def _max_abs(x):
    """The largest absolute entry of each matrix of a stack x (..., r, c)."""
    return np.max(np.abs(x), axis=(-2, -1))


# ---------------------------------------------------------------- svd checks


@_check(1e-12, _draw)
def _check_svd_reconstruction(rng, f, s):
    return [_max_abs(f - s.reconstruct()) / np.maximum(1.0, orc_mod._frobenius(f))]


@_check(1e-12, _draw)
def _check_svd_conventions(rng, f, s):
    s1, s2 = s.sigma
    return [
        _max_abs(np.swapaxes(s.u, 1, 2) @ s.u - np.eye(3)),
        _max_abs(np.swapaxes(s.v, 1, 2) @ s.v - np.eye(2)),
        np.abs(np.linalg.det(s.u) - 1.0),
        np.abs(np.linalg.det(s.v) - 1.0),
        np.max(np.abs(s.normal - np.cross(s.u[:, :, 0], s.u[:, :, 1])), axis=1),
        np.maximum(0.0, s2 - s1),
        np.maximum(0.0, -s2),
    ]


@_check(1e-10, random_f_gapped)
def _check_svd_rate_consistency(rng, f, s):
    fdot = _unit_fdot(rng, len(f))
    return [_max_abs(fdot - svd_mod.svd_rates(s, fdot).reconstruct(s))]


@_check(1e-8, random_f_gapped)
def _check_svd_rate_prediction(rng, f, s):
    h = 1e-5
    fdot = _unit_fdot(rng, len(f))
    sigma_dot = svd_mod.svd_rates(s, fdot).sigma_dot
    actual = svd_mod.svd32(f + h * fdot).sigma
    return [np.abs(actual[k] - (s.sigma[k] + h * sigma_dot[k])) for k in (0, 1)]


@_check(1e-8, random_f_nondegenerate)
def _check_svd_inplane_normal(rng, f, s):
    # In-plane perturbations keep the column space, hence the normal.
    h = 1e-5
    inplane = rng.uniform(-1.0, 1.0, size=(len(f), 2, 2))
    fdot = s.lift(np.concatenate((inplane, np.zeros((len(f), 1, 2))), axis=1))
    return [np.max(np.abs(svd_mod.svd32(f + h * fdot).normal - s.normal), axis=1)]


# ---------------------------------------------------------- invariant checks


@_check(1e-12, _draw)
def _check_invariant_values(rng, f, s):
    inv = inv_mod.invariants(s)
    return [
        np.abs(inv.i2 - np.sum(f * f, axis=(1, 2))),
        np.abs(inv.i1 * inv.i1 - (inv.i2 + 2.0 * inv.i3)),
    ]


def _invariant_fn(which):
    return lambda f: getattr(inv_mod.invariants(svd_mod.svd32(f)), which.lower())


@_check(1e-6, random_f_nondegenerate)
def _check_invariant_gradients_fd(rng, f, s):
    grads = inv_mod.invariant_gradients(s, f)
    return [
        _max_abs(orc_mod.fd_gradient(_invariant_fn(which), f, h=1e-5) - g)
        for which, g in zip(("I1", "I2", "I3"), grads)
    ]


@_check(1e-5, random_f_nondegenerate)
def _check_invariant_hvp_fd(rng, f, s):
    h = 1e-5
    fdot = _unit_fdot(rng, len(f))
    hvps = inv_mod.invariant_hvp(s, fdot)
    x = np.stack([f + h * fdot, f - h * fdot])
    g = inv_mod.invariant_gradients(svd_mod.svd32(x), x)
    return [_max_abs((g[k][0] - g[k][1]) / (2.0 * h) - hvps[k]) for k in range(3)]


@_check(1e-12, random_f_nondegenerate)
def _check_invariant_hvp_i2_exact(rng, f, s):
    fdot = random_f(rng, len(f))
    h2 = inv_mod.invariant_hvp(s, fdot)[1]
    return [_max_abs(h2 - 2.0 * fdot)]


@_check(1e-12, random_f_nondegenerate)
def _check_invariant_hvp_linearity(rng, f, s):
    # Each trial's x, y (3x2 each), a and b, as one row of 14.
    draw = rng.uniform(-2.0, 2.0, size=(len(f), 14))
    x, y = draw[:, :6].reshape(-1, 3, 2), draw[:, 6:12].reshape(-1, 3, 2)
    a, b = draw[:, 12, None, None], draw[:, 13, None, None]
    hvps = inv_mod.invariant_hvp(_each(s), np.stack([a * x + b * y, x, y], axis=1))
    return [_max_abs(h[:, 0] - (a * h[:, 1] + b * h[:, 2])) for h in hvps]


@_check(1e-10, random_f_nondegenerate)
def _check_invariant_hvp_symmetry(rng, f, s):
    xy = random_f(rng, 2 * len(f)).reshape(-1, 2, 3, 2)
    x, y = xy[:, 0], xy[:, 1]
    hvps = inv_mod.invariant_hvp(_each(s), xy)
    return [
        np.abs(np.sum(y * h[:, 0], axis=(1, 2)) - np.sum(x * h[:, 1], axis=(1, 2)))
        for h in hvps
    ]


@_check(1e-12, random_f_nondegenerate)
def _check_eigen_unit_norm(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        eig = inv_mod.invariant_eigensystem(which, s)
        norms = np.linalg.norm(eig.matrices.reshape(-1, 6, 6), axis=2)
        errors.append(np.abs(norms - 1.0))
    return errors


@_check(1e-10, random_f_nondegenerate)
def _check_eigen_orthogonality(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        q = inv_mod.invariant_eigensystem(which, s).matrices.reshape(-1, 6, 6)
        gram = q @ np.swapaxes(q, 1, 2)
        gram[:, range(6), range(6)] = 1.0
        errors.append(_max_abs(gram - np.eye(6)))
    return errors


@_check(1e-8, random_f_nondegenerate)
def _check_eigen_residual(rng, f, s):
    errors = []
    for k, which in enumerate(("I1", "I2", "I3")):
        eig = inv_mod.invariant_eigensystem(which, s)
        lam, q = eig.values, eig.matrices
        hq = inv_mod.invariant_hvp(_each(s), q)[k]
        resid = _max_abs(hq - lam[..., None, None] * q)
        errors.append(resid / np.maximum(1.0, np.abs(lam)))
    return errors


@_check(1e-8, random_f_nondegenerate)
def _check_eigen_reconstruction(rng, f, s):
    fdot = _unit_fdot(rng, len(f))
    hvps = inv_mod.invariant_hvp(s, fdot)
    return [
        _max_abs(inv_mod.invariant_eigensystem(which, s).apply(fdot) - hvps[k])
        for k, which in enumerate(("I1", "I2", "I3"))
    ]


@_check(1e-12, random_f_nondegenerate)
def _check_i1_null_space(rng, f, s):
    eig = inv_mod.invariant_eigensystem("I1", s)
    # scale, opposed scale, flip
    h1 = inv_mod.invariant_hvp(_each(s), eig.matrices[:, [0, 1, 3]])[0]
    return [_max_abs(h1)]


@_check(1e-12, random_f_nondegenerate)
def _check_eigen_padding(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        eig = inv_mod.invariant_eigensystem(which, s)
        for slot in range(6):
            c = s.rotate(eig.matrices[:, slot])
            errors.append(_max_abs(c[:, 2:, :] if slot < 4 else c[:, :2, :]))
    return errors


# The dense-oracle route is expensive, so it runs a documented fraction.
@_check(1e-4, random_f_nondegenerate, share=20)
def _check_eigen_spectrum_oracle(rng, f, s):
    names = ("I1", "I2", "I3")
    dense = [orc_mod.fd_hessian6(_invariant_fn(w), f, h=1e-4) for w in names]
    oracle, _ = _jacobi(np.stack(dense))
    analytic = np.sort([inv_mod.invariant_eigensystem(w, s).values for w in names])
    # FD perturbs every eigenvalue by up to the matrix-norm error (Weyl), so
    # normalize by the spectral scale.
    scale = np.maximum(1.0, np.max(np.abs(oracle), axis=2))
    return list(np.max(np.abs(analytic - oracle), axis=2) / scale)


# -------------------------------------------------------------- sheet checks


_MU = 1.0
_SHEET = mod_mod.NeoHookeanSheet(_MU)


def _sheet_psi(f):
    return _SHEET.derivs(inv_mod.invariants(svd_mod.svd32(f))).psi


@_check(1e-10, random_f_admissible)
def _check_sheet_operator_identity(rng, f, s):
    fdot = _unit_fdot(rng, len(f))
    inv = inv_mod.invariants(s)
    hvp = mod_mod.energy_hvp(_SHEET, s, fdot)
    _, _, g3 = inv_mod.invariant_gradients(s, f)
    h3 = inv_mod.invariant_hvp(s, fdot)[2]
    r = (1.0 / inv.i3)[:, None, None]
    g3_fdot = np.sum(g3 * fdot, axis=(1, 2))[:, None, None]
    r3, r4 = np.float_power(r, 3), np.float_power(r, 4)
    explicit = _MU * (fdot + 3.0 * r4 * g3_fdot * g3 - r3 * h3)
    return [_max_abs(hvp - explicit) / np.maximum(1.0, _max_abs(explicit))]


@_check(1e-10, random_f_admissible)
def _check_sheet_reduced_block(rng, f, s):
    s1, s2 = s.sigma
    i3 = s1 * s2
    a = mod_mod._reduced_block(_SHEET.derivs(inv_mod.invariants(s)), s1, s2)
    # float_power, as array ** 4 and ** 3 round unlike a Python float's.
    i3_4, off = np.float_power(i3, 4), 2.0 * _MU / np.float_power(i3, 3)
    expected = np.array(
        [
            [_MU * (1.0 + 3.0 * s2 * s2 / i3_4), off],
            [off, _MU * (1.0 + 3.0 * s1 * s1 / i3_4)],
        ]
    ).transpose(2, 0, 1)
    return [_max_abs((a - expected) / np.maximum(1.0, np.abs(expected)))]


@_check(1e-8, random_f_admissible)
def _check_sheet_eigen_reconstruction(rng, f, s):
    fdot = _unit_fdot(rng, len(f))
    hvp = mod_mod.energy_hvp(_SHEET, s, fdot)
    eig = mod_mod.energy_eigensystem(_SHEET, s)
    return [_max_abs(eig.apply(fdot) - hvp) / np.maximum(1.0, _max_abs(hvp))]


@_check(1e-10, random_f_admissible)
def _check_sheet_block_consistency(rng, f, s):
    a = np.sort(mod_mod.sheet_eigensystem(_MU, s).values)
    b = np.sort(mod_mod.energy_eigensystem(_SHEET, s).values)
    return [np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)), axis=1)]


@_check(1e-12, random_f_admissible)
def _check_sheet_gradient_orthogonality(rng, f, s):
    _, g2, _ = inv_mod.invariant_gradients(s, f)
    eig = inv_mod.invariant_eigensystem("I3", s)
    # twist, flip, normal modes
    return [np.abs(np.sum(g2[:, None] * eig.matrices[:, 2:], axis=(-2, -1)))]


@_check(1e-4, random_f_admissible, share=20)
def _check_sheet_spectrum_oracle(rng, f, s):
    analytic = np.sort(mod_mod.sheet_eigensystem(_MU, s).values)
    oracle, _ = _jacobi(orc_mod.fd_hessian6(_sheet_psi, f, h=1e-4))
    # Weyl-normalized: small I3 blows the spectrum up to ~mu/I3^4 and
    # FD error rides the matrix norm, not individual eigenvalues.
    scale = np.maximum(1.0, np.max(np.abs(oracle), axis=1))
    return [np.max(np.abs(analytic - oracle), axis=1) / scale]


@_check(1e-8, random_f_admissible)
def _check_sheet_pairing(rng, f, s):
    # The (beta + gamma, 4 I3) direction must carry the LARGER block
    # eigenvalue, checked against the dense oracle on the 2x2 block.
    d = _SHEET.derivs(inv_mod.invariants(s))
    block = mod_mod._reduced_block(d, s.sigma[0], s.sigma[1])
    lam, vectors = _jacobi(block)
    eig = mod_mod.sheet_eigensystem(_MU, s)
    # Coefficients of the first eigenmatrix in the rotated frame.
    vp = s.rotate(eig.matrices[:, 0])[:, [0, 1], [0, 1]]
    return [
        np.abs(eig.values[:, 0] - lam[:, 1]) / np.maximum(1.0, np.abs(lam[:, 1])),
        np.abs(eig.values[:, 1] - lam[:, 0]) / np.maximum(1.0, np.abs(lam[:, 0])),
        1.0 - np.abs(vp[:, None, :] @ vectors[:, :, 1:]).reshape(-1),
    ]


@_check(1e-10, random_f_admissible)
def _check_psd_projection(rng, f, s):
    eig = mod_mod.energy_eigensystem(_SHEET, s)
    proj = mod_mod.project_psd(eig)
    scale = np.maximum(1.0, np.max(np.abs(eig.values), axis=1))
    x = _unit_fdot(rng, len(f))
    quad = np.sum(x * proj.apply(x), axis=(1, 2))
    dense = proj.dense6()
    twice = mod_mod.project_psd(proj)
    min_eig = _jacobi(dense)[0][:, 0]
    return [
        np.maximum(0.0, -np.min(proj.values, axis=1)),
        np.maximum(0.0, -quad) / scale,
        np.maximum(0.0, -min_eig) / scale,
        _max_abs(dense - np.swapaxes(dense, 1, 2)) / scale,
        np.max(np.abs(twice.values - proj.values), axis=1) / scale,
    ]


# ----------------------------------------------------------------- FEM checks


@functools.cache
def _patch_grid():
    """The 2x2 grid every random patch deforms, read-only, and its pin-free
    problem, which gives a candidate's deformation gradients."""
    rest, tris = mesh_mod.grid_mesh(2, 2)
    rest.flags.writeable = tris.flags.writeable = False
    return rest, tris, fem_mod.make_problem(rest, tris, _SHEET)


def _random_patch(rng, gravity=None):
    rest, tris, free = _patch_grid()
    while True:
        x = rest.copy()
        x[:, 0] *= rng.uniform(0.85, 1.35)
        x[:, 1] *= rng.uniform(0.85, 1.35)
        x += 0.06 * rng.uniform(-1.0, 1.0, size=x.shape)
        s1, s2 = svd_mod.svd32(fem_mod.deformation_gradients(free, x)).sigma
        if np.all((s2 >= 0.25) & (0.3 < s1 * s2) & (s1 * s2 < 3.0)):
            break
    # Three pinned corners kill the rigid orbit so minima are locally unique.
    problem = fem_mod.make_problem(
        rest, tris, _SHEET, pins={0: x[0], 2: x[2], 6: x[6]}, gravity=gravity
    )
    return problem, x


def _free_direction(rng, problem):
    mask = problem.pinned_dof_mask()
    d = rng.uniform(-1.0, 1.0, size=mask.size)
    d[mask] = 0.0
    return d / np.linalg.norm(d)


@_check(1e-5, share=100)
def _check_fem_gradient_fd(rng):
    h = 1e-5
    problem, x = _random_patch(rng, gravity=(0.05, -0.02, -0.1))
    _, grad, _ = fem_mod.assemble(problem, x)
    free = np.flatnonzero(~problem.pinned_dof_mask())
    # x with each free dof stepped by +h, then by -h: one stack of states.
    steps = np.tile(x.reshape(-1), (2, len(free), 1))
    k = np.arange(len(free))
    steps[0, k, free] += h
    steps[1, k, free] -= h
    energy = fem_mod.total_energy(problem, steps.reshape(2 * len(free), -1, 3))
    ep, em = energy.reshape(2, -1)
    return np.abs((ep - em) / (2.0 * h) - grad[free])


@_check(1e-6, share=100)
def _check_fem_directional_derivative(rng):
    h = 1e-5
    problem, x = _random_patch(rng, gravity=(0.0, 0.0, -0.05))
    _, grad, _ = fem_mod.assemble(problem, x)
    d = _free_direction(rng, problem)
    ep = fem_mod.total_energy(problem, (x.reshape(-1) + h * d).reshape(-1, 3))
    em = fem_mod.total_energy(problem, (x.reshape(-1) - h * d).reshape(-1, 3))
    return abs((ep - em) / (2.0 * h) - float(grad @ d))


@_check(1e-4, share=100)
def _check_fem_hessian_fd(rng):
    h = 1e-5
    problem, x = _random_patch(rng)
    _, _, hess = fem_mod.assemble(problem, x, project=False)
    d = _free_direction(rng, problem)
    _, gp, _ = fem_mod.assemble(problem, (x.reshape(-1) + h * d).reshape(-1, 3))
    _, gm, _ = fem_mod.assemble(problem, (x.reshape(-1) - h * d).reshape(-1, 3))
    return np.max(np.abs(hess @ d - (gp - gm) / (2.0 * h)))


@_check(1e-12, share=100)
def _check_fem_descent(rng):
    problem, x = _random_patch(rng)
    _, grad, hess = fem_mod.assemble(problem, x)
    if np.max(np.abs(grad)) <= 1e-8:
        return []
    tau = fem_mod._tikhonov_shift(problem.model)
    d = fem_mod._newton_direction(hess, grad, tau, problem._pattern.diag)
    return max(0.0, float(grad @ d)) / max(1.0, float(grad @ grad))


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


@_check(1e-10, share=500)
def _check_fem_frame_objectivity(rng):
    # Rest elements are 2D and frame free, so the rigidly moved problem is
    # the same problem with moved pin targets.
    problem, x = _random_patch(rng)
    rot = _random_rotation(rng)
    shift = rng.uniform(-1.0, 1.0, size=3)
    e1 = fem_mod.total_energy(problem, x)
    e2 = fem_mod.total_energy(problem, x @ rot.T + shift)
    moved = dataclasses.replace(
        problem, pin_targets=problem.pin_targets @ rot.T + shift
    )
    _, rep1 = fem_mod.newton_solve(problem, x)
    _, rep2 = fem_mod.newton_solve(moved, x @ rot.T + shift)
    ea = rep1.history[-1].energy
    eb = rep2.history[-1].energy
    return [abs(e1 - e2) / max(1.0, abs(e1)), abs(ea - eb) / max(1.0, abs(ea))]


# -------------------------------------------------------------- oracle checks


def _random_sym6(rng, n):
    a = rng.uniform(-2.0, 2.0, size=(n, 6, 6))
    return (0.5 * (a + np.swapaxes(a, -1, -2)),)


@_check(1e-10, _random_sym6, share=10)
def _check_oracle_jacobi(rng, a):
    lam, q = _jacobi(a)
    resid = a @ q - q * lam[:, None, :]
    return [
        _max_abs(resid) / np.maximum(1.0, orc_mod._frobenius(a)),
        _max_abs(np.swapaxes(q, 1, 2) @ q - np.eye(6)),
        np.maximum(0.0, np.max(lam[:, :-1] - lam[:, 1:], axis=1)),
    ]


def _check_fd_convergence(rng, trials):
    # A whole-ensemble check: halving h must cut the worst central-difference
    # gradient error over the ensemble by a factor between 3 and 5.
    n = min(trials, 50)
    steps = (1e-3, 5e-4, 2.5e-4)
    f, s = random_f_admissible(rng, n, min_i3=0.3)
    g = mod_mod.energy_gradient(_SHEET, s, f)
    fds = np.array([orc_mod.fd_gradient(_sheet_psi, f, h=h) for h in steps])
    worst = np.max(np.abs(fds - g), axis=(1, 2, 3))
    ratio = np.divide(
        worst[:-1], worst[1:], out=np.zeros(len(steps) - 1), where=worst[1:] > 0.0
    )
    errors = np.max([np.zeros_like(ratio), 3.0 - ratio, ratio - 5.0], axis=0)
    return _report("fd_convergence", n, 1e-12, errors)


_CHECKS.append(_check_fd_convergence)


def run_checks(seed=42, trials=1000):
    """Run every documented property check on seeded random inputs.

    Returns a list of CheckReport in fixed registry order.  Each check draws
    from its own RNG substream spawned from ``seed``.  Raises ValueError
    unless ``seed`` is an integer >= 0 and ``trials`` one >= 1 (neither a
    bool).
    """
    fem_mod._require_int("seed", seed, 0)
    fem_mod._require_int("trials", trials, 1)
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    return [
        fn(np.random.default_rng(child), trials)
        for fn, child in zip(_CHECKS, children)
    ]


# ------------------------------------------------------------------ timing


@dataclass(frozen=True)
class BenchReport:
    """Mean per-call wall times (ns) for both routes plus their ratio."""

    trials: int
    analytic_ns: float
    oracle_ns: float
    speedup: float

    def table(self):
        lines = [
            f"{'route':<28}{'mean ns/call':>16}",
            f"{'closed-form eigensystem':<28}{self.analytic_ns:>16.0f}",
            f"{'fd hessian + jacobi':<28}{self.oracle_ns:>16.0f}",
            f"speedup: {self.speedup:.1f}x over {self.trials} trials",
        ]
        return "\n".join(lines)

    def csv(self):
        return (
            "route,mean_ns_per_call\n"
            f"analytic,{self.analytic_ns!r}\n"
            f"fd_jacobi,{self.oracle_ns!r}\n"
            f"speedup,{self.speedup!r}\n"
        )


def run_bench(trials=200):
    """Time both spectrum routes, interleaved F by F, on one admissible
    ensemble (seed 0) for the checks' sheet: ``_MU`` and its energy
    ``_sheet_psi``."""
    fem_mod._require_int("trials", trials, 1)
    rng = np.random.default_rng(0)
    fs, _ = random_f_admissible(rng, trials)

    # Each F times both routes, alternating which goes first, so a burst of
    # load falls on both; an untimed call first warms the route's caches.
    routes = (
        lambda f: mod_mod.sheet_eigensystem(_MU, svd_mod.svd32(f)),
        lambda f: orc_mod.jacobi_eigen_sym(orc_mod.fd_hessian6(_sheet_psi, f)),
    )
    ns = [0, 0]
    for k, f in enumerate(fs):
        for r in (k % 2, 1 - k % 2):
            routes[r](f)
            t0 = time.perf_counter_ns()
            routes[r](f)
            ns[r] += time.perf_counter_ns() - t0
    return BenchReport(
        trials=trials,
        analytic_ns=ns[0] / trials,
        oracle_ns=ns[1] / trials,
        speedup=ns[1] / ns[0],
    )
