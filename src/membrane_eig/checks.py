"""Randomized verification of every documented invariant and property.

``run_checks`` runs each named check on seeded random inputs and returns
one CheckReport per check.  Failures are reported with the worst
counterexample, never raised.

Every F sample comes from one drawer, ``_draw(rng, accept)``: it draws raw
Fs (entries uniform in (-2, 2)) and returns the first pair (f, svd32(f))
whose decomposition passes ``accept``, so a trial never decomposes its F
again.  The floors are such conditions: sigma2 > 0.05 for nondegeneracy,
also sigma1 - sigma2 > 0.05 where SVD rates must exist, and I3 > 0.05 for
sheet checks.

A check is one trial, registered in definition order by the decorator
``_check(tol, sample=None, share=1)``.  The check runs max(1, trials //
share) trials; mesh- and solver-level checks use a share above 1, and each
report records its actual count.  ``sample(rng)`` returns the trial's
arguments as a tuple whose first item is the witness, and the trial is
called as ``trial(rng, *sample(rng))``: ``trial(rng, f, s)`` for the
F-sampled checks, ``trial(rng, a)`` for the Jacobi oracle's symmetric
matrices, and ``trial(rng)`` when there is no sampler.  A trial returns one
error or a list of errors.  The report keeps the largest error over all
trials, a NaN counting as the largest, and fails when it exceeds ``tol``.
A failing report carries that error's witness as its counterexample;
checks without a sampler carry none.  Kernels are looked up through their
modules at call time, so a patched kernel is the one checked.

``run_bench`` times the sheet's closed-form spectrum against the FD +
Jacobi oracle route on the checks' sheet and admissible sampler.
"""

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from numbers import Integral

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


def _report(name, trials, tol, errors):
    """Report the largest of the (error, witness) pairs ``errors``.

    A NaN error counts as larger than any number; among equal errors the
    first one's witness is kept.
    """
    worst, witness = max(
        errors, key=lambda e: (math.isnan(e[0]), e[0]), default=(0.0, None)
    )
    passed = bool(worst <= tol)
    return CheckReport(
        name=name,
        trials=trials,
        max_error=float(worst),
        tol=float(tol),
        passed=passed,
        counterexample=(
            None if passed or witness is None else np.asarray(witness).tolist()
        ),
    )


_CHECKS = []


def _check(tol, sample=None, share=1):
    """Register a single-trial function as the check named after it."""

    def register(trial):
        name = trial.__name__.removeprefix("_check_")

        @functools.wraps(trial)
        def run(rng, trials):
            n = max(1, trials // share)
            errors = []
            for _ in range(n):
                args = () if sample is None else sample(rng)
                witness = args[0] if args else None
                out = trial(rng, *args)
                errors.extend((float(e), witness) for e in np.atleast_1d(out))
            return _report(name, n, tol, errors)

        _CHECKS.append(run)
        return run

    return register


def random_f(rng):
    """A raw test gradient: 3x2 with entries uniform in (-2, 2)."""
    return rng.uniform(-2.0, 2.0, size=(3, 2))


def _draw(rng, accept=lambda s: True):
    """Draw raw Fs until ``accept(svd32(f))``; return the pair (f, svd32(f))."""
    while True:
        f = random_f(rng)
        s = svd_mod.svd32(f)
        if accept(s):
            return f, s


def random_f_nondegenerate(rng):
    """A pair (f, svd32(f)) with sigma2 > 0.05."""
    return _draw(rng, lambda s: s.sigma[1] > _MIN_SIGMA2)


def random_f_gapped(rng):
    # Nondegenerate and with sigma1 - sigma2 > 0.05, so the rates exist.
    return _draw(
        rng, lambda s: s.sigma[1] > _MIN_SIGMA2 and s.sigma[0] - s.sigma[1] > _MIN_GAP
    )


def random_f_admissible(rng, min_i3=0.05):
    """A pair (f, svd32(f)) with I3 = sigma1*sigma2 above ``min_i3``."""
    return _draw(rng, lambda s: s.sigma[0] * s.sigma[1] > min_i3)


def _unit_fdot(rng):
    d = rng.uniform(-1.0, 1.0, size=(3, 2))
    return d / np.linalg.norm(d)


# ---------------------------------------------------------------- svd checks


@_check(1e-12, _draw)
def _check_svd_reconstruction(rng, f, s):
    return np.max(np.abs(f - s.reconstruct())) / max(1.0, np.linalg.norm(f))


@_check(1e-12, _draw)
def _check_svd_conventions(rng, f, s):
    s1, s2 = s.sigma
    return max(
        np.max(np.abs(s.u.T @ s.u - np.eye(3))),
        np.max(np.abs(s.v.T @ s.v - np.eye(2))),
        abs(np.linalg.det(s.u) - 1.0),
        abs(np.linalg.det(s.v) - 1.0),
        np.max(np.abs(s.normal - np.cross(s.u[:, 0], s.u[:, 1]))),
        max(0.0, s2 - s1),
        max(0.0, -s2),
    )


@_check(1e-10, random_f_gapped)
def _check_svd_rate_consistency(rng, f, s):
    fdot = _unit_fdot(rng)
    rates = svd_mod.svd_rates(s, fdot)
    return np.max(np.abs(fdot - rates.reconstruct(s)))


@_check(1e-8, random_f_gapped)
def _check_svd_rate_prediction(rng, f, s):
    h = 1e-5
    fdot = _unit_fdot(rng)
    rates = svd_mod.svd_rates(s, fdot)
    actual = svd_mod.svd32(f + h * fdot).sigma
    pred = (s.sigma[0] + h * rates.sigma_dot[0], s.sigma[1] + h * rates.sigma_dot[1])
    return max(abs(actual[0] - pred[0]), abs(actual[1] - pred[1]))


@_check(1e-8, random_f_nondegenerate)
def _check_svd_inplane_normal(rng, f, s):
    # In-plane perturbations keep the column space, hence the normal.
    h = 1e-5
    a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
    fdot = s.lift(np.array([[a, b], [c, d], [0.0, 0.0]]))
    return np.max(np.abs(svd_mod.svd32(f + h * fdot).normal - s.normal))


# ---------------------------------------------------------- invariant checks


@_check(1e-12, _draw)
def _check_invariant_values(rng, f, s):
    inv = inv_mod.invariants(s)
    return max(
        abs(inv.i2 - float(np.sum(f * f))),
        abs(inv.i1 * inv.i1 - (inv.i2 + 2.0 * inv.i3)),
    )


def _invariant_fn(which):
    return lambda f: getattr(inv_mod.invariants(svd_mod.svd32(f)), which.lower())


@_check(1e-6, random_f_nondegenerate)
def _check_invariant_gradients_fd(rng, f, s):
    grads = inv_mod.invariant_gradients(s, f)
    return [
        np.max(np.abs(orc_mod.fd_gradient(_invariant_fn(which), f, h=1e-5) - g))
        for which, g in zip(("I1", "I2", "I3"), grads)
    ]


@_check(1e-5, random_f_nondegenerate)
def _check_invariant_hvp_fd(rng, f, s):
    h = 1e-5
    fdot = _unit_fdot(rng)
    hvps = inv_mod.invariant_hvp(s, fdot)
    x = np.stack([f + h * fdot, f - h * fdot])
    g = inv_mod.invariant_gradients(svd_mod.svd32(x), x)
    return [
        np.max(np.abs((g[k][0] - g[k][1]) / (2.0 * h) - hvps[k])) for k in range(3)
    ]


@_check(1e-12, random_f_nondegenerate)
def _check_invariant_hvp_i2_exact(rng, f, s):
    fdot = random_f(rng)
    h2 = inv_mod.invariant_hvp(s, fdot)[1]
    return np.max(np.abs(h2 - 2.0 * fdot))


@_check(1e-12, random_f_nondegenerate)
def _check_invariant_hvp_linearity(rng, f, s):
    x, y = random_f(rng), random_f(rng)
    a, b = rng.uniform(-2.0, 2.0, size=2)
    hvps = inv_mod.invariant_hvp(s, np.stack([a * x + b * y, x, y]))
    return [np.max(np.abs(h[0] - (a * h[1] + b * h[2]))) for h in hvps]


@_check(1e-10, random_f_nondegenerate)
def _check_invariant_hvp_symmetry(rng, f, s):
    x, y = random_f(rng), random_f(rng)
    hvps = inv_mod.invariant_hvp(s, np.stack([x, y]))
    return [abs(float(np.sum(y * h[0])) - float(np.sum(x * h[1]))) for h in hvps]


@_check(1e-12, random_f_nondegenerate)
def _check_eigen_unit_norm(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        eig = inv_mod.invariant_eigensystem(which, s)
        norms = np.linalg.norm(eig.matrices.reshape(6, 6), axis=1)
        errors.append(np.max(np.abs(norms - 1.0)))
    return errors


@_check(1e-10, random_f_nondegenerate)
def _check_eigen_orthogonality(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        q = inv_mod.invariant_eigensystem(which, s).matrices.reshape(6, 6)
        gram = q @ q.T
        np.fill_diagonal(gram, 1.0)
        errors.append(np.max(np.abs(gram - np.eye(6))))
    return errors


@_check(1e-8, random_f_nondegenerate)
def _check_eigen_residual(rng, f, s):
    errors = []
    for k, which in enumerate(("I1", "I2", "I3")):
        eig = inv_mod.invariant_eigensystem(which, s)
        lam, q = eig.values, eig.matrices
        hq = inv_mod.invariant_hvp(s, q)[k]
        resid = np.max(np.abs(hq - lam[:, None, None] * q), axis=(-2, -1))
        errors.extend(resid / np.maximum(1.0, np.abs(lam)))
    return errors


@_check(1e-8, random_f_nondegenerate)
def _check_eigen_reconstruction(rng, f, s):
    fdot = _unit_fdot(rng)
    hvps = inv_mod.invariant_hvp(s, fdot)
    return [
        np.max(np.abs(inv_mod.invariant_eigensystem(which, s).apply(fdot) - hvps[k]))
        for k, which in enumerate(("I1", "I2", "I3"))
    ]


@_check(1e-12, random_f_nondegenerate)
def _check_i1_null_space(rng, f, s):
    eig = inv_mod.invariant_eigensystem("I1", s)
    # scale, opposed scale, flip
    h1 = inv_mod.invariant_hvp(s, eig.matrices[[0, 1, 3]])[0]
    return np.max(np.abs(h1), axis=(-2, -1))


@_check(1e-12, random_f_nondegenerate)
def _check_eigen_padding(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        eig = inv_mod.invariant_eigensystem(which, s)
        for slot in range(6):
            c = s.rotate(eig.matrices[slot])
            errors.append(np.max(np.abs(c[2, :] if slot < 4 else c[:2, :])))
    return errors


# The dense-oracle route is expensive, so it runs a documented fraction.
@_check(1e-4, random_f_nondegenerate, share=20)
def _check_eigen_spectrum_oracle(rng, f, s):
    errors = []
    for which in ("I1", "I2", "I3"):
        analytic = np.sort(inv_mod.invariant_eigensystem(which, s).values)
        dense = orc_mod.fd_hessian6(_invariant_fn(which), f, h=1e-4)
        oracle = orc_mod.jacobi_eigen_sym(dense).values
        # FD perturbs every eigenvalue by up to the matrix-norm error
        # (Weyl), so normalize by the spectral scale.
        scale = max(1.0, float(np.max(np.abs(oracle))))
        errors.append(np.max(np.abs(analytic - oracle)) / scale)
    return errors


# -------------------------------------------------------------- sheet checks


_MU = 1.0
_SHEET = mod_mod.NeoHookeanSheet(_MU)


def _sheet_psi(f):
    return _SHEET.derivs(inv_mod.invariants(svd_mod.svd32(f))).psi


@_check(1e-10, random_f_admissible)
def _check_sheet_operator_identity(rng, f, s):
    fdot = _unit_fdot(rng)
    inv = inv_mod.invariants(s)
    hvp = mod_mod.energy_hvp(_SHEET, s, fdot)
    _, _, g3 = inv_mod.invariant_gradients(s, f)
    h3 = inv_mod.invariant_hvp(s, fdot)[2]
    r = 1.0 / inv.i3
    explicit = _MU * (
        fdot + 3.0 * r ** 4 * float(np.sum(g3 * fdot)) * g3 - r ** 3 * h3
    )
    return np.max(np.abs(hvp - explicit)) / max(1.0, np.max(np.abs(explicit)))


@_check(1e-10, random_f_admissible)
def _check_sheet_reduced_block(rng, f, s):
    s1, s2 = s.sigma
    i3 = s1 * s2
    a = mod_mod._reduced_block(_SHEET.derivs(inv_mod.invariants(s)), s1, s2)
    expected = np.array(
        [
            [_MU * (1.0 + 3.0 * s2 * s2 / i3 ** 4), 2.0 * _MU / i3 ** 3],
            [2.0 * _MU / i3 ** 3, _MU * (1.0 + 3.0 * s1 * s1 / i3 ** 4)],
        ]
    )
    return np.max(np.abs(a - expected) / np.maximum(1.0, np.abs(expected)))


@_check(1e-8, random_f_admissible)
def _check_sheet_eigen_reconstruction(rng, f, s):
    fdot = _unit_fdot(rng)
    hvp = mod_mod.energy_hvp(_SHEET, s, fdot)
    eig = mod_mod.energy_eigensystem(_SHEET, s)
    return np.max(np.abs(eig.apply(fdot) - hvp)) / max(1.0, np.max(np.abs(hvp)))


@_check(1e-10, random_f_admissible)
def _check_sheet_block_consistency(rng, f, s):
    a = np.sort(mod_mod.sheet_eigensystem(_MU, s).values)
    b = np.sort(mod_mod.energy_eigensystem(_SHEET, s).values)
    return np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))


@_check(1e-12, random_f_admissible)
def _check_sheet_gradient_orthogonality(rng, f, s):
    _, g2, _ = inv_mod.invariant_gradients(s, f)
    eig = inv_mod.invariant_eigensystem("I3", s)
    return [  # twist, flip, normal modes
        abs(float(np.sum(g2 * eig.matrices[slot]))) for slot in (2, 3, 4, 5)
    ]


@_check(1e-4, random_f_admissible, share=20)
def _check_sheet_spectrum_oracle(rng, f, s):
    analytic = np.sort(mod_mod.sheet_eigensystem(_MU, s).values)
    dense = orc_mod.fd_hessian6(_sheet_psi, f, h=1e-4)
    oracle = orc_mod.jacobi_eigen_sym(dense).values
    # Weyl-normalized: small I3 blows the spectrum up to ~mu/I3^4 and
    # FD error rides the matrix norm, not individual eigenvalues.
    scale = max(1.0, float(np.max(np.abs(oracle))))
    return np.max(np.abs(analytic - oracle)) / scale


@_check(1e-8, random_f_admissible)
def _check_sheet_pairing(rng, f, s):
    # The (beta + gamma, 4 I3) direction must carry the LARGER block
    # eigenvalue, checked against the dense oracle on the 2x2 block.
    d = _SHEET.derivs(inv_mod.invariants(s))
    block = mod_mod._reduced_block(d, s.sigma[0], s.sigma[1])
    oracle = orc_mod.jacobi_eigen_sym(block)
    eig = mod_mod.sheet_eigensystem(_MU, s)
    lam_plus, lam_minus = eig.values[0], eig.values[1]
    # Coefficients of the first two eigenmatrices in the rotated frame.
    cp = s.rotate(eig.matrices[0])
    vp = np.array([cp[0, 0], cp[1, 1]])
    scale = max(1.0, abs(oracle.values[1]))
    return max(
        abs(lam_plus - oracle.values[1]) / scale,
        abs(lam_minus - oracle.values[0]) / max(1.0, abs(oracle.values[0])),
        1.0 - abs(float(vp @ oracle.vectors[:, 1])),
    )


@_check(1e-10, random_f_admissible)
def _check_psd_projection(rng, f, s):
    eig = mod_mod.energy_eigensystem(_SHEET, s)
    proj = mod_mod.project_psd(eig)
    scale = max(1.0, float(np.max(np.abs(eig.values))))
    x = _unit_fdot(rng)
    quad = float(np.sum(x * proj.apply(x)))
    dense = proj.dense6()
    twice = mod_mod.project_psd(proj)
    min_eig = orc_mod.jacobi_eigen_sym(dense).values[0]
    return max(
        max(0.0, -float(np.min(proj.values))),
        max(0.0, -quad) / scale,
        max(0.0, -min_eig) / scale,
        np.max(np.abs(dense - dense.T)),
        np.max(np.abs(twice.values - proj.values)) / scale,
    )


# ----------------------------------------------------------------- FEM checks


def _random_patch(rng, gravity=None):
    rest, tris = mesh_mod.grid_mesh(2, 2)
    free = fem_mod.make_problem(rest, tris, _SHEET)
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
    flat = x.reshape(-1)
    errors = []
    for i in np.nonzero(~problem.pinned_dof_mask())[0]:
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        fd = (
            fem_mod.total_energy(problem, xp.reshape(-1, 3))
            - fem_mod.total_energy(problem, xm.reshape(-1, 3))
        ) / (2.0 * h)
        errors.append(abs(fd - grad[i]))
    return errors


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
    d = fem_mod._newton_direction(hess, grad, tau)
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


def _random_sym6(rng):
    a = rng.uniform(-2.0, 2.0, size=(6, 6))
    return (0.5 * (a + a.T),)


@_check(1e-10, _random_sym6, share=10)
def _check_oracle_jacobi(rng, a):
    spec = orc_mod.jacobi_eigen_sym(a)
    scale = max(1.0, float(np.linalg.norm(a)))
    resid = a @ spec.vectors - spec.vectors * spec.values
    return max(
        float(np.max(np.abs(resid))) / scale,
        float(np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(6)))),
        max(0.0, float(np.max(spec.values[:-1] - spec.values[1:]))),
    )


def _check_fd_convergence(rng, trials):
    # A whole-ensemble check: halving h must cut the worst central-difference
    # gradient error over the ensemble by a factor between 3 and 5.
    n = min(trials, 50)
    steps = (1e-3, 5e-4, 2.5e-4)
    worst = np.zeros(len(steps))
    for _ in range(n):
        f, s = random_f_admissible(rng, min_i3=0.3)
        g = mod_mod.energy_gradient(_SHEET, s, f)
        fds = [orc_mod.fd_gradient(_sheet_psi, f, h=h) for h in steps]
        worst = np.maximum(worst, [np.max(np.abs(fd - g)) for fd in fds])
    ratio = np.divide(
        worst[:-1], worst[1:], out=np.zeros(len(steps) - 1), where=worst[1:] > 0.0
    )
    errors = np.max([np.zeros_like(ratio), 3.0 - ratio, ratio - 5.0], axis=0)
    return _report("fd_convergence", n, 1e-12, [(e, None) for e in errors])


_CHECKS.append(_check_fd_convergence)


def _require_trials(trials):
    if not isinstance(trials, Integral) or isinstance(trials, bool) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")


def run_checks(seed=42, trials=1000):
    """Run every documented property check on seeded random inputs.

    Returns a list of CheckReport in fixed registry order.  Each check draws
    from its own RNG substream spawned from ``seed``.
    """
    _require_trials(trials)
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
    _require_trials(trials)
    rng = np.random.default_rng(0)
    fs = [random_f_admissible(rng)[0] for _ in range(trials)]

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
