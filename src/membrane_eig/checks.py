"""Randomized verification of every documented invariant and property.

``run_checks`` draws seeded random deformation gradients (entries uniform in
(-2, 2), resampled until sigma2 > 0.05 for checks needing nondegeneracy and
until I3 > 0.05 for sheet checks), runs each named check, and returns one
CheckReport per check.  Failures are reported with the worst counterexample,
never raised.  Mesh- and solver-level checks run a documented fraction of
the requested trial count; each report records its actual count.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fem as fem_mod
from . import invariants as inv_mod
from . import mesh as mesh_mod
from . import models as mod_mod
from . import oracles as orc_mod
from . import svd as svd_mod

__all__ = [
    "CheckReport",
    "run_checks",
    "random_f",
    "random_f_nondegenerate",
    "random_f_admissible",
]


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
        return {
            "name": self.name,
            "trials": self.trials,
            "max_error": self.max_error,
            "tol": self.tol,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


class _Track:
    __slots__ = ("max_error", "witness")

    def __init__(self):
        self.max_error = 0.0
        self.witness = None

    def add(self, err, witness=None):
        err = float(err)
        if err > self.max_error or self.witness is None:
            self.max_error = err
            self.witness = witness

    def report(self, name, trials, tol):
        passed = bool(self.max_error <= tol)
        ce = None
        if not passed and self.witness is not None:
            ce = np.asarray(self.witness).tolist()
        return CheckReport(
            name=name,
            trials=trials,
            max_error=float(self.max_error),
            tol=float(tol),
            passed=passed,
            counterexample=ce,
        )


def random_f(rng):
    """A raw test gradient: 3x2 with entries uniform in (-2, 2)."""
    return rng.uniform(-2.0, 2.0, size=(3, 2))


def random_f_nondegenerate(rng, min_sigma2=0.05):
    """Resample until sigma2 exceeds the floor (default 0.05)."""
    while True:
        f = random_f(rng)
        if svd_mod.svd32(f).sigma[1] > min_sigma2:
            return f


def random_f_gapped(rng, min_sigma2=0.05, min_gap=0.05):
    """Nondegenerate and with separated singular values (rates exist)."""
    while True:
        f = random_f(rng)
        s1, s2 = svd_mod.svd32(f).sigma
        if s2 > min_sigma2 and s1 - s2 > min_gap:
            return f


def random_f_admissible(rng, min_i3=0.05):
    """Resample until I3 = sigma1*sigma2 exceeds the floor (default 0.05)."""
    while True:
        f = random_f(rng)
        s1, s2 = svd_mod.svd32(f).sigma
        if s1 * s2 > min_i3:
            return f


def _unit_fdot(rng):
    d = rng.uniform(-1.0, 1.0, size=(3, 2))
    return d / np.linalg.norm(d)


# ---------------------------------------------------------------- svd checks


def _check_svd_reconstruction(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f(rng)
        s = svd_mod.svd32(f)
        err = np.max(np.abs(f - s.reconstruct())) / max(1.0, np.linalg.norm(f))
        t.add(err, f)
    return t.report("svd_reconstruction", trials, 1e-12)


def _check_svd_conventions(rng, trials):
    t = _Track()
    eye3, eye2 = np.eye(3), np.eye(2)
    for _ in range(trials):
        f = random_f(rng)
        s = svd_mod.svd32(f)
        s1, s2 = s.sigma
        err = max(
            np.max(np.abs(s.u.T @ s.u - eye3)),
            np.max(np.abs(s.v.T @ s.v - eye2)),
            abs(np.linalg.det(s.u) - 1.0),
            abs(np.linalg.det(s.v) - 1.0),
            np.max(np.abs(s.normal - np.cross(s.u[:, 0], s.u[:, 1]))),
            max(0.0, s2 - s1),
            max(0.0, -s2),
        )
        t.add(err, f)
    return t.report("svd_conventions", trials, 1e-12)


def _check_svd_rate_consistency(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_gapped(rng)
        fdot = _unit_fdot(rng)
        s = svd_mod.svd32(f)
        rates = svd_mod.svd_rates(s, fdot)
        err = np.max(np.abs(fdot - rates.reconstruct(s)))
        t.add(err, f)
    return t.report("svd_rate_consistency", trials, 1e-10)


def _check_svd_rate_prediction(rng, trials):
    h = 1e-5
    t = _Track()
    for _ in range(trials):
        f = random_f_gapped(rng)
        fdot = _unit_fdot(rng)
        s = svd_mod.svd32(f)
        rates = svd_mod.svd_rates(s, fdot)
        actual = svd_mod.svd32(f + h * fdot).sigma
        pred = (s.sigma[0] + h * rates.sigma_dot[0], s.sigma[1] + h * rates.sigma_dot[1])
        err = max(abs(actual[0] - pred[0]), abs(actual[1] - pred[1]))
        t.add(err, f)
    return t.report("svd_rate_prediction", trials, 1e-8)


def _check_svd_inplane_normal(rng, trials):
    # In-plane perturbations keep the column space, hence the normal.
    h = 1e-5
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
        fdot = svd_mod.lifted_perturbation(s, a, b, c, d, 0.0, 0.0)
        n1 = svd_mod.svd32(f + h * fdot).normal
        err = np.max(np.abs(n1 - s.normal))
        t.add(err, f)
    return t.report("svd_inplane_normal", trials, 1e-8)


# ---------------------------------------------------------- invariant checks


def _check_invariant_values(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f(rng)
        inv = inv_mod.invariants(svd_mod.svd32(f))
        err = max(
            abs(inv.i2 - float(np.sum(f * f))),
            abs(inv.i1 * inv.i1 - (inv.i2 + 2.0 * inv.i3)),
        )
        t.add(err, f)
    return t.report("invariant_values", trials, 1e-12)


def _invariant_fn(which):
    idx = {"I1": "i1", "I2": "i2", "I3": "i3"}[which]

    def fn(f):
        return getattr(inv_mod.invariants(svd_mod.svd32(f)), idx)

    return fn


def _check_invariant_gradients_fd(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        grads = inv_mod.invariant_gradients(s, f)
        for which, g in zip(("I1", "I2", "I3"), grads):
            fd = orc_mod.fd_gradient(_invariant_fn(which), f, h=1e-5)
            t.add(np.max(np.abs(fd - g)), f)
    return t.report("invariant_gradients_fd", trials, 1e-6)


def _check_invariant_hvp_fd(rng, trials):
    h = 1e-5
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        fdot = _unit_fdot(rng)
        s = svd_mod.svd32(f)
        hvps = inv_mod.invariant_hvp(s, fdot)
        sp = svd_mod.svd32(f + h * fdot)
        sm = svd_mod.svd32(f - h * fdot)
        gp = inv_mod.invariant_gradients(sp, f + h * fdot)
        gm = inv_mod.invariant_gradients(sm, f - h * fdot)
        for k in range(3):
            fd = (gp[k] - gm[k]) / (2.0 * h)
            t.add(np.max(np.abs(fd - hvps[k])), f)
    return t.report("invariant_hvp_fd", trials, 1e-5)


def _check_invariant_hvp_i2_exact(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        fdot = random_f(rng)
        h2 = inv_mod.invariant_hvp(svd_mod.svd32(f), fdot)[1]
        t.add(np.max(np.abs(h2 - 2.0 * fdot)), f)
    return t.report("invariant_hvp_i2_exact", trials, 1e-12)


def _check_invariant_hvp_linearity(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        x, y = random_f(rng), random_f(rng)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = inv_mod.invariant_hvp(s, a * x + b * y)
        hx = inv_mod.invariant_hvp(s, x)
        hy = inv_mod.invariant_hvp(s, y)
        for k in range(3):
            t.add(np.max(np.abs(lhs[k] - (a * hx[k] + b * hy[k]))), f)
    return t.report("invariant_hvp_linearity", trials, 1e-12)


def _check_invariant_hvp_symmetry(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        x, y = random_f(rng), random_f(rng)
        hx = inv_mod.invariant_hvp(s, x)
        hy = inv_mod.invariant_hvp(s, y)
        for k in range(3):
            t.add(abs(float(np.sum(y * hx[k])) - float(np.sum(x * hy[k]))), f)
    return t.report("invariant_hvp_symmetry", trials, 1e-10)


def _check_eigen_unit_norm(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        for which in ("I1", "I2", "I3"):
            eig = inv_mod.invariant_eigensystem(which, s)
            norms = np.linalg.norm(eig.matrices.reshape(6, 6), axis=1)
            t.add(np.max(np.abs(norms - 1.0)), f)
    return t.report("eigen_unit_norm", trials, 1e-12)


def _check_eigen_orthogonality(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        for which in ("I1", "I2", "I3"):
            q = inv_mod.invariant_eigensystem(which, s).matrices.reshape(6, 6)
            gram = q @ q.T
            np.fill_diagonal(gram, 1.0)
            t.add(np.max(np.abs(gram - np.eye(6))), f)
    return t.report("eigen_orthogonality", trials, 1e-10)


def _check_eigen_residual(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        for k, which in enumerate(("I1", "I2", "I3")):
            eig = inv_mod.invariant_eigensystem(which, s)
            for lam, q in eig.pairs():
                hq = inv_mod.invariant_hvp(s, q)[k]
                err = np.max(np.abs(hq - lam * q)) / max(1.0, abs(lam))
                t.add(err, f)
    return t.report("eigen_residual", trials, 1e-8)


def _check_eigen_reconstruction(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        fdot = _unit_fdot(rng)
        s = svd_mod.svd32(f)
        hvps = inv_mod.invariant_hvp(s, fdot)
        for k, which in enumerate(("I1", "I2", "I3")):
            eig = inv_mod.invariant_eigensystem(which, s)
            t.add(np.max(np.abs(eig.apply(fdot) - hvps[k])), f)
    return t.report("eigen_reconstruction", trials, 1e-8)


def _check_i1_null_space(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        eig = inv_mod.invariant_eigensystem("I1", s)
        for slot in (0, 1, 3):  # scale, opposed scale, flip
            hq = inv_mod.invariant_hvp(s, eig.matrices[slot])[0]
            t.add(np.max(np.abs(hq)), f)
    return t.report("i1_null_space", trials, 1e-12)


def _check_eigen_padding(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        for which in ("I1", "I2", "I3"):
            eig = inv_mod.invariant_eigensystem(which, s)
            for slot in range(6):
                c = s.u.T @ eig.matrices[slot] @ s.v
                if slot < 4:
                    t.add(np.max(np.abs(c[2, :])), f)
                else:
                    t.add(np.max(np.abs(c[:2, :])), f)
    return t.report("eigen_padding", trials, 1e-12)


def _check_eigen_spectrum_oracle(rng, trials):
    # Dense-oracle route is expensive; run a documented fraction.
    n = max(1, trials // 20)
    t = _Track()
    for _ in range(n):
        f = random_f_nondegenerate(rng)
        s = svd_mod.svd32(f)
        for which in ("I1", "I2", "I3"):
            analytic = np.sort(inv_mod.invariant_eigensystem(which, s).values)
            dense = orc_mod.fd_hessian6(_invariant_fn(which), f, h=1e-4)
            oracle = orc_mod.jacobi_eigen_sym(dense).values
            # FD perturbs every eigenvalue by up to the matrix-norm error
            # (Weyl), so normalize by the spectral scale.
            scale = max(1.0, float(np.max(np.abs(oracle))))
            t.add(np.max(np.abs(analytic - oracle)) / scale, f)
    return t.report("eigen_spectrum_oracle", n, 1e-4)


# -------------------------------------------------------------- sheet checks


_MU = 1.0


def _sheet_psi_fn(mu):
    model = mod_mod.NeoHookeanSheet(mu)

    def fn(f):
        return model.derivs(inv_mod.invariants(svd_mod.svd32(f))).psi

    return fn


def _check_sheet_operator_identity(rng, trials):
    t = _Track()
    model = mod_mod.NeoHookeanSheet(_MU)
    for _ in range(trials):
        f = random_f_admissible(rng)
        fdot = _unit_fdot(rng)
        s = svd_mod.svd32(f)
        inv = inv_mod.invariants(s)
        hvp = mod_mod.energy_hvp(model, s, fdot)
        _, _, g3 = inv_mod.invariant_gradients(s, f)
        h3 = inv_mod.invariant_hvp(s, fdot)[2]
        r = 1.0 / inv.i3
        explicit = _MU * (
            fdot + 3.0 * r ** 4 * float(np.sum(g3 * fdot)) * g3 - r ** 3 * h3
        )
        err = np.max(np.abs(hvp - explicit)) / max(1.0, np.max(np.abs(explicit)))
        t.add(err, f)
    return t.report("sheet_operator_identity", trials, 1e-10)


def _check_sheet_reduced_block(rng, trials):
    t = _Track()
    model = mod_mod.NeoHookeanSheet(_MU)
    for _ in range(trials):
        f = random_f_admissible(rng)
        s = svd_mod.svd32(f)
        s1, s2 = s.sigma
        i3 = s1 * s2
        d = model.derivs(inv_mod.invariants(s))
        a = mod_mod._reduced_block(d, s1, s2)
        expected = np.array(
            [
                [_MU * (1.0 + 3.0 * s2 * s2 / i3 ** 4), 2.0 * _MU / i3 ** 3],
                [2.0 * _MU / i3 ** 3, _MU * (1.0 + 3.0 * s1 * s1 / i3 ** 4)],
            ]
        )
        err = np.max(np.abs(a - expected) / np.maximum(1.0, np.abs(expected)))
        t.add(err, f)
    return t.report("sheet_reduced_block", trials, 1e-10)


def _check_sheet_eigen_reconstruction(rng, trials):
    t = _Track()
    model = mod_mod.NeoHookeanSheet(_MU)
    for _ in range(trials):
        f = random_f_admissible(rng)
        fdot = _unit_fdot(rng)
        s = svd_mod.svd32(f)
        hvp = mod_mod.energy_hvp(model, s, fdot)
        eig = mod_mod.energy_eigensystem(model, s)
        err = np.max(np.abs(eig.apply(fdot) - hvp)) / max(1.0, np.max(np.abs(hvp)))
        t.add(err, f)
    return t.report("sheet_eigen_reconstruction", trials, 1e-8)


def _check_sheet_block_consistency(rng, trials):
    t = _Track()
    model = mod_mod.NeoHookeanSheet(_MU)
    for _ in range(trials):
        f = random_f_admissible(rng)
        s = svd_mod.svd32(f)
        a = np.sort(mod_mod.sheet_eigensystem(_MU, s).values)
        b = np.sort(mod_mod.energy_eigensystem(model, s).values)
        err = np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))
        t.add(err, f)
    return t.report("sheet_block_consistency", trials, 1e-10)


def _check_sheet_gradient_orthogonality(rng, trials):
    t = _Track()
    for _ in range(trials):
        f = random_f_admissible(rng)
        s = svd_mod.svd32(f)
        _, g2, _ = inv_mod.invariant_gradients(s, f)
        eig = inv_mod.invariant_eigensystem("I3", s)
        for slot in (2, 3, 4, 5):  # twist, flip, normal modes
            t.add(abs(float(np.sum(g2 * eig.matrices[slot]))), f)
    return t.report("sheet_gradient_orthogonality", trials, 1e-12)


def _check_sheet_spectrum_oracle(rng, trials):
    n = max(1, trials // 20)
    t = _Track()
    psi = _sheet_psi_fn(_MU)
    for _ in range(n):
        f = random_f_admissible(rng)
        s = svd_mod.svd32(f)
        analytic = np.sort(mod_mod.sheet_eigensystem(_MU, s).values)
        dense = orc_mod.fd_hessian6(psi, f, h=1e-4)
        oracle = orc_mod.jacobi_eigen_sym(dense).values
        # Weyl-normalized: small I3 blows the spectrum up to ~mu/I3^4 and
        # FD error rides the matrix norm, not individual eigenvalues.
        scale = max(1.0, float(np.max(np.abs(oracle))))
        t.add(np.max(np.abs(analytic - oracle)) / scale, f)
    return t.report("sheet_spectrum_oracle", n, 1e-4)


def _check_sheet_pairing(rng, trials):
    # The (beta + gamma, 4 I3) direction must carry the LARGER block
    # eigenvalue, checked against the dense oracle on the 2x2 block.
    t = _Track()
    model = mod_mod.NeoHookeanSheet(_MU)
    for _ in range(trials):
        f = random_f_admissible(rng)
        s = svd_mod.svd32(f)
        d = model.derivs(inv_mod.invariants(s))
        block = mod_mod._reduced_block(d, s.sigma[0], s.sigma[1])
        oracle = orc_mod.jacobi_eigen_sym(block)
        eig = mod_mod.sheet_eigensystem(_MU, s)
        lam_plus, lam_minus = eig.values[0], eig.values[1]
        # Coefficients of the first two eigenmatrices in the rotated frame.
        cp = s.u.T @ eig.matrices[0] @ s.v
        vp = np.array([cp[0, 0], cp[1, 1]])
        scale = max(1.0, abs(oracle.values[1]))
        err = max(
            abs(lam_plus - oracle.values[1]) / scale,
            abs(lam_minus - oracle.values[0]) / max(1.0, abs(oracle.values[0])),
            1.0 - abs(float(vp @ oracle.vectors[:, 1])),
        )
        t.add(err, f)
    return t.report("sheet_pairing", trials, 1e-8)


def _check_psd_projection(rng, trials):
    t = _Track()
    model = mod_mod.NeoHookeanSheet(_MU)
    for _ in range(trials):
        f = random_f_admissible(rng)
        s = svd_mod.svd32(f)
        eig = mod_mod.energy_eigensystem(model, s)
        proj = mod_mod.project_psd(eig)
        scale = max(1.0, float(np.max(np.abs(eig.values))))
        x = _unit_fdot(rng)
        quad = float(np.sum(x * proj.apply(x)))
        dense = proj.dense6()
        twice = mod_mod.project_psd(proj)
        min_eig = orc_mod.jacobi_eigen_sym(dense).values[0]
        err = max(
            max(0.0, -float(np.min(proj.values))),
            max(0.0, -quad) / scale,
            max(0.0, -min_eig) / scale,
            np.max(np.abs(dense - dense.T)),
            np.max(np.abs(twice.values - proj.values)) / scale,
        )
        t.add(err, f)
    return t.report("psd_projection", trials, 1e-10)


# ----------------------------------------------------------------- FEM checks


def _random_patch(rng, gravity=None):
    rest, tris = mesh_mod.grid_mesh(2, 2)
    model = mod_mod.NeoHookeanSheet(1.0)
    while True:
        x = rest.copy()
        x[:, 0] *= rng.uniform(0.85, 1.35)
        x[:, 1] *= rng.uniform(0.85, 1.35)
        x += 0.06 * rng.uniform(-1.0, 1.0, size=x.shape)
        free = fem_mod.make_problem(rest, tris, model)
        s1, s2 = svd_mod.svd32(fem_mod.deformation_gradients(free, x)).sigma
        if np.all((s2 >= 0.25) & (0.3 < s1 * s2) & (s1 * s2 < 3.0)):
            break
    # Three pinned corners kill the rigid orbit so minima are locally unique.
    problem = fem_mod.make_problem(
        rest, tris, model, pins={0: x[0], 2: x[2], 6: x[6]}, gravity=gravity
    )
    return problem, x


def _free_direction(rng, problem):
    mask = problem.pinned_dof_mask()
    d = rng.uniform(-1.0, 1.0, size=mask.size)
    d[mask] = 0.0
    return d / np.linalg.norm(d)


def _check_fem_gradient_fd(rng, trials):
    n = max(1, trials // 100)
    h = 1e-5
    t = _Track()
    for _ in range(n):
        problem, x = _random_patch(rng, gravity=(0.05, -0.02, -0.1))
        _, grad, _ = fem_mod.assemble(problem, x)
        mask = problem.pinned_dof_mask()
        flat = x.reshape(-1)
        for i in np.nonzero(~mask)[0]:
            xp = flat.copy()
            xm = flat.copy()
            xp[i] += h
            xm[i] -= h
            fd = (
                fem_mod.total_energy(problem, xp.reshape(-1, 3))
                - fem_mod.total_energy(problem, xm.reshape(-1, 3))
            ) / (2.0 * h)
            t.add(abs(fd - grad[i]))
    return t.report("fem_gradient_fd", n, 1e-5)


def _check_fem_directional_derivative(rng, trials):
    n = max(1, trials // 100)
    h = 1e-5
    t = _Track()
    for _ in range(n):
        problem, x = _random_patch(rng, gravity=(0.0, 0.0, -0.05))
        _, grad, _ = fem_mod.assemble(problem, x)
        d = _free_direction(rng, problem)
        ep = fem_mod.total_energy(problem, (x.reshape(-1) + h * d).reshape(-1, 3))
        em = fem_mod.total_energy(problem, (x.reshape(-1) - h * d).reshape(-1, 3))
        t.add(abs((ep - em) / (2.0 * h) - float(grad @ d)))
    return t.report("fem_directional_derivative", n, 1e-6)


def _check_fem_hessian_fd(rng, trials):
    n = max(1, trials // 100)
    h = 1e-5
    t = _Track()
    for _ in range(n):
        problem, x = _random_patch(rng)
        _, _, hess = fem_mod.assemble(problem, x, project=False)
        d = _free_direction(rng, problem)
        _, gp, _ = fem_mod.assemble(problem, (x.reshape(-1) + h * d).reshape(-1, 3))
        _, gm, _ = fem_mod.assemble(problem, (x.reshape(-1) - h * d).reshape(-1, 3))
        fd = (gp - gm) / (2.0 * h)
        t.add(np.max(np.abs(hess @ d - fd)))
    return t.report("fem_hessian_fd", n, 1e-4)


def _check_fem_descent(rng, trials):
    n = max(1, trials // 100)
    t = _Track()
    for _ in range(n):
        problem, x = _random_patch(rng)
        _, grad, hess = fem_mod.assemble(problem, x)
        if np.max(np.abs(grad)) <= 1e-8:
            continue
        d = fem_mod._newton_direction(hess, grad)
        t.add(max(0.0, float(grad @ d)) / max(1.0, float(grad @ grad)))
    return t.report("fem_descent", n, 1e-12)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def _check_fem_frame_objectivity(rng, trials):
    # Rest elements are 2D and frame free, so the rigidly moved problem is
    # the same problem with moved pin targets.
    n = max(1, trials // 500)
    t = _Track()
    for _ in range(n):
        problem, x = _random_patch(rng)
        rot = _random_rotation(rng)
        shift = rng.uniform(-1.0, 1.0, size=3)
        e1 = fem_mod.total_energy(problem, x)
        e2 = fem_mod.total_energy(problem, x @ rot.T + shift)
        t.add(abs(e1 - e2) / max(1.0, abs(e1)))
        moved = dataclasses.replace(
            problem, pin_targets=problem.pin_targets @ rot.T + shift
        )
        _, rep1 = fem_mod.newton_solve(problem, x)
        _, rep2 = fem_mod.newton_solve(moved, x @ rot.T + shift)
        ea = rep1.history[-1][1]
        eb = rep2.history[-1][1]
        t.add(abs(ea - eb) / max(1.0, abs(ea)))
    return t.report("fem_frame_objectivity", n, 1e-10)


# -------------------------------------------------------------- oracle checks


def _check_oracle_jacobi(rng, trials):
    n = max(1, trials // 10)
    t = _Track()
    for _ in range(n):
        a = rng.uniform(-2.0, 2.0, size=(6, 6))
        a = 0.5 * (a + a.T)
        spec = orc_mod.jacobi_eigen_sym(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        resid = a @ spec.vectors - spec.vectors * spec.values
        err = max(
            float(np.max(np.abs(resid))) / scale,
            float(np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(6)))),
            max(0.0, float(np.max(spec.values[:-1] - spec.values[1:]))),
        )
        t.add(err, a)
    return t.report("oracle_jacobi", n, 1e-10)


def _check_fd_convergence(rng, trials):
    n = min(trials, 50)
    steps = (1e-3, 5e-4, 2.5e-4)
    psi = _sheet_psi_fn(_MU)
    model = mod_mod.NeoHookeanSheet(_MU)
    worst = [0.0, 0.0, 0.0]
    for _ in range(n):
        f = random_f_admissible(rng, min_i3=0.3)
        s = svd_mod.svd32(f)
        g = mod_mod.energy_gradient(model, s, f)
        for k, h in enumerate(steps):
            fd = orc_mod.fd_gradient(psi, f, h=h)
            worst[k] = max(worst[k], float(np.max(np.abs(fd - g))))
    t = _Track()
    for k in range(2):
        ratio = worst[k] / worst[k + 1] if worst[k + 1] > 0.0 else 0.0
        t.add(max(0.0, 3.0 - ratio, ratio - 5.0))
    return t.report("fd_convergence", n, 1e-12)


_CHECKS = (
    _check_svd_reconstruction,
    _check_svd_conventions,
    _check_svd_rate_consistency,
    _check_svd_rate_prediction,
    _check_svd_inplane_normal,
    _check_invariant_values,
    _check_invariant_gradients_fd,
    _check_invariant_hvp_fd,
    _check_invariant_hvp_i2_exact,
    _check_invariant_hvp_linearity,
    _check_invariant_hvp_symmetry,
    _check_eigen_unit_norm,
    _check_eigen_orthogonality,
    _check_eigen_residual,
    _check_eigen_reconstruction,
    _check_i1_null_space,
    _check_eigen_padding,
    _check_eigen_spectrum_oracle,
    _check_sheet_operator_identity,
    _check_sheet_reduced_block,
    _check_sheet_eigen_reconstruction,
    _check_sheet_block_consistency,
    _check_sheet_gradient_orthogonality,
    _check_sheet_spectrum_oracle,
    _check_sheet_pairing,
    _check_psd_projection,
    _check_fem_gradient_fd,
    _check_fem_directional_derivative,
    _check_fem_hessian_fd,
    _check_fem_descent,
    _check_fem_frame_objectivity,
    _check_oracle_jacobi,
    _check_fd_convergence,
)


def run_checks(seed=42, trials=1000):
    """Run every documented property check on seeded random inputs.

    Returns a list of CheckReport in fixed registry order.  Each check draws
    from its own RNG substream spawned from ``seed``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    children = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    return [
        fn(np.random.default_rng(child), trials)
        for fn, child in zip(_CHECKS, children)
    ]
