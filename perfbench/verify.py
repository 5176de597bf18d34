"""Correctness checks on the program's outputs.

Each check returns a list of failure messages (empty when it passes).  The
scene checks compare against ``reference.py`` or against properties the
method must have; none compares against a stored copy of earlier output.
"""

import json
from pathlib import Path

import numpy as np

import reference
import scenes

# The program's final energy and the reference energy sum the same terms in
# another order; this is a few hundred ulps of the summed magnitudes.
ENERGY_RTOL = 1e-12
# Roundoff allowance on top of the scene's absolute gradient tolerance.
GRADIENT_SLACK = 1e-12
# The 180-degree symmetry holds to the solver's convergence floor.
SYMMETRY_TOL = 1e-8
# Relative to max(1, |lambda|max): the finite-difference Hessian with
# h = 1e-4 agrees with the closed forms to about 1e-7 on these Fs.
SPECTRUM_RTOL = 1e-5


class Solution:
    """A solved scene: the returned positions and report, plus what the
    solve wrote to ``output_dir``."""

    def __init__(self, spec, positions, report, output_dir):
        self.spec = spec
        self.positions = np.asarray(positions, dtype=float)
        self.report = report
        self.output_dir = Path(output_dir)


def check_converged(sol):
    if sol.report.termination != "converged":
        return [f"termination is {sol.report.termination!r}, not 'converged'"]
    return []


def check_energy(sol, rest, tris):
    dm_inv, area = reference.rest_frames(rest, tris)
    elastic, load = reference.energy_terms(
        sol.positions, tris, dm_inv, area, scenes.MU, sol.spec.gravity
    )
    program = sol.report.history[-1][1]
    scale = abs(elastic) + abs(load)
    if abs(program - (elastic - load)) > ENERGY_RTOL * max(1.0, scale):
        return [f"final energy {program!r} != reference {elastic - load!r}"]
    return []


def check_gradient(sol, rest, tris):
    dm_inv, area = reference.rest_frames(rest, tris)
    g = reference.gradient(
        sol.positions, tris, dm_inv, area, scenes.MU, sol.spec.gravity
    )
    free = np.ones(len(g), dtype=bool)
    free[list(scenes.pins(sol.spec, rest))] = False
    worst = float(np.max(np.abs(g[free])))
    if worst > scenes.TOL + GRADIENT_SLACK:
        return [f"reference |g|inf on free dofs is {worst:.3e} > tol {scenes.TOL}"]
    return []


def check_pins(sol, rest):
    bad = [
        v for v, t in scenes.pins(sol.spec, rest).items()
        if not np.array_equal(sol.positions[v], t)
    ]
    return [f"pinned vertices off target: {bad[:5]}"] if bad else []


def check_history(sol):
    energies = [row[1] for row in sol.report.history]
    out = []
    rises = [k for k in range(1, len(energies)) if energies[k] > energies[k - 1]]
    if rises:
        out.append(f"energy increases at iterations {rises[:5]}")
    if not energies[-1] < energies[0]:
        out.append(f"final energy {energies[-1]!r} not below start {energies[0]!r}")
    return out


def check_symmetry(sol):
    x = sol.positions
    turned = np.column_stack([1.0 - x[:, 0], 1.0 - x[:, 1], x[:, 2]])
    err = float(np.max(np.abs(x[scenes.rotation_partner(sol.spec.n)] - turned)))
    if err > SYMMETRY_TOL:
        return [f"180-degree symmetry broken by {err:.3e}"]
    return []


def check_stretch_shape(sol):
    x = sol.positions
    out = []
    if np.any(x[:, 2] != 0.0):
        out.append(f"stretch left the plane: max |z| = {np.max(np.abs(x[:, 2])):.3e}")
    n = sol.spec.n
    mid = x[[n // 2 + j * (n + 1) for j in range(n + 1)], 1]
    width = float(mid.max() - mid.min())
    if not width < 1.0:
        out.append(f"mid column did not narrow: width {width!r}")
    return out


def check_drape_shape(sol):
    top = float(np.max(sol.positions[:, 2]))
    return [f"a vertex sits above z = 0 (z = {top!r})"] if top > 0.0 else []


def check_outputs(sol):
    """The files the solve wrote agree with what it returned."""
    rep = sol.report
    out = []
    last = sol.output_dir / f"frame_{rep.iterations:04d}.obj"
    if not last.is_file():
        return [f"missing final frame {last.name}"]
    if not np.array_equal(scenes.read_obj_positions(last), sol.positions):
        out.append(f"{last.name} differs from the returned positions")
    with open(sol.output_dir / "report.json", "r", encoding="utf-8") as fh:
        written = json.load(fh)
    if (written.get("termination"), written.get("iterations")) != (
        rep.termination, rep.iterations
    ):
        out.append("report.json disagrees with the returned report")
    return out


def check_solution(sol):
    """Every scene check; the shape check matches the scene's load."""
    rest, tris = scenes.grid(sol.spec.n)
    out = check_converged(sol)
    out += check_energy(sol, rest, tris)
    out += check_gradient(sol, rest, tris)
    out += check_pins(sol, rest)
    out += check_history(sol)
    out += check_symmetry(sol)
    if any(sol.spec.gravity):
        out += check_drape_shape(sol)
    else:
        out += check_stretch_shape(sol)
    out += check_outputs(sol)
    return out


def check_reports(reports):
    """Every CheckReport of run_checks passes."""
    if not reports:
        return ["run_checks returned no reports"]
    return [
        f"check {r.name} failed: max_error {r.max_error!r} > tol {r.tol!r}"
        for r in reports if not r.passed
    ]


def check_spectra(fs, spectra):
    """Closed-form spectra (any order) against eigvalsh of the reference
    finite-difference Hessian at the same Fs."""
    out = []
    for k, (f, values) in enumerate(zip(fs, spectra)):
        expect = reference.fd_spectrum(f, scenes.MU)
        got = np.sort(np.asarray(values, dtype=float))
        err = float(np.max(np.abs(got - expect)))
        if err > SPECTRUM_RTOL * max(1.0, float(np.max(np.abs(expect)))):
            out.append(f"spectrum {k} differs from the reference by {err:.3e}")
    return out
