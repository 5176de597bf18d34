"""Quasi-static membrane finite elements over triangle meshes.

Each triangle stores a 2D rest frame: an orthonormal tangent basis (t1, t2)
of the rest plane turns the rest edge matrix into an invertible 2x2 Dm, and
the deformed 3x2 gradient of a linear element is

    F = [x1 - x0 | x2 - x0] @ Dm^-1.

Total energy is sum_e area_e * psi(F_e) minus an optional constant
per-vertex force term.  The Newton solver uses analytically projected
element Hessians (eigenvalues clamped at zero before the 9x9 pullback), a
sparse factorization with a Tikhonov fallback, and Armijo backtracking that
treats model DomainErrors from trial states as step rejections.  A step
that no halving can make decrease the energy ends the solve as converged
when the Newton decrement is at the roundoff floor of the energy.

Pinned vertices are held at their targets by replacing their rows and
columns of the system with identity and zeroing their gradient entries.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .invariants import DegenerateHessian, invariant_gradients, invariants
from .models import DomainError, project_psd, _assemble_eigensystem
from .svd import svd32

__all__ = [
    "AREA_EPS",
    "DegenerateTriangle",
    "LineSearchFailed",
    "LinearSolveFailed",
    "RestElement",
    "MembraneProblem",
    "NewtonConfig",
    "SolveReport",
    "build_rest_elements",
    "element_deformation_gradient",
    "make_problem",
    "assemble",
    "total_energy",
    "newton_solve",
]

AREA_EPS = 1e-12


class DegenerateTriangle(ValueError):
    """A rest triangle has (near-)zero area."""

    def __init__(self, element, area):
        self.element = element
        self.area = area
        super().__init__(f"rest triangle {element} is degenerate (area {area})")


class LineSearchFailed(RuntimeError):
    """Backtracking could not find an admissible decreasing step."""


class LinearSolveFailed(RuntimeError):
    """The Newton system could not be factorized even with regularization."""


@dataclass(frozen=True, eq=False)
class RestElement:
    """One triangle's rest data: vertex indices, inverse rest edge matrix
    in the local tangent frame, and rest area."""

    indices: tuple
    dm_inv: np.ndarray
    area: float


@dataclass(frozen=True, eq=False)
class MembraneProblem:
    """A membrane: rest elements, material model, pins, external load.

    ``pin_vertices``/``pin_targets`` give Dirichlet constraints (the whole
    vertex is held).  ``gravity`` is a constant per-vertex force f adding
    energy -f . x_v for every vertex.  ``mu_scale``, if given, multiplies
    element energy densities (a per-element stiffness override).
    """

    n_vertices: int
    elements: tuple
    model: object
    pin_vertices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    pin_targets: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    gravity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mu_scale: np.ndarray = None

    def pinned_dof_mask(self):
        mask = np.zeros(3 * self.n_vertices, dtype=bool)
        for v in self.pin_vertices:
            mask[3 * v : 3 * v + 3] = True
        return mask

    def apply_pins(self, positions):
        out = np.array(positions, dtype=float)
        out[self.pin_vertices] = self.pin_targets
        return out


@dataclass(frozen=True)
class NewtonConfig:
    """Projected-Newton parameters: stop when max|g| <= ``tol``, or after
    ``max_iters`` Newton steps."""

    tol: float = 1e-8
    max_iters: int = 100


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solve trace: per-iteration (iteration, energy, grad_norm, step)
    rows, total Newton iterations, and why the loop stopped."""

    iterations: int
    history: tuple
    termination: str

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "termination": self.termination,
            "history": [
                {
                    "iteration": it,
                    "energy": energy,
                    "grad_norm": grad_norm,
                    "step": step,
                }
                for (it, energy, grad_norm, step) in self.history
            ],
        }


def build_rest_elements(rest_positions, triangles):
    """Per-triangle rest frames from rest positions.

    Raises DegenerateTriangle if a rest area is at or below AREA_EPS.
    """
    rest_positions = np.asarray(rest_positions, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    elements = []
    for ei, (a, b, c) in enumerate(triangles):
        e1 = rest_positions[b] - rest_positions[a]
        e2 = rest_positions[c] - rest_positions[a]
        n = np.cross(e1, e2)
        area = 0.5 * float(np.linalg.norm(n))
        if area <= AREA_EPS:
            raise DegenerateTriangle(ei, area)
        t1 = e1 / np.linalg.norm(e1)
        t2 = np.cross(n / (2.0 * area), t1)
        dm = np.array([[t1 @ e1, t1 @ e2], [t2 @ e1, t2 @ e2]])
        det = dm[0, 0] * dm[1, 1] - dm[0, 1] * dm[1, 0]
        dm_inv = np.array(
            [[dm[1, 1], -dm[0, 1]], [-dm[1, 0], dm[0, 0]]]
        ) / det
        elements.append(
            RestElement(indices=(int(a), int(b), int(c)), dm_inv=dm_inv, area=area)
        )
    return tuple(elements)


def make_problem(
    rest_positions,
    triangles,
    model,
    pins=None,
    gravity=None,
    mu_scale=None,
):
    """Convenience constructor: build rest elements and validate pins.

    ``pins`` maps vertex index -> target position (dict or iterable of
    (vertex, target) pairs).
    """
    rest_positions = np.asarray(rest_positions, dtype=float)
    elements = build_rest_elements(rest_positions, triangles)
    n = len(rest_positions)
    if pins:
        items = pins.items() if isinstance(pins, dict) else list(pins)
        pv = np.array([int(v) for v, _ in items], dtype=int)
        pt = np.array([np.asarray(t, dtype=float) for _, t in items])
        if len(np.unique(pv)) != len(pv):
            raise ValueError("duplicate pinned vertex")
        if pv.size and (pv.min() < 0 or pv.max() >= n):
            raise ValueError("pinned vertex index out of range")
        if not np.all(np.isfinite(pt)):
            raise ValueError("non-finite pin target")
    else:
        pv = np.zeros(0, dtype=int)
        pt = np.zeros((0, 3))
    g = np.zeros(3) if gravity is None else np.asarray(gravity, dtype=float)
    ms = None if mu_scale is None else np.asarray(mu_scale, dtype=float)
    if ms is not None and len(ms) != len(elements):
        raise ValueError("mu_scale length must match the element count")
    return MembraneProblem(
        n_vertices=n,
        elements=elements,
        model=model,
        pin_vertices=pv,
        pin_targets=pt,
        gravity=g,
        mu_scale=ms,
    )


def element_deformation_gradient(elem, x0, x1, x2):
    """Deformation gradient of one linear triangle element (3x2)."""
    ds = np.column_stack([np.asarray(x1, float) - x0, np.asarray(x2, float) - x0])
    return ds @ elem.dm_inv


def _element_state(problem, ei, positions):
    elem = problem.elements[ei]
    a, b, c = elem.indices
    f = element_deformation_gradient(elem, positions[a], positions[b], positions[c])
    svd = svd32(f)
    try:
        d = problem.model.derivs(invariants(svd))
    except DomainError as err:
        raise DomainError(f"element {ei}: {err}", element=ei) from err
    if problem.mu_scale is not None:
        d = d.scaled(float(problem.mu_scale[ei]))
    return elem, f, svd, d


def _dof_jacobian(elem):
    # Rows: row-major vec(F); columns: element dofs (x0, x1, x2) * (x, y, z).
    dm = elem.dm_inv
    j = np.zeros((6, 9))
    for i in range(3):
        for col in range(2):
            r = 2 * i + col
            j[r, 3 + i] = dm[0, col]
            j[r, 6 + i] = dm[1, col]
            j[r, i] = -(dm[0, col] + dm[1, col])
    return j


def total_energy(problem, positions):
    """Total energy at given positions (no gradient or Hessian)."""
    positions = np.asarray(positions, dtype=float)
    energy = 0.0
    for ei in range(len(problem.elements)):
        elem, _, _, d = _element_state(problem, ei, positions)
        energy += elem.area * d.psi
    if problem.gravity.any():
        energy -= float(positions.sum(axis=0) @ problem.gravity)
    return energy


def assemble(problem, positions, project=True):
    """Energy, gradient, and sparse Hessian at given positions.

    Element Hessians are the closed-form eigensystems, eigenvalue-clamped
    when ``project`` is true, pulled back to the 9 vertex coordinates.
    Pinned degrees of freedom get zero gradient entries and identity
    rows/columns.

    Returns
    -------
    (energy, gradient, hessian) : (float, (3N,) ndarray, (3N, 3N) csr_matrix)
    """
    positions = np.asarray(positions, dtype=float)
    n = problem.n_vertices
    if positions.shape != (n, 3):
        raise ValueError(f"positions must be ({n}, 3), got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions have non-finite entries")

    energy = 0.0
    grad = np.zeros(3 * n)
    rows, cols, vals = [], [], []
    for ei in range(len(problem.elements)):
        elem, f, svd, d = _element_state(problem, ei, positions)
        energy += elem.area * d.psi

        g1, g2, g3 = invariant_gradients(svd, f)
        p = d.f1 * g1 + d.f2 * g2 + d.f3 * g3
        j = _dof_jacobian(elem)
        ge = elem.area * (j.T @ p.reshape(6))

        try:
            eig = _assemble_eigensystem(d, svd)
        except DegenerateHessian as err:
            raise DegenerateHessian(f"element {ei}: {err}", svd.sigma) from err
        if project:
            h6 = project_psd(eig).dense6()
        else:
            h6 = eig.dense6()
        he = elem.area * (j.T @ h6 @ j)

        dofs = np.array(
            [3 * v + k for v in elem.indices for k in range(3)], dtype=int
        )
        grad[dofs] += ge
        rr, cc = np.meshgrid(dofs, dofs, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(he.ravel())

    if problem.gravity.any():
        energy -= float(positions.sum(axis=0) @ problem.gravity)
        grad -= np.tile(problem.gravity, n)

    mask = problem.pinned_dof_mask()
    grad[mask] = 0.0
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        keep = ~(mask[rows] | mask[cols])
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    else:
        rows = np.zeros(0, dtype=int)
        cols = np.zeros(0, dtype=int)
        vals = np.zeros(0)
    pinned = np.nonzero(mask)[0]
    rows = np.concatenate([rows, pinned])
    cols = np.concatenate([cols, pinned])
    vals = np.concatenate([vals, np.ones(len(pinned))])
    hess = sp.coo_matrix((vals, (rows, cols)), shape=(3 * n, 3 * n)).tocsr()
    return energy, grad, hess


_TIKHONOV_TAUS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

# Backtracking line search: Armijo sufficient-decrease constant, step
# factor per rejection, and rejections allowed per Newton step.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_HALVINGS = 30
# Roundoff floor of the Newton decrement -g.d, relative to max(1, |E|):
# below it no trial energy can be told apart from the current one.
_DECREMENT_FLOOR = 16.0 * float(np.finfo(float).eps)


def _newton_direction(hess, grad):
    rhs = -grad
    attempts = [None] + list(_TIKHONOV_TAUS)
    for tau in attempts:
        h = hess if tau is None else hess + tau * sp.identity(hess.shape[0], format="csr")
        try:
            d = spla.splu(h.tocsc()).solve(rhs)
        except RuntimeError:
            continue
        if np.all(np.isfinite(d)) and grad @ d <= 0.0:
            return d
    raise LinearSolveFailed(
        "sparse factorization failed for every Tikhonov shift up to 1e-2"
    )


def newton_solve(problem, x0, config=None, callback=None):
    """Minimize the membrane energy by projected Newton with backtracking.

    Parameters
    ----------
    problem : MembraneProblem
    x0 : (N, 3) array_like
        Initial positions; pinned vertices are snapped to their targets.
    config : NewtonConfig, optional
    callback : callable, optional
        Called as callback(iteration, positions) at the initial state
        (iteration 0) and after each accepted step.

    Returns
    -------
    (positions, report) : ((N, 3) ndarray, SolveReport)
        ``report.termination`` is "converged" when max|g| <= tol, or when
        no step decreases the energy and the Newton decrement -g.d is at
        the roundoff floor of |E|; otherwise "max_iters".

    Raises
    ------
    LineSearchFailed
        If the initial state is inadmissible or backtracking exhausts its
        halvings without an admissible decreasing step above the roundoff
        floor.
    LinearSolveFailed
        If the Newton system cannot be factorized even with regularization.
    """
    cfg = config or NewtonConfig()
    x = problem.apply_pins(np.asarray(x0, dtype=float))
    history = []
    last_step = 0.0
    termination = "max_iters"
    iterations = 0
    for it in range(cfg.max_iters + 1):
        try:
            energy, grad, hess = assemble(problem, x)
        except DomainError as err:
            if it == 0:
                raise LineSearchFailed(
                    f"initial configuration is inadmissible: {err}"
                ) from err
            raise  # accepted states were admissible; re-raise loudly
        grad_norm = float(np.max(np.abs(grad))) if grad.size else 0.0
        history.append((it, float(energy), grad_norm, last_step))
        if callback is not None:
            callback(it, x.copy())
        iterations = it
        if grad_norm <= cfg.tol:
            termination = "converged"
            break
        if it == cfg.max_iters:
            termination = "max_iters"
            break

        d = _newton_direction(hess, grad)
        gd = float(grad @ d)
        step = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            trial = x + step * d.reshape(-1, 3)
            try:
                e_trial = total_energy(problem, trial)
            except DomainError:
                e_trial = None  # inadmissible trial state: reject
            if (
                e_trial is not None
                and e_trial < energy
                and e_trial <= energy + _ARMIJO_C * step * gd
            ):
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            if -gd <= _DECREMENT_FLOOR * max(1.0, abs(energy)):
                termination = "converged"
                break
            raise LineSearchFailed(
                f"no admissible decreasing step after {_MAX_HALVINGS} "
                f"halvings at iteration {it}"
            )
        x = trial
        last_step = step
    return x, SolveReport(
        iterations=iterations, history=tuple(history), termination=termination
    )
