"""Quasi-static membrane finite elements over triangle meshes.

Each triangle stores a 2D rest frame: an orthonormal tangent basis (t1, t2)
of the rest plane turns the rest edge matrix into an invertible 2x2 Dm, and
the deformed 3x2 gradient of a linear element is

    F = [x1 - x0 | x2 - x0] @ Dm^-1.

Total energy is sum_e area_e * psi(F_e) minus an optional constant
per-vertex force term.  The Newton solver uses analytically projected
element Hessians (eigenvalues clamped at zero before the 9x9 pullback), a
sparse LU factorization of H + tau I (clamping leaves H singular, as at
flat rest; tau = 1e-8, raised tenfold up to 1e-2 while factoring fails),
and Armijo backtracking that treats model DomainErrors from trial states
as step rejections.  A step that no halving can make decrease the energy
ends the solve as converged when the Newton decrement is at the roundoff
floor of the energy.

Pinned vertices are held at their targets by replacing their rows and
columns of the system with identity and zeroing their gradient entries.

Array layout.  A problem with E triangles keeps its rest data as arrays
built once by ``make_problem``: ``elements`` (E, 3) vertex indices,
``dm_inv`` (E, 2, 2), ``area`` (E,), the pullback (E, 6, 9) from an
element's nine vertex coordinates (x0, x1, x2, each xyz) to row-major
vec(F), the pinned-dof mask, and the Hessian's CSR sparsity pattern with
the CSR slot of each of the E * 81 element entries.  ``total_energy`` and
``assemble`` then run every kernel once over all elements: F (E, 3, 2),
the invariants (I2 = |F|^2, I3 = |f1 x f2|, I1 = sqrt(I2 + 2 I3), so no
SVD is needed for the energy), one ``model.derivs`` call on (E,) arrays,
and in ``assemble`` one stacked ``svd32``, one stacked eigensystem and its
projection.  Element Hessians are formed as G^T diag(area lambda) G with
G = Q J, where the rows of Q (6x6) are the flattened eigenmatrices and J
is the pullback, and are summed into the CSR pattern with ``np.bincount``.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .invariants import Invariants
from .models import DomainError, _assemble_eigensystem, _stress, project_psd
from .svd import svd32

__all__ = [
    "make_problem",
    "newton_solve",
    "assemble",
    "total_energy",
    "NewtonConfig",
    "DegenerateTriangle",
    "LineSearchFailed",
    "LinearSolveFailed",
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
class _HessianPattern:
    """CSR structure of the assembled Hessian.  ``slots`` gives, for each
    of the E * 81 element entries in (element, row, column) order, its
    index in the CSR data, or ``nnz`` for an entry in a pinned row or
    column; ``diag_slots`` are the pinned dofs' diagonal entries."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    diag_slots: np.ndarray

    @property
    def nnz(self):
        return len(self.indices)


def _hessian_pattern(dofs, pinned):
    ndof = pinned.size
    rows = np.repeat(dofs, 9, axis=1).ravel()
    cols = np.tile(dofs, (1, 9)).ravel()
    keep = ~(pinned[rows] | pinned[cols])
    diag = np.flatnonzero(pinned)
    keys = np.concatenate(
        [rows[keep].astype(np.int64) * ndof + cols[keep], diag * (ndof + 1)]
    )
    del rows, cols
    uniq, inverse = np.unique(keys, return_inverse=True)
    del keys
    kept = np.count_nonzero(keep)
    slots = np.full(keep.size, len(uniq), dtype=dofs.dtype)
    slots[keep] = inverse[:kept]
    indptr = np.zeros(ndof + 1, dtype=dofs.dtype)
    np.cumsum(np.bincount(uniq // ndof, minlength=ndof), out=indptr[1:])
    return _HessianPattern(
        indptr=indptr,
        indices=(uniq % ndof).astype(dofs.dtype),
        slots=slots,
        diag_slots=inverse[kept:],
    )


@dataclass(frozen=True, eq=False)
class MembraneProblem:
    """A membrane: rest elements, material model, pins, external load.

    ``elements`` (E, 3) holds each triangle's vertex indices, ``dm_inv``
    (E, 2, 2) its inverse rest edge matrix in the local tangent frame and
    ``area`` (E,) its rest area.  ``pin_vertices``/``pin_targets`` give
    Dirichlet constraints (the whole vertex is held).  ``gravity`` is a
    constant per-vertex force f adding energy -f . x_v for every vertex.

    The remaining fields are derived from those on construction, and again
    by ``dataclasses.replace``: ``pullback`` (E, 6, 9) maps an element's
    nine vertex coordinates to row-major vec(F), and the private fields
    hold the pinned-dof mask, each element's dof indices and the Hessian's
    CSR pattern.
    """

    n_vertices: int
    elements: np.ndarray
    dm_inv: np.ndarray
    area: np.ndarray
    model: object
    pin_vertices: np.ndarray
    pin_targets: np.ndarray
    gravity: np.ndarray
    pullback: np.ndarray = field(init=False)
    _pinned: np.ndarray = field(init=False, repr=False)
    _dofs: np.ndarray = field(init=False, repr=False)
    _pattern: _HessianPattern = field(init=False, repr=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        # J[e, 2 i + c, 3 v + k] = delta_ik B[e, v, c], where row v of B
        # gives vertex v's weights in column c of F.
        dm = self.dm_inv
        b = np.stack([-(dm[:, 0, :] + dm[:, 1, :]), dm[:, 0, :], dm[:, 1, :]], axis=1)
        j = np.zeros((len(dm), 3, 2, 3, 3))
        for i in range(3):
            j[:, i, :, :, i] = b.transpose(0, 2, 1)
        put("pullback", j.reshape(-1, 6, 9))
        pinned = np.zeros(3 * self.n_vertices, dtype=bool)
        pinned[(3 * self.pin_vertices[:, None] + np.arange(3)).ravel()] = True
        put("_pinned", pinned)
        # 32-bit dof indices where every CSR index fits, as scipy would
        # choose: they halve the pattern's memory and spare a conversion on
        # every assembly.
        size = pinned.size + 81 * len(self.elements)
        index = np.int32 if size < 2**31 else np.int64
        dofs = (3 * self.elements[:, :, None] + np.arange(3)).reshape(-1, 9).astype(index)
        put("_dofs", dofs)
        put("_pattern", _hessian_pattern(dofs, pinned))

    def pinned_dof_mask(self):
        return self._pinned.copy()

    def apply_pins(self, positions):
        out = np.array(positions, dtype=float)
        out[self.pin_vertices] = self.pin_targets
        return out


@dataclass(frozen=True)
class NewtonConfig:
    """Projected-Newton parameters: stop when max|g| <= ``tol`` (>= 0), or
    after ``max_iters`` (>= 0) Newton steps."""

    tol: float = 1e-8
    max_iters: int = 100

    def __post_init__(self):
        # No gradient meets a NaN tol; tol = 0 ends at the roundoff floor.
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


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


def _rest_frames(rest_positions, elements):
    """Inverse rest edge matrices (E, 2, 2) and rest areas (E,).

    Raises DegenerateTriangle, naming the first such triangle, if a rest
    area is at or below AREA_EPS.
    """
    p = rest_positions[elements]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    n = np.cross(e1, e2)
    area = 0.5 * np.sqrt(np.einsum("ek,ek->e", n, n))
    bad = np.flatnonzero(area <= AREA_EPS)
    if bad.size:
        raise DegenerateTriangle(int(bad[0]), float(area[bad[0]]))
    t1 = e1 / np.sqrt(np.einsum("ek,ek->e", e1, e1))[:, None]
    t2 = np.cross(n / (2.0 * area)[:, None], t1)
    d00 = np.einsum("ek,ek->e", t1, e1)
    d01 = np.einsum("ek,ek->e", t1, e2)
    d10 = np.einsum("ek,ek->e", t2, e1)
    d11 = np.einsum("ek,ek->e", t2, e2)
    det = d00 * d11 - d01 * d10
    dm_inv = np.stack([d11, -d01, -d10, d00], axis=-1).reshape(-1, 2, 2)
    return dm_inv / det[:, None, None], area


def make_problem(rest_positions, triangles, model, pins=None, gravity=None):
    """Build a problem's rest data and validate its pins and loads.

    ``pins`` maps vertex index -> target position (dict or iterable of
    (vertex, target) pairs); each target and ``gravity`` (a force on every
    vertex) are 3 finite numbers.  Raises ValueError on malformed input.
    """
    rest_positions = np.asarray(rest_positions, dtype=float)
    elements = np.array(triangles, dtype=int).reshape(-1, 3)
    dm_inv, area = _rest_frames(rest_positions, elements)
    n = len(rest_positions)
    if pins:
        items = pins.items() if isinstance(pins, dict) else list(pins)
        pv = np.array([int(v) for v, _ in items], dtype=int)
        pt = np.array([np.asarray(t, dtype=float) for _, t in items])
        if len(np.unique(pv)) != len(pv):
            raise ValueError("duplicate pinned vertex")
        if pv.size and (pv.min() < 0 or pv.max() >= n):
            raise ValueError("pinned vertex index out of range")
        if pt.shape != (len(pv), 3) or not np.all(np.isfinite(pt)):
            raise ValueError("each pin target must be 3 finite numbers")
    else:
        pv = np.zeros(0, dtype=int)
        pt = np.zeros((0, 3))
    g = np.zeros(3) if gravity is None else np.asarray(gravity, dtype=float)
    if g.shape != (3,) or not np.all(np.isfinite(g)):
        raise ValueError("gravity must be 3 finite numbers")
    return MembraneProblem(
        n_vertices=n,
        elements=elements,
        dm_inv=dm_inv,
        area=area,
        model=model,
        pin_vertices=pv,
        pin_targets=pt,
        gravity=g,
    )


def deformation_gradients(problem, positions):
    """Deformation gradients of every element, (E, 3, 2)."""
    x = np.asarray(positions, dtype=float)
    t = problem.elements
    x0 = x[t[:, 0]]
    e1 = (x[t[:, 1]] - x0)[:, :, None]
    e2 = (x[t[:, 2]] - x0)[:, :, None]
    dm = problem.dm_inv
    return e1 * dm[:, None, 0, :] + e2 * dm[:, None, 1, :]


def _element_derivs(problem, positions):
    """F (E, 3, 2) and the model's derivatives at every element's
    invariants.  ``total_energy`` and ``assemble`` both take their energy
    from here, so the line search compares bitwise-consistent values."""
    f = deformation_gradients(problem, positions)
    i2 = np.einsum("eij,eij->e", f, f)
    n = np.cross(f[:, :, 0], f[:, :, 1])
    i3 = np.sqrt(np.einsum("ek,ek->e", n, n))
    return f, problem.model.derivs(Invariants(i1=np.sqrt(i2 + 2.0 * i3), i2=i2, i3=i3))


def _energy(problem, positions, psi):
    energy = float(problem.area @ psi)
    if problem.gravity.any():
        energy -= float(positions.sum(axis=0) @ problem.gravity)
    return energy


def total_energy(problem, positions):
    """Total energy at given positions (no gradient or Hessian)."""
    positions = np.asarray(positions, dtype=float)
    _, d = _element_derivs(problem, positions)
    return _energy(problem, positions, d.psi)


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

    f, d = _element_derivs(problem, positions)
    energy = _energy(problem, positions, d.psi)
    svd = svd32(f)
    area = problem.area
    jac = problem.pullback
    p = _stress(d, svd, f).reshape(-1, 1, 6)
    ge = area[:, None] * (p @ jac)[:, 0, :]

    eig = _assemble_eigensystem(d, svd)
    if project:
        eig = project_psd(eig)
    g = eig.matrices.reshape(-1, 6, 6) @ jac
    he = np.swapaxes(g, 1, 2) @ ((area[:, None] * eig.values)[:, :, None] * g)

    grad = np.bincount(problem._dofs.ravel(), weights=ge.ravel(), minlength=3 * n)
    if problem.gravity.any():
        grad -= np.tile(problem.gravity, n)
    grad[problem._pinned] = 0.0

    pattern = problem._pattern
    data = np.bincount(pattern.slots, weights=he.ravel(), minlength=pattern.nnz + 1)
    data = data[: pattern.nnz]
    data[pattern.diag_slots] = 1.0
    hess = sp.csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(3 * n, 3 * n)
    )
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
    eye = sp.identity(hess.shape[0], format="csr")
    for tau in _TIKHONOV_TAUS:
        try:
            d = spla.splu((hess + tau * eye).tocsc()).solve(rhs)
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
        # Only x0 can be inadmissible: accepted steps passed total_energy.
        try:
            energy, grad, hess = assemble(problem, x)
        except DomainError as err:
            raise LineSearchFailed(
                f"initial configuration is inadmissible: {err}"
            ) from err
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
