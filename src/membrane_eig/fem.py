"""Quasi-static membrane finite elements over triangle meshes.

Each triangle stores a 2D rest frame: an orthonormal tangent basis (t1, t2)
of the rest plane turns the rest edge matrix into an invertible 2x2 Dm, and
the deformed 3x2 gradient of a linear element is

    F = [x1 - x0 | x2 - x0] @ Dm^-1.

Total energy is sum_e area_e * psi(F_e) minus an optional constant
per-vertex force term.  The Newton solver uses analytically projected
element Hessians (eigenvalues clamped at zero before the 9x9 assembly), one
symmetric-mode sparse LU factorization of H + tau I per step, with
minimum-degree ordering on A + A^T and diagonal pivots (clamping leaves H
singular, as at flat rest; tau is 1e-8 / 6 of the largest eigenvalue of
the model's rest-state Hessian, so 1e-8 mu for the sheet), and Armijo
backtracking that treats model DomainErrors from trial states as step
rejections.  A step that no halving can make decrease the energy ends the
solve as converged when the Newton decrement is at the roundoff floor of
the energy.

Pinned vertices are held at their targets by replacing their rows and
columns of the system with identity and zeroing their gradient entries.

Array layout.  A problem with E triangles keeps its rest data as arrays
built once by ``make_problem``: ``elements`` (E, 3) vertex indices,
``dm_inv`` (E, 2, 2), ``area`` (E,), the vertex weights B (E, 3, 2) with
F = sum_v x_v B[v]^T over an element's vertices (x0, x1, x2), the
pinned-dof mask, and the Hessian's CSR sparsity pattern with the CSR slot
of each of the E * 81 element entries.  Pins hold whole vertices, so that
is the pattern of the E * 9 vertex pairs with each pair expanded to a 3x3
block, built by arithmetic on their ``np.unique``; a pinned vertex's rows
hold only their diagonal entry.  ``total_energy`` and
``assemble`` then run every kernel once over all elements: F (E, 3, 2),
the invariants (I2 = |F|^2, I3 = |f1 x f2|, I1 = sqrt(I2 + 2 I3), so no
SVD is needed for the energy), one ``model.derivs`` call on (E,) arrays,
and in ``assemble`` one stacked ``svd32`` and one stacked eigensystem,
left in the SVD's rotated frame.  Both element terms come from R^T J, the
map from an element's nine vertex coordinates to vec(U^T F V): there
d psi / dF is pad(p1, p2), the principal stresses, so the gradient is
area (p1, p2) on rows (0, 0) and (1, 1) of R^T J, and each eigenmatrix is
Q_i = U C_i V^T for a fixed pattern C_i, so the Hessian is
G^T diag(area lambda) G with G = C (R^T J).  Nothing is lifted.  Both are
summed into place with ``np.bincount``.  ``total_energy`` also takes a
(K, N, 3) stack of states and runs the same kernels once over all K * E
elements, each state's energy bitwise equal to its single-state call.

Loading.  This module, like the package, imports numpy only: scipy.sparse
and scipy.sparse.linalg load at the first ``assemble`` or
``_newton_direction`` call (so at the first ``newton_solve`` or
``solve_scene``), or when ``fem.sp`` or ``fem.spla`` is first read, and
stay bound as those module globals.
"""

from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .invariants import Invariants, _pack, _slot_coeffs
from .models import DomainError, _principal_stresses, _rotated_eigensystem
from .models import energy_eigensystem
from .svd import _require_finite, svd32

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


def _load_scipy():
    """Bind scipy.sparse and scipy.sparse.linalg to this module's globals
    ``sp`` and ``spla``, unless a sparse call has bound them already.  They
    stay module globals, looked up at each call, so that a caller can
    replace ``fem.spla`` (or patch ``fem.spla.splu``) after the load."""
    global sp, spla
    if "spla" not in globals():
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla


def __getattr__(name):
    # ``fem.sp`` and ``fem.spla`` read before the first sparse call.
    if name in ("sp", "spla"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DegenerateTriangle(ValueError):
    """A rest triangle has (near-)zero area."""

    def __init__(self, element, area):
        self.element = element
        self.area = area
        super().__init__(f"rest triangle {element} is degenerate (area {area})")


class LineSearchFailed(RuntimeError):
    """Backtracking could not find an admissible decreasing step."""


class LinearSolveFailed(RuntimeError):
    """The shifted Newton system could not be factorized, or its solution is
    not a finite descent direction."""


@dataclass(frozen=True, eq=False)
class _HessianPattern:
    """CSR structure of the assembled Hessian.  ``slots`` gives, for each
    of the E * 81 element entries in (element, row, column) order, its
    index in the CSR data, or ``nnz`` for an entry in a pinned row or
    column; ``diag_slots`` are the pinned dofs' diagonal entries.  Slots
    are intp, so that ``np.bincount`` takes them without a converted copy."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    diag_slots: np.ndarray

    @property
    def nnz(self):
        return len(self.indices)


def _hessian_pattern(elements, pinned, index):
    """The ``_HessianPattern`` of (E, 3) ``elements`` with the (N,) ``pinned``
    vertex mask (see the module docstring), its CSR arrays of dtype ``index``."""
    n = pinned.size
    k = np.arange(3, dtype=index)
    # The E * 9 vertex pairs in (element, row vertex, column vertex) order;
    # a pair with a pinned vertex gets a key past every kept one.
    keys = np.repeat(elements, 3, axis=1).astype(np.int64).ravel() * n
    keys += np.tile(elements, 3).ravel()
    drop = pinned[elements]
    keys[(np.repeat(drop, 3, axis=1) | np.tile(drop, 3)).ravel()] = n * n
    uniq, inverse = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(uniq[: np.searchsorted(uniq, n * n)], n)
    degree = np.bincount(rows, minlength=n)
    width = 3 * degree + pinned  # entries in each of a vertex's 3 rows
    indptr = np.zeros(3 * n + 1, dtype=index)
    np.cumsum(np.repeat(width, 3), out=indptr[1:])
    start, nnz = indptr[:-1:3], int(indptr[-1])
    # Entry (k, l) of pair p's block, the j-th pair of its row vertex v,
    # sits at start[v] + k width[v] + 3 j + l; a dropped pair's at nnz.
    j = np.arange(rows.size) - (np.cumsum(degree) - degree)[rows]
    block = np.full((rows.size + 1, 3, 3), nnz, dtype=np.intp)
    block[:-1] = (start[rows] + 3 * j + width[rows] * k[:, None]).T[:, :, None] + k
    indices = np.empty(nnz, dtype=index)
    indices[block[:-1]] = 3 * cols[:, None, None] + k
    pv = np.flatnonzero(pinned)
    diag_slots = (start[pv, None] + k).ravel()
    indices[diag_slots] = (3 * pv[:, None] + k).ravel()
    slots = block[inverse.reshape(-1, 3, 3)].transpose(0, 1, 3, 2, 4).ravel()
    return _HessianPattern(indptr, indices, slots, diag_slots)


@dataclass(frozen=True, eq=False)
class MembraneProblem:
    """A membrane: rest elements, material model, pins, external load.

    ``elements`` (E, 3) holds each triangle's vertex indices, ``dm_inv``
    (E, 2, 2) its inverse rest edge matrix in the local tangent frame and
    ``area`` (E,) its rest area.  ``pin_vertices``/``pin_targets`` give
    Dirichlet constraints (the whole vertex is held).  ``gravity`` is a
    constant per-vertex force f adding energy -f . x_v for every vertex.

    The private fields are derived from those on construction, and again
    by ``dataclasses.replace``: the vertex weights B (E, 3, 2), whose row v
    gives vertex v's weights in the two columns of F, the pinned-dof mask,
    each element's dof indices and the Hessian's CSR pattern.
    """

    n_vertices: int
    elements: np.ndarray
    dm_inv: np.ndarray
    area: np.ndarray
    model: object
    pin_vertices: np.ndarray
    pin_targets: np.ndarray
    gravity: np.ndarray
    _weights: np.ndarray = field(init=False, repr=False)
    _pinned: np.ndarray = field(init=False, repr=False)
    _dofs: np.ndarray = field(init=False, repr=False)
    _pattern: _HessianPattern = field(init=False, repr=False)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        dm = self.dm_inv
        put("_weights", np.stack([-(dm[:, 0] + dm[:, 1]), dm[:, 0], dm[:, 1]], axis=1))
        pinned = np.zeros(self.n_vertices, dtype=bool)
        pinned[self.pin_vertices] = True
        put("_pinned", np.repeat(pinned, 3))
        # 32-bit dof indices where every CSR index fits, as scipy would
        # choose: they halve the pattern's memory and spare a conversion on
        # every assembly.
        size = 3 * pinned.size + 81 * len(self.elements)
        index = np.int32 if size < 2**31 else np.int64
        dofs = (3 * self.elements[:, :, None] + np.arange(3)).reshape(-1, 9).astype(index)
        put("_dofs", dofs)
        put("_pattern", _hessian_pattern(self.elements, pinned, index))

    def pinned_dof_mask(self):
        return self._pinned.copy()

    def apply_pins(self, positions):
        out = np.array(positions, dtype=float)
        out[self.pin_vertices] = self.pin_targets
        return out


def _require_int(name, value, least):
    """Raise ValueError unless ``value`` is an integer >= ``least`` (a bool
    is not)."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class NewtonConfig:
    """Projected-Newton parameters: stop when max|g| <= ``tol`` (a finite
    number >= 0, not a bool), or after ``max_iters`` (an integer >= 0, not a
    bool) Newton steps."""

    tol: float = 1e-8
    max_iters: int = 100

    def __post_init__(self):
        # No gradient meets a NaN tol, every one meets an infinite tol, and
        # tol = 0 ends at the roundoff floor.
        _require_finite("tol", self.tol, zero_ok=True)
        _require_int("max_iters", self.max_iters, 0)


class Iterate(NamedTuple):
    """One row of a solve trace: the state at the start of a Newton
    iteration, and the step that led to it (0.0 at iteration 0)."""

    iteration: int
    energy: float
    grad_norm: float
    step: float


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solve trace: one ``Iterate`` row per iteration, total Newton
    iterations, and why the loop stopped."""

    iterations: int
    history: tuple
    termination: str

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "termination": self.termination,
            "history": [dict(zip(Iterate._fields, row)) for row in self.history],
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


def _pin_vertex(k, v):
    """Pin ``k``'s vertex ``v`` as an int, or ValueError if it is a bool or
    not a whole number."""
    if not isinstance(v, (bool, np.bool_)):
        try:
            if v == int(v):
                return int(v)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"pin {k} has vertex {v!r}, not an integer index")


def _as_floats(x, message):
    """``x`` as a float array, or ValueError(message) for an int that no
    float holds (beyond about 1.8e308)."""
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:
        raise ValueError(message) from None


def make_problem(rest_positions, triangles, model, pins=None, gravity=None):
    """Build a problem's rest data and validate its pins and loads.

    ``pins`` maps vertex index -> target position (dict or iterable of
    (vertex, target) pairs); each target and ``gravity`` (a force on every
    vertex) are 3 finite numbers.  Raises ValueError on malformed input,
    naming the first triangle or pin with a bool, fractional or string
    vertex index and the first triangle with a vertex index outside
    [0, N), for an int that no float or index holds, and when gravity is
    nonzero and an unpinned vertex is in no triangle.
    """
    rest_positions = np.asarray(rest_positions, dtype=float)
    shape = rest_positions.shape
    if len(shape) != 2 or shape[1] != 3 or not np.all(np.isfinite(rest_positions)):
        raise ValueError("rest positions must be a finite (N, 3) array")
    elements = np.asarray(triangles)
    kind = elements.dtype.kind
    if kind in "bfUS":  # bools, fractions and strings would cast silently
        rows = elements.reshape(-1, 3)
        if kind != "f":
            bad = np.arange(len(rows))
        else:
            whole = np.isfinite(rows) & (rows == np.trunc(rows))
            bad = np.flatnonzero(~whole.all(axis=1))
        if bad.size:
            raise ValueError(
                f"triangle {bad[0]} has vertex indices {rows[bad[0]].tolist()}, "
                "not integers"
            )
    elements = elements.reshape(-1, 3)
    n = len(rest_positions)
    # Range first: an index beyond the int range would overflow the cast.
    bad = np.flatnonzero(((elements < 0) | (elements >= n)).any(axis=1))
    if bad.size:
        raise ValueError(f"triangle {bad[0]} has a vertex index outside [0, {n})")
    elements = elements.astype(int)
    dm_inv, area = _rest_frames(rest_positions, elements)
    if pins:
        items = pins.items() if isinstance(pins, dict) else list(pins)
        # Python ints, checked before the cast that a huge index would overflow.
        pv = [_pin_vertex(k, v) for k, (v, _) in enumerate(items)]
        if len(set(pv)) != len(pv):
            raise ValueError("duplicate pinned vertex")
        if not all(0 <= v < n for v in pv):
            raise ValueError("pinned vertex index out of range")
        pv = np.array(pv, dtype=int)
        bad_target = "each pin target must be 3 finite numbers"
        pt = np.array([_as_floats(t, bad_target) for _, t in items])
        if pt.shape != (len(pv), 3) or not np.all(np.isfinite(pt)):
            raise ValueError(bad_target)
    else:
        pv = np.zeros(0, dtype=int)
        pt = np.zeros((0, 3))
    bad_gravity = "gravity must be 3 finite numbers"
    g = np.zeros(3) if gravity is None else _as_floats(gravity, bad_gravity)
    if g.shape != (3,) or not np.all(np.isfinite(g)):
        raise ValueError(bad_gravity)
    loose = np.ones(n, dtype=bool)
    loose[elements] = loose[pv] = False
    if g.any() and loose.any():  # nothing would hold it against the load
        raise ValueError(f"vertex {np.argmax(loose)} is in no triangle and not pinned")
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
    """Deformation gradients of every element, (E, 3, 2), or (K, E, 3, 2)
    for a (K, N, 3) stack of positions."""
    x = np.asarray(positions, dtype=float)
    t = problem.elements
    x0 = x.take(t[:, 0], axis=-2)
    e1 = (x.take(t[:, 1], axis=-2) - x0)[..., None]
    e2 = (x.take(t[:, 2], axis=-2) - x0)[..., None]
    dm = problem.dm_inv
    return e1 * dm[:, None, 0, :] + e2 * dm[:, None, 1, :]


def _element_derivs(problem, positions):
    """F (E, 3, 2) and the model's derivatives at every element's
    invariants, or, for a (K, N, 3) stack of positions, F (K * E, 3, 2)
    and (K * E,) derivatives.  ``total_energy`` and ``assemble`` both take
    their energy from here, so the line search compares bitwise-consistent
    values."""
    f = deformation_gradients(problem, positions).reshape(-1, 3, 2)
    i2 = np.einsum("eij,eij->e", f, f)
    # |f1 x f2| written out component by component, as svd32 does, and
    # summed in the order np.einsum("ek,ek->e") takes for three terms (its
    # two-lane loop), so I3 is bitwise what the einsum of np.cross gives.
    (a0, b0), (a1, b1), (a2, b2) = f.transpose(1, 2, 0)
    n0, n1, n2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    i3 = np.sqrt((n0 * n0 + n2 * n2) + n1 * n1)
    return f, problem.model.derivs(Invariants(i1=np.sqrt(i2 + 2.0 * i3), i2=i2, i3=i3))


def _energy(problem, positions, psi):
    """The total energy of one (N, 3) state, a float, or the (K,) energies
    of a (K, N, 3) stack of states.  Each state's two sums are dot products
    of its own: matmul takes one dot per member of a stack of vector pairs,
    as ``area @ psi`` takes one."""
    area = problem.area
    energy = (psi.reshape(-1, 1, area.size) @ area[:, None]).ravel()
    if problem.gravity.any():
        load = positions.reshape(-1, problem.n_vertices, 3).sum(axis=1)
        energy -= (load[:, None] @ problem.gravity[:, None]).ravel()
    return energy if positions.ndim == 3 else float(energy[0])


def _positions(problem, positions, stack=False):
    """``positions`` as a float array, or ValueError if it is not a finite
    (N, 3) array for the problem's N vertices or, where ``stack`` is true,
    a finite (K, N, 3) stack of them."""
    positions = np.asarray(positions, dtype=float)
    n = problem.n_vertices
    if positions.shape[-2:] != (n, 3) or not 2 <= positions.ndim <= 2 + stack:
        shapes = f"({n}, 3) or a stack (K, {n}, 3)" if stack else f"({n}, 3)"
        raise ValueError(f"positions must be {shapes}, got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions have non-finite entries")
    return positions


def total_energy(problem, positions):
    """Total energy at given positions (no gradient or Hessian): a float for
    one (N, 3) state, or a (K,) array for a (K, N, 3) stack of K states,
    each entry bitwise equal to the call on that state alone.  The element
    kernels run once over all K * E elements.  Raises ValueError unless
    ``positions`` is a finite (N, 3) array or stack of them, and the
    model's DomainError if some state has an inadmissible element; for a
    stack, its ``element`` is the flat index k * E + e of element e of
    state k."""
    positions = _positions(problem, positions, stack=True)
    _, d = _element_derivs(problem, positions)
    return _energy(problem, positions, d.psi)


def _element_terms(problem, d, svd, project):
    """Element gradients (E, 9) and Hessians (E, 9, 9) over the nine vertex
    coordinates, at the derivatives ``d`` and decompositions ``svd``.

    Both come from R^T J, U[e, k, a] (B V)[e, v, b] in row (a, b) and
    column (v, k): the gradient is area times the principal stresses
    (p1, p2) on rows (0, 0) and (1, 1), and the Hessian is
    G^T diag(area lambda) G with G = C (R^T J), lambda clamped at zero when
    ``project`` is true.  R^T J is formed component-major, (a, b, v, k, E),
    as svd32 works, so each product is one pass over all elements."""
    values, va, vb = _rotated_eigensystem(d, svd)
    lam = _pack(values)
    if project:
        lam = np.maximum(lam, 0.0)
    uc = np.ascontiguousarray(svd.u.transpose(2, 1, 0))
    bvc = np.ascontiguousarray((problem._weights @ svd.v).transpose(2, 1, 0))
    rtj = (uc[:, None, None] * bvc[None, :, :, None]).reshape(54, -1).T.reshape(-1, 6, 9)
    area = problem.area[:, None]
    p1, p2 = _principal_stresses(d, *svd.sigma)
    ge = area * (p1[:, None] * rtj[:, 0] + p2[:, None] * rtj[:, 3])
    g = _slot_coeffs(va, vb).reshape(-1, 6, 6) @ rtj
    return ge, np.swapaxes(g, 1, 2) @ ((area * lam)[:, :, None] * g)


def assemble(problem, positions, project=True):
    """Energy, gradient, and sparse Hessian at given positions.

    Element Hessians are the closed-form eigensystems, eigenvalue-clamped
    when ``project`` is true, taken to the 9 vertex coordinates.
    Pinned degrees of freedom get zero gradient entries and identity
    rows/columns.

    Returns
    -------
    (energy, gradient, hessian) : (float, (3N,) ndarray, (3N, 3N) csr_matrix)
    """
    positions = _positions(problem, positions)
    n = problem.n_vertices
    f, d = _element_derivs(problem, positions)
    energy = _energy(problem, positions, d.psi)
    ge, he = _element_terms(problem, d, svd32(f), project)

    grad = np.bincount(problem._dofs.ravel(), weights=ge.ravel(), minlength=3 * n)
    if problem.gravity.any():
        grad -= np.tile(problem.gravity, n)
    grad[problem._pinned] = 0.0

    _load_scipy()
    pattern = problem._pattern
    data = np.bincount(pattern.slots, weights=he.ravel(), minlength=pattern.nnz + 1)
    data = data[: pattern.nnz]
    data[pattern.diag_slots] = 1.0
    hess = sp.csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(3 * n, 3 * n)
    )
    return energy, grad, hess


# Backtracking line search: Armijo sufficient-decrease constant, step
# factor per rejection, and rejections allowed per Newton step.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_HALVINGS = 30
# Roundoff floor of the Newton decrement -g.d, relative to max(1, |E|):
# below it no trial energy can be told apart from the current one.
_DECREMENT_FLOOR = 16.0 * float(np.finfo(float).eps)


def _tikhonov_shift(model):
    """The Newton system's shift: 1e-8 / 6 of the largest eigenvalue of
    ``model``'s rest-state Hessian, so it scales with the stiffness.  For
    the sheet that eigenvalue is 6 mu, and the shift is 1e-8 mu."""
    rest = energy_eigensystem(model, svd32(np.eye(3, 2)))
    return (1e-8 / 6.0) * float(np.max(rest.values))


def _shifted_csc(hess, tau):
    """H + tau I as a CSC matrix, from the CSR arrays of a symmetric H whose
    every nonempty row holds its diagonal entry, as an assembled Hessian's
    does.  The CSR arrays of H are the CSC arrays of H^T = H, so nothing is
    converted.  An empty row, a dof of a free vertex in no triangle, gets a
    diagonal entry tau of its own, so the shift reaches every dof."""
    n = hess.shape[0]
    indptr, indices = hess.indptr, hess.indices
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n, dtype=indices.dtype), counts)
    data = hess.data.copy()
    data[np.flatnonzero(indices == rows)] += tau
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        at = indptr[empty]
        data = np.insert(data, at, tau)
        indices = np.insert(indices, at, empty)
        indptr = indptr + np.searchsorted(empty, np.arange(n + 1)).astype(indptr.dtype)
    return sp.csc_matrix((data, indices, indptr), shape=(n, n))


def _newton_direction(hess, grad, tau):
    """Solve (H + tau I) d = -g with one symmetric-mode sparse LU
    factorization: minimum-degree ordering on A + A^T, applied to rows and
    columns alike, and pivots taken on the diagonal, as suits a symmetric
    positive definite A.  ``hess`` is an assembled Hessian (see
    ``_shifted_csc``).  Raises LinearSolveFailed if the factorization fails
    or d is not a finite descent direction."""
    _load_scipy()
    try:
        lu = spla.splu(
            _shifted_csc(hess, tau),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:
        raise LinearSolveFailed(f"sparse factorization failed: {err}") from err
    d = lu.solve(-grad)
    if not np.all(np.isfinite(d)):
        raise LinearSolveFailed("the Newton direction is not finite")
    if grad @ d > 0.0:
        raise LinearSolveFailed("the Newton direction is not a descent direction")
    return d


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
        If the shifted Newton system H + tau I cannot be factorized, or its
        solution is not a finite descent direction; there is no retry.
    """
    cfg = config or NewtonConfig()
    tau = _tikhonov_shift(problem.model)
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
        history.append(Iterate(it, float(energy), grad_norm, last_step))
        if callback is not None:
            callback(it, x.copy())
        iterations = it
        if grad_norm <= cfg.tol:
            termination = "converged"
            break
        if it == cfg.max_iters:
            termination = "max_iters"
            break

        d = _newton_direction(hess, grad, tau)
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
