"""Triangle membrane elements, assembly, and the projected-Newton solver."""

import dataclasses
import types

import numpy as np
import pytest

import membrane_eig as me
from membrane_eig import checks, fem, models

from conftest import build_stretch_scene

UNIT_TRIANGLE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
TRI = [[0, 1, 2]]


def five_triangle_patch():
    rest, tris = me.grid_mesh(2, 1)  # 6 vertices, 4 triangles
    extra = np.array([[1.25, 0.9, 0.0]])
    rest = np.vstack([rest, extra])
    tris = np.vstack([tris, [[2, 6, 5]]])
    return rest, tris


def test_rest_elements_unit_triangle():
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    assert problem.elements.shape == (1, 3)
    assert problem.elements[0].tolist() == [0, 1, 2]
    assert problem.area[0] == 0.5
    assert np.array_equal(problem.dm_inv[0], np.eye(2))


def test_rest_elements_frame_invariant_area():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = UNIT_TRIANGLE @ q.T + np.array([3.0, -2.0, 5.0])
    problem = me.make_problem(moved, TRI, me.NeoHookeanSheet(1.0))
    assert problem.area[0] == pytest.approx(0.5, abs=1e-14)
    det = np.linalg.det(problem.dm_inv[0])
    assert abs(abs(det) - 1.0) < 1e-12


def test_rest_elements_degenerate_triangle():
    collinear = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(me.DegenerateTriangle) as exc:
        me.make_problem(collinear, TRI, me.NeoHookeanSheet(1.0))
    assert exc.value.element == 0
    # With two degenerate triangles the lower index is named.
    rest, tris = five_triangle_patch()
    rest[6] = rest[2]  # collapses triangle 4 = (2, 6, 5)
    rest[3] = 2.0 * rest[4]  # puts triangle 1 = (0, 4, 3) on a line
    with pytest.raises(me.DegenerateTriangle) as exc:
        me.make_problem(rest, tris, me.NeoHookeanSheet(1.0))
    assert exc.value.element == 1


def test_deformation_gradient_rest_and_stretch():
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    f = fem.deformation_gradients(problem, UNIT_TRIANGLE)
    assert f.shape == (1, 3, 2)
    assert np.array_equal(f[0], np.eye(3)[:, :2])
    f2 = fem.deformation_gradients(problem, 2.0 * UNIT_TRIANGLE)
    assert np.array_equal(f2[0], 2.0 * np.eye(3)[:, :2])


def test_total_energy_single_triangle_stretch():
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    assert me.total_energy(problem, UNIT_TRIANGLE) == 0.0
    assert me.total_energy(problem, 2.0 * UNIT_TRIANGLE) == pytest.approx(
        1.265625, abs=1e-14
    )


def test_total_energy_gravity_term():
    gravity = np.array([0.0, 0.0, -2.0])
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), gravity=gravity)
    base = me.total_energy(problem, UNIT_TRIANGLE)
    assert base == pytest.approx(-float(UNIT_TRIANGLE.sum(axis=0) @ gravity), abs=1e-15)


def test_make_problem_validation():
    with pytest.raises(ValueError):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins=[(0, [0, 0, 0]), (0, [1, 1, 1])])
    with pytest.raises(ValueError):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins={5: [0, 0, 0]})
    with pytest.raises(ValueError):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins={0: [np.nan, 0, 0]})
    with pytest.raises(ValueError):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins={0: [0, 0]})
    for gravity in ([0.0, -1.0], [0.0, 0.0, np.nan], [[0.0, 0.0, -1.0]], [0, 0, 10**400]):
        with pytest.raises(ValueError):
            me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), gravity=gravity)
    # An int that no float or index holds is malformed input.
    with pytest.raises(ValueError, match="pin target"):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins={0: [10**400, 0, 0]})
    with pytest.raises(ValueError, match="pinned vertex index out of range"):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins={10**400: [0, 0, 0]})
    # No gradient meets a NaN or negative tolerance, and every gradient
    # meets an infinite one; 0 is the roundoff floor.
    for tol in (np.nan, -1e-8, np.inf, 10**400, -(10**400)):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            me.NewtonConfig(tol=tol)
    assert me.NewtonConfig(tol=0.0).tol == 0.0
    assert me.NewtonConfig(tol=0).tol == 0
    outside = r"triangle 1 has a vertex index outside \[0, 3\)"
    for bad in ([0, 1, -1], [0, 3, 2], [2**40, 0, 1], [0, 1, 10**400], [0, 1, 2**63]):
        with pytest.raises(ValueError, match=outside):
            me.make_problem(UNIT_TRIANGLE, [TRI[0], bad], me.NeoHookeanSheet(1.0))
    # A NaN rest vertex would give a NaN area, which passes the area floor;
    # an (N, 2) array would fail inside the rest-frame arithmetic.
    for rest in (UNIT_TRIANGLE * np.nan, UNIT_TRIANGLE[:, :2]):
        with pytest.raises(ValueError, match=r"finite \(N, 3\) array"):
            me.make_problem(rest, TRI, me.NeoHookeanSheet(1.0))


@pytest.mark.parametrize(
    "tris, first",
    [
        ([[0.7, 1, 2]], 0),
        ([TRI[0], [0.0, 1.0, np.nan]], 1),
        ([[True, False, True]], 0),
        ([["0", "1", "2"]], 0),
    ],
)
def test_make_problem_rejects_fractional_and_bool_triangles(tris, first):
    # Cast to int, [0.7, 1, 2] would have become [0, 1, 2].
    with pytest.raises(ValueError, match=f"triangle {first} has vertex indices .* not integers"):
        me.make_problem(UNIT_TRIANGLE, tris, me.NeoHookeanSheet(1.0))


@pytest.mark.parametrize("vertex", [1.9, True, np.True_, np.nan, "1"])
def test_make_problem_rejects_fractional_and_bool_pins(vertex):
    # Cast to int, 1.9 and True would both have pinned vertex 1.
    pins = [(0, UNIT_TRIANGLE[0]), (vertex, UNIT_TRIANGLE[1])]
    with pytest.raises(ValueError, match="pin 1 has vertex .* not an integer index"):
        me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins=pins)


def test_make_problem_takes_whole_float_and_numpy_indices():
    problem = me.make_problem(
        UNIT_TRIANGLE,
        np.array([[0.0, 1.0, 2.0]]),
        me.NeoHookeanSheet(1.0),
        pins=[(np.int32(0), UNIT_TRIANGLE[0]), (2.0, UNIT_TRIANGLE[2])],
    )
    assert problem.elements.dtype == int and problem.elements.tolist() == TRI
    assert problem.pin_vertices.tolist() == [0, 2]


def test_fem_serves_sp_and_spla_and_no_other_name():
    import scipy.sparse
    import scipy.sparse.linalg

    assert fem.spla is scipy.sparse.linalg
    assert fem.sp is scipy.sparse
    # Module globals, which a caller can replace: fem looks them up per call.
    assert vars(fem)["spla"] is scipy.sparse.linalg
    with pytest.raises(AttributeError, match="no_such_name"):
        fem.no_such_name


@pytest.mark.parametrize("max_iters", [2.5, True, "3"])
def test_newton_config_max_iters_must_be_an_integer(max_iters):
    for bad in (max_iters, -1):
        with pytest.raises(ValueError, match="max_iters"):
            me.NewtonConfig(max_iters=bad)
    assert me.NewtonConfig(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("tol", [True, False, np.True_, np.False_])
def test_newton_config_tol_must_not_be_a_bool(tol):
    # As in a scene file, where "tol": true is not a number.
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        me.NewtonConfig(tol=tol)


def test_total_energy_checks_positions_like_assemble():
    rest, tris = me.grid_mesh(2, 2)
    gravity = [0.0, 0.0, -1.0]
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), gravity=gravity)
    assert me.total_energy(problem, rest) == 0.0
    # A tenth row would otherwise enter the load term, and NaN the energy.
    for bad, why in (
        (np.vstack([rest, [0.0, 0.0, 100.0]]), r"positions must be \(9, 3\)"),
        (np.full_like(rest, np.nan), "non-finite"),
    ):
        for fn in (me.total_energy, me.assemble):
            with pytest.raises(ValueError, match=why):
                fn(problem, bad)


@pytest.mark.parametrize("gravity", [None, (0.05, -0.02, -0.1)])
def test_total_energy_on_a_stack_equals_single_calls_bitwise(gravity):
    rest, tris = me.grid_mesh(5, 4)
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.3), gravity=gravity)
    rng = np.random.default_rng(48)
    for k in (1, 2, 36):
        x = 1.2 * rest + 0.05 * rng.uniform(-1.0, 1.0, size=(k,) + rest.shape)
        energy = me.total_energy(problem, x)
        assert energy.shape == (k,)
        for member, e in zip(x, energy):
            assert np.float64(me.total_energy(problem, member)).tobytes() == e.tobytes()
    assert me.total_energy(problem, np.zeros((0,) + rest.shape)).shape == (0,)


def test_total_energy_checks_a_stack_of_positions():
    rest, tris = me.grid_mesh(2, 2)
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0))
    x = np.stack([rest, rest, rest])
    x[1, 4, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        me.total_energy(problem, x)
    for bad in (x[:, :8], x[..., :2], x[None], rest[0]):
        with pytest.raises(ValueError, match=r"positions must be \(9, 3\) or a stack"):
            me.total_energy(problem, bad)
    # assemble takes one state only.
    with pytest.raises(ValueError, match=r"positions must be \(9, 3\), got"):
        me.assemble(problem, np.stack([rest, rest]))
    # A collapsed element names its flat index over the stack's elements.
    x[1] = rest
    x[2, 4] = x[2, 0]
    with pytest.raises(me.DomainError) as exc:
        me.total_energy(problem, x)
    assert exc.value.element // len(problem.elements) == 2


def test_pin_mask_and_apply():
    problem = me.make_problem(
        UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0), pins={1: [5.0, 6.0, 7.0]}
    )
    mask = problem.pinned_dof_mask()
    assert np.array_equal(np.nonzero(mask)[0], [3, 4, 5])
    snapped = problem.apply_pins(UNIT_TRIANGLE)
    assert np.array_equal(snapped[1], [5.0, 6.0, 7.0])
    assert np.array_equal(snapped[0], UNIT_TRIANGLE[0])


def test_assemble_pinned_rows_are_identity():
    rest, tris = five_triangle_patch()
    x = rest * np.array([1.1, 0.95, 1.0])
    problem = me.make_problem(
        rest, tris, me.NeoHookeanSheet(1.0), pins={0: x[0], 3: x[3]}
    )
    _, grad, hess = me.assemble(problem, x)
    mask = problem.pinned_dof_mask()
    assert np.all(grad[mask] == 0.0)
    dense = hess.toarray()
    for i in np.nonzero(mask)[0]:
        row = np.zeros(dense.shape[0])
        row[i] = 1.0
        assert np.array_equal(dense[i], row)
        assert np.array_equal(dense[:, i], row)
    sym_err = np.max(np.abs(dense - dense.T))
    assert sym_err < 1e-12


def dof_key_pattern(dofs, pinned):
    """The Hessian's CSR pattern built from the E * 81 dof-pair keys: the
    construction that the vertex-pair one replaced, kept as its oracle."""
    ndof = pinned.size
    rows = np.repeat(dofs, 9, axis=1).ravel()
    cols = np.tile(dofs, (1, 9)).ravel()
    keep = ~(pinned[rows] | pinned[cols])
    diag = np.flatnonzero(pinned)
    keys = np.concatenate(
        [rows[keep].astype(np.int64) * ndof + cols[keep], diag * (ndof + 1)]
    )
    uniq, inverse = np.unique(keys, return_inverse=True)
    kept = np.count_nonzero(keep)
    slots = np.full(keep.size, len(uniq), dtype=dofs.dtype)
    slots[keep] = inverse[:kept]
    indptr = np.zeros(ndof + 1, dtype=dofs.dtype)
    np.cumsum(np.bincount(uniq // ndof, minlength=ndof), out=indptr[1:])
    return {
        "indptr": indptr,
        "indices": (uniq % ndof).astype(dofs.dtype),
        "slots": slots,
        "diag_slots": inverse[kept:],
    }


def taut_grid(n, stretch, every_boundary=False):
    """An n x n grid and pins at ``stretch`` on its left and right columns
    (or on every boundary vertex)."""
    rest, tris = me.grid_mesh(n, n)
    i, j = np.arange(len(rest)) % (n + 1), np.arange(len(rest)) // (n + 1)
    edge = (i == 0) | (i == n) | (every_boundary & ((j == 0) | (j == n)))
    target = rest * [stretch, 1.0, 1.0] - [(stretch - 1.0) / 2.0, 0.0, 0.0]
    return rest, tris, {int(v): target[v] for v in np.flatnonzero(edge)}


def shuffled(rest, tris, pins, seed=0):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rest))  # new vertex k is old vertex order[k]
    new_index = np.argsort(order)
    tris = np.roll(new_index[tris][rng.permutation(len(tris))], 1, axis=1)
    return rest[order], tris, {int(new_index[v]): t for v, t in pins.items()}


def with_loose_vertex(rest, tris, pins, pinned):
    rest = np.vstack([rest, [[2.0, 2.0, 0.0]]])
    return rest, tris, ({**pins, len(rest) - 1: rest[-1]} if pinned else pins)


PATTERN_CASES = {
    "stretch": lambda: taut_grid(14, 1.5),
    "drape": lambda: taut_grid(20, 1.4),
    "shuffled": lambda: shuffled(*taut_grid(6, 1.3)),
    "no_pins": lambda: taut_grid(5, 1.0)[:2] + ({},),
    "every_boundary_vertex_pinned": lambda: taut_grid(5, 1.2, every_boundary=True),
    "loose_vertex_free": lambda: with_loose_vertex(*taut_grid(4, 1.2), pinned=False),
    "loose_vertex_pinned": lambda: with_loose_vertex(*taut_grid(4, 1.2), pinned=True),
}


@pytest.mark.parametrize("case", list(PATTERN_CASES))
def test_hessian_pattern_matches_dof_key_construction(case):
    rest, tris, pins = PATTERN_CASES[case]()
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins)
    expected = dof_key_pattern(problem._dofs, problem._pinned)
    index = problem._dofs.dtype
    for name, want in expected.items():
        got = getattr(problem._pattern, name)
        assert np.array_equal(got, want), name
        # The dof-key slots are index-typed, and its diag_slots are a slice
        # of np.unique's intp inverse.  Now the slots are intp, the type
        # np.bincount takes, and diag_slots are index-typed like indices.
        assert got.dtype == (np.intp if name == "slots" else index), name
    # diag_slots must not be a view that keeps a larger array alive.
    diag = problem._pattern.diag_slots
    base = diag
    while base.base is not None:
        base = base.base
        assert base.nbytes <= diag.nbytes


@pytest.mark.parametrize("pinned", [False, True])
def test_vertex_in_no_triangle_has_empty_or_identity_rows(pinned):
    rest, tris, pins = with_loose_vertex(*taut_grid(4, 1.2), pinned=pinned)
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins)
    x = problem.apply_pins(rest)
    _, grad, hess = me.assemble(problem, x)
    # Its rows hold no entry when it is free, and only a 1 on the diagonal
    # when it is pinned.
    assert np.diff(hess.indptr)[-3:].tolist() == ([1, 1, 1] if pinned else [0, 0, 0])
    assert np.array_equal(hess.toarray()[-3:], np.eye(len(x) * 3)[-3:] * pinned)
    assert np.all(grad[-3:] == 0.0)
    # With no load such a vertex has no force on it, and the solve leaves
    # it where it started.
    x_end, report = me.newton_solve(problem, x)
    assert report.termination == "converged"
    assert np.array_equal(x_end[-1], x[-1])


@pytest.mark.parametrize("case", list(PATTERN_CASES) + ["loose_vertex_inside"])
def test_shifted_system_is_shifted_on_every_dof(case):
    # _shifted_csc reads H's CSR arrays as CSC arrays, that is as H^T, adds
    # tau to each stored diagonal entry, and gives an empty row (a free
    # vertex in no triangle, here also one numbered between others) an
    # entry tau of its own.
    if case == "loose_vertex_inside":
        loose = with_loose_vertex(*taut_grid(4, 1.2), pinned=False)
        rest, tris, pins = shuffled(*loose, seed=3)
    else:
        rest, tris, pins = PATTERN_CASES[case]()
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins)
    x = problem.apply_pins(rest)
    x = x + 0.01 * np.random.default_rng(1).standard_normal(x.shape)
    _, _, hess = me.assemble(problem, problem.apply_pins(x))
    shifted = fem._shifted_csc(hess, 1e-3)
    assert shifted.format == "csc"
    want = hess.T.toarray() + 1e-3 * np.eye(hess.shape[0])
    assert np.array_equal(shifted.toarray(), want)


def test_gravity_on_a_vertex_in_no_triangle_is_rejected():
    rest, tris, pins = with_loose_vertex(*taut_grid(4, 1.2), pinned=False)
    loose = len(rest) - 1
    with pytest.raises(ValueError, match=f"vertex {loose} is in no triangle"):
        me.make_problem(
            rest, tris, me.NeoHookeanSheet(1.0), pins=pins, gravity=[0.0, 0.0, -0.01]
        )
    # Pinned, the same vertex is held, and the solve sags the sheet only.
    pins[loose] = rest[loose]
    problem = me.make_problem(
        rest, tris, me.NeoHookeanSheet(1.0), pins=pins, gravity=[0.0, 0.0, -0.01]
    )
    x, report = me.newton_solve(problem, problem.apply_pins(rest))
    assert report.termination == "converged"
    assert np.array_equal(x[loose], rest[loose])


def test_assemble_validates_positions():
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    with pytest.raises(ValueError):
        me.assemble(problem, np.zeros((2, 3)))
    bad = UNIT_TRIANGLE.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        me.assemble(problem, bad)


def test_gradient_fd_five_triangle_patch():
    rest, tris = five_triangle_patch()
    rng = np.random.default_rng(31)
    x = rest * np.array([1.15, 0.9, 1.0]) + 0.03 * rng.uniform(-1, 1, rest.shape)
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0))
    _, grad, _ = me.assemble(problem, x)
    h = 1e-5
    flat = x.reshape(-1)
    for i in range(flat.size):
        xp, xm = flat.copy(), flat.copy()
        xp[i] += h
        xm[i] -= h
        fd = (
            me.total_energy(problem, xp.reshape(-1, 3))
            - me.total_energy(problem, xm.reshape(-1, 3))
        ) / (2.0 * h)
        assert abs(fd - grad[i]) < 1e-5


def test_domain_error_reports_element():
    rest, tris = five_triangle_patch()
    x = rest.copy()
    x[6] = x[2]  # collapse the fifth triangle only
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0))
    with pytest.raises(me.DomainError) as exc:
        me.total_energy(problem, x)
    assert exc.value.element == 4
    # With two collapsed triangles both routes name the lower index.
    x[3] = 2.0 * x[4]  # puts triangle 1 = (0, 4, 3) on a line
    for evaluate in (me.total_energy, me.assemble):
        with pytest.raises(me.DomainError) as exc:
            evaluate(problem, x)
        assert exc.value.element == 1
        assert str(exc.value).startswith("element 1: ")


def _pullback_6x9(dm_inv):
    # Rows: row-major vec(F); columns: element dofs (x0, x1, x2) * (x, y, z).
    j = np.zeros((6, 9))
    for i in range(3):
        for col in range(2):
            r = 2 * i + col
            j[r, 3 + i] = dm_inv[0, col]
            j[r, 6 + i] = dm_inv[1, col]
            j[r, i] = -(dm_inv[0, col] + dm_inv[1, col])
    return j


def _scalar_route(problem, x, project, eigensystem):
    """Energy, gradient and dense Hessian by a loop over the elements, one
    F at a time through the public kernels."""
    model = problem.model
    n = problem.n_vertices
    energy = 0.0
    grad = np.zeros(3 * n)
    hess = np.zeros((3 * n, 3 * n))
    for e, (a, b, c) in enumerate(problem.elements):
        f = np.column_stack([x[b] - x[a], x[c] - x[a]]) @ problem.dm_inv[e]
        s = me.svd32(f)
        weight = problem.area[e]
        energy += weight * model.derivs(me.invariants(s)).psi
        eig = eigensystem(s)
        if project:
            eig = me.project_psd(eig)
        j = _pullback_6x9(problem.dm_inv[e])
        dofs = [3 * v + k for v in (a, b, c) for k in range(3)]
        grad[dofs] += weight * (j.T @ me.energy_gradient(model, s, f).reshape(6))
        hess[np.ix_(dofs, dofs)] += weight * (j.T @ eig.dense6() @ j)
    energy -= float(x.sum(axis=0) @ problem.gravity)
    grad -= np.tile(problem.gravity, n)
    mask = problem.pinned_dof_mask()
    grad[mask] = 0.0
    hess[mask, :] = 0.0
    hess[:, mask] = 0.0
    hess[mask, mask] = 1.0
    return energy, grad, hess


@pytest.mark.parametrize("seed", range(4))
def test_assemble_matches_scalar_route(seed):
    rng = np.random.default_rng(seed)
    rest, tris = me.grid_mesh(3, 2)
    rest = rest + 0.05 * rng.uniform(-1.0, 1.0, rest.shape) * [1.0, 1.0, 0.0]
    x = rest * [1.2, 0.9, 1.0] + 0.04 * rng.uniform(-1.0, 1.0, rest.shape)
    pins = {int(v): x[v] for v in rng.choice(len(rest), size=3, replace=False)}
    model = me.NeoHookeanSheet(rng.uniform(0.5, 2.0))
    problem = me.make_problem(
        rest, tris, model, pins=pins, gravity=rng.uniform(-0.1, 0.1, 3)
    )
    routes = (
        lambda s: me.sheet_eigensystem(model.mu, s),
        lambda s: me.energy_eigensystem(model, s),
    )
    for project in (True, False):
        energy, grad, hess = me.assemble(problem, x, project=project)
        for route in routes:
            e_ref, g_ref, h_ref = _scalar_route(problem, x, project, route)
            assert abs(energy - e_ref) <= 1e-12 * abs(e_ref)
            assert np.max(np.abs(grad - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
            assert np.max(np.abs(hess.toarray() - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))
    # The line search compares the two, so they must agree bitwise.
    assert me.total_energy(problem, x) == energy


def test_flat_sheet_has_exactly_zero_normal_terms():
    # In the z = 0 plane the normal gradient and the couplings between
    # in-plane and normal dofs are exact zeros, not roundoff, so a flat
    # stretch stays exactly flat (the benchmark's stretch check asks for
    # z == 0.0).
    rng = np.random.default_rng(4)
    rest, tris = me.grid_mesh(8, 8)
    x = rest * [1.4, 0.9, 1.0]
    x[:, :2] += 0.02 * rng.uniform(-1.0, 1.0, (len(rest), 2))
    free = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0))
    normal = np.arange(3 * len(rest)) % 3 == 2
    for project in (True, False):
        _, grad, hess = me.assemble(free, x, project=project)
        assert np.all(grad[normal] == 0.0)
        h = hess.toarray()
        assert np.all(h[np.ix_(normal, ~normal)] == 0.0)
        assert np.all(h[np.ix_(~normal, normal)] == 0.0)
    sides = np.flatnonzero((rest[:, 0] == 0.0) | (rest[:, 0] == 1.0))
    pinned = me.make_problem(
        rest, tris, me.NeoHookeanSheet(1.0), pins={int(v): x[v] for v in sides}
    )
    y, report = me.newton_solve(pinned, x)
    assert report.termination == "converged" and report.iterations > 0
    assert np.all(y[:, 2] == 0.0)


def test_element_i3_is_the_einsum_of_np_cross_bitwise():
    # I3 is written out for speed; it must stay the bits that the einsum of
    # np.cross gives.  A model that accepts any I3 records it.
    seen = []

    class Recorder:
        def derivs(self, inv):
            seen.append(inv)
            return models.ModelDerivs(psi=0.0 * inv.i3)

    rng = np.random.default_rng(11)
    rest, tris = me.grid_mesh(12, 12)
    problem = me.make_problem(rest, tris, Recorder())
    x = rest + rng.standard_normal(rest.shape)  # a random stack of Fs
    f, _ = fem._element_derivs(problem, x)
    n = np.cross(f[:, :, 0], f[:, :, 1])
    assert np.array_equal(seen[-1].i3, np.sqrt(np.einsum("ek,ek->e", n, n)))


def _random_stack_problem():
    # A 6x6 grid moved to random 3D positions: every element's F is a
    # random 3x2 with some eigenvalues below zero to clamp.
    rng = np.random.default_rng(7)
    rest, tris = me.grid_mesh(6, 6)
    rest = rest + 0.05 * rng.uniform(-1.0, 1.0, rest.shape) * [1.0, 1.0, 0.0]
    x = rest * [1.3, 0.8, 1.0] + 0.05 * rng.uniform(-1.0, 1.0, rest.shape)
    return me.make_problem(rest, tris, me.NeoHookeanSheet(1.3)), x


@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("source", ["random_stack", "random_patch"])
def test_rotated_frame_hessians_match_lifted_eigenmatrices(source, project):
    # G = C (R^T J) against G = Q J, with Q the lifted eigenmatrices; the
    # gradient from the principal stresses on rows (0, 0) and (1, 1) of
    # R^T J against the world-frame d psi / dF pulled back by J.
    if source == "random_stack":
        problem, x = _random_stack_problem()
    else:
        problem, x = checks._random_patch(np.random.default_rng(5))
    f, d = fem._element_derivs(problem, x)
    svd = me.svd32(f)
    eig = models._assemble_eigensystem(d, svd)
    if source == "random_stack":
        assert np.any(eig.values < 0.0)
    if project:
        eig = me.project_psd(eig)
    j = np.stack([_pullback_6x9(dm) for dm in problem.dm_inv])
    g = eig.matrices.reshape(-1, 6, 6) @ j
    want = np.swapaxes(g, 1, 2) @ ((problem.area[:, None] * eig.values)[:, :, None] * g)
    ge, got = fem._element_terms(problem, d, svd, project)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    stress = me.energy_gradient(problem.model, svd, f)
    want = problem.area[:, None] * (stress.reshape(-1, 1, 6) @ j)[:, 0]
    assert np.max(np.abs(ge - want)) <= 1e-14 * np.max(np.abs(want))
    # In the rotated frame d psi / dF is pad(p1, p2).
    rotated = svd.rotate(stress)
    p = np.stack(models._principal_stresses(d, *svd.sigma), axis=-1)
    scale = np.max(np.abs(p))
    assert np.max(np.abs(rotated[:, [0, 1], [0, 1]] - p)) <= 1e-14 * scale
    assert np.max(np.abs(rotated[:, [0, 1], [1, 0]])) <= 1e-14 * scale
    assert np.max(np.abs(rotated[:, 2])) <= 1e-14 * scale


def test_newton_rest_state_converges_immediately():
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    x, report = me.newton_solve(problem, UNIT_TRIANGLE)
    assert report.termination == "converged"
    assert report.iterations == 0
    assert report.history == ((0, 0.0, 0.0, 0.0),)
    assert np.array_equal(x, UNIT_TRIANGLE)


def test_newton_stretch_patch_converges():
    rest, tris = me.grid_mesh(4, 4)
    pins = {}
    for j in range(5):
        for i in (0, 4):
            v = i + j * 5
            pins[v] = [1.5 * rest[v][0] - 0.25, rest[v][1], 0.0]
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins)
    seen = []
    x, report = me.newton_solve(
        problem, rest, callback=lambda it, pos: seen.append(it)
    )
    assert report.termination == "converged"
    assert report.history[-1][2] <= 1e-8
    energies = [row[1] for row in report.history]
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    assert seen == [row[0] for row in report.history]
    # All accepted states satisfy the pins.
    assert np.max(np.abs(x[list(pins)] - np.array(list(pins.values())))) < 1e-15


def test_newton_stretch_20x20_converges_at_roundoff_floor(tmp_path):
    # Quadratic convergence reaches |g|inf ~ 1.9e-8 > tol at the roundoff
    # floor of the energy.  Whether a last step still lowers the energy by
    # an ulp or none can, the solve must end there as converged.
    problem, x0, config, _ = me.load_scene(
        build_stretch_scene(tmp_path, nx=20, ny=20)
    )
    _, report = me.newton_solve(problem, x0, config)
    assert report.termination == "converged"
    assert report.iterations <= 6
    assert report.history[-1][2] < 1e-7
    energies = [row[1] for row in report.history]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_newton_ends_converged_at_roundoff_floor():
    # With tol = 0 no gradient is small enough, so the solve can only end
    # through the Newton-decrement floor once no step lowers the energy.
    rest, tris = me.grid_mesh(4, 4)
    pins = {}
    for j in range(5):
        for i in (0, 4):
            v = i + j * 5
            pins[v] = [1.5 * rest[v][0] - 0.25, rest[v][1], 0.0]
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins)
    _, report = me.newton_solve(problem, rest, me.NewtonConfig(tol=0.0))
    assert report.termination == "converged"
    assert report.iterations < 10
    assert report.history[-1][2] < 1e-12


@pytest.mark.parametrize("n", [30, 40])
def test_newton_stretch_large_mesh_converges(tmp_path, n):
    problem, x0, config, _ = me.load_scene(build_stretch_scene(tmp_path, nx=n, ny=n))
    _, report = me.newton_solve(problem, x0, config)
    assert report.termination == "converged"
    assert report.iterations <= 8
    energies = [row[1] for row in report.history]
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_newton_max_iters_termination():
    rest, tris = me.grid_mesh(3, 3)
    pins = {}
    for j in range(4):
        for i in (0, 3):
            v = i + j * 4
            pins[v] = [1.4 * rest[v][0] - 0.2, rest[v][1], 0.0]
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins)
    _, report = me.newton_solve(problem, rest, me.NewtonConfig(max_iters=1))
    assert report.termination == "max_iters"
    assert report.iterations == 1
    assert len(report.history) == 2


def test_newton_inadmissible_start_fails():
    collapsed = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    with pytest.raises(me.LineSearchFailed):
        me.newton_solve(problem, collapsed)


def test_newton_recovers_from_near_floor_start():
    # Start barely admissible and heavily compressed; line search must
    # reject overshoots (DomainError treated as rejection) and still solve.
    problem = me.make_problem(UNIT_TRIANGLE, TRI, me.NeoHookeanSheet(1.0))
    squashed = UNIT_TRIANGLE * np.array([1.0, 0.05, 1.0])
    x, report = me.newton_solve(problem, squashed)
    assert report.termination == "converged"
    assert report.history[-1][1] < me.total_energy(problem, squashed)


def stretch_patch():
    # A 4x4 grid with its left and right columns pinned at 1.5x: from flat
    # rest its first Newton step is a full one.
    rest, tris = me.grid_mesh(4, 4)
    pins = {}
    for j in range(5):
        for i in (0, 4):
            v = i + j * 5
            pins[v] = [1.5 * rest[v][0] - 0.25, rest[v][1], 0.0]
    return me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins=pins), rest


def test_line_search_rejects_an_inadmissible_trial(monkeypatch):
    problem, rest = stretch_patch()
    _, report = me.newton_solve(problem, rest)
    assert report.history[1].step == 1.0
    energy, calls = fem.total_energy, []

    def first_trial_inadmissible(problem, x):
        calls.append(x)
        if len(calls) == 1:
            raise me.DomainError("element 0: I3 below the sheet floor", element=0)
        return energy(problem, x)

    monkeypatch.setattr(fem, "total_energy", first_trial_inadmissible)
    _, report = me.newton_solve(problem, rest)
    assert report.history[1].step == 0.5
    assert report.termination == "converged"


def test_line_search_fails_after_thirty_halvings(monkeypatch):
    problem, rest = stretch_patch()
    start = me.total_energy(problem, problem.apply_pins(rest))
    trials = []

    def uphill(problem, x):
        trials.append(x)
        return start + 1.0

    monkeypatch.setattr(fem, "total_energy", uphill)
    with pytest.raises(me.LineSearchFailed) as exc:
        me.newton_solve(problem, rest)
    assert str(exc.value) == (
        "no admissible decreasing step after 30 halvings at iteration 0"
    )
    assert len(trials) == 31


def test_linear_solve_failure_surfaces(monkeypatch):
    rest, tris = five_triangle_patch()
    x = rest * np.array([1.2, 0.9, 1.0])
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins={0: x[0]})

    calls = []

    def always_fails(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("factorization failed")

    monkeypatch.setattr(fem.spla, "splu", always_fails)
    with pytest.raises(me.LinearSolveFailed, match="factorization failed"):
        me.newton_solve(problem, x)
    assert len(calls) == 1  # no retry with a larger shift


@pytest.mark.parametrize(
    "d, why",
    [([np.nan, 0.0, 0.0], "not finite"), ([1.0, 0.0, 0.0], "not a descent direction")],
)
def test_newton_direction_says_why_it_failed(monkeypatch, d, why):
    calls = []

    def fixed(matrix, **kwargs):
        calls.append(matrix)
        return types.SimpleNamespace(solve=lambda rhs: np.array(d))

    monkeypatch.setattr(fem.spla, "splu", fixed)
    hess = fem.sp.identity(3, format="csr")
    with pytest.raises(me.LinearSolveFailed, match=why):
        fem._newton_direction(hess, np.ones(3), 1e-8)
    assert len(calls) == 1


def test_newton_factors_once_per_step_from_flat_rest(tmp_path, monkeypatch):
    # Flat rest leaves the clamped Hessian singular along the normal modes;
    # the shifted system factors on the first attempt.  The shift scales
    # with mu, so a stiff sheet under a heavy load and a soft drape take
    # their first steps at a sensible size too.
    calls, failures = [], []
    original = fem.spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        try:
            return original(*args, **kwargs)
        except RuntimeError:
            failures.append(1)
            raise

    monkeypatch.setattr(fem.spla, "splu", counting)
    stretch, x0, _, _ = me.load_scene(build_stretch_scene(tmp_path))
    drape, y0, _, _ = me.load_scene(build_stretch_scene(tmp_path, 6, 6, stretch=1.4))
    drape = dataclasses.replace(drape, gravity=np.array([0.0, 0.0, -0.01]))
    stiff, z0, _, _ = me.load_scene(build_stretch_scene(tmp_path, 14, 14, mu=1000.0))
    stiff = dataclasses.replace(stiff, gravity=np.array([0.0, 0.0, -10.0]))
    soft, w0, _, _ = me.load_scene(
        build_stretch_scene(tmp_path, 20, 20, stretch=1.4, mu=1e-6)
    )
    soft = dataclasses.replace(soft, gravity=np.array([0.0, 0.0, -0.01]))
    iterations = []
    for problem, start in ((stretch, x0), (drape, y0), (stiff, z0), (soft, w0)):
        calls.clear()
        _, report = me.newton_solve(problem, start)
        assert report.termination == "converged"
        assert not failures
        assert len(calls) == report.iterations > 0
        iterations.append(report.iterations)
    # With tau = 1e-8 whatever mu, the soft drape took 12 iterations.
    assert iterations[3] <= 4


def test_symmetric_factorization_pivots_on_the_diagonal(tmp_path, monkeypatch):
    # On every iterate of a 6x6 drape the symmetric-mode factorization
    # permutes rows and columns alike, so by Sylvester the signs of U's
    # diagonal are the inertia of H + tau I (positive definite here); and
    # its direction is the one scipy's default LU (COLAMD, partial
    # pivoting) gives.
    original_splu, original_direction = fem.spla.splu, fem._newton_direction
    factors, systems = [], []

    def recording_splu(*args, **kwargs):
        factors.append(original_splu(*args, **kwargs))
        return factors[-1]

    def recording_direction(hess, grad, tau):
        systems.append((hess, grad, tau, original_direction(hess, grad, tau)))
        return systems[-1][-1]

    monkeypatch.setattr(fem.spla, "splu", recording_splu)
    monkeypatch.setattr(fem, "_newton_direction", recording_direction)
    drape, y0, _, _ = me.load_scene(build_stretch_scene(tmp_path, 6, 6, stretch=1.4))
    drape = dataclasses.replace(drape, gravity=np.array([0.0, 0.0, -0.01]))
    _, report = me.newton_solve(drape, y0)
    assert report.termination == "converged"
    assert len(factors) == len(systems) == report.iterations > 0
    for lu, (hess, grad, tau, d) in zip(factors, systems):
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert np.all(lu.U.diagonal() > 0.0)
        shifted = hess + tau * fem.sp.identity(hess.shape[0], format="csr")
        want = original_splu(shifted.tocsc()).solve(-grad)
        assert np.max(np.abs(d - want)) <= 1e-10 * np.max(np.abs(want))


def test_newton_iterates_are_scale_free():
    # Scaling mu, the load and tol by 2^k scales the energy, gradient,
    # Hessian and shift exactly, so every iterate must be the same bits.
    rest, tris, pins = taut_grid(20, 1.4)

    def iterates(scale):
        sheet = me.NeoHookeanSheet(scale)
        gravity = [0.0, 0.0, -0.01 * scale]
        problem = me.make_problem(rest, tris, sheet, pins=pins, gravity=gravity)
        frames = []
        _, report = me.newton_solve(
            problem,
            rest,
            me.NewtonConfig(tol=1e-8 * scale),
            callback=lambda it, x: frames.append(x),
        )
        assert report.termination == "converged"
        return frames

    reference = iterates(1.0)
    assert len(reference) == 11
    for k in (-20, 10):
        frames = iterates(2.0**k)
        assert len(frames) == len(reference)
        for got, want in zip(frames, reference):
            assert np.array_equal(got, want)


def test_solve_history_rows_are_named_iterates():
    rest, tris = me.grid_mesh(2, 2)
    problem = me.make_problem(rest, tris, me.NeoHookeanSheet(1.0), pins={0: rest[0]})
    _, report = me.newton_solve(problem, rest * 1.1)
    first, last = report.history[0], report.history[-1]
    assert isinstance(last, fem.Iterate)
    assert (first.iteration, first.step) == (0, 0.0)
    assert last.iteration == report.iterations
    assert report.to_dict()["history"][-1] == last._asdict()


def test_solve_report_to_dict():
    report = fem.SolveReport(
        iterations=1,
        history=((0, 2.0, 0.5, 0.0), (1, 1.0, 1e-9, 1.0)),
        termination="converged",
    )
    d = report.to_dict()
    assert d["iterations"] == 1
    assert d["termination"] == "converged"
    assert d["history"][1] == {
        "iteration": 1,
        "energy": 1.0,
        "grad_norm": 1e-9,
        "step": 1.0,
    }


def test_gravity_sag_of_taut_sheet():
    # A flat sheet has zero transverse stiffness at rest, so pre-stretch it:
    # pinned opposite edges at 1.4x keep it taut while gravity pulls it down.
    rest, tris = me.grid_mesh(3, 3)
    pins = {}
    for j in range(4):
        for i in (0, 3):
            v = i + j * 4
            pins[v] = [1.4 * rest[v][0] - 0.2, rest[v][1], 0.0]
    problem = me.make_problem(
        rest, tris, me.NeoHookeanSheet(1.0), pins=pins, gravity=[0.0, 0.0, -0.01]
    )
    x0 = rest.copy()
    x0[:, 0] = 1.4 * rest[:, 0] - 0.2  # start from the taut affine state
    x, report = me.newton_solve(problem, x0)
    assert report.termination == "converged"
    free = [v for v in range(len(rest)) if v not in pins]
    assert np.min(x[free, 2]) < -1e-4  # membrane sags downward
