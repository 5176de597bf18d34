"""Tests of the benchmark's own parts: the independent reference, the
output checks (each must reject a deliberately wrong answer) and the
tracer.  Run with ``python3 -m pytest perfbench``."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import membrane_eig as me  # noqa: E402

import reference  # noqa: E402
import scenes  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402

DIAG21 = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
REST_F = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


# ------------------------------------------------------------- reference


def test_psi_hand_values():
    # I2 = 5, I3 = 2: psi = (5 + 1/4 - 3) / 2.
    assert reference.psi(DIAG21, 1.0) == 1.125
    assert reference.psi(DIAG21, 3.0) == 3.375
    assert reference.psi(REST_F, 1.0) == 0.0


def test_psi_gradient_hand_values():
    # mu F - mu I3^-3 pad(s2, s1) = diag(2, 1) - diag(1, 2) / 8.
    expect = np.array([[1.875, 0.0], [0.0, 0.75], [0.0, 0.0]])
    assert np.allclose(reference.psi_gradient(DIAG21, 1.0), expect, rtol=0, atol=1e-15)
    assert np.allclose(reference.psi_gradient(REST_F, 1.0), 0.0, atol=1e-15)


def test_single_triangle_energy_and_load():
    rest = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    dm_inv, area = reference.rest_frames(rest, tris)
    assert area.tolist() == [0.5]
    x = rest * [2.0, 1.0, 1.0] + [0.0, 0.0, 0.25]
    # 0.5 * 1.125 elastic; three vertices at z = 0.25 under g = (0, 0, -1).
    e = reference.energy(x, tris, dm_inv, area, 1.0, (0.0, 0.0, -1.0))
    assert e == pytest.approx(0.5625 + 0.75, rel=1e-15)


def test_gradient_matches_own_central_differences():
    rng = np.random.default_rng(7)
    rest, tris = scenes.grid(3)
    dm_inv, area = reference.rest_frames(rest, tris)
    x = rest * [1.3, 0.9, 1.0] + 0.05 * rng.standard_normal(rest.shape)
    g_vec = (0.02, -0.01, -0.05)
    g = reference.gradient(x, tris, dm_inv, area, 1.0, g_vec)
    h = 1e-6
    fd = np.zeros_like(x)
    for v in range(len(x)):
        for c in range(3):
            xp, xm = x.copy(), x.copy()
            xp[v, c] += h
            xm[v, c] -= h
            fd[v, c] = (
                reference.energy(xp, tris, dm_inv, area, 1.0, g_vec)
                - reference.energy(xm, tris, dm_inv, area, 1.0, g_vec)
            ) / (2.0 * h)
    assert np.max(np.abs(fd - g)) < 1e-7


def test_fd_spectrum_hand_values():
    # Sheet modes at sigma = (2, 1), mu = 1: twist 1 - 1/8, flip 1 + 1/8,
    # normals 1 - (1/8)(1/2) and 1 - (1/8)(2), and the 2x2 block
    # I + [[3, 4], [4, 12]] / 16 with eigenvalues 47/32 +- sqrt(145/1024).
    block = math.sqrt(145.0 / 1024.0)
    expect = sorted([0.875, 1.125, 0.9375, 0.75, 47 / 32 + block, 47 / 32 - block])
    assert np.allclose(reference.fd_spectrum(DIAG21, 1.0), expect, rtol=0, atol=1e-6)


def test_random_fs_are_seeded_and_in_range():
    a = reference.random_fs(np.random.default_rng(3), 5)
    b = reference.random_fs(np.random.default_rng(3), 5)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))
    for f in a:
        s = np.linalg.svd(f, compute_uv=False)
        assert 0.6 <= s.min() and s.max() <= 1.6


# ---------------------------------------------------------------- checks


def test_spectrum_check_accepts_closed_form_and_rejects_a_perturbed_value():
    fs = reference.random_fs(np.random.default_rng(0), 6)
    spectra = [me.sheet_eigensystem(scenes.MU, me.svd32(f)).values for f in fs]
    assert verify.check_spectra(fs, spectra) == []
    bad = [v.copy() for v in spectra]
    bad[3][2] += 1e-3
    assert len(verify.check_spectra(fs, bad)) == 1


def test_report_check_rejects_a_failed_report():
    ok = me.CheckReport("a", 10, 0.0, 1e-9, True)
    assert verify.check_reports([ok]) == []
    assert verify.check_reports([]) != []
    failed = dataclasses.replace(ok, name="b", max_error=1.0, passed=False)
    assert len(verify.check_reports([ok, failed])) == 1


def _solve(tmp_path, spec):
    loaded = me.load_scene(scenes.write_scene(spec, tmp_path))
    positions, report = me.solve_and_export(*loaded)
    return verify.Solution(spec, positions, report, loaded[3])


@pytest.fixture(scope="module")
def stretch(tmp_path_factory):
    return _solve(tmp_path_factory.mktemp("stretch"),
                  scenes.SceneSpec("stretch", 4, 1.5, (0.0, 0.0, 0.0)))


@pytest.fixture(scope="module")
def drape(tmp_path_factory):
    return _solve(tmp_path_factory.mktemp("drape"),
                  scenes.SceneSpec("drape", 6, 1.4, (0.0, 0.0, -0.01)))


def _with(sol, positions=None, report=None):
    return verify.Solution(
        sol.spec,
        sol.positions if positions is None else positions,
        sol.report if report is None else report,
        sol.output_dir,
    )


def test_solutions_pass_every_check(stretch, drape):
    assert verify.check_solution(stretch) == []
    assert verify.check_solution(drape) == []


def test_moving_one_free_vertex_is_caught(stretch, drape):
    for sol in (stretch, drape):
        rest, tris = scenes.grid(sol.spec.n)
        x = sol.positions.copy()
        x[sol.spec.n + 2] += [1e-3, 0.0, 0.0]
        moved = _with(sol, positions=x)
        assert verify.check_gradient(moved, rest, tris)
        assert verify.check_energy(moved, rest, tris)
        assert verify.check_symmetry(moved)
        assert verify.check_outputs(moved)


def test_moving_a_pin_is_caught(stretch):
    rest, _ = scenes.grid(stretch.spec.n)
    x = stretch.positions.copy()
    x[0, 1] += 1e-3
    assert verify.check_pins(_with(stretch, positions=x), rest)


def test_bad_report_is_caught(stretch):
    rest, tris = scenes.grid(stretch.spec.n)
    rep = stretch.report
    assert verify.check_converged(_with(stretch, report=dataclasses.replace(
        rep, termination="max_iters")))
    history = list(rep.history)
    it, e, g, step = history[-1]
    off = dataclasses.replace(rep, history=tuple(history[:-1] + [(it, e * (1 + 1e-9), g, step)]))
    assert verify.check_energy(_with(stretch, report=off), rest, tris)
    rise = history[:-1] + [(it, history[-2][1] + 1e-12, g, step)]
    assert verify.check_history(_with(stretch, report=dataclasses.replace(
        rep, history=tuple(rise))))
    flat = [(k, 1.0, 0.0, 0.0) for k in range(3)]
    assert verify.check_history(_with(stretch, report=dataclasses.replace(
        rep, history=tuple(flat))))


def test_shape_checks(stretch, drape):
    x = stretch.positions.copy()
    x[stretch.spec.n + 2, 2] = 1e-12
    assert verify.check_stretch_shape(_with(stretch, positions=x))
    # The pinned columns at 1.5x with no transverse contraction.
    rest, _ = scenes.grid(stretch.spec.n)
    unsolved = rest * [1.5, 1.0, 1.0] - [0.25, 0.0, 0.0]
    assert verify.check_stretch_shape(_with(stretch, positions=unsolved))
    x = drape.positions.copy()
    x[drape.spec.n + 2, 2] = 1e-6
    assert verify.check_drape_shape(_with(drape, positions=x))


# ---------------------------------------------------------------- tracer


def test_tracer_restores_every_name_and_splits_a_solve(tmp_path):
    originals = (me.svd32, me.fem.svd32, me.fem.spla, me.models.NeoHookeanSheet.derivs)
    spec = scenes.SceneSpec("stretch", 3, 1.5, (0.0, 0.0, 0.0))
    path = scenes.write_scene(spec, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert me.fem.svd32 is not originals[1]
        problem, x0, config, out = me.load_scene(path)
        _, report = me.solve_and_export(problem, x0, config, out)
    finally:
        tracer.uninstall()
    assert (me.svd32, me.fem.svd32, me.fem.spla, me.models.NeoHookeanSheet.derivs) == originals
    assert tracer.missing == []
    # load_scene and solve_and_export are the two top-level spans.
    wall = sum(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    values, notes = tracing.layer_metrics(tracer, wall)
    assert notes == []
    assert values["fem.newton_iters"] == report.iterations
    assert values["fem.assemble_calls"] == report.iterations + 1
    assert values["mesh.frames"] == report.iterations + 1
    assert values["fem.factor_calls"] == values["fem.factor_failed"] + report.iterations
    assert values["trace.self_sum_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_missing_target_is_a_note_not_a_crash(monkeypatch):
    targets = [t for t in tracing.TARGETS if t[2] != "svd.svd_rates"]
    targets.append(("membrane_eig.svd", "svd_rates_gone", "svd.svd_rates", None, None))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        me.svd32(DIAG21)
    finally:
        tracer.uninstall()
    values, notes = tracing.layer_metrics(tracer, 1.0)
    assert values["svd.rates_pct"] == 0.0
    assert values["svd.svd32_calls"] == 1
    assert any("svd_rates_gone" in n for n in notes)
    assert any(n.startswith("svd.rates_pct: missing") for n in notes)


def test_emitted_metrics_match_benchmark_json():
    import json

    import run

    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    values, _ = tracing.layer_metrics(tracing.Tracer(), 1.0)
    assert set(tracing.NEEDS) <= set(values)
    names = list(values) + ["trace.overhead_s", "trace.untraced_wall_s"]
    assert {n: run._unit(n) for n in names} == {m["name"]: m["unit"] for m in spec["per_layer"]}
