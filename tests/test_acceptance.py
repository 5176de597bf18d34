"""Acceptance gate: every shipped guarantee, one test and one printed line each.

Each test prints "PASS criterion-N: ..." or "FAIL criterion-N: ..." before
asserting, so a red run still shows the measured numbers.  Ensembles are
seeded; the reported margins are deterministic.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import membrane_eig as me

from conftest import build_stretch_scene

N_TRIALS = 1000
FD_H = 1e-5


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion-{criterion}: {detail}")
    return ok


def _ensemble(sampler, seed, n=N_TRIALS):
    rng = np.random.default_rng(seed)
    return [sampler(rng) for _ in range(n)]


def _invariant_value(f, index):
    return getattr(me.invariants(me.svd32(f)), index)


_ND = None
_AD = None


def nondegenerate_ensemble():
    global _ND
    if _ND is None:
        _ND = _ensemble(me.random_f_nondegenerate, seed=42)
    return _ND


def admissible_ensemble():
    global _AD
    if _AD is None:
        _AD = _ensemble(me.random_f_admissible, seed=43)
    return _AD


def test_criterion_1_gradients_match_fd():
    start = time.perf_counter()
    worst = 0.0
    for f in nondegenerate_ensemble():
        svd = me.svd32(f)
        grads = me.invariant_gradients(svd, f)
        for grad, index in zip(grads, ("i1", "i2", "i3")):
            fd = me.fd_gradient(lambda x, i=index: _invariant_value(x, i), f, h=FD_H)
            worst = max(worst, float(np.max(np.abs(grad - fd))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _report(
        1, ok, f"invariant gradients vs FD max err {worst:.3e} (tol 1e-6), "
        f"{elapsed:.2f}s over {N_TRIALS} trials (limit 5s)"
    )


def test_criterion_2_hvp_matches_fd_of_gradients():
    rng = np.random.default_rng(4242)
    worst = 0.0
    worst_i2 = 0.0
    for f in nondegenerate_ensemble():
        svd = me.svd32(f)
        fdot = rng.uniform(-1.0, 1.0, (3, 2))
        fdot /= np.linalg.norm(fdot)
        hvps = me.invariant_hvp(svd, fdot)
        plus = me.invariant_gradients(me.svd32(f + FD_H * fdot), f + FD_H * fdot)
        minus = me.invariant_gradients(me.svd32(f - FD_H * fdot), f - FD_H * fdot)
        for k in range(3):
            fd = (plus[k] - minus[k]) / (2.0 * FD_H)
            worst = max(worst, float(np.max(np.abs(hvps[k] - fd))))
        worst_i2 = max(worst_i2, float(np.max(np.abs(hvps[1] - 2.0 * fdot))))
    ok = worst <= 1e-5 and worst_i2 <= 1e-12
    assert _report(
        2, ok, f"HVP vs FD max err {worst:.3e} (tol 1e-5), "
        f"I2 deviation from 2*fdot {worst_i2:.3e} (tol 1e-12)"
    )


def test_criterion_3_invariant_eigensystems():
    worst_orth = 0.0
    worst_resid = 0.0
    worst_spec = 0.0
    worst_null = 0.0
    for f in nondegenerate_ensemble():
        svd = me.svd32(f)
        for k, name in enumerate(("I1", "I2", "I3")):
            eig = me.invariant_eigensystem(name, svd)
            q6 = eig.matrices.reshape(6, 6)
            worst_orth = max(
                worst_orth, float(np.max(np.abs(q6 @ q6.T - np.eye(6))))
            )
            for lam, q in eig.pairs():
                resid = me.invariant_hvp(svd, q)[k] - lam * q
                worst_resid = max(worst_resid, float(np.linalg.norm(resid)))
            index = ("i1", "i2", "i3")[k]
            fd6 = me.fd_hessian6(lambda x, i=index: _invariant_value(x, i), f)
            oracle = me.jacobi_eigen_sym(fd6)
            diff = np.max(np.abs(np.sort(eig.values) - oracle.values))
            # FD perturbs every oracle eigenvalue by up to the matrix-norm FD
            # error, so normalize by the spectrum's scale (floor 1).
            scale = max(1.0, float(np.max(np.abs(oracle.values))))
            worst_spec = max(worst_spec, float(diff) / scale)
            if name == "I1":
                for slot in (0, 1, 3):
                    null_hvp = me.invariant_hvp(svd, eig.matrices[slot])[0]
                    worst_null = max(worst_null, float(np.linalg.norm(null_hvp)))
    ok = (
        worst_orth <= 1e-10
        and worst_resid <= 1e-8
        and worst_spec <= 1e-4
        and worst_null <= 1e-12
    )
    assert _report(
        3, ok, f"orthonormality {worst_orth:.3e} (1e-10), "
        f"residual {worst_resid:.3e} (1e-8), "
        f"spectrum vs FD oracle {worst_spec:.3e} (1e-4, FD-limited), "
        f"I1 null modes {worst_null:.3e} (1e-12)"
    )


def test_criterion_4_sheet_eigensystem():
    model = me.NeoHookeanSheet(1.0)
    worst_spec = 0.0
    worst_generic = 0.0
    worst_block = 0.0
    for f in admissible_ensemble():
        svd = me.svd32(f)
        sheet = me.sheet_eigensystem(1.0, svd)

        def psi(x):
            return model.derivs(me.invariants(me.svd32(x))).psi

        oracle = me.jacobi_eigen_sym(me.fd_hessian6(psi, f))
        diff = np.max(np.abs(np.sort(sheet.values) - oracle.values))
        scale = max(1.0, float(np.max(np.abs(oracle.values))))
        worst_spec = max(worst_spec, float(diff) / scale)

        generic = me.energy_eigensystem(model, svd)
        worst_generic = max(
            worst_generic, float(np.max(np.abs(sheet.values - generic.values)))
        )

        s1, s2 = svd.sigma
        i3 = s1 * s2
        closed = np.array(
            [
                [1.0 + 3.0 * s2**2 / i3**4, 2.0 / i3**3],
                [2.0 / i3**3, 1.0 + 3.0 * s1**2 / i3**4],
            ]
        )
        d = model.derivs(me.invariants(svd))
        ghat = np.array([[1.0, 1.0], [2.0 * s1, 2.0 * s2], [s2, s1]])
        second = np.array(
            [
                [d.f11, d.f12, d.f13],
                [d.f12, d.f22, d.f23],
                [d.f13, d.f23, d.f33],
            ]
        )
        assembled = (
            2.0 * d.f2 * np.eye(2)
            + d.f3 * np.array([[0.0, 1.0], [1.0, 0.0]])
            + ghat.T @ second @ ghat
        )
        worst_block = max(worst_block, float(np.max(np.abs(assembled - closed))))

    fixed = np.sort(
        me.sheet_eigensystem(
            1.0, me.svd32(np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        ).values
    )
    expected = np.sort(
        [
            0.75,
            0.875,
            0.9375,
            1.125,
            1.0 + (15.0 - math.sqrt(145.0)) / 32.0,
            1.0 + (15.0 + math.sqrt(145.0)) / 32.0,
        ]
    )
    worst_fixed = float(np.max(np.abs(fixed - expected)))

    ok = (
        worst_spec <= 1e-4
        and worst_generic <= 1e-10
        and worst_block <= 1e-10
        and worst_fixed <= 1e-9
    )
    assert _report(
        4, ok, f"spectrum vs FD oracle {worst_spec:.3e} (1e-4, FD-limited), "
        f"vs generic route {worst_generic:.3e} (1e-10), "
        f"block entries vs closed forms {worst_block:.3e} (1e-10), "
        f"fixed point sigma=(2,1) {worst_fixed:.3e} (1e-9)"
    )


def test_criterion_5_pairing_resolved_by_oracle():
    wins = 0
    n = len(admissible_ensemble())
    for f in admissible_ensemble():
        svd = me.svd32(f)
        sheet = me.sheet_eigensystem(1.0, svd)
        s1, s2 = svd.sigma
        i3 = s1 * s2
        block = np.array(
            [
                [1.0 + 3.0 * s2**2 / i3**4, 2.0 / i3**3],
                [2.0 / i3**3, 1.0 + 3.0 * s1**2 / i3**4],
            ]
        )
        oracle = me.jacobi_eigen_sym(block)
        larger = int(np.argmax(oracle.values))
        vec_larger = oracle.vectors[:, larger]
        lam_larger = float(oracle.values[larger])

        beta = 3.0 * (s2 * s2 - s1 * s1)
        gamma = float(np.hypot(4.0 * i3, beta))
        stated = np.array([beta + gamma, 4.0 * i3])
        stated /= np.linalg.norm(stated)

        coeff = np.diag(svd.u.T @ sheet.matrices[0] @ svd.v)
        coeff = coeff / np.linalg.norm(coeff)

        scale = max(1.0, abs(lam_larger))
        if (
            abs(float(stated @ vec_larger)) >= 1.0 - 1e-8
            and abs(float(coeff @ vec_larger)) >= 1.0 - 1e-8
            and abs(float(sheet.values[0]) - lam_larger) <= 1e-8 * scale
        ):
            wins += 1
    ok = wins == n
    assert _report(
        5, ok, f"(beta+gamma, 4*I3) carries the larger block eigenvalue "
        f"in {wins}/{n} trials"
    )


def test_criterion_6_projected_hessians_psd():
    min_eig = np.inf
    for f in admissible_ensemble():
        eig = me.project_psd(me.sheet_eigensystem(1.0, me.svd32(f)))
        spectrum = me.jacobi_eigen_sym(eig.dense6())
        min_eig = min(min_eig, float(spectrum.values.min()))
    ok = min_eig >= -1e-10
    assert _report(
        6, ok, f"min eigenvalue of projected element Hessians {min_eig:.3e} "
        f"(bound -1e-10)"
    )


def test_criterion_7_stretch_scene_solve(tmp_path):
    scene = build_stretch_scene(tmp_path)
    start = time.perf_counter()
    _, report, _ = me.solve_scene(scene)
    elapsed = time.perf_counter() - start

    grad_norms = [row[2] for row in report.history]
    energies = [row[1] for row in report.history]
    converged = report.termination == "converged" and grad_norms[-1] <= 1e-8
    within_iters = report.iterations <= 30
    monotone = all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    ratios = [
        b / (a * a) for a, b in zip(grad_norms, grad_norms[1:]) if a > 0.0
    ]
    superlinear = any(r <= 10.0 for r in ratios)
    fast = elapsed < 10.0
    ok = converged and within_iters and monotone and superlinear and fast
    assert _report(
        7, ok, f"10x10 stretch scene: {report.iterations} iterations, "
        f"final |g|_inf {grad_norms[-1]:.3e} (tol 1e-8), monotone={monotone}, "
        f"best ratio |g_k+1|/|g_k|^2 {min(ratios):.2f} (need <= 10), "
        f"{elapsed:.2f}s (limit 10s)"
    )


def test_criterion_8_analytic_beats_fd_oracle():
    report = me.run_bench(trials=200, seed=0)
    ok = report.speedup >= 5.0
    assert _report(
        8, ok, f"analytic eigensystem {report.analytic_ns:.0f} ns/call vs "
        f"FD+Jacobi oracle {report.oracle_ns:.0f} ns/call, "
        f"speedup {report.speedup:.1f}x (need >= 5x)"
    )


def test_criterion_9_determinism(tmp_path):
    def run_check():
        return subprocess.run(
            [sys.executable, "-m", "membrane_eig", "check", "--seed", "42"],
            capture_output=True,
        )

    first, second = run_check(), run_check()
    check_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )

    outputs = []
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        scene = build_stretch_scene(tmp_path / name)
        me.solve_scene(scene)
        out_dir = scene.parent / "out"
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        )
    solve_ok = outputs[0] == outputs[1]

    ok = check_ok and solve_ok
    assert _report(
        9, ok, f"check --seed 42 byte-identical across runs: {check_ok}; "
        f"solve outputs byte-identical across runs: {solve_ok}"
    )
