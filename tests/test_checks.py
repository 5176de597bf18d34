"""The self-check registry: determinism and mutation sensitivity."""

import importlib

import numpy as np
import pytest

import membrane_eig as me
from membrane_eig import checks

# membrane_eig.invariants (the attribute) is the function; fetch the module.
invariants_module = importlib.import_module("membrane_eig.invariants")


def test_run_checks_small_all_pass():
    reports = me.run_checks(seed=3, trials=40)
    assert len(reports) == len(checks._CHECKS)
    names = [r.name for r in reports]
    assert names == [fn.__name__.removeprefix("_check_") for fn in checks._CHECKS]
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_error} > {r.tol} at {r.counterexample}"
        assert r.counterexample is None
        assert r.trials >= 1
        assert 0.0 <= r.max_error <= r.tol


def test_run_checks_deterministic():
    a = me.run_checks(seed=11, trials=25)
    b = me.run_checks(seed=11, trials=25)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_run_checks_seed_changes_errors():
    a = me.run_checks(seed=1, trials=25)
    b = me.run_checks(seed=2, trials=25)
    assert any(x.max_error != y.max_error for x, y in zip(a, b))


def test_run_checks_seed_102_reports_instead_of_raising():
    # This seed's frame-objectivity patch solve used to reach the roundoff
    # floor and raise LineSearchFailed out of run_checks.
    reports = me.run_checks(seed=102, trials=1)
    assert len(reports) == len(checks._CHECKS)
    assert all(r.passed for r in reports)


def test_run_checks_rejects_bad_trials():
    with pytest.raises(ValueError):
        me.run_checks(trials=0)


def test_report_to_dict_round_trip():
    report = me.CheckReport(
        name="demo", trials=10, max_error=1e-12, tol=1e-10, passed=True,
        counterexample=None,
    )
    assert report.to_dict() == {
        "name": "demo",
        "trials": 10,
        "max_error": 1e-12,
        "tol": 1e-10,
        "passed": True,
        "counterexample": None,
    }


def test_mutation_is_detected(monkeypatch):
    # Flip the sign of one HVP term; the dual-route checks must notice.
    original = invariants_module._hvp_i3

    def mutated(svd, w):
        return -original(svd, w)

    monkeypatch.setattr(invariants_module, "_hvp_i3", mutated)
    reports = me.run_checks(seed=4, trials=15)
    failed = [r for r in reports if not r.passed]
    assert failed, "sign-flipped I3 curvature went unnoticed"
    for r in failed:
        assert r.counterexample is not None
        assert r.max_error > r.tol
    failed_names = {r.name for r in failed}
    assert "invariant_hvp_fd" in failed_names


def test_mutation_in_gradient_is_detected(monkeypatch):
    original = invariants_module.invariant_gradients

    def mutated(svd, f):
        g1, g2, g3 = original(svd, f)
        return g1, g2, 1.01 * g3

    monkeypatch.setattr(invariants_module, "invariant_gradients", mutated)
    reports = me.run_checks(seed=4, trials=15)
    failed_names = {r.name for r in reports if not r.passed}
    assert "invariant_gradients_fd" in failed_names


def test_random_f_samplers():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = me.random_f(rng)
        assert f.shape == (3, 2)
        assert np.all(np.abs(f) <= 2.0)
        fn = me.random_f_nondegenerate(rng)
        assert me.svd32(fn).sigma[1] > 0.05
        fa = me.random_f_admissible(rng)
        assert me.invariants(me.svd32(fa)).i3 > 0.05
