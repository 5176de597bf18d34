"""The self-check registry: determinism and mutation sensitivity."""

import functools
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


@pytest.mark.parametrize("trials", [2.5, True, "3"])
def test_run_checks_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError, match="integer"):
        me.run_checks(trials=trials)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
def test_run_checks_rejects_bad_seed(seed):
    # True would run as seed 1, and 2.5 fail inside numpy with a TypeError.
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        me.run_checks(seed=seed, trials=1)


@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_run_bench_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="integer"):
        me.run_bench(trials=trials)


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


def _run_only(monkeypatch, name, **kwargs):
    # run_checks with the registry cut down to the one check named.
    fn = getattr(checks, "_check_" + name)
    monkeypatch.setattr(checks, "_CHECKS", [fn])
    (report,) = me.run_checks(**kwargs)
    assert report.name == name
    return report


def test_nan_on_a_later_trial_fails_its_check(monkeypatch):
    original = invariants_module.invariant_hvp
    calls = []

    def nan_on_second_call(svd, w):
        calls.append(svd)
        h1, h2, h3 = original(svd, w)
        return (h1, np.full_like(h2, np.nan), h3) if len(calls) == 2 else (h1, h2, h3)

    monkeypatch.setattr(invariants_module, "invariant_hvp", nan_on_second_call)
    r = _run_only(monkeypatch, "invariant_hvp_i2_exact", seed=5, trials=6)
    assert len(calls) == 6
    assert not r.passed
    assert np.isnan(r.max_error)
    f2 = np.array(r.counterexample)
    assert f2.shape == (3, 2)
    assert np.max(np.abs(f2 - calls[1].reconstruct())) < 1e-12
    assert np.max(np.abs(f2 - calls[0].reconstruct())) > 1e-3


def test_witnessless_check_reports_its_largest_error(monkeypatch):
    # An ascent direction on the first trial only: the worst error comes
    # first, and fem_descent keeps no counterexample.
    original = checks.fem_mod._newton_direction
    grads = []

    def ascent_first(hess, grad, tau):
        grads.append(grad)
        return grad if len(grads) == 1 else original(hess, grad, tau)

    monkeypatch.setattr(checks.fem_mod, "_newton_direction", ascent_first)
    r = _run_only(monkeypatch, "fem_descent", seed=0, trials=300)
    assert r.trials == 3 and len(grads) == 3
    gg = float(grads[0] @ grads[0])
    assert r.max_error == gg / max(1.0, gg)
    assert not r.passed
    assert r.counterexample is None


def test_trials_reuse_their_samples_decomposition(monkeypatch):
    # eigen_unit_norm decomposes nothing but its samples, drawn before its
    # first trial: every candidate is decomposed exactly once, one svd32
    # call per round of candidates, and each trial gets its F's own svd32.
    rounds, decomposed, seen = [], [], []
    random_f, svd32 = checks.random_f, checks.svd_mod.svd32
    eigensystem = checks.inv_mod.invariant_eigensystem

    def counted_draw(rng, n=None):
        rounds.append(random_f(rng, n))
        return rounds[-1]

    def counted_svd(f):
        decomposed.append(np.shape(f)[:-2])
        return svd32(f)

    def recorded_eigensystem(which, s):
        seen.append(s)
        return eigensystem(which, s)

    monkeypatch.setattr(checks, "random_f", counted_draw)
    monkeypatch.setattr(checks.svd_mod, "svd32", counted_svd)
    monkeypatch.setattr(checks.inv_mod, "invariant_eigensystem", recorded_eigensystem)
    r = _run_only(monkeypatch, "eigen_unit_norm", seed=7, trials=30)
    assert r.passed and r.trials == 30
    # One stacked svd32 call per round, on exactly that round's candidates.
    assert decomposed == [f.shape[:-2] for f in rounds]
    candidates = np.concatenate(rounds)
    accepted = candidates[svd32(candidates).sigma[1] > checks._MIN_SIGMA2]
    # Three eigensystems (I1, I2, I3) per trial, all on the trial's sample.
    assert len(seen) == 90 and len(accepted) == 30
    for f, s in zip(np.repeat(accepted, 3, axis=0), seen):
        expected = svd32(f)
        assert s.sigma == expected.sigma
        assert np.array_equal(s.u, expected.u)
        assert np.array_equal(s.v, expected.v)


@pytest.mark.parametrize(
    "sampler",
    [
        checks.random_f_nondegenerate,
        checks.random_f_gapped,
        checks.random_f_admissible,
        functools.partial(checks.random_f_admissible, min_i3=0.3),
        # Accepts under half its candidates, so k = 100 takes several rounds.
        functools.partial(checks.random_f_admissible, min_i3=3.0),
        checks._random_sym6,
    ],
    ids=["nondegenerate", "gapped", "admissible", "admissible_0.3", "admissible_3", "sym6"],
)
@pytest.mark.parametrize("k", [1, 7, 100])
def test_stacked_draw_equals_single_draws(sampler, k):
    # n stacked draws give bitwise the pairs of n single draws, and leave
    # the generator where they leave it.
    stacked, single = np.random.default_rng(k), np.random.default_rng(k)
    drawn = sampler(stacked, n=k)
    assert len(drawn) == k
    for got, want in zip(drawn, (sampler(single) for _ in range(k))):
        assert np.array_equal(got[0], want[0])
        if len(want) == 2:
            assert got[1].sigma == want[1].sigma
            assert np.array_equal(got[1].u, want[1].u)
            assert np.array_equal(got[1].v, want[1].v)
    assert stacked.bit_generator.state == single.bit_generator.state


def test_registry_is_every_check_in_definition_order():
    defined = [
        value
        for key, value in vars(checks).items()
        if key.startswith("_check_") and callable(value)
    ]
    assert list(checks._CHECKS) == defined
    assert len(set(map(id, checks._CHECKS))) == len(checks._CHECKS)
    assert len(checks._CHECKS) == 33


def test_random_f_samplers():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = checks.random_f(rng)
        assert f.shape == (3, 2)
        assert np.all(np.abs(f) <= 2.0)
        fn, sn = checks.random_f_nondegenerate(rng)
        assert sn.sigma[1] > 0.05
        fa, sa = checks.random_f_admissible(rng)
        assert me.invariants(sa).i3 > 0.05
        # Each pair carries its sample's own decomposition.
        for sample, svd in ((fn, sn), (fa, sa)):
            expected = me.svd32(sample)
            assert svd.sigma == expected.sigma
            assert np.array_equal(svd.u, expected.u)
            assert np.array_equal(svd.v, expected.v)
