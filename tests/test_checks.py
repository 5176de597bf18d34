"""The self-check registry: determinism and mutation sensitivity."""

import functools
import importlib
import math
import re
from pathlib import Path

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


def test_report_keeps_the_first_nan_or_largest_error_and_its_witness():
    witnesses = np.arange(3 * 6).reshape(3, 3, 2)
    errors = np.array([[0.5, 2.0], [2.0, np.nan], [np.nan, 0.0]])
    r = checks._report("demo", 3, 1.0, errors, witnesses)
    assert np.isnan(r.max_error) and r.counterexample == witnesses[1].tolist()
    r = checks._report("demo", 3, 1.0, np.nan_to_num(errors), witnesses)
    assert r.max_error == 2.0 and r.counterexample == witnesses[0].tolist()
    # Only zeros, one of them negative, read as 0.0; no errors at all too.
    r = checks._report("demo", 3, 1.0, np.array([[-0.0, 0.0]] * 3), witnesses)
    assert r.passed and math.copysign(1.0, r.max_error) == 1.0
    r = checks._report("demo", 1, 1.0, np.array([]))
    assert r.passed and r.max_error == 0.0 and r.counterexample is None


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

    def nan_in_member_1(svd, w):
        calls.append(svd)
        h1, h2, h3 = original(svd, w)
        h2 = h2.copy()
        h2[1] = np.nan
        return h1, h2, h3

    monkeypatch.setattr(invariants_module, "invariant_hvp", nan_in_member_1)
    r = _run_only(monkeypatch, "invariant_hvp_i2_exact", seed=5, trials=6)
    # One call on the whole ensemble.
    assert len(calls) == 1 and calls[0].u.shape == (6, 3, 3)
    assert not r.passed
    assert np.isnan(r.max_error)
    f1 = np.array(r.counterexample)
    assert f1.shape == (3, 2)
    rebuilt = calls[0].reconstruct()
    assert np.max(np.abs(f1 - rebuilt[1])) < 1e-12
    assert np.max(np.abs(f1 - rebuilt[0])) > 1e-3


def test_witnessless_check_reports_its_largest_error(monkeypatch):
    # An ascent direction on the first trial only: the worst error comes
    # first, and fem_descent keeps no counterexample.
    original = checks.fem_mod._newton_direction
    grads = []

    def ascent_first(hess, grad, tau, diag):
        grads.append(grad)
        return grad if len(grads) == 1 else original(hess, grad, tau, diag)

    monkeypatch.setattr(checks.fem_mod, "_newton_direction", ascent_first)
    r = _run_only(monkeypatch, "fem_descent", seed=0, trials=300)
    assert r.trials == 3 and len(grads) == 3
    gg = float(grads[0] @ grads[0])
    assert r.max_error == gg / max(1.0, gg)
    assert not r.passed
    assert r.counterexample is None


def test_trials_reuse_their_samples_decomposition(monkeypatch):
    # eigen_unit_norm decomposes nothing but its sample, drawn before the
    # check runs: one svd32 call per round of candidates, on exactly that
    # round's candidates, and none after.  The accepted candidates keep
    # their rounds' decompositions, which equal bitwise the decomposition of
    # the accepted stack, and the three eigensystems (I1, I2, I3) take
    # that one object.
    rounds, decomposed, results, seen = [], [], [], []
    random_f, svd32 = checks.random_f, checks.svd_mod.svd32
    eigensystem = checks.inv_mod.invariant_eigensystem

    def counted_draw(rng, n):
        rounds.append(random_f(rng, n))
        return rounds[-1]

    def counted_svd(f):
        decomposed.append(np.array(f))
        results.append(svd32(f))
        return results[-1]

    def recorded_eigensystem(which, s):
        seen.append(s)
        return eigensystem(which, s)

    monkeypatch.setattr(checks, "random_f", counted_draw)
    monkeypatch.setattr(checks.svd_mod, "svd32", counted_svd)
    monkeypatch.setattr(checks.inv_mod, "invariant_eigensystem", recorded_eigensystem)
    # This seed rejects one of its first 300 candidates: two rounds.
    r = _run_only(monkeypatch, "eigen_unit_norm", seed=7, trials=300)
    assert r.passed and r.trials == 300
    candidates = np.concatenate(rounds)
    accepted = candidates[svd32(candidates).sigma[1] > checks._MIN_SIGMA2]
    assert len(rounds) == 2 and len(accepted) == 300
    assert len(decomposed) == len(rounds)
    for got, want in zip(decomposed, rounds):
        assert np.array_equal(got, want)
    assert len(seen) == 3
    assert all(s is seen[0] for s in seen)
    kept, whole = seen[0], svd32(accepted)
    for got, want in zip(
        (kept.u, *kept.sigma, kept.v), (whole.u, *whole.sigma, whole.v)
    ):
        assert got.tobytes() == want.tobytes()


_SAMPLED = [fn for fn in checks._CHECKS if getattr(fn, "sample", None) is not None]


@pytest.mark.parametrize(
    "check", _SAMPLED, ids=[fn.__name__.removeprefix("_check_") for fn in _SAMPLED]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_on_a_stack_equals_its_one_member_stacks(check, seed):
    # A check on an n-stack gives bitwise the rows it gives, one at a time,
    # on its n members as one-member stacks, and leaves the generator where
    # those n calls leave it: each perturbation is drawn in trial order.
    n = 7
    whole, parts = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = np.column_stack(check.__wrapped__(whole, *check.sample(whole, n)))
    f, *decomposed = check.sample(parts, n)
    rows = []
    for k in range(n):
        one = f[k : k + 1]
        member = (one, me.svd32(one)) if decomposed else (one,)
        rows.append(np.column_stack(check.__wrapped__(parts, *member)))
    assert stacked.shape == (n, rows[0].shape[1])
    assert np.array_equal(np.concatenate(rows), stacked)
    assert whole.bit_generator.state == parts.bit_generator.state


def test_the_stack_test_covers_every_sampled_check():
    # 33 checks: 26 on Fs, one on symmetric 6x6 matrices, five FEM checks
    # without a sampler, and fd_convergence.
    assert len(_SAMPLED) == 27


# An admissible F (entries in (-2, 2), I3 = 0.0526) whose projected sheet
# Hessian has entries near 1e6, so that dense6's roundoff asymmetry, 4.7e-10,
# is above an absolute 1e-10 symmetry rule, but only 1.9e-16 relative to
# max|a|.
_ASYMMETRIC_DENSE6_F = [
    [1.680044931541751, -1.4733002159454753],
    [-1.8706678432066626, 1.6392316168383967],
    [1.1959735427354938, -1.0692431189688638],
]


def _skewed(dense):
    """dense (..., 6, 6) with one off-diagonal entry of each matrix raised by
    1e-8 max|a|: asymmetric to the oracle's relative 1e-10 rule."""
    dense = dense.copy()
    dense[..., 0, 1] += 1e-8 * np.max(np.abs(dense), axis=(-2, -1))
    return dense


def test_psd_projection_passes_at_a_roundoff_asymmetry():
    # The symmetry rule is relative, in the oracle and in the check alike.
    f = np.array([_ASYMMETRIC_DENSE6_F])
    s = me.svd32(f)
    dense = me.project_psd(me.energy_eigensystem(checks._SHEET, s)).dense6()
    assert np.max(np.abs(dense - np.swapaxes(dense, 1, 2))) > 1e-10
    spec = me.jacobi_eigen_sym(dense[0])
    assert np.all(np.isfinite(spec.values)) and np.all(np.isfinite(spec.vectors))
    check = checks._check_psd_projection.__wrapped__
    errors = np.column_stack(check(np.random.default_rng(0), f, s))
    r = checks._report("psd_projection", 1, 1e-10, errors, f)
    assert r.passed and r.max_error <= 1e-10


def test_psd_projection_reports_an_oracle_rejection_instead_of_raising(monkeypatch):
    f = np.array([_ASYMMETRIC_DENSE6_F])
    s = me.svd32(f)
    assert me.invariants(s).i3[0] > 0.05
    dense6 = me.EigenSystem6.dense6
    monkeypatch.setattr(me.EigenSystem6, "dense6", lambda e: _skewed(dense6(e)))
    proj = me.project_psd(me.energy_eigensystem(checks._SHEET, s))
    with pytest.raises(me.NotSymmetric):
        me.jacobi_eigen_sym(proj.dense6()[0])
    check = checks._check_psd_projection.__wrapped__
    errors = np.column_stack(check(np.random.default_rng(0), f, s))
    assert errors.shape == (1, 5) and np.isnan(errors).any()
    r = checks._report("psd_projection", 1, 1e-10, errors, f)
    assert not r.passed
    assert np.isnan(r.max_error)
    assert r.counterexample == _ASYMMETRIC_DENSE6_F


def test_jacobi_gives_a_nan_row_only_to_the_rejected_member(monkeypatch):
    # One oracle call on the whole stack: the asymmetric member's rows are
    # NaN, and its neighbours' rows equal their lone oracle calls bitwise.
    good, _ = checks.random_f_admissible(np.random.default_rng(9), 4)
    f = np.insert(good, 2, _ASYMMETRIC_DENSE6_F, axis=0)
    dense = me.project_psd(me.energy_eigensystem(checks._SHEET, me.svd32(f))).dense6()
    dense[2] = _skewed(dense[2])
    calls = []
    oracle = checks.orc_mod._eigen_sym
    monkeypatch.setattr(checks.orc_mod, "_eigen_sym", lambda a: calls.append(a) or oracle(a))
    values, vectors = checks._jacobi(dense)
    assert len(calls) == 1
    assert np.isnan(values[2]).all() and np.isnan(vectors[2]).all()
    for k in (0, 1, 3, 4):
        lone = me.jacobi_eigen_sym(dense[k])
        assert values[k].tobytes() == lone.values.tobytes()
        assert vectors[k].tobytes() == lone.vectors.tobytes()


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
    # A k-stack is bitwise the k one-member stacks drawn one after another,
    # with their decompositions, and leaves the generator where they leave
    # it.
    stacked, single = np.random.default_rng(k), np.random.default_rng(k)
    drawn = sampler(stacked, k)
    ones = [sampler(single, 1) for _ in range(k)]
    assert drawn[0].shape[0] == k
    assert np.array_equal(drawn[0], np.concatenate([one[0] for one in ones]))
    if len(drawn) == 2:
        s = drawn[1]
        for i, (_, t) in enumerate(ones):
            assert (s.sigma[0][i], s.sigma[1][i]) == (t.sigma[0][0], t.sigma[1][0])
            assert np.array_equal(s.u[i], t.u[0])
            assert np.array_equal(s.v[i], t.v[0])
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
    f = checks.random_f(rng, 50)
    assert f.shape == (50, 3, 2)
    assert np.all(np.abs(f) <= 2.0)
    fn, sn = checks.random_f_nondegenerate(rng, 50)
    assert np.all(sn.sigma[1] > 0.05)
    fg, sg = checks.random_f_gapped(rng, 50)
    assert np.all(sg.sigma[1] > 0.05) and np.all(sg.sigma[0] - sg.sigma[1] > 0.05)
    fa, sa = checks.random_f_admissible(rng, 50)
    assert np.all(me.invariants(sa).i3 > 0.05)
    # Each stack carries its members' own decompositions.
    for sample, svd in ((fn, sn), (fg, sg), (fa, sa)):
        assert sample.shape == (50, 3, 2)
        for k, one in enumerate(sample):
            expected = me.svd32(one)
            assert (svd.sigma[0][k], svd.sigma[1][k]) == expected.sigma
            assert np.array_equal(svd.u[k], expected.u)
            assert np.array_equal(svd.v[k], expected.v)
    (a,) = checks._random_sym6(rng, 5)
    assert a.shape == (5, 6, 6)
    assert np.array_equal(a, np.swapaxes(a, 1, 2))


def test_jacobi_gives_a_nan_row_to_an_unconverged_member(monkeypatch):
    # After one sweep only the diagonal member has met its stop test: it
    # keeps the bits of its lone call, and the others read NaN, all from
    # one oracle call.
    monkeypatch.setattr(checks.orc_mod, "_MAX_SWEEPS", 1)
    (a,) = checks._random_sym6(np.random.default_rng(5), 3)
    a[1] = np.diag([4.0, -1.0, 2.0, 0.0, 3.0, 1.0])
    calls, oracle = [], checks.orc_mod._eigen_sym
    monkeypatch.setattr(checks.orc_mod, "_eigen_sym", lambda a: calls.append(a) or oracle(a))
    values, vectors = checks._jacobi(a)
    assert len(calls) == 1
    lone = me.jacobi_eigen_sym(a[1])
    assert values[1].tobytes() == lone.values.tobytes()
    assert vectors[1].tobytes() == lone.vectors.tobytes()
    for k in (0, 2):
        assert np.isnan(values[k]).all() and np.isnan(vectors[k]).all()


def test_an_unconverged_oracle_fails_its_check_instead_of_raising(monkeypatch):
    monkeypatch.setattr(checks.orc_mod, "_MAX_SWEEPS", 1)
    r = _run_only(monkeypatch, "oracle_jacobi", seed=0, trials=30)
    assert not r.passed and math.isnan(r.max_error)
    assert np.array(r.counterexample).shape == (6, 6)


def _perfbench_constant(name):
    run = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    return int(re.search(rf"^{name} = (\d+)$", run.read_text(), re.M).group(1))


def test_every_report_passes_at_the_benchmark_check_seeds():
    # The benchmark's correctness gate for its check workload, run here
    # first: run_checks at its trials for every seed it cycles through.
    trials = _perfbench_constant("CHECK_TRIALS")
    for seed in range(_perfbench_constant("CHECK_SEEDS")):
        for r in me.run_checks(seed=seed, trials=trials):
            assert r.passed, f"seed {seed}, {r.name}: {r.max_error} > {r.tol}"
