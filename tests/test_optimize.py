import numpy as np
import pytest

import hpyparse.optimize
from hpyparse.hpyp import (
    BaseDistribution,
    ContextTrie,
    DepthParams,
    SeatingStats,
    log_posterior_from_stats,
)
from hpyparse.optimize import _unpack, optimize_params

from .test_hpyp import random_events, trained_trie


def central_difference(stats, params, step=1e-6):
    """Independent finite-difference gradient over (d, c) per depth."""
    grad = []
    for m in range(stats.depths):
        for attr in ("discount", "concentration"):
            hi = DepthParams(**{
                f: getattr(params, f).copy()
                for f in ("discount", "concentration", "beta_a", "beta_b", "gamma_shape", "gamma_rate")
            })
            lo = DepthParams(**{
                f: getattr(params, f).copy()
                for f in ("discount", "concentration", "beta_a", "beta_b", "gamma_shape", "gamma_rate")
            })
            getattr(hi, attr)[m] += step
            getattr(lo, attr)[m] -= step
            grad.append(
                (log_posterior_from_stats(stats, hi) - log_posterior_from_stats(stats, lo))
                / (2 * step)
            )
    return np.array(grad)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    trie = trained_trie(random_events(rng, 400))
    base = BaseDistribution.uniform(8)
    stats = SeatingStats.collect(trie, base)
    for _ in range(20):
        params = DepthParams(
            discount=rng.uniform(0.05, 0.9, stats.depths),
            concentration=rng.uniform(0.05, 3.0, stats.depths),
            beta_a=rng.uniform(0.5, 3.0, stats.depths),
            beta_b=rng.uniform(0.5, 3.0, stats.depths),
            gamma_shape=rng.uniform(0.5, 3.0, stats.depths),
            gamma_rate=rng.uniform(0.5, 3.0, stats.depths),
        )
        _, analytic = log_posterior_from_stats(stats, params, with_grad=True)
        numeric = central_difference(stats, params)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_objective_never_decreases_and_box_holds():
    rng = np.random.default_rng(9)
    trie = trained_trie(random_events(rng, 600))
    base = BaseDistribution.uniform(8)
    result = optimize_params(trie, base)
    trace = result.objective_trace
    assert len(trace) >= 2
    for before, after in zip(trace, trace[1:]):
        assert after >= before - 1e-9 * max(1.0, abs(before))
    assert result.objective == pytest.approx(trace[-1], rel=1e-12)
    result.params.check_box()
    assert np.all(result.params.discount > 0) and np.all(result.params.discount < 1)
    assert np.all(result.params.concentration >= 0)


def test_each_evaluated_point_costs_one_objective_call(toy_model, monkeypatch):
    # The trace reuses the value the solver's last evaluation computed at
    # the same point: the objective is evaluated once for x0 (the first
    # trace entry) and once per gradient evaluation, and every trace entry
    # is the objective at its iterate, bit for bit.
    trie, base = toy_model.trie, toy_model.base
    init = DepthParams.uniform(trie.depth_count())
    objective = hpyparse.optimize.log_posterior_from_stats
    with_grads = []

    def counted(stats, params, with_grad=False):
        with_grads.append(with_grad)
        return objective(stats, params, with_grad)

    iterates = []
    minimize = hpyparse.optimize.sciopt.minimize

    def spying(fun, x0, callback, **kwargs):
        iterates.append(x0.copy())

        def seen(x):
            iterates.append(x.copy())
            callback(x)

        return minimize(fun, x0, callback=seen, **kwargs)

    monkeypatch.setattr(hpyparse.optimize, "log_posterior_from_stats", counted)
    monkeypatch.setattr(hpyparse.optimize.sciopt, "minimize", spying)
    result = optimize_params(trie, base, init=init)
    assert result.iterations >= 2
    assert with_grads == [False] + [True] * (len(with_grads) - 1)
    assert len(result.objective_trace) == len(iterates) == result.iterations + 1
    stats = SeatingStats.collect(trie, base)
    for value, x in zip(result.objective_trace, iterates):
        assert value == float(objective(stats, _unpack(x, init, stats.depths)))


def pyp_draw(rng, discount, concentration, n, base_size):
    """Sequential draw from a Pitman-Yor CRP with a uniform base."""
    tables: list[tuple[int, int]] = []  # (dish, occupancy)
    draws = []
    for k in range(n):
        total = k + concentration
        new_prob = (concentration + discount * len(tables)) / total if k else 1.0
        if rng.random() < new_prob:
            dish = int(rng.integers(0, base_size))
            tables.append((dish, 1))
        else:
            weights = np.array([occ - discount for _, occ in tables], dtype=float)
            idx = rng.choice(len(tables), p=weights / weights.sum())
            dish, occ = tables[idx]
            tables[idx] = (dish, occ + 1)
        draws.append(dish)
    return draws


def test_discount_recovery_from_synthetic_draw():
    rng = np.random.default_rng(2024)
    draws = pyp_draw(rng, discount=0.8, concentration=1.0, n=10000, base_size=10**6)
    trie = ContextTrie(num_dishes=10**6)
    for dish in draws:
        trie.insert((0,), dish)
    base = BaseDistribution.uniform(10**6)
    result = optimize_params(trie, base)
    recovered = float(result.params.discount[1])
    assert abs(recovered - 0.8) <= 0.1


def test_multistart_reaches_same_objective():
    rng = np.random.default_rng(17)
    trie = trained_trie(random_events(rng, 500))
    base = BaseDistribution.uniform(8)
    depths = trie.depth_count()
    results = []
    for seed in (1, 2):
        r = np.random.default_rng(seed)
        init = DepthParams.uniform(depths)
        init.discount = r.uniform(0.1, 0.9, depths)
        init.concentration = r.uniform(0.1, 2.0, depths)
        results.append(optimize_params(trie, base, init=init).objective)
    assert abs(results[0] - results[1]) < 1e-3


def test_optimize_aborts_on_nonfinite():
    trie = ContextTrie(num_dishes=4)
    trie.insert((1,), 0)
    base = BaseDistribution(BaseDistribution.UNIFORM, np.array([1.0, 0.0, 0.0, 0.0]))
    # dish 0 has base probability 1; make it 0 instead to force -inf
    base.probs = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(FloatingPointError):
        optimize_params(trie, base)
