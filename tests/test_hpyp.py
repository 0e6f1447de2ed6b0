import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpyparse.hpyp import (
    BaseDistribution,
    ContextTrie,
    DepthParams,
    SeatingStats,
    log_posterior_from_stats,
)

from .oracles import KneserNeyReference, SeatingSimulator, log_generalized_factorial


def random_events(rng, count, alphabet=6, dishes=8, max_depth=5):
    events = []
    for _ in range(count):
        depth = int(rng.integers(0, max_depth + 1))
        context = tuple(int(rng.integers(0, alphabet)) for _ in range(depth))
        events.append((context, int(rng.integers(0, dishes))))
    return events


def trained_trie(events, dishes=8):
    trie = ContextTrie(num_dishes=dishes)
    for context, dish in events:
        trie.insert(context, dish)
    return trie


# -- seating -------------------------------------------------------------


def test_first_event_propagates_to_base():
    trie = ContextTrie(num_dishes=3)
    trie.insert((4, 2), 1)
    # every restaurant on the path plus the base gains one unit
    node = trie.root
    assert node.customers == {1: 1} and node.tables == {1: 1}
    node = node.children[2]
    assert node.customers == {1: 1} and node.tables == {1: 1}
    node = node.children[4]
    assert node.customers == {1: 1} and node.tables == {1: 1}
    assert trie.base_counts == {1: 1}


def test_second_identical_event_stops_at_the_table():
    trie = ContextTrie(num_dishes=3)
    trie.insert((4, 2), 1)
    trie.insert((4, 2), 1)
    deepest = trie.root.children[2].children[4]
    assert deepest.customers[1] == 2 and deepest.tables[1] == 1
    # no second proxy anywhere
    assert trie.root.customers[1] == 1
    assert trie.root.children[2].customers[1] == 1
    assert trie.base_counts == {1: 1}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 300))
def test_counts_match_sequential_seating_simulator(seed, count):
    rng = np.random.default_rng(seed)
    events = random_events(rng, count)
    trie = trained_trie(events)
    sim = SeatingSimulator()
    for context, dish in events:
        sim.seat(context, dish)

    seen_contexts = set()
    for depth, key, restaurant in trie.iter_restaurants():
        context = tuple(reversed(key))
        seen_contexts.add(context)
        for dish in range(trie.num_dishes):
            assert restaurant.customers.get(dish, 0) == sim.customers(context, dish)
            assert restaurant.tables.get(dish, 0) == sim.table_count(context, dish)
        assert restaurant.total_customers == sum(restaurant.customers.values())
        assert restaurant.total_tables == sum(restaurant.tables.values())
    assert set(sim.contexts()) <= seen_contexts
    assert dict(sim.base_draws) == trie.base_counts


def test_minimal_assumption_table_bound():
    rng = np.random.default_rng(7)
    trie = trained_trie(random_events(rng, 400))
    for _, _, restaurant in trie.iter_restaurants():
        for dish, tables in restaurant.tables.items():
            assert tables == 1
            assert restaurant.customers[dish] >= 1
        # child tables lower-bound parent customers per dish
        for child in restaurant.children.values():
            for dish, t in child.tables.items():
                assert t <= restaurant.customers.get(dish, 0)


def test_insert_rejects_unknown_dish():
    trie = ContextTrie(num_dishes=2)
    with pytest.raises(KeyError):
        trie.insert((), 5)


# -- predictive probabilities ---------------------------------------------


def test_empty_trie_predicts_base():
    trie = ContextTrie(num_dishes=4)
    params = DepthParams.uniform(3)
    base = BaseDistribution.uniform(4)
    for context in [(), (1,), (2, 3, 1)]:
        assert trie.predictive_prob(context, 0, params, base) == pytest.approx(0.25)


def test_single_customer_closed_form():
    # One observation of dish r in a depth-1 context; d = 0.5, c = 1.0 at
    # both levels; the top restaurant then holds the single proxy.
    R = 7
    trie = ContextTrie(num_dishes=R)
    trie.insert((3,), 0)
    params = DepthParams.uniform(2, discount=0.5, concentration=1.0)
    base = BaseDistribution.uniform(R)
    top = (1 - 0.5) / (1 + 1) + ((1 + 0.5) / (1 + 1)) * (1.0 / R)
    expected = (1 - 0.5) / (1 + 1) + ((1 + 0.5) / (1 + 1)) * top
    assert trie.predictive_prob((3,), 0, params, base) == pytest.approx(expected, abs=1e-12)


def test_unseen_context_backs_off_identically():
    rng = np.random.default_rng(3)
    trie = trained_trie(random_events(rng, 200, max_depth=3))
    params = DepthParams.uniform(10, discount=0.3, concentration=0.7)
    base = BaseDistribution.uniform(8)
    stored = (2, 1)
    deeper = (5, 5, 5, 2, 1)  # same stored suffix, unstored prefix levels
    for dish in range(8):
        direct = trie.predictive_prob(stored, dish, params, base)
        assert trie.predictive_prob(deeper, dish, params, base) == pytest.approx(direct)


def test_empty_restaurant_passes_parent_through():
    trie = ContextTrie(num_dishes=4)
    trie.insert((1, 2), 0)  # creates intermediate restaurant (2,) with a proxy
    # context (9,) was never created: prediction equals the top restaurant's
    params = DepthParams.uniform(3, discount=0.4, concentration=0.0)
    base = BaseDistribution.uniform(4)
    for dish in range(4):
        assert trie.predictive_prob((9,), dish, params, base) == pytest.approx(
            trie.predictive_prob((), dish, params, base)
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_predictive_normalizes(seed):
    rng = np.random.default_rng(seed)
    dishes = 8
    trie = trained_trie(random_events(rng, 300, dishes=dishes), dishes)
    params = DepthParams(
        discount=rng.uniform(0.05, 0.95, size=6),
        concentration=rng.uniform(0.0, 3.0, size=6),
        beta_a=np.ones(6),
        beta_b=np.ones(6),
        gamma_shape=np.ones(6),
        gamma_rate=np.ones(6),
    )
    base = BaseDistribution.uniform(dishes)
    for _ in range(20):
        depth = int(rng.integers(0, 7))
        context = tuple(int(rng.integers(0, 6)) for _ in range(depth))
        total = sum(trie.predictive_prob(context, d, params, base) for d in range(dishes))
        assert total == pytest.approx(1.0, abs=1e-9)
        grouped = trie.predictive_probs(trie.chain(context), list(range(dishes)), params, base)
        assert grouped.sum() == pytest.approx(1.0, abs=1e-9)


def test_predictive_rejects_unknown_dish():
    trie = ContextTrie(num_dishes=2)
    with pytest.raises(KeyError):
        trie.predictive_prob((), 2, DepthParams.uniform(1), BaseDistribution.uniform(2))


# -- Kneser-Ney equivalence -----------------------------------------------


def test_kneser_ney_equivalence_small():
    rng = np.random.default_rng(42)
    vocab, order, n_tokens = 12, 2, 1500
    tokens = [int(rng.integers(0, vocab)) for _ in range(n_tokens)]
    events = [
        (tuple(tokens[i - order : i]), tokens[i]) for i in range(order, n_tokens)
    ]
    trie = ContextTrie(num_dishes=vocab)
    for context, w in events:
        trie.insert(context, w)
    discounts = [0.25, 0.5, 0.75]
    params = DepthParams(
        discount=np.array(discounts),
        concentration=np.zeros(3),
        beta_a=np.ones(3),
        beta_b=np.ones(3),
        gamma_shape=np.ones(3),
        gamma_rate=np.ones(3),
    )
    base = BaseDistribution.uniform(vocab)
    reference = KneserNeyReference(events, order, vocab)
    contexts = {ctx for ctx, _ in events}
    for context in sorted(contexts):
        for w in range(vocab):
            ours = trie.predictive_prob(context, w, params, base)
            theirs = reference.prob(context, w, discounts)
            assert ours == pytest.approx(theirs, abs=1e-9), (context, w)


# -- posterior -----------------------------------------------------------


def test_generalized_factorial_value():
    assert log_generalized_factorial(2.0, 3, 1.0) == pytest.approx(math.log(24.0))
    assert log_generalized_factorial(2.0, 0, 1.0) == 0.0
    assert log_generalized_factorial(2.0, -1, 1.0) == 0.0


def test_empty_trie_posterior_is_prior_only():
    trie = ContextTrie(num_dishes=4)
    base = BaseDistribution.uniform(4)
    params = DepthParams.uniform(1, discount=0.3, concentration=2.0)
    value = log_posterior_from_stats(SeatingStats.collect(trie, base), params)
    # uniform Beta contributes 0; Gamma(1, 1) contributes -c
    assert value == pytest.approx(-2.0)


def test_posterior_matches_direct_formula_single_restaurant():
    # Two dishes at one depth-1 restaurant: counts 3 and 1.
    trie = ContextTrie(num_dishes=4)
    for _ in range(3):
        trie.insert((5,), 0)
    trie.insert((5,), 1)
    d, c = 0.4, 1.3
    params = DepthParams.uniform(2, discount=d, concentration=c)
    base = BaseDistribution.uniform(4)

    def restaurant_factor(tables, total, dish_counts):
        value = log_generalized_factorial(c, tables, d)
        value -= log_generalized_factorial(c, total, 1.0)
        for n in dish_counts:
            value += log_generalized_factorial(1.0 - d, n - 1, 1.0)
        return value

    expected = 2 * math.log(0.25)  # two base draws
    expected += restaurant_factor(2, 4, [3, 1])  # the trained restaurant
    expected += restaurant_factor(2, 2, [1, 1])  # the top restaurant (proxies)
    expected += 2 * (-c)  # Gamma(1,1) priors at both depths
    assert log_posterior_from_stats(SeatingStats.collect(trie, base), params) == pytest.approx(expected, abs=1e-10)


def test_posterior_rejects_out_of_box_params():
    trie = ContextTrie(num_dishes=2)
    trie.insert((), 0)
    base = BaseDistribution.uniform(2)
    bad = DepthParams.uniform(1, discount=1.0)
    with pytest.raises(ValueError):
        log_posterior_from_stats(SeatingStats.collect(trie, base), bad)
    bad2 = DepthParams.uniform(1, concentration=-0.5)
    with pytest.raises(ValueError):
        log_posterior_from_stats(SeatingStats.collect(trie, base), bad2)


def test_stats_pool_across_restaurants():
    rng = np.random.default_rng(5)
    events = random_events(rng, 500)
    trie = trained_trie(events)
    base = BaseDistribution.uniform(8)
    stats = SeatingStats.collect(trie, base)
    params = DepthParams.uniform(stats.depths, discount=0.37, concentration=0.9)

    # direct per-restaurant evaluation
    d, c = 0.37, 0.9
    expected = sum(
        count * math.log(base.prob(dish)) for dish, count in trie.base_counts.items()
    )
    for depth, _, restaurant in trie.iter_restaurants():
        if restaurant.is_empty():
            continue
        expected += log_generalized_factorial(c, restaurant.total_tables, d)
        expected -= log_generalized_factorial(c, restaurant.total_customers, 1.0)
        for n in restaurant.customers.values():
            expected += log_generalized_factorial(1.0 - d, n - 1, 1.0)
    expected += stats.depths * (-c)
    assert log_posterior_from_stats(stats, params) == pytest.approx(expected, abs=1e-9)
