import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpyparse import mcmc
from hpyparse.config import RunConfig
from hpyparse.errors import DataError
from hpyparse.events import extract_events, root_context
from hpyparse.model import TrainedModel, build_grammar, train_model
from hpyparse.transforms import binarize_right
from hpyparse.trees import read_tree

from .conftest import AMBIGUOUS_SENTENCE, replay_proposals

def test_train_stats_reflect_corpus(toy_corpus, toy_model_and_stats):
    model, stats = toy_model_and_stats
    binarized = [binarize_right(t) for _, t in toy_corpus]
    internal = sum(len(list(t.internal_nodes())) for t in binarized)
    assert stats.num_trees == len(toy_corpus)
    assert stats.num_events == internal
    assert stats.max_context_depth == max(t.depth() for t in binarized)
    assert math.isfinite(stats.final_objective)


def test_base_distribution_joint_sums_to_one(toy_model):
    assert toy_model.base.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_expansion_probs_renormalize_per_lhs(toy_model):
    grammar = toy_model.grammar
    for label in ("S", "NP", "VP", "NN"):
        lhs = grammar.nonterminals.id(label)
        for context in [(lhs,), (grammar.root, lhs)]:
            _, logs = toy_model.expansion_log_probs(toy_model.restaurant(context), lhs)
            assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-9)


def test_tree_log_prob_sums_expansions(toy_model):
    tree = binarize_right(
        read_tree("(S (NP (DT the) (NN dog)) (VP (VB ran)))")
    )
    grammar = toy_model.grammar
    total = 0.0
    for context, rule_id in extract_events(tree, grammar, toy_model.context_mode):
        ids, logs = toy_model.expansion_log_probs(
            toy_model.restaurant(context), grammar.rules[rule_id].lhs
        )
        total += float(logs[ids.index(rule_id)])
    assert toy_model.tree_log_prob(tree) == pytest.approx(total)
    assert total < 0


def test_context_cap_changes_scores(toy_model):
    tree = binarize_right(
        read_tree(
            "(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (NP (DT the) (NN cat)) (PP (IN with) (NP (DT the) (NN hat))))))"
        )
    )
    uncapped = toy_model.tree_log_prob(tree)
    capped_model = dataclasses.replace(toy_model, context_cap=1)
    capped = capped_model.tree_log_prob(tree)
    assert math.isfinite(uncapped) and math.isfinite(capped)
    assert uncapped != pytest.approx(capped)


def test_context_cap_queries_the_context_suffix(toy_corpus, toy_model):
    events = [
        event
        for _, tree in toy_corpus
        for event in extract_events(binarize_right(tree), toy_model.grammar)
    ]
    assert max(len(context) for context, _ in events) > 2
    for cap in (0, 1, 2):
        capped_model = dataclasses.replace(toy_model, context_cap=cap)
        for context, rule_id in events:
            suffix = context[len(context) - cap :] if cap else ()
            lhs = toy_model.grammar.rules[rule_id].lhs
            ids, logs = capped_model.expansion_log_probs(capped_model.restaurant(context), lhs)
            want_ids, want_logs = toy_model.expansion_log_probs(toy_model.restaurant(suffix), lhs)
            assert ids == want_ids
            assert np.array_equal(logs, want_logs)


def test_one_expansion_query_per_scored_event(toy_corpus, toy_model, monkeypatch, drawn_picks):
    # The traced model.expansion_calls counts exactly these queries.
    grammar = toy_model.grammar
    queries, walks = [], []
    real_query, real_walk = TrainedModel.expansion_log_probs, mcmc.leftmost_walk

    def counted(self, restaurant, lhs):
        queries.append((restaurant, lhs))
        return real_query(self, restaurant, lhs)

    def walked(*args):
        walks.append(real_walk(*args))
        return walks[-1]

    monkeypatch.setattr(TrainedModel, "expansion_log_probs", counted)
    monkeypatch.setattr(mcmc, "leftmost_walk", walked)
    tree = binarize_right(toy_corpus[-1][1])
    events = extract_events(tree, grammar, toy_model.context_mode)
    expected = [(toy_model.restaurant(context), grammar.rules[rule_id].lhs) for context, rule_id in events]
    toy_model.events_log_prob(events)
    assert queries == expected
    queries.clear()
    toy_model.tree_log_prob(tree)
    assert queries == expected
    queries.clear()
    mcmc.mh_sample(toy_model, AMBIGUOUS_SENTENCE, 6, 2, np.random.default_rng(3))
    root = (grammar.root, 0, len(AMBIGUOUS_SENTENCE))
    proposals = replay_proposals(grammar, root, drawn_picks)
    assert len(proposals) == 7  # the first state plus one proposal per iteration
    # leftmost_walk runs once per distinct derivation, when it is first drawn,
    # and only those walks are scored
    first_drawn = {}
    for steps in proposals:
        first_drawn.setdefault(tuple(edge for _, _, edge in steps), steps)
    assert 1 < len(first_drawn) < len(proposals)
    assert walks == list(first_drawn.values())
    assert queries == [
        (toy_model.restaurant(context), grammar.rules[rule_id].lhs)
        for steps in walks
        for _, context, (rule_id, _) in steps
    ]


def test_seed_free_training_is_deterministic(toy_corpus):
    a, _ = train_model(toy_corpus, RunConfig())
    b, _ = train_model(toy_corpus, RunConfig())
    assert np.array_equal(a.params.discount, b.params.discount)
    assert np.array_equal(a.params.concentration, b.params.concentration)
    assert a.trie.num_events == b.trie.num_events


def test_rare_threshold_replaces_singletons(toy_corpus):
    model, _ = train_model(toy_corpus, RunConfig(rare_threshold=1))
    # 'fell' occurs three times and survives; 'ran' three times; 'hat' three;
    # 'saw' four; nothing with count 1 remains raw
    terms = model.grammar.terminals.texts()
    assert "saw" in terms
    mapped = model.mapper.map_sentence(["glorp"])
    assert mapped[0].startswith("UNK")


def test_multiple_roots_rejected():
    trees = [read_tree("(S (A a))"), read_tree("(T (A a))")]
    with pytest.raises(DataError):
        build_grammar(trees)


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        train_model([], RunConfig())


@pytest.mark.parametrize("threshold", [0, 1])
def test_words_that_do_not_match_the_tree_yield_rejected(threshold):
    corpus = [(["a", "b"], read_tree("(S (A a) (B b))")), (["a"], read_tree("(S (A a) (B b))"))]
    with pytest.raises(DataError):
        train_model(corpus, RunConfig(rare_threshold=threshold))


def test_rule_context_mode_trains(toy_corpus):
    model, stats = train_model(toy_corpus, RunConfig(context_mode="rule"))
    assert stats.num_events > 0
    lhs = model.grammar.root
    _, logs = model.expansion_log_probs(model.restaurant(()), lhs)
    assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def models_by_mode(toy_corpus, toy_model):
    """The toy model in both context modes, plus capped copies that keep
    their caches across examples (filled on demand)."""
    rule_model, _ = train_model(toy_corpus, RunConfig(context_mode="rule", rare_threshold=0))
    return {"nonterminal": toy_model, "rule": rule_model}, {}


@given(data=st.data())
@settings(max_examples=200)
def test_capped_chain_keeps_every_float(models_by_mode, data):
    models, capped_models = models_by_mode
    mode = data.draw(st.sampled_from(sorted(models)))
    model = models[mode]
    trie = model.trie
    paths = sorted(key for _, key, _ in trie.iter_restaurants())  # nearest element first
    seen = sorted({element for key in paths for element in key})
    never_seen = st.integers(seen[-1] + 1, seen[-1] + 4)
    prefix = data.draw(st.lists(st.sampled_from(seen) | never_seen, max_size=trie.max_depth + 3))
    context = tuple(prefix) + data.draw(st.sampled_from(paths))[::-1]
    cap = data.draw(st.none() | st.integers(0, trie.max_depth + 2))
    lhs = data.draw(st.sampled_from(
        [nt for nt in range(len(model.grammar.nonterminals)) if model.grammar.rules_for(nt)]
    ))

    capped = context if cap is None else context[max(len(context) - cap, 0) :]
    chain = trie.chain(context)[: None if cap is None else cap + 1]
    expected = trie.chain(capped)
    assert len(chain) == len(expected)
    assert all(ours is theirs for ours, theirs in zip(chain, expected))
    dishes = list(range(trie.num_dishes))
    probs = trie.predictive_probs(chain, dishes, model.params, model.base)
    assert np.array_equal(
        probs, [trie.predictive_prob(capped, d, model.params, model.base) for d in dishes]
    )

    capped_model = capped_models.setdefault(
        (mode, cap), dataclasses.replace(model, context_cap=cap)
    )
    ids, logs = capped_model.expansion_log_probs(capped_model.restaurant(context), lhs)
    assert ids == model.grammar.rules_for(lhs)
    p = probs[ids]
    assert np.array_equal(logs, np.log(p) - math.log(p.sum()))
    # the models keep their fold memos across examples, so most misses
    # start mid-chain; every memoized vector is still the plain fold's
    contexts = {node: key[::-1] for _, key, node in trie.iter_restaurants()}
    for restaurant, vector in capped_model._folds[lhs].items():
        chain = trie.chain(contexts[restaurant])
        assert chain[-1] is restaurant
        assert np.array_equal(vector, trie.predictive_probs(chain, ids, model.params, model.base))


def test_a_miss_folds_on_from_the_deepest_memoized_level(toy_model):
    # a deep context, then its chain's prefix (the parent restaurant's
    # context), then a sibling of the deep restaurant
    model = dataclasses.replace(toy_model)
    trie = model.trie
    contexts = {node: key[::-1] for _, key, node in trie.iter_restaurants()}
    deep = max((c for c in contexts.values() if c and len(trie.chain(c)[-2].children) > 1), key=len)
    sibling = next(node for e, node in trie.chain(deep)[-2].children.items() if e != deep[0])
    assert len(deep) >= 3
    lhs = model.grammar.rules[next(iter(trie.chain(deep)[-1].customers))].lhs
    folds = model._folds.setdefault(lhs, {})

    model.expansion_log_probs(model.restaurant(deep), lhs)
    assert set(folds) == {node for node in trie.chain(deep) if not node.is_empty()}
    before = dict(folds)
    model.expansion_log_probs(model.restaurant(deep[1:]), lhs)
    assert folds.keys() == before.keys()  # the deep query memoized the parent
    sibling_context = contexts[sibling]
    model.expansion_log_probs(model.restaurant(sibling_context), lhs)
    assert set(folds) - set(before) == {sibling}

    fresh = dataclasses.replace(toy_model)
    ids = model.grammar.rules_for(lhs)
    for context in (deep, deep[1:], sibling_context):
        chain = trie.chain(context)
        assert np.array_equal(folds[chain[-1]], trie.predictive_probs(chain, ids, model.params, model.base))
        ours = model.expansion_log_probs(model.restaurant(context), lhs)
        theirs = fresh.expansion_log_probs(fresh.restaurant(context), lhs)
        assert ours[0] == theirs[0] and np.array_equal(ours[1], theirs[1])


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_a_cap_set_after_uncapped_decoding_scores_as_a_fresh_capped_model(
    toy_corpus, toy_model, cap
):
    # ``cli._load_decoding_model`` sets the cap by attribute on a model
    # whose memos may already be filled
    model = dataclasses.replace(toy_model)
    events = [
        event
        for _, tree in toy_corpus
        for event in extract_events(binarize_right(tree), model.grammar, model.context_mode)
    ]
    rules = model.grammar.rules

    def scores(m):
        return [m.expansion_log_probs(m.restaurant(context), rules[rule_id].lhs) for context, rule_id in events]

    scores(model)
    model.context_cap = cap
    fresh = dataclasses.replace(toy_model, context_cap=cap)
    for ours, theirs in zip(scores(model), scores(fresh)):
        assert ours[0] == theirs[0] and np.array_equal(ours[1], theirs[1])


@given(data=st.data())
@settings(max_examples=200)
def test_stepping_from_the_root_context_gives_the_mapped_restaurant(models_by_mode, data):
    # Folding ``step`` over a context's elements, from the empty context,
    # reaches the restaurant the context maps to; the models keep their
    # memos across examples, so later examples fold through memo hits.
    models, capped_models = models_by_mode
    mode = data.draw(st.sampled_from(sorted(models)))
    model = models[mode]
    trie = model.trie
    paths = sorted(key for _, key, _ in trie.iter_restaurants())
    seen = sorted({element for key in paths for element in key})
    never_seen = st.integers(seen[-1] + 1, seen[-1] + 4)
    prefix = data.draw(st.lists(st.sampled_from(seen) | never_seen, max_size=trie.max_depth + 3))
    context = tuple(prefix) + data.draw(st.sampled_from(paths))[::-1]
    cap = data.draw(st.none() | st.integers(0, trie.max_depth + 2))
    capped_model = capped_models.setdefault(
        (mode, cap), dataclasses.replace(model, context_cap=cap)
    )
    restaurant = capped_model.restaurant(())
    for k, element in enumerate(context):
        restaurant = capped_model.step(restaurant, element)
        assert restaurant is capped_model.restaurant(context[: k + 1])
    assert restaurant is trie.chain(context)[: None if cap is None else cap + 1][-1]


def test_every_event_context_folds_to_its_restaurant(toy_corpus, models_by_mode):
    # the same over every training event, from each mode's root context
    models, _ = models_by_mode
    for mode, model in models.items():
        root = root_context(model.grammar.root, mode)
        for cap in (None, 0, 1, 2):
            capped = dataclasses.replace(model, context_cap=cap)
            for _, tree in toy_corpus:
                for context, _ in extract_events(binarize_right(tree), model.grammar, mode):
                    restaurant = capped.restaurant(root)
                    for element in context[len(root) :]:
                        restaurant = capped.step(restaurant, element)
                    assert restaurant is capped.restaurant(context)
