import math

import numpy as np
import pytest

from hpyparse.astar import astar_parse, completion_estimate
from hpyparse.config import RunConfig
from hpyparse.errors import DataError
from hpyparse.hypergraph import build_hypergraph
from hpyparse.model import TrainedModel, train_model
from hpyparse.pcfg import NEG_INF, Pcfg, inside
from hpyparse.synthetic import generate_tag_corpus
from hpyparse.transforms import pos_to_tree
from hpyparse.trees import read_treebank, write_tree

from .conftest import AMBIGUOUS_SENTENCE
from .oracles import enumerate_parses


def prepared(model, words):
    mapped = model.mapper.map_sentence(words)
    hg = build_hypergraph(model.grammar, mapped)
    chart = inside(model.pcfg, mapped)
    return mapped, hg, chart


def test_unambiguous_sentence_any_heuristic(toy_model):
    words = "the dog ran".split()
    mapped, hg, chart = prepared(toy_model, words)
    expected = "(S (NP (DT the) (NN dog)) (VP (VB ran)))"
    for heuristic in ("full", "local"):
        for beam in (1, 16, None):
            result = astar_parse(toy_model, hg, chart, heuristic, beam)
            assert not result.used_fallback
            assert write_tree(result.tree) == expected


def test_popped_priority_equals_exact_score(toy_model):
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    result = astar_parse(toy_model, hg, chart, "full", None)
    assert result.log_score == pytest.approx(
        toy_model.tree_log_prob(result.tree), abs=1e-9
    )


def test_astar_matches_bruteforce_argmax(toy_model):
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    candidates = enumerate_parses(toy_model.grammar, mapped)
    assert 1 < len(candidates) <= 50
    scores = [toy_model.tree_log_prob(t) for t in candidates]
    best = max(scores)
    for heuristic in ("full", "local"):
        result = astar_parse(toy_model, hg, chart, heuristic, 10**6)
        assert result.log_score == pytest.approx(best, abs=1e-9)
        assert write_tree(result.tree) == write_tree(candidates[int(np.argmax(scores))])


def test_full_frontier_heuristic_values(toy_model):
    # the full estimate passes every open frontier item
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    assert completion_estimate([], chart) == 0.0
    root_inside = chart.log_prob(*hg.root)
    assert completion_estimate([hg.root], chart) == pytest.approx(root_inside)
    # sum over several frontier items equals manual accumulation
    nodes = sorted(hg.nodes)[:4]
    manual = sum(chart.log_prob(*n) for n in nodes)
    assert completion_estimate(nodes, chart) == pytest.approx(manual)


def test_local_frontier_heuristic_values(toy_model):
    # the local estimate passes just the created children: the full
    # estimate's change when they join the rest of the frontier
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    nodes = sorted(hg.nodes)[:2]
    manual = sum(chart.log_prob(*n) for n in nodes)
    assert completion_estimate(nodes, chart) == pytest.approx(manual)
    rest = sorted(hg.nodes)[2:4]
    delta = completion_estimate(nodes + rest, chart) - completion_estimate(rest, chart)
    assert completion_estimate(nodes, chart) == pytest.approx(delta)


def test_underivable_child_prunes():
    fake = np.full((3, 4, 4), NEG_INF)
    chart = type("C", (), {"log_prob": lambda self, nt, i, j: float(fake[nt, i, j]), "n": 3})()
    assert completion_estimate([(0, 0, 1)], chart) == NEG_INF


def test_beam_one_still_completes(toy_model):
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    result = astar_parse(toy_model, hg, chart, "local", beam=1)
    assert not result.used_fallback
    assert result.evictions > 0
    assert math.isfinite(result.log_score)


def test_starved_queue_falls_back_to_viterbi(toy_model):
    words = "the dog ran".split()
    mapped, hg, _ = prepared(toy_model, words)
    dead = Pcfg(
        toy_model.grammar,
        np.zeros_like(toy_model.pcfg.rule_probs),
        toy_model.pcfg.lhs_freq,
    )
    dead_chart = inside(dead, mapped)
    result = astar_parse(toy_model, hg, dead_chart, "full", beam=8)
    assert result.used_fallback
    assert write_tree(result.tree) == "(S (NP (DT the) (NN dog)) (VP (VB ran)))"


def test_empty_hypergraph_rejected(toy_model):
    corpus, _ = read_treebank("(S (A a) (B b))")
    model, _ = train_model(corpus, RunConfig(rare_threshold=0))
    hg = build_hypergraph(model.grammar, ["b", "a"])
    chart = inside(model.pcfg, ["b", "a"])
    with pytest.raises(DataError):
        astar_parse(model, hg, chart, "full", None)


def test_rule_context_mode_scores_consistently(toy_corpus):
    # Rule-chain contexts change the model; the search must still account
    # scores exactly and return a grammar-licensed tree.
    model, _ = train_model(toy_corpus, RunConfig(context_mode="rule", rare_threshold=0))
    mapped, hg, chart = prepared(model, AMBIGUOUS_SENTENCE)
    result = astar_parse(model, hg, chart, "full", 10**6)
    assert result.log_score == pytest.approx(model.tree_log_prob(result.tree), abs=1e-9)
    candidates = {write_tree(t) for t in enumerate_parses(model.grammar, mapped)}
    assert write_tree(result.tree) in candidates


def test_first_pop_semantics_on_divergent_instance():
    # When the proposal grammar prefers a different attachment than the
    # context model, the search returns the first completed hypothesis:
    # the proposal-preferred tree, scored correctly under the model.
    from .conftest import DIVERGENT_TREEBANK

    corpus, _ = read_treebank(DIVERGENT_TREEBANK)
    model, _ = train_model(corpus, RunConfig(rare_threshold=0))
    mapped, hg, chart = prepared(model, AMBIGUOUS_SENTENCE)
    result = astar_parse(model, hg, chart, "full", None)
    assert not result.used_fallback
    assert result.log_score == pytest.approx(model.tree_log_prob(result.tree), abs=1e-9)
    candidates = enumerate_parses(model.grammar, mapped)
    scores = sorted((model.tree_log_prob(t) for t in candidates), reverse=True)
    # deterministic documented miss: it returns the lower-scoring analysis
    assert result.log_score == pytest.approx(scores[-1], abs=1e-9)


def test_one_expansion_lookup_per_pop(monkeypatch):
    # Every edge of the popped item shares its (context, lhs), so the search
    # reads one renormalized vector per expansion, not one per edge.
    tagged = generate_tag_corpus(60, np.random.default_rng(5))
    model, _ = train_model([(w, pos_to_tree(t, w)) for w, t in tagged], RunConfig(task="tag"))
    lookups = []
    real = TrainedModel.expansion_log_probs

    def counted(self, context, lhs):
        lookups.append((context, lhs))
        return real(self, context, lhs)

    monkeypatch.setattr(TrainedModel, "expansion_log_probs", counted)
    mapped, hg, chart = prepared(model, "u u v v u v".split())
    result = astar_parse(model, hg, chart, "full", beam=8)
    assert not result.used_fallback
    assert len(lookups) == result.pops - 1  # the last pop is the complete tree
    assert (result.pops, result.pushes, result.evictions) == (37, 51, 8)
    assert write_tree(result.tree) == (
        "(<S> (T01' u) (T01 (T00' u) (T00 (T11' v) (T11 (T11' v) (T11 (T01' u) (T01 (T11' v)))))))"
    )
