import bisect
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpyparse.astar import astar_parse, completion_estimate
from hpyparse.config import RunConfig
from hpyparse.errors import DataError, GrammarError
from hpyparse.events import child_elements, leftmost_walk, root_context
from hpyparse.hypergraph import build_hypergraph, build_tree
from hpyparse.model import TrainedModel, train_model
from hpyparse.pcfg import NEG_INF, Pcfg, cyk_viterbi, inside
from hpyparse.synthetic import generate_tag_corpus
from hpyparse.transforms import pos_to_tree
from hpyparse.trees import Tree, read_treebank, write_tree

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
    assert completion_estimate([]) == 0.0
    root_inside = chart.log_prob(*hg.root)
    assert completion_estimate([root_inside]) == pytest.approx(root_inside)
    # sum over several frontier items equals manual accumulation
    insides = [chart.log_prob(*n) for n in sorted(hg.nodes)[:4]]
    manual = sum(insides)
    assert completion_estimate(insides) == pytest.approx(manual)


def test_local_frontier_heuristic_values(toy_model):
    # the local estimate passes just the created children: the full
    # estimate's change when they join the rest of the frontier
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    nodes = [chart.log_prob(*n) for n in sorted(hg.nodes)[:2]]
    manual = sum(nodes)
    assert completion_estimate(nodes) == pytest.approx(manual)
    rest = [chart.log_prob(*n) for n in sorted(hg.nodes)[2:4]]
    delta = completion_estimate(nodes + rest) - completion_estimate(rest)
    assert completion_estimate(nodes) == pytest.approx(delta)
    # the full estimate is the children's, continued over the rest
    assert completion_estimate(rest, completion_estimate(nodes)) == completion_estimate(nodes + rest)


def test_underivable_child_prunes():
    fake = np.full((3, 4, 4), NEG_INF)
    assert completion_estimate([float(fake[0, 0, 1])]) == NEG_INF
    assert completion_estimate([-1.0, NEG_INF, -2.0]) == NEG_INF
    assert completion_estimate([-1.0], NEG_INF) == NEG_INF


def test_beam_one_still_completes(toy_model):
    mapped, hg, chart = prepared(toy_model, AMBIGUOUS_SENTENCE)
    result = astar_parse(toy_model, hg, chart, "local", beam=1)
    assert not result.used_fallback
    assert result.evictions > 0
    assert math.isfinite(result.log_score)


def test_starved_queue_falls_back_to_viterbi(toy_model, derivation_calls):
    words = "the dog ran".split()
    mapped, hg, _ = prepared(toy_model, words)
    dead = Pcfg(
        toy_model.grammar,
        np.zeros_like(toy_model.pcfg.rule_probs),
        toy_model.pcfg.lhs_freq,
    )
    dead_chart = inside(dead, mapped)
    derivation_calls.clear()
    result = astar_parse(toy_model, hg, dead_chart, "full", beam=8)
    assert result.used_fallback
    assert derivation_calls == []  # the fallback folds the hypergraph it was given
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


# -- the search against a tuple-context reference ------------------------------


def reference_astar(model, hg, chart, heuristic, beam):
    """A test-local copy of the search that carries context tuples: each
    child's context is its parent's tuple plus one element, and each
    expansion's vector is folded over the trie's chain for that tuple,
    walked from the root and cut to ``context_cap`` + 1 entries. Returns
    (tree, log score, pops, pushes, evictions, max queue, used fallback)."""

    def estimate(items):
        total = 0.0
        for nt, i, j in items:
            score = chart.log_prob(nt, i, j)
            if score == NEG_INF:
                return NEG_INF
            total += score
        return total

    def expansion(context, lhs):
        chain = model.trie.chain(context)
        if model.context_cap is not None:
            chain = chain[: model.context_cap + 1]
        rule_ids = model.grammar.rules_for(lhs)
        probs = model.trie.predictive_probs(chain, rule_ids, model.params, model.base)
        return np.log(probs) - math.log(probs.sum())

    mode = model.context_mode
    seq = itertools.count()
    root_entry = (hg.root, root_context(hg.root[0], mode))
    queue = [(estimate([hg.root]), -next(seq), 0.0, (root_entry,), ())]
    pops = pushes = evictions = 0
    max_queue = 1
    while queue:
        _, _, log_score, frontier, decisions = queue.pop()
        pops += 1
        if not frontier:
            replay = iter(decisions)
            steps = leftmost_walk(hg.grammar, hg.root, lambda _: next(replay))
            tree = build_tree(hg.grammar, hg.words, steps)
            return tree, log_score, pops, pushes, evictions, max_queue, False
        (node, context), rest = frontier[0], frontier[1:]
        logs = expansion(context, node[0])
        for edge in hg.edges[node]:
            children = [(c, context + (e,)) for c, e in child_elements(hg.grammar, node, edge, mode)]
            new_frontier = tuple(children) + rest
            score = log_score + float(logs[model.grammar.lhs_position[edge[0]]])
            estimated = new_frontier if heuristic == "full" else children
            priority = score + estimate([n for n, _ in estimated])
            if priority == NEG_INF:
                continue
            bisect.insort(queue, (priority, -next(seq), score, new_frontier, decisions + (edge,)))
            pushes += 1
            if beam is not None and len(queue) > beam:
                del queue[0]
                evictions += 1
            max_queue = max(max_queue, len(queue))
    tree = cyk_viterbi(model.pcfg, hg.words)
    return tree, model.tree_log_prob(tree), pops, pushes, evictions, max_queue, True


@pytest.fixture(scope="module")
def search_cases(toy_corpus):
    """(model, sentences) for the toy parse corpus in both context modes
    and a synthetic tag chain in both modes."""
    tagged = generate_tag_corpus(60, np.random.default_rng(5))
    tag_corpus = [(w, pos_to_tree(t, w)) for w, t in tagged]
    parse_sentences = [AMBIGUOUS_SENTENCE, "the cat saw the dog".split(), "a hat fell".split()]
    tag_sentences = ["u u v v u v".split(), "v u v u".split(), "u v v v u u v".split()]
    cases = []
    for mode in ("nonterminal", "rule"):
        model, _ = train_model(toy_corpus, RunConfig(context_mode=mode, rare_threshold=0))
        cases.append((model, parse_sentences))
        model, _ = train_model(tag_corpus, RunConfig(task="tag", context_mode=mode))
        cases.append((model, tag_sentences))
    return cases


def both_searches(model, hg, chart, heuristic, beam):
    """(ours, reference): the tree text, log score, search counts and fallback
    flag of each search, then every queue entry it inserted, recorded as its
    (priority, -seq, score) so the priorities compare float for float."""
    real = bisect.insort
    runs = []
    for search in (astar_parse, reference_astar):
        pushed = []

        def insort(queue, entry):
            pushed.append(entry[:3])
            real(queue, entry)

        bisect.insort = insort
        try:
            got = search(model, hg, chart, heuristic, beam)
        finally:
            bisect.insort = real
        if search is astar_parse:
            got = (got.tree, got.log_score, got.pops, got.pushes, got.evictions, got.max_queue, got.used_fallback)
        runs.append((write_tree(got[0]),) + tuple(got[1:]) + (pushed,))
    return runs


@pytest.mark.parametrize("set_cap", ["replace", "attribute"])
def test_search_matches_the_tuple_context_reference(search_cases, set_cap):
    # The same tree, log score, search counts and pushed priorities, float
    # for float, as the tuple-context search, whatever the mode, cap,
    # heuristic and beam. The attribute variant changes the cap on one model
    # object between searches, as the command line does after loading.
    for base, sentences in search_cases:
        shared = dataclasses.replace(base)
        for cap in (None, 0, 1, 2):
            if set_cap == "replace":
                model = dataclasses.replace(base, context_cap=cap)
            else:
                model = shared
                model.context_cap = cap
            for words in sentences:
                mapped, hg, chart = prepared(model, words)
                for heuristic in ("full", "local"):
                    for beam in (1, 8, None):
                        ours, reference = both_searches(model, hg, chart, heuristic, beam)
                        assert ours == reference, (base.context_mode, cap, words, heuristic, beam)


def test_search_counts_differ_across_the_grid(search_cases):
    # the grid above is not vacuous: caps and beams change the search
    model, sentences = search_cases[1]
    mapped, hg, chart = prepared(model, sentences[2])
    counts = set()
    for cap in (None, 0, 1):
        for beam in (1, None):
            got = astar_parse(dataclasses.replace(model, context_cap=cap), hg, chart, "full", beam)
            counts.add((got.log_score, got.pops, got.pushes))
    assert len(counts) > 3


@st.composite
def dense_trees(draw, max_depth: int = 3) -> Tree:
    """Random trees over three labels and two words, so the grammar read
    off a few of them parses their yields in many ways."""

    def node(depth: int) -> Tree:
        n = draw(st.integers(1, 3))
        children = [
            draw(st.sampled_from("xy")) if depth >= max_depth or draw(st.booleans()) else node(depth + 1)
            for _ in range(n)
        ]
        return Tree(draw(st.sampled_from("ABC")), children)

    return node(1)


@given(
    corpus=st.lists(dense_trees(), min_size=2, max_size=4),
    mode=st.sampled_from(["nonterminal", "rule"]),
    cap=st.none() | st.integers(0, 2),
    heuristic=st.sampled_from(["full", "local"]),
    beam=st.sampled_from([1, 8, 64]),
)
@settings(max_examples=60)
def test_search_matches_the_reference_on_random_treebanks(corpus, mode, cap, heuristic, beam):
    # Dense random treebanks give longer frontiers and more ambiguity than
    # the toy ones, so the full estimate sums several open items and the
    # queue order is tested under many near ties.
    pairs = [(tree.leaves(), Tree("ROOT", [tree])) for tree in corpus]
    assume(all(len(words) <= 8 for words, _ in pairs))
    try:
        model, _ = train_model(pairs, RunConfig(context_mode=mode, rare_threshold=0, context_cap=cap))
    except GrammarError:
        assume(False)  # a unary cycle
    for words, _ in pairs:
        mapped, hg, chart = prepared(model, words)
        ours, reference = both_searches(model, hg, chart, heuristic, beam)
        assert ours == reference
