import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from hpyparse.config import RunConfig
from hpyparse.errors import DataError
from hpyparse.events import CONTEXT_MODES, leftmost_walk
from hpyparse.hpyp import ContextTrie
from hpyparse import mcmc
from hpyparse.hypergraph import build_hypergraph, build_tree
from hpyparse.mcmc import (
    SampleStats,
    mbr_decode,
    mh_sample,
    most_frequent_tree,
    span_count_objective,
)
from hpyparse.model import train_model
from hpyparse.pcfg import (
    derivation_log_prob,
    inside,
    sample_tree,
    sampling_pick,
    tree_log_prob_under_pcfg,
)
from hpyparse.synthetic import generate_tag_corpus
from hpyparse.transforms import pos_to_tree
from hpyparse.trees import read_treebank, write_tree

from .conftest import AMBIGUOUS_SENTENCE, replay_proposals
from .oracles import enumerate_parses


def proposal_equals_model(toy_model):
    """A model whose context trie is empty scores trees exactly like its
    baseline grammar, making the chain's acceptance ratio identically one."""
    empty = ContextTrie(num_dishes=toy_model.grammar.num_rules)
    return dataclasses.replace(toy_model, trie=empty)


def test_acceptance_rate_is_one_when_p_equals_q(toy_model):
    model = proposal_equals_model(toy_model)
    rng = np.random.default_rng(5)
    stats, samples, trace = mh_sample(model, AMBIGUOUS_SENTENCE, 400, 50, rng)
    assert stats.acceptance_rate == 1.0
    assert all(trace)
    assert stats.iterations == 400
    assert stats.sample_count == len(samples) == 350


def test_degenerate_single_tree_language_never_rejects(toy_model):
    rng = np.random.default_rng(0)
    stats, samples, _ = mh_sample(toy_model, "the dog ran".split(), 100, 10, rng)
    assert stats.acceptance_rate == 1.0
    assert len({write_tree(t) for t in samples}) == 1


def test_chain_is_reproducible_given_seed(toy_model):
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        stats, samples, trace = mh_sample(toy_model, AMBIGUOUS_SENTENCE, 300, 30, rng)
        runs.append((stats.span_counts, [write_tree(t) for t in samples], trace))
    assert runs[0] == runs[1]


def test_iters_must_exceed_burn_in(toy_model):
    with pytest.raises(DataError):
        mh_sample(toy_model, AMBIGUOUS_SENTENCE, 10, 10, np.random.default_rng(0))


def test_underivable_sentence_rejected(toy_model):
    with pytest.raises(DataError):
        mh_sample(toy_model, ["with", "with"], 10, 1, np.random.default_rng(0))


def test_span_counts_bounded_by_samples(toy_model):
    rng = np.random.default_rng(2)
    stats, samples, _ = mh_sample(toy_model, AMBIGUOUS_SENTENCE, 200, 20, rng)
    assert 0.0 <= stats.acceptance_rate <= 1.0
    for count in stats.span_counts.values():
        assert count <= stats.sample_count


def test_chain_approaches_exact_posterior(toy_model):
    words = AMBIGUOUS_SENTENCE
    candidates = enumerate_parses(toy_model.grammar, words)
    logs = np.array([toy_model.tree_log_prob(t) for t in candidates])
    probs = np.exp(logs - logs.max())
    probs /= probs.sum()
    target = {write_tree(t): p for t, p in zip(candidates, probs)}

    def tv_after(iters):
        rng = np.random.default_rng(99)
        _, samples, _ = mh_sample(toy_model, words, iters, iters // 10, rng)
        counts = Counter(write_tree(t) for t in samples)
        return 0.5 * sum(
            abs(counts.get(k, 0) / len(samples) - p) for k, p in target.items()
        )

    short, long = tv_after(200), tv_after(5000)
    assert long <= 0.05
    assert long <= short + 0.01  # stationarity improves with chain length


def test_mbr_returns_unanimous_tree(toy_model):
    words = "the dog ran".split()
    hg = build_hypergraph(toy_model.grammar, words)
    rng = np.random.default_rng(0)
    stats, samples, _ = mh_sample(toy_model, words, 50, 5, rng)
    tree = mbr_decode(stats, hg)
    assert write_tree(tree) == write_tree(samples[-1])


def test_mbr_prefers_span_majorities(toy_model):
    # Hand-built counts: agree with tree A everywhere except one span
    # where tree B's sub-analysis dominates; the decoder must splice in
    # the dominant subtree (matching exhaustive maximization).
    words = AMBIGUOUS_SENTENCE
    grammar = toy_model.grammar
    hg = build_hypergraph(grammar, words)
    trees = enumerate_parses(grammar, words)
    assert len(trees) == 2
    by_kind = {}
    for t in trees:
        vp = t.children[1]
        by_kind["np" if len(vp.children) == 2 and vp.children[1].label == "NP" else "vp"] = t
    a, b = by_kind["np"], by_kind["vp"]

    stats = SampleStats(iterations=10, sample_count=10)
    for node in a.internal_nodes():
        key = (grammar.nonterminals.id(node.label), node.span[0], node.span[1])
        stats.span_counts[key] += 6
    for node in b.internal_nodes():
        key = (grammar.nonterminals.id(node.label), node.span[0], node.span[1])
        stats.span_counts[key] += 4
    decoded = mbr_decode(stats, hg)
    best = max(
        trees, key=lambda t: (span_count_objective(stats, t, grammar), write_tree(t))
    )
    assert span_count_objective(stats, decoded, grammar) == span_count_objective(
        stats, best, grammar
    )
    assert write_tree(decoded) == write_tree(a)


def test_mbr_dominates_every_sampled_tree(toy_model):
    words = AMBIGUOUS_SENTENCE
    hg = build_hypergraph(toy_model.grammar, words)
    rng = np.random.default_rng(3)
    stats, samples, _ = mh_sample(toy_model, words, 300, 30, rng)
    decoded = mbr_decode(stats, hg)
    objective = span_count_objective(stats, decoded, toy_model.grammar)
    for t in samples:
        assert objective >= span_count_objective(stats, t, toy_model.grammar)
    # and equals the exhaustive hypergraph maximum
    best = max(
        span_count_objective(stats, t, toy_model.grammar)
        for t in enumerate_parses(toy_model.grammar, words)
    )
    assert objective == best


def test_mbr_rejects_empty_hypergraph(toy_model):
    corpus, _ = read_treebank("(S (A a) (B b))")
    model, _ = train_model(corpus, RunConfig(rare_threshold=0))
    hg = build_hypergraph(model.grammar, ["b", "a"])
    with pytest.raises(DataError):
        mbr_decode(SampleStats(), hg)


def test_most_frequent_tree_diagnostic(toy_model):
    rng = np.random.default_rng(4)
    _, samples, _ = mh_sample(toy_model, AMBIGUOUS_SENTENCE, 200, 20, rng)
    tree, count = most_frequent_tree(samples)
    exact = Counter(write_tree(t) for t in samples)
    assert count == max(exact.values())
    assert exact[write_tree(tree)] == count


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_sampled_derivation_scores_and_counts_equal_its_trees(toy_corpus, mode):
    """A derivation's log q and log p are the very floats its tree scores,
    and its items are the (label, span) pairs of the tree's nodes."""
    model, _ = train_model(toy_corpus, RunConfig(rare_threshold=0, context_mode=mode))
    grammar = model.grammar
    words = AMBIGUOUS_SENTENCE
    chart = inside(model.pcfg, words)
    root = (grammar.root, 0, len(words))
    pick = sampling_pick(model.pcfg, chart, np.random.default_rng(6))
    reference = np.random.default_rng(6)
    shapes = set()
    for _ in range(40):
        steps = leftmost_walk(grammar, root, pick, mode)
        tree = build_tree(grammar, words, steps)
        # the walk draws what sample_tree draws, in the same order
        drawn, drawn_log_q = sample_tree(model.pcfg, chart, words, reference)
        assert write_tree(drawn) == write_tree(tree)
        log_q = derivation_log_prob(model.pcfg, steps)
        assert log_q == drawn_log_q == tree_log_prob_under_pcfg(model.pcfg, tree)
        log_p = model.events_log_prob((c, r) for _, c, (r, _) in steps)
        assert log_p == model.tree_log_prob(tree)
        stats = SampleStats()
        stats.add_derivation(steps)
        assert stats.span_counts == Counter(
            (grammar.nonterminals.id(node.label), *node.span)
            for node in tree.internal_nodes()
        )
        shapes.add(write_tree(tree))
    assert len(shapes) == 2  # both attachments were drawn


def test_kept_samples_repeat_exactly_on_rejection(toy_model):
    """A rejection repeats the previous object, and two samples are the
    same object exactly when their written trees are equal."""
    burn_in = 30
    rng = np.random.default_rng(8)
    _, samples, trace = mh_sample(toy_model, AMBIGUOUS_SENTENCE, 300, burn_in, rng)
    kept = trace[burn_in + 1 :]
    assert any(kept) and not all(kept)
    for t in range(1, len(samples)):
        if not trace[burn_in + t]:
            assert samples[t] is samples[t - 1]
    written = {id(tree): write_tree(tree) for tree in samples}
    assert len(set(written.values())) == len(written) == 2


def _rescoring_chain(model, words, iters, burn_in, rng):
    """Reference chain: every proposal is scored, and every kept
    acceptance builds a new tree."""
    pcfg, grammar = model.pcfg, model.grammar
    root = (grammar.root, 0, len(words))
    pick = sampling_pick(pcfg, inside(pcfg, words), rng)

    def propose():
        steps = leftmost_walk(grammar, root, pick, model.context_mode)
        events = ((context, rule_id) for _, context, (rule_id, _) in steps)
        return steps, derivation_log_prob(pcfg, steps), model.events_log_prob(events)

    current, log_q_cur, log_p_cur = propose()
    tree = None
    stats = SampleStats(iterations=iters)
    samples, trace = [], []
    for t in range(iters):
        proposal, log_q_new, log_p_new = propose()
        log_ratio = (log_p_new - log_q_new) - (log_p_cur - log_q_cur)
        accept = log_ratio >= 0 or math.log(rng.random()) < log_ratio
        if accept:
            current, log_q_cur, log_p_cur = proposal, log_q_new, log_p_new
            tree = None
            stats.acceptance_count += 1
        trace.append(accept)
        if t >= burn_in:
            if tree is None:
                tree = build_tree(grammar, words, current)
            samples.append(tree)
            stats.add_derivation(current)
    return stats, samples, trace


@pytest.mark.parametrize("mode", CONTEXT_MODES)
def test_chain_matches_the_rescoring_chain(toy_corpus, monkeypatch, mode):
    """Scoring each distinct derivation once changes no float: the chain
    makes the same decisions, samples and span counts as one that scores
    every proposal, and builds one tree per distinct kept derivation."""
    model, _ = train_model(toy_corpus, RunConfig(rare_threshold=0, context_mode=mode))
    built = []

    def counted(grammar, words, steps):
        built.append(tuple(edge for _, _, edge in steps))
        return build_tree(grammar, words, steps)

    monkeypatch.setattr(mcmc, "build_tree", counted)
    words, iters, burn_in = AMBIGUOUS_SENTENCE, 300, 30
    stats, samples, trace = mh_sample(model, words, iters, burn_in, np.random.default_rng(11))
    want_stats, want_samples, want_trace = _rescoring_chain(
        model, words, iters, burn_in, np.random.default_rng(11)
    )
    assert trace == want_trace
    assert [write_tree(t) for t in samples] == [write_tree(t) for t in want_samples]
    assert stats == want_stats
    assert 0 < stats.acceptance_count < iters
    assert len(built) == len(set(built)) == len({id(t) for t in samples}) == 2


# Derivations of "the dog ran" and "a cat fell" run through unary chains
# such as S -> Z, Y -> X -> NP and VP -> VB.
UNARY_CHAIN_TREEBANK = """\
(S (NP (DT the) (NN dog)) (VP (VB ran)))
(S (X (NP (DT the) (NN dog))) (VP (VB ran)))
(S (Y (X (NP (DT a) (NN cat)))) (VP (VB fell)))
(S (Z (NP (DT the) (NN cat)) (VP (VB fell))))
"""


def _draw_case(name, toy_corpus):
    """(task, corpus, sentence) for one of the edge-draw cases."""
    if name == "parse":
        return "parse", toy_corpus, AMBIGUOUS_SENTENCE
    if name == "tag":  # a tag chain whose words are ambiguous
        tagged = generate_tag_corpus(60, np.random.default_rng(5))
        return "tag", [(w, pos_to_tree(t, w)) for w, t in tagged], "u u v v u v".split()
    corpus, _ = read_treebank(UNARY_CHAIN_TREEBANK)
    return "parse", corpus, "the dog ran".split()


@pytest.mark.parametrize("mode", CONTEXT_MODES)
@pytest.mark.parametrize("case", ["parse", "tag", "unary-chains"])
def test_a_proposal_draws_the_edges_of_its_walk(toy_corpus, drawn_picks, case, mode):
    """A proposal asks pick for the items ``leftmost_walk`` asks for, in
    the walk's order, and is keyed by the walk's edges: the kept states
    count and build exactly the walks the trace accepts."""
    task, corpus, words = _draw_case(case, toy_corpus)
    model, _ = train_model(corpus, RunConfig(task=task, rare_threshold=0, context_mode=mode))
    grammar, words = model.grammar, model.mapper.map_sentence(words)
    iters, burn_in = 120, 10
    stats, samples, trace = mh_sample(model, words, iters, burn_in, np.random.default_rng(4))
    proposals = replay_proposals(grammar, (grammar.root, 0, len(words)), drawn_picks, mode)
    assert len(proposals) == iters + 1  # every recorded pick was one proposal's
    assert len({tuple(edge for _, _, edge in steps) for steps in proposals}) > 1
    state, want = proposals[0], SampleStats(iterations=iters, acceptance_count=sum(trace))
    for t, accepted in enumerate(trace):
        state = proposals[t + 1] if accepted else state
        if t >= burn_in:
            want.add_derivation(state)
            assert write_tree(samples[t - burn_in]) == write_tree(build_tree(grammar, words, state))
    assert stats == want
    if case == "unary-chains":
        unary = [[grammar.rules[rule_id].is_unary for _, _, (rule_id, _) in steps] for steps in proposals]
        assert any(a and b for flags in unary for a, b in zip(flags, flags[1:]))
