import math
import os

import numpy as np
import pytest

from hpyparse.errors import DataError
from hpyparse.events import leftmost_walk
from hpyparse.grammar import Rule, Sym
from hpyparse.hypergraph import build_hypergraph
from hpyparse.model import build_grammar
from hpyparse.pcfg import (
    NEG_INF,
    Pcfg,
    cyk_viterbi,
    estimate_mle,
    inside,
    sample_tree,
    sampling_pick,
    sentence_log_prob,
    tree_log_prob_under_pcfg,
)
from hpyparse.transforms import binarize_right, pos_to_tree
from hpyparse.trees import read_tag_corpus, read_tree, read_treebank, write_tree

from .oracles import enumerate_parses, tree_prob

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

AMBIGUOUS = [
    "(S (S (A a) (A a)) (A a))",
    "(S (A a) (S (A a) (A a)))",
    "(S (A a) (S (A a) (A a)))",
    "(S (A a) (A a))",
]


def fit(lines):
    trees = [read_tree(line) for line in lines]
    grammar = build_grammar(trees)
    return grammar, estimate_mle(grammar, trees)


def test_single_tree_probabilities_are_one():
    grammar, pcfg = fit(["(S (A a) (B b))"])
    assert np.allclose(pcfg.rule_probs, 1.0)


def test_relative_frequencies():
    grammar, pcfg = fit(
        ["(S (A a) (B b))", "(S (A a) (B b))", "(S (A a) (B c))", "(S (B b) (A a))"]
    )
    a = grammar.nonterminals.id("B")
    probs = sorted(pcfg.rule_probs[r] for r in grammar.rules_for(a))
    assert probs == [0.25, 0.75]


def test_per_lhs_sums_to_one():
    corpus, _ = read_treebank(
        "\n".join(AMBIGUOUS + ["(S (A a) (S (A a) (S (A a) (A a))))"])
    )
    trees = [t for _, t in corpus]
    grammar = build_grammar(trees)
    pcfg = estimate_mle(grammar, trees)
    for lhs in range(len(grammar.nonterminals)):
        ids = grammar.rules_for(lhs)
        if ids:
            assert sum(pcfg.rule_probs[r] for r in ids) == pytest.approx(1.0)


def test_estimate_rejects_empty_corpus():
    grammar, pcfg = fit(["(S (A a) (B b))"])
    with pytest.raises(DataError):
        estimate_mle(grammar, [])


def test_inside_single_word():
    grammar, pcfg = fit(["(S a)"])
    chart = inside(pcfg, ["a"])
    assert sentence_log_prob(pcfg, chart) == pytest.approx(0.0)


def test_inside_matches_enumeration():
    grammar, pcfg = fit(AMBIGUOUS)
    words = ["a"] * 4
    trees = enumerate_parses(grammar, words)
    assert 1 < len(trees) <= 20
    total = sum(tree_prob(grammar, pcfg.rule_probs, t) for t in trees)
    chart = inside(pcfg, words)
    assert sentence_log_prob(pcfg, chart) == pytest.approx(math.log(total), abs=1e-9)


def test_inside_unparseable_is_neg_inf_not_crash():
    grammar, pcfg = fit(["(S (A a) (B b))"])
    chart = inside(pcfg, ["b", "a"])
    assert sentence_log_prob(pcfg, chart) == NEG_INF
    chart = inside(pcfg, ["zzz"])
    assert sentence_log_prob(pcfg, chart) == NEG_INF


def zero_rule_pair():
    """The same table with one extra rule, B -> A A, at zero and at
    positive mass: (small, big)."""
    trees = [read_tree(line) for line in AMBIGUOUS + ["(S (B (A a) (A a)) (A a))"]]
    grammar = build_grammar(trees)
    pcfg = estimate_mle(grammar, trees)
    a, b = grammar.nonterminals.id("A"), grammar.nonterminals.id("B")
    extra = grammar.rule_id(Rule(b, (Sym(False, a), Sym(False, a))))
    without = pcfg.rule_probs.copy()
    without[extra] = 0.0
    return Pcfg(grammar, without, pcfg.lhs_freq), pcfg


def test_inside_monotone_under_added_rule():
    # Paired run: strictly more derivations can never shrink a chart entry.
    small, big = zero_rule_pair()
    words = ["a"] * 4
    lo = inside(small, words).scores
    hi = inside(big, words).scores
    assert np.all(hi >= lo - 1e-12)
    assert np.any(hi > lo)


def test_cyk_unique_parse():
    grammar, pcfg = fit(["(S (NP (DT the) (NN dog)) (VP ran))"])
    tree = cyk_viterbi(pcfg, ["the", "dog", "ran"])
    assert write_tree(tree) == "(S (NP (DT the) (NN dog)) (VP ran))"


def test_cyk_matches_enumeration_argmax():
    grammar, pcfg = fit(AMBIGUOUS)
    for n in (2, 3, 4, 5):
        words = ["a"] * n
        trees = enumerate_parses(grammar, words)
        if not trees:
            continue
        best = max(tree_prob(grammar, pcfg.rule_probs, t) for t in trees)
        got = cyk_viterbi(pcfg, words)
        assert tree_prob(grammar, pcfg.rule_probs, got) == pytest.approx(best, rel=1e-12)


def toy_cases():
    """(pcfg, sentences) for the shipped toy parse and tag corpora and
    for the zero-probability table of ``zero_rule_pair``."""
    def read(name):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            return fh.read()

    parse, _ = read_treebank(read("toy_parse_train.mrg"))
    tag = [(w, pos_to_tree(t, w)) for w, t in read_tag_corpus(read("toy_tag_train.txt"))]
    cases = []
    for corpus, held_out in (
        (parse, "toy_parse_test_sentences.txt"),
        (tag, "toy_tag_test_sentences.txt"),
    ):
        trees = [binarize_right(tree) for _, tree in corpus]
        grammar = build_grammar(trees)
        sentences = [words for words, _ in corpus]
        sentences += [line.split() for line in read(held_out).splitlines()]
        cases.append((estimate_mle(grammar, trees), sentences))
    small, _ = zero_rule_pair()
    cases.append((small, [["a"] * n for n in range(1, 6)]))
    return cases


def test_inside_over_the_hypergraph_equals_the_full_chart():
    for pcfg, sentences in toy_cases():
        for words in sentences:
            hg = build_hypergraph(pcfg.grammar, words)
            full = inside(pcfg, words)
            folded = inside(pcfg, words, "sum", hg.derivations)
            for node in hg.nodes:
                assert folded.scores[node] == full.scores[node]
            if sentence_log_prob(pcfg, full) == NEG_INF:
                continue
            root = (pcfg.grammar.root, 0, len(words))
            picks = [
                sampling_pick(pcfg, chart, np.random.default_rng(3)) for chart in (full, folded)
            ]
            for _ in range(20):
                walks = [leftmost_walk(pcfg.grammar, root, pick) for pick in picks]
                assert walks[0] == walks[1]


def test_cyk_never_uses_a_zero_probability_rule():
    grammar, pcfg = fit(["(S (A a) (B b))", "(S (A a) (A a))"])
    a, b = grammar.nonterminals.id("A"), grammar.nonterminals.id("B")
    probs = pcfg.rule_probs.copy()
    probs[grammar.rule_id(Rule(grammar.root, (Sym(False, a), Sym(False, b))))] = 0.0
    zeroed = Pcfg(grammar, probs, pcfg.lhs_freq)
    assert cyk_viterbi(pcfg, ["a", "b"]) is not None
    assert cyk_viterbi(zeroed, ["a", "b"]) is None  # its only derivation
    assert write_tree(cyk_viterbi(zeroed, ["a", "a"])) == "(S (A a) (A a))"
    small, _ = zero_rule_pair()
    grammar = small.grammar
    for n in range(2, 6):
        words = ["a"] * n
        got = tree_log_prob_under_pcfg(small, cyk_viterbi(small, words))
        parses = enumerate_parses(grammar, words)
        best = max(tree_prob(grammar, small.rule_probs, t) for t in parses)
        assert got > NEG_INF
        assert got == pytest.approx(math.log(best), rel=1e-12)


def test_cyk_no_parse_returns_none():
    grammar, pcfg = fit(["(S (A a) (B b))"])
    assert cyk_viterbi(pcfg, ["a", "a"]) is None


def test_viterbi_at_most_inside():
    grammar, pcfg = fit(AMBIGUOUS)
    words = ["a"] * 4
    vit = cyk_viterbi(pcfg, words)
    assert tree_log_prob_under_pcfg(pcfg, vit) <= sentence_log_prob(
        pcfg, inside(pcfg, words)
    ) + 1e-12


def test_unary_rules_parse_and_sum():
    lines = ["(S (U (A a)))", "(S (A a))"]
    grammar, pcfg = fit(lines)
    words = ["a"]
    trees = enumerate_parses(grammar, words)
    assert len(trees) == 2
    total = sum(tree_prob(grammar, pcfg.rule_probs, t) for t in trees)
    assert sentence_log_prob(pcfg, inside(pcfg, words)) == pytest.approx(math.log(total))
    got = cyk_viterbi(pcfg, words)
    assert got is not None


def test_mixed_terminal_children():
    # rules with a terminal in one binary slot: A -> B a
    lines = ["(S (B b) a)", "(S (B b) a)", "(S (B a) a)"]
    grammar, pcfg = fit(lines)
    words = ["b", "a"]
    trees = enumerate_parses(grammar, words)
    total = sum(tree_prob(grammar, pcfg.rule_probs, t) for t in trees)
    assert sentence_log_prob(pcfg, inside(pcfg, words)) == pytest.approx(math.log(total))


def test_sampler_unambiguous_returns_q_one():
    grammar, pcfg = fit(["(S (A a) (B b))"])
    chart = inside(pcfg, ["a", "b"])
    rng = np.random.default_rng(0)
    tree, log_q = sample_tree(pcfg, chart, ["a", "b"], rng)
    assert write_tree(tree) == "(S (A a) (B b))"
    assert log_q == pytest.approx(0.0)


def test_sampler_frequencies_and_logq():
    grammar, pcfg = fit(AMBIGUOUS)
    words = ["a"] * 3
    trees = enumerate_parses(grammar, words)
    probs = {write_tree(t): tree_prob(grammar, pcfg.rule_probs, t) for t in trees}
    total = sum(probs.values())
    target = {k: v / total for k, v in probs.items()}
    rng = np.random.default_rng(7)
    chart = inside(pcfg, words)
    counts = {k: 0 for k in target}
    draws = 20000
    for _ in range(draws):
        tree, log_q = sample_tree(pcfg, chart, words, rng)
        counts[write_tree(tree)] += 1
        assert log_q == pytest.approx(
            math.log(tree_prob(grammar, pcfg.rule_probs, tree)), abs=1e-9
        )
    for key, expect in target.items():
        assert counts[key] / draws == pytest.approx(expect, abs=0.02)


def test_sampler_rejects_underivable():
    grammar, pcfg = fit(["(S (A a) (B b))"])
    chart = inside(pcfg, ["b", "b"])
    with pytest.raises(DataError):
        sample_tree(pcfg, chart, ["b", "b"], np.random.default_rng(0))
