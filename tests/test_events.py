import os

import numpy as np
import pytest
from hypothesis import given

from hpyparse.config import RunConfig
from hpyparse.events import (
    CONTEXT_MODES,
    NONTERMINAL_CONTEXT,
    RULE_CONTEXT,
    extract_events,
    leftmost_walk,
    register_rules,
    tree_steps,
)
from hpyparse.grammar import Grammar
from hpyparse.hypergraph import build_hypergraph, build_tree
from hpyparse.model import build_grammar, train_model
from hpyparse.pcfg import NEG_INF, inside, sampling_pick, sentence_log_prob
from hpyparse.signatures import replace_rare_words
from hpyparse.trees import read_tag_corpus, read_tree, read_treebank
from hpyparse.transforms import binarize_right, pos_to_tree

from .strategies import trees


def grammar_for(tree) -> Grammar:
    """Intern one tree without decoder-oriented validation (random trees
    may contain unary cycles, which event extraction does not care about)."""
    grammar = Grammar()
    for node in tree.internal_nodes():
        grammar.nonterminal(node.label)
    for word in tree.leaves():
        grammar.terminal(word)
    register_rules(grammar, tree)
    grammar.set_root(grammar.nonterminal(tree.label))
    return grammar


def frontier_nonterminal(grammar: Grammar, context: tuple[int, ...], mode: str) -> int:
    """The nonterminal being expanded, read off the context's last element:
    a label in nonterminal mode; in rule mode a (rule, child slot) pair
    encoded as rule * 2 + slot, or the grammar root for an empty context."""
    if mode == NONTERMINAL_CONTEXT:
        return context[-1]
    if not context:
        return grammar.root
    rule_id, slot = divmod(context[-1], 2)
    sym = grammar.rules[rule_id].rhs[slot]
    assert not sym.terminal, "context element descends into a terminal child"
    return sym.id


def test_depth_one_tree_single_event():
    tree = read_tree("(A a)")
    grammar = grammar_for(tree)
    events = extract_events(tree, grammar, NONTERMINAL_CONTEXT)
    assert len(events) == 1
    context, rule_id = events[0]
    assert context == (grammar.nonterminals.id("A"),)
    assert grammar.rule_text(rule_id) == "A -> a"


def test_context_chain_runs_root_to_node():
    # The emission event's context ends with the chain of its ancestors,
    # nearest last and the node's own label final.
    tree = read_tree("(S (VP (ADJP (NN fine))))")
    grammar = grammar_for(tree)
    events = extract_events(tree, grammar, NONTERMINAL_CONTEXT)
    names = lambda ctx: [grammar.nonterminals.text(e) for e in ctx]
    assert names(events[-1].context) == ["S", "VP", "ADJP", "NN"]
    assert grammar.rule_text(events[-1].rule) == "NN -> fine"


def test_preorder_event_output():
    tree = read_tree("(S (A x) (B y))")
    grammar = grammar_for(tree)
    events = extract_events(tree, grammar)
    heads = [grammar.rules[e.rule].lhs for e in events]
    assert [grammar.nonterminals.text(h) for h in heads] == ["S", "A", "B"]


def test_rule_mode_contexts_distinguish_child_slots():
    tree = read_tree("(S (A x) (A x))")
    grammar = grammar_for(tree)
    events = extract_events(tree, grammar, RULE_CONTEXT)
    assert events[0].context == ()
    left, right = events[1], events[2]
    assert left.rule == right.rule  # same production A -> x
    assert left.context != right.context  # but different slots
    for event in (left, right):
        assert frontier_nonterminal(grammar, event.context, RULE_CONTEXT) == grammar.rules[event.rule].lhs


@given(trees(max_depth=3, max_children=3))
def test_event_count_and_frontier_invariant(tree):
    tree = binarize_right(tree)
    grammar = grammar_for(tree)
    internal = list(tree.internal_nodes())
    for mode in (NONTERMINAL_CONTEXT, RULE_CONTEXT):
        events = extract_events(tree, grammar, mode)
        assert len(events) == len(internal)
        for event in events:
            lhs = grammar.rules[event.rule].lhs
            assert frontier_nonterminal(grammar, event.context, mode) == lhs


def test_register_rules_collects_each_production():
    tree = binarize_right(read_tree("(S (A x) (B y) (A x))"))
    grammar = grammar_for(tree)
    texts = {grammar.rule_text(r) for r in range(grammar.num_rules)}
    assert "S -> A S|" in texts
    assert "S| -> B A" in texts
    assert "A -> x" in texts


def test_training_preprocessing_handles_trees_deeper_than_the_recursion_limit(
    default_recursion_limit,
):
    n = 3000
    tags = [("D", "N", "V")[k % 3] for k in range(n)]
    words = [f"w{k % 50}" if k % 7 else f"rare{k}" for k in range(n)]
    tree = binarize_right(pos_to_tree(tags, words))
    assert tree.span == (0, n)
    [(mapped, replaced)], _ = replace_rare_words([(words, tree)], threshold=1)
    assert mapped == replaced.leaves()
    assert mapped[7] == "UNK-NUM" and mapped[1] == "w1"
    grammar = build_grammar([replaced])
    events = extract_events(replaced, grammar)
    assert len(events) == 2 * n
    assert max(len(context) for context, _ in events) == n + 1


DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def _read(name: str) -> str:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def toy_models():
    """The toy parse and tag models, each with its held-out sentences."""
    parse_corpus, _ = read_treebank(_read("toy_parse_train.mrg"))
    tag_corpus = [(w, pos_to_tree(t, w)) for w, t in read_tag_corpus(_read("toy_tag_train.txt"))]
    out = {}
    for task, corpus, sentences in (
        ("parse", parse_corpus, "toy_parse_test_sentences.txt"),
        ("tag", tag_corpus, "toy_tag_test_sentences.txt"),
    ):
        model, _ = train_model(corpus, RunConfig(task=task, rare_threshold=0))
        out[task] = (model, [line.split() for line in _read(sentences).splitlines() if line.strip()])
    return out


@pytest.mark.parametrize("mode", CONTEXT_MODES)
@pytest.mark.parametrize("task", ["parse", "tag"])
def test_a_trees_steps_are_the_derivation_that_built_it(toy_models, task, mode):
    model, sentences = toy_models[task]
    grammar = model.grammar
    rng = np.random.default_rng(0)
    checked = 0
    for words in sentences:
        words = model.mapper.map_sentence(words)
        hg = build_hypergraph(grammar, words)
        if hg.empty:
            continue
        chart = inside(model.pcfg, words, hg.derivations)
        if sentence_log_prob(model.pcfg, chart) == NEG_INF:
            continue
        pick = sampling_pick(model.pcfg, chart, rng)
        for _ in range(5):
            steps = leftmost_walk(grammar, hg.root, pick, mode)
            tree = build_tree(grammar, words, steps)
            assert tree_steps(grammar, tree, mode) == steps
            events = extract_events(tree, grammar, mode)
            assert events == [(context, rule_id) for _, context, (rule_id, _) in steps]
            checked += 1
    assert checked >= 10
