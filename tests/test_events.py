import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpyparse.transforms
import hpyparse.trees
from hpyparse.cli import main
from hpyparse.config import RunConfig
from hpyparse.events import (
    CONTEXT_MODES,
    NONTERMINAL_CONTEXT,
    RULE_CONTEXT,
    extract_events,
    leftmost_walk,
    tree_edges,
    tree_steps,
)
from hpyparse.errors import GrammarError
from hpyparse.grammar import Grammar
from hpyparse.hpyp import ContextTrie
from hpyparse.hypergraph import build_hypergraph, build_tree
from hpyparse.model import intern_corpus, train_model
from hpyparse.pcfg import NEG_INF, inside, sampling_pick, sentence_log_prob
from hpyparse.signatures import replace_rare_words
from hpyparse.trees import read_tag_corpus, read_tree, read_treebank, replace_leaves
from hpyparse.transforms import binarize_right, pos_to_tree

from .oracles import reference_edges, reference_grammar
from .strategies import trees


def grammar_for(tree) -> Grammar:
    """Intern one tree without decoder-oriented validation (random trees
    may contain unary cycles, which event extraction does not care about)."""
    grammar = Grammar()
    tree_edges(grammar, tree, tree.leaves())
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
    [mapped], _ = replace_rare_words([(words, tree)], threshold=1)
    assert mapped[7] == "UNK-NUM" and mapped[1] == "w1"
    grammar, [edges] = intern_corpus([(mapped, tree)])
    assert grammar.terminals.texts() == list(dict.fromkeys(mapped))
    events = extract_events(tree, grammar, edges=edges)
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


# -- the one walk per training tree --------------------------------------------


def assert_same_grammar(grammar: Grammar, expected: Grammar) -> None:
    assert grammar.nonterminals.texts() == expected.nonterminals.texts()
    assert grammar.terminals.texts() == expected.terminals.texts()
    assert grammar.rules == expected.rules
    assert grammar.root == expected.root


@pytest.mark.parametrize("text, nonterminals, terminals", [
    ("(S (A a) b)", ["S", "A"], ["a", "b"]),
    ("(S b (A a))", ["S", "A"], ["b", "a"]),
    ("(S (A (C c)) (B b))", ["S", "A", "C", "B"], ["c", "b"]),
    ("(S (A (C c) d) (B (D e) (C f)))", ["S", "A", "C", "B", "D"], ["c", "d", "e", "f"]),
])
def test_one_walk_interns_labels_in_pre_order_and_words_in_yield_order(text, nonterminals, terminals):
    tree = read_tree(text)
    grammar = Grammar()
    edges = tree_edges(grammar, tree, tree.leaves())
    assert grammar.nonterminals.texts() == nonterminals
    assert grammar.terminals.texts() == terminals
    grammar.set_root(0)
    assert_same_grammar(grammar, reference_grammar([tree]))
    assert edges == tree_edges(grammar, tree) == reference_edges(grammar, tree)


def check_one_walk(corpus, config: RunConfig) -> Grammar:
    """``train_model`` reads the grammar, each tree's edges and the seated
    events that the separate passes read from its processed trees: the
    binarized trees with their rare words mapped, copied here only."""
    binarized = [binarize_right(tree) for _, tree in corpus]
    sentences, _ = replace_rare_words(corpus, config.rare_threshold)
    trees = [replace_leaves(tree, words) for words, tree in zip(sentences, binarized)]
    expected = reference_grammar(trees)
    walked = Grammar()
    for words, binary, tree in zip(sentences, binarized, trees):
        edges = reference_edges(expected, tree)
        assert tree_edges(walked, binary, words) == tree_edges(expected, tree) == edges
    walked.set_root(walked.nonterminal(trees[0].label))
    assert_same_grammar(walked, expected)

    seated = []
    insert = ContextTrie.insert

    def counted(trie, context, dish):
        seated.append((context, dish))
        insert(trie, context, dish)

    try:
        with mock.patch.object(ContextTrie, "insert", counted):
            model, _ = train_model(corpus, config)
    except GrammarError:  # a unary cycle, which the reference has too
        with pytest.raises(GrammarError):
            expected.validate()
        return expected
    assert_same_grammar(model.grammar, expected)
    assert seated == [
        event for tree in trees for event in extract_events(tree, expected, config.context_mode)
    ]
    return expected


@pytest.mark.parametrize("mode", CONTEXT_MODES)
@pytest.mark.parametrize("task", ["parse", "tag"])
def test_one_walk_on_the_toy_corpora(task, mode):
    if task == "parse":
        corpus, _ = read_treebank(_read("toy_parse_train.mrg"))
    else:
        corpus = [(w, pos_to_tree(t, w)) for w, t in read_tag_corpus(_read("toy_tag_train.txt"))]
    # the toy corpora's rarest words occur 2 (tag) and 3 (parse) times
    grammar = check_one_walk(corpus, RunConfig(task=task, context_mode=mode, rare_threshold=3))
    assert "UNK" in grammar.terminals.texts()


@settings(max_examples=60)
@given(st.lists(trees(), min_size=1, max_size=5), st.sampled_from(CONTEXT_MODES), st.sampled_from([0, 1]))
def test_one_walk_on_random_treebanks(treebank, mode, threshold):
    for tree in treebank:
        tree.label = "ROOT"  # one root label, as training requires
    corpus = [(tree.leaves(), tree) for tree in treebank]
    check_one_walk(corpus, RunConfig(context_mode=mode, rare_threshold=threshold))


@pytest.mark.parametrize("name, task", [("toy_parse_train.mrg", "parse"), ("toy_tag_train.txt", "tag")])
def test_train_folds_each_tree_at_most_three_times(name, task, tmp_path, monkeypatch, capsys):
    # reading, then binarizing (a build and its spans); rare words are
    # mapped on word lists, so training copies no tree
    folds = []
    fold = hpyparse.trees.rebuild_tree

    def counted(*args):
        folds.append(1)
        return fold(*args)

    monkeypatch.setattr(hpyparse.trees, "rebuild_tree", counted)
    monkeypatch.setattr(hpyparse.transforms, "rebuild_tree", counted)
    assert main(["train", os.path.join(DATA, name), "--model", str(tmp_path / "toy.model"), "--task", task]) == 0
    trees = sum(1 for line in _read(name).splitlines() if line.strip())
    assert 0 < len(folds) <= 3 * trees
