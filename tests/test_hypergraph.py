import itertools

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hpyparse.config import RunConfig
from hpyparse.errors import DataError, GrammarError
from hpyparse.hypergraph import build_hypergraph, count_trees, derivations, enumerate_trees
from hpyparse.model import build_grammar, train_model
from hpyparse.transforms import START_TAG, binarize_right, pos_to_tree, twin_label
from hpyparse.trees import Tree, write_tree

from .oracles import enumerate_parses, reference_derivations
from .strategies import tag_sequences, trees
from .test_pcfg import AMBIGUOUS, fit, toy_cases


def test_single_word_hypergraph():
    grammar, _ = fit(["(S a)"])
    hg = build_hypergraph(grammar, ["a"])
    assert not hg.empty
    assert hg.nodes == {(grammar.root, 0, 1)}
    assert hg.edges[(grammar.root, 0, 1)] == [(grammar.rules_for(grammar.root)[0], -1)]


def test_empty_result_when_unparseable():
    grammar, _ = fit(["(S (A a) (B b))"])
    hg = build_hypergraph(grammar, ["b", "a"])
    assert hg.empty
    assert hg.nodes == set()
    assert count_trees(hg) == 0
    assert list(enumerate_trees(hg)) == []


def test_nodes_match_derivable_and_reachable_items():
    grammar, _ = fit(AMBIGUOUS)
    words = ["a"] * 4
    hg = build_hypergraph(grammar, words)
    # oracle: an item is kept iff some enumerated complete tree uses it
    trees = enumerate_parses(grammar, words)
    used = set()
    for tree in trees:
        for node in tree.internal_nodes():
            used.add((grammar.nonterminals.id(node.label), node.span[0], node.span[1]))
    assert hg.nodes == used


def test_every_node_in_some_complete_tree():
    grammar, _ = fit(AMBIGUOUS + ["(S (B b) (A a))", "(B (A a) (A a))" .replace("B", "S")])
    words = ["a"] * 3
    hg = build_hypergraph(grammar, words)
    trees = list(enumerate_trees(hg))
    covered = set()
    for tree in trees:
        for node in tree.internal_nodes():
            covered.add((grammar.nonterminals.id(node.label), node.span[0], node.span[1]))
    assert covered == hg.nodes


def test_enumeration_matches_oracle_set():
    grammar, _ = fit(AMBIGUOUS)
    words = ["a"] * 4
    ours = {write_tree(t) for t in enumerate_trees(build_hypergraph(grammar, words))}
    oracle = {write_tree(t) for t in enumerate_parses(grammar, words)}
    assert ours == oracle
    assert count_trees(build_hypergraph(grammar, words)) == len(oracle)


def test_enumeration_limit_enforced():
    grammar, _ = fit(AMBIGUOUS)
    hg = build_hypergraph(grammar, ["a"] * 6)
    with pytest.raises(DataError):
        list(enumerate_trees(hg, limit=1))


def test_unary_and_mixed_edges():
    lines = ["(S (U (A a)))", "(S (A a))", "(S (A a) b)"]
    grammar, _ = fit(lines)
    hg1 = build_hypergraph(grammar, ["a"])
    got = {write_tree(t) for t in enumerate_trees(hg1)}
    assert got == {"(S (U (A a)))", "(S (A a))"}
    hg2 = build_hypergraph(grammar, ["a", "b"])
    got2 = {write_tree(t) for t in enumerate_trees(hg2)}
    assert got2 == {"(S (A a) b)"}


def test_empty_sentence_rejected():
    grammar, _ = fit(["(S a)"])
    with pytest.raises(DataError):
        build_hypergraph(grammar, [])


def unfiltered_derivations(grammar, words):
    """Every edge of every derivable item, wherever it sits, in the order
    ``derivations`` documents; each cell tries every rule of the grammar."""
    n = len(words)
    cells = {}
    out = []

    def matches(sym, a, b):
        if sym.terminal:
            return b == a + 1 and grammar.terminals.text(sym.id) == words[a]
        return sym.id in cells[a, b]

    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            here = set()
            for rid, rule in enumerate(grammar.rules):
                if rule.is_lexical and matches(rule.rhs[0], i, j):
                    out.append(((rule.lhs, i, j), (rid, -1), ()))
                    here.add(rule.lhs)
            for rid, rule in enumerate(grammar.rules):
                for m in range(i + 1, j) if rule.is_binary else ():
                    spans = ((i, m), (m, j))
                    if all(matches(sym, a, b) for sym, (a, b) in zip(rule.rhs, spans)):
                        tails = tuple(
                            (sym.id, a, b) for sym, (a, b) in zip(rule.rhs, spans) if not sym.terminal
                        )
                        out.append(((rule.lhs, i, j), (rid, m), tails))
                        here.add(rule.lhs)
            for rid in grammar.unary_rule_order():
                rule = grammar.rules[rid]
                if rule.rhs[0].id in here:
                    out.append(((rule.lhs, i, j), (rid, -1), ((rule.rhs[0].id, i, j),)))
                    here.add(rule.lhs)
            cells[i, j] = here
    return out


def oracle_hypergraph(grammar, words):
    """(nodes, edges, derivations) of the unfiltered enumeration, kept to
    the items reachable top-down from the root item."""
    everything = unfiltered_derivations(grammar, words)
    by_head = {}
    for derivation in everything:
        by_head.setdefault(derivation[0], []).append(derivation)
    root = (grammar.root, 0, len(words))
    reachable = set()
    todo = [root] if root in by_head else []
    while todo:
        item = todo.pop()
        if item not in reachable:
            reachable.add(item)
            todo.extend(tail for _, _, tails in by_head[item] for tail in tails)
    kept = [d for d in everything if d[0] in reachable]
    edges = {item: sorted(edge for _, edge, _ in by_head[item]) for item in reachable}
    return reachable, edges, kept


def assert_filter_is_exact(grammar, sentences):
    for words in sentences:
        hg = build_hypergraph(grammar, words)
        assert (hg.nodes, hg.edges, hg.derivations) == oracle_hypergraph(grammar, words)
        # the filter only drops edges, and keeps the others in order
        remaining = iter(unfiltered_derivations(grammar, words))
        assert all(derivation in remaining for derivation in derivations(grammar, words))


def sentences_from(yields, max_len=10):
    """The corpus yields, each reversed, and adjacent pairs joined."""
    pool = yields + [y[::-1] for y in yields] + [a + b for a, b in zip(yields, yields[1:])]
    return [words for words in pool if len(words) <= max_len]


@settings(max_examples=60)
@given(st.lists(trees(max_depth=3, max_children=3), min_size=1, max_size=4))
def test_position_filter_keeps_the_hypergraph_of_random_treebanks(corpus):
    binarized = [binarize_right(Tree("ROOT", [tree])) for tree in corpus]
    try:
        grammar = build_grammar(binarized)
    except GrammarError:  # a unary cycle
        reject()
    assert_filter_is_exact(grammar, sentences_from([tree.leaves() for tree in binarized]))


@settings(max_examples=40)
@given(st.lists(tag_sequences(max_len=6), min_size=1, max_size=5))
def test_position_filter_keeps_the_hypergraph_of_random_tag_corpora(corpus):
    grammar = build_grammar([pos_to_tree(tags, words) for tags, words in corpus])
    assert_filter_is_exact(grammar, sentences_from([words for _, words in corpus]))


def test_position_filter_keeps_the_hypergraph_of_the_toy_grammars():
    for pcfg, sentences in toy_cases():
        assert_filter_is_exact(pcfg.grammar, sentences)
    grammar, _ = fit(AMBIGUOUS)
    assert_filter_is_exact(grammar, [["a"] * n for n in range(1, 7)])


def test_tag_chain_labels_never_end_early():
    # every tag also comes before another, so each twin is a left child
    tagged = [
        ("DT NN VB", "the dog ran"),
        ("NN VB DT NN", "dogs saw the cat"),
        ("DT JJ NN VB RB DT", "a big dog sat here the"),
    ]
    grammar = build_grammar([pos_to_tree(t.split(), w.split()) for t, w in tagged])
    lexical, binary, unary = grammar.tables.by_position[True, False]
    ends_early = {row[1] for rows in lexical.values() for row in rows}
    ends_early |= {row[1] for partners in binary.values() for by_right in partners for rows in by_right.values() for row in rows}
    ends_early |= {row[1] for row in unary}
    tags = {tag for t, _ in tagged for tag in t.split()}
    chain = {grammar.nonterminals.id(label) for label in tags | {START_TAG}}
    twins = {grammar.nonterminals.id(twin_label(tag)) for tag in tags}
    assert chain <= set(grammar.tables.by_lhs)
    assert not chain & ends_early
    assert twins <= ends_early


# -- the partner-set enumeration against the per-left-rule one -------------------


def assert_matches_reference(grammar, sentences):
    for words in sentences:
        assert derivations(grammar, words) == reference_derivations(grammar, words), words


def with_unknown_words(sentences):
    """Each sentence, and each with its first and its last word unknown."""
    return sentences + [["<unseen>"] + w[1:] for w in sentences] + [w[:-1] + ["<unseen>"] for w in sentences]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(trees(max_depth=3, max_children=3), min_size=1, max_size=4),
    st.sampled_from(["nonterminal", "rule"]),
    st.sampled_from([0, 1]),
)
def test_derivations_match_the_reference_on_random_treebanks(corpus, mode, rare_threshold):
    pairs = [(tree.leaves(), Tree("ROOT", [tree])) for tree in corpus]
    try:
        model, _ = train_model(pairs, RunConfig(context_mode=mode, rare_threshold=rare_threshold))
    except GrammarError:  # a unary cycle
        reject()
    sentences = sentences_from([words for words, _ in pairs])
    mapped = [model.mapper.map_sentence(words) for words in sentences]
    assert_matches_reference(model.grammar, with_unknown_words(sentences) + mapped)


@settings(max_examples=40, deadline=None)
@given(st.lists(tag_sequences(max_len=6), min_size=1, max_size=5))
def test_derivations_match_the_reference_on_random_tag_corpora(corpus):
    grammar = build_grammar([pos_to_tree(tags, words) for tags, words in corpus])
    assert_matches_reference(grammar, with_unknown_words(sentences_from([words for _, words in corpus])))


def test_derivations_match_the_reference_on_the_toy_grammars():
    for pcfg, sentences in toy_cases():
        assert_matches_reference(pcfg.grammar, with_unknown_words(sentences))
    grammar, _ = fit(AMBIGUOUS)
    assert_matches_reference(grammar, [["a"] * n for n in range(1, 7)])


def test_derivations_match_the_reference_with_terminals_in_every_binary_slot():
    # binary rules with a terminal left child (L -> a R), right child
    # (F -> L c), both (R -> c c) and neither (X -> L R); F never starts
    # after 0 and E never ends before n, so the four position classes differ
    lines = [
        "(S (F (L a (R b)) c) (E (A a) d))",
        "(S a (X (L (A a) b) (R c c)))",
        "(S (X (A a) (B b)) (R b a))",
        "(S (F a b) (E c))",
    ]
    grammar, _ = fit(lines)
    binary_tables = [tables[1] for tables in grammar.tables.by_position.values()]
    assert all(a != b for a, b in itertools.combinations(binary_tables, 2))
    sentences = [
        list(words) for n in range(1, 6) for words in itertools.product("abcdx", repeat=n) if n < 5 or "x" not in words
    ]
    assert_matches_reference(grammar, sentences)
    assert sum(not build_hypergraph(grammar, words).empty for words in sentences) > 10
