import pytest
from hypothesis import given

from hpyparse.errors import DataError
from hpyparse.transforms import (
    binarize_right,
    pos_to_tree,
    tree_to_pos,
    unbinarize_right,
)
from hpyparse.trees import Tree, annotate_spans, read_tree, write_tree

from .strategies import tag_sequences, trees


def test_already_binary_tree_unchanged():
    tree = read_tree("(S (NP (NN dog)) (VP (VB ran)))")
    assert binarize_right(tree) == tree


def test_ternary_node_gets_one_intermediate():
    tree = read_tree("(A b c d)")
    out = binarize_right(tree)
    assert write_tree(out) == "(A b (A| c d))"


def test_wide_node_builds_right_spine():
    out = binarize_right(read_tree("(A b c d e f)"))
    assert write_tree(out) == "(A b (A| c (A| d (A| e f))))"
    for node in out.internal_nodes():
        assert len(node.children) <= 2


def test_binarize_rejects_reserved_marker():
    with pytest.raises(DataError):
        binarize_right(read_tree("(A (B| x) y)"))


@given(trees(max_depth=4, max_children=5))
def test_binarize_round_trip(tree):
    binarized = binarize_right(tree)
    for node in binarized.internal_nodes():
        assert len(node.children) <= 2
    assert unbinarize_right(binarized) == tree


def test_single_token_pos_tree():
    tree = pos_to_tree(["DT"], ["that"])
    assert write_tree(tree) == "(<S> (DT' that))"
    # one transition from the start tag plus one emission
    internal = list(tree.internal_nodes())
    assert len(internal) == 2


def test_pos_tree_structure_for_fig_sentence():
    words = ["that", "'s", "fine", "now", "."]
    tags = ["DT", "VBZ", "JJ", "RB", "."]
    tree = pos_to_tree(tags, words)
    assert write_tree(tree) == (
        "(<S> (DT' that) (DT (VBZ' 's) (VBZ (JJ' fine) (JJ (RB' now) (RB (.' .))))))"
    )
    transitions = []
    emissions = []
    for node in tree.internal_nodes():
        if node.is_preterminal():
            emissions.append((node.label, node.children[0]))
        else:
            transitions.append((node.label, tuple(
                c.label for c in node.children if not isinstance(c, str)
            )))
    # transition rule per adjacent tag pair (start included), emission per word
    assert sorted(emissions) == sorted(
        [("DT'", "that"), ("VBZ'", "'s"), ("JJ'", "fine"), ("RB'", "now"), (".'", ".")]
    )
    heads = [label for label, _ in transitions]
    assert sorted(heads) == sorted(["<S>", "DT", "VBZ", "JJ", "RB"])


def test_pos_tree_rule_shapes():
    tree = pos_to_tree(["A", "B", "C"], ["x", "y", "z"])
    for node in tree.internal_nodes():
        kids = node.children
        if node.is_preterminal():
            assert node.label.endswith("'") and len(kids) == 1
        elif len(kids) == 2:
            assert kids[0].label == kids[1].label + "'"
        else:
            assert len(kids) == 1 and kids[0].label.endswith("'")


def test_pos_length_mismatch():
    with pytest.raises(DataError):
        pos_to_tree(["DT"], ["a", "b"])
    with pytest.raises(DataError):
        pos_to_tree([], [])


def test_pos_reserved_markers_rejected():
    with pytest.raises(DataError):
        pos_to_tree(["DT'"], ["a"])
    with pytest.raises(DataError):
        pos_to_tree(["<S>"], ["a"])


@given(tag_sequences())
def test_pos_round_trip(pair):
    tags, words = pair
    assert tree_to_pos(pos_to_tree(tags, words)) == (tags, words)


@given(tag_sequences())
def test_pos_to_tree_sets_the_spans_annotate_spans_gives(pair):
    tree = pos_to_tree(*pair)
    built = [node.span for node in tree.internal_nodes()]
    assert annotate_spans(tree) == len(pair[0])
    assert built == [node.span for node in tree.internal_nodes()]


def test_tag_trees_deeper_than_the_recursion_limit(default_recursion_limit):
    n = 1500
    tags = [("D", "N", "V")[k % 3] for k in range(n)]
    words = [f"w{k}" for k in range(n)]
    tree = pos_to_tree(tags, words)
    assert tree.depth() == n + 1
    assert tree_to_pos(tree) == (tags, words)
    assert tree_to_pos(read_tree(write_tree(tree))) == (tags, words)


def test_tree_to_pos_names_the_word_without_a_twin_preterminal():
    tree = pos_to_tree(["DT", "NN"], ["the", "dog"])
    tree.children[1].children[0] = Tree("NN", ["dog"])
    with pytest.raises(DataError, match="'dog' is not emitted"):
        tree_to_pos(tree)
    with pytest.raises(DataError, match="'dog' is not emitted"):
        tree_to_pos(read_tree("(<S> (DT' the) (DT dog (NN' x)))"))


def test_tree_to_pos_rejects_bare_emissions():
    with pytest.raises(DataError):
        tree_to_pos(read_tree("(S (NN dog))"))
