import pytest
from hypothesis import given

from hpyparse.errors import DataError, TreebankError
from hpyparse.trees import (
    Tree,
    annotate_spans,
    read_tag_corpus,
    read_tree,
    read_treebank,
    replace_leaves,
    write_tagged,
    write_tree,
)

from .strategies import trees


def test_read_simple_tree():
    corpus, grammar = read_treebank("(S (NP (NN dog)) (VP (VB ran)))")
    words, tree = corpus[0]
    assert words == ["dog", "ran"]
    assert tree.label == "S"
    assert tree.span == (0, 2)
    assert tree.children[0].span == (0, 1)
    assert "NN" in grammar.nonterminals
    assert "dog" in grammar.terminals


def test_child_spans_partition_parent():
    corpus, _ = read_treebank("(S (A a b) (B (C c) d))")
    _, tree = corpus[0]
    for node in tree.internal_nodes():
        pos = node.span[0]
        for child in node.children:
            if isinstance(child, str):
                pos += 1
            else:
                assert child.span[0] == pos
                pos = child.span[1]
        assert pos == node.span[1]


def test_unbalanced_brackets_error_carries_line_number():
    with pytest.raises(TreebankError) as err:
        read_treebank("(S (A a))\n(S")
    assert err.value.line == 2
    with pytest.raises(TreebankError):
        read_tree("(S (A a)) extra")
    with pytest.raises(TreebankError):
        read_tree("(S (A a)))")


def test_empty_and_malformed_trees_rejected():
    for bad in ["()", "(S)", "( (A a))", "word"]:
        with pytest.raises(TreebankError):
            read_tree(bad)


def test_blank_lines_skipped():
    corpus, _ = read_treebank("\n(A a)\n\n(B b)\n")
    assert len(corpus) == 2


def test_write_root_only_lexical():
    assert write_tree(Tree("A", ["a"])) == "(A a)"


def test_write_is_independent_of_interning_order():
    one = read_tree("(S (B b) (A a))")
    # reading into a different grammar must not change the text
    assert write_tree(one) == "(S (B b) (A a))"


def spans(tree):
    return [node.span for node in tree.internal_nodes()]


@given(trees())
def test_read_tree_sets_the_spans_annotate_spans_gives(tree):
    read = read_tree(write_tree(tree))
    built = spans(read)
    assert annotate_spans(read) == len(tree.leaves())
    assert built == spans(read)
    assert annotate_spans(read, 3) == 3 + len(tree.leaves())
    assert spans(read) == [(i + 3, j + 3) for i, j in built]


def test_walks_handle_trees_deeper_than_the_recursion_limit(default_recursion_limit):
    n = 1500
    tree = Tree("A", ["w0"])
    for k in range(1, n):
        tree = Tree("A", [f"w{k}", tree])
    assert tree.depth() == n
    assert tree.leaves() == [f"w{k}" for k in range(n - 1, -1, -1)]
    assert annotate_spans(tree) == n
    assert spans(tree) == [(k, n) for k in range(n)]
    line = write_tree(tree)
    assert line == "".join(f"(A w{k} " for k in range(n - 1, 0, -1)) + "(A w0" + ")" * n
    assert spans(read_tree(line)) == spans(tree)


@given(trees())
def test_read_write_round_trip(tree):
    line = write_tree(tree)
    again = read_tree(line)
    assert again == tree
    assert write_tree(again) == line


def test_read_write_canonicalizes_whitespace():
    messy = "(S   (A  a)\t(B b))"
    assert write_tree(read_tree(messy)) == "(S (A a) (B b))"


def test_replace_leaves_in_order():
    tree = read_tree("(S (A x) (B y z))")
    swapped = replace_leaves(tree, ["1", "2", "3"])
    assert swapped.leaves() == ["1", "2", "3"]
    assert write_tree(tree) == "(S (A x) (B y z))"  # original untouched
    with pytest.raises(DataError):
        replace_leaves(tree, ["1"])


def test_tag_corpus_round_trip():
    text = "the/DT dog/NN ran/VB\na/DT cat/NN"
    corpus = read_tag_corpus(text)
    assert corpus[0] == (["the", "dog", "ran"], ["DT", "NN", "VB"])
    assert write_tagged(*corpus[1]) == "a/DT cat/NN"


def test_tag_corpus_keeps_slashed_words():
    corpus = read_tag_corpus("1/2/CD")
    assert corpus[0] == (["1/2"], ["CD"])


def test_tag_corpus_rejects_untagged_tokens():
    with pytest.raises(DataError):
        read_tag_corpus("word")
    with pytest.raises(DataError):
        read_tag_corpus("/DT")
