"""Labeled ordered trees and treebank text I/O.

Trees carry string labels and string leaves so they can be printed and
compared without a grammar; interning happens when rules or events are
extracted. The bracketed format is one tree per line, ``(LABEL child ...)``
nesting, whitespace-separated tokens:

    tree    = "(" label child+ ")"
    child   = tree | word
    label   = any token without whitespace or parentheses
    word    = any token without whitespace or parentheses

Tag corpora are lines of whitespace-separated ``word/TAG`` tokens; the
tag is everything after the *last* slash, so words may contain slashes.

A tree has two walks, each with an explicit stack so depth is not bounded
by the recursion limit: ``Tree.internal_nodes`` (top-down, pre-order)
and ``rebuild_tree`` (a bottom-up fold). Yields, depth, spans and the
bracketed form are folds; ``read_tree`` sets spans as it parses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import DataError, TreebankError
from .grammar import Grammar

Sentence = list[str]
T = TypeVar("T")


@dataclass
class Tree:
    """Internal node of a parse tree; leaves are plain strings."""

    label: str
    children: list["Tree | str"]
    span: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.children:
            raise DataError(f"node {self.label!r} has no children")

    def leaves(self) -> list[str]:
        out: list[str] = []
        rebuild_tree(self, out.append, lambda _, __: None)
        return out

    def internal_nodes(self) -> Iterator["Tree"]:
        """All internal nodes in preorder."""
        stack: list[Tree] = [self]
        while stack:
            node = stack.pop()
            yield node
            for child in reversed(node.children):
                if isinstance(child, Tree):
                    stack.append(child)

    def is_preterminal(self) -> bool:
        return all(isinstance(c, str) for c in self.children)

    def depth(self) -> int:
        """Number of internal-node levels (a preterminal-only tree has depth 1)."""
        return rebuild_tree(self, lambda _: 0, lambda _, depths: 1 + max(depths))


def rebuild_tree(
    tree: Tree,
    leaf: Callable[[str], T],
    node: Callable[[Tree, list[T]], T],
) -> T:
    """Fold ``tree`` bottom-up with an explicit stack, so depth is unbounded.

    ``leaf`` is called on each word in yield order; ``node`` is called on
    each internal node with its children's results, after all of them.
    """
    # the open node, its children not yet visited and its results so far;
    # the stack holds the same for each of its open ancestors
    current, pending, done = tree, iter(tree.children), []
    stack: list[tuple[Tree, Iterator[Tree | str], list[T]]] = []
    while True:
        for child in pending:
            if isinstance(child, str):
                done.append(leaf(child))
            else:
                stack.append((current, pending, done))
                current, pending, done = child, iter(child.children), []
                break
        else:
            out = node(current, done)
            if not stack:
                return out
            current, pending, done = stack.pop()
            done.append(out)


def annotate_spans(tree: Tree, start: int = 0) -> int:
    """Fill in (start, end) token spans, numbering the leaves in yield
    order from ``start``; returns the end of ``tree``."""
    positions = itertools.count(start)

    def leaf(_: str) -> tuple[int, int]:
        k = next(positions)
        return k, k + 1

    def node(current: Tree, spans: list[tuple[int, int]]) -> tuple[int, int]:
        current.span = (spans[0][0], spans[-1][1])
        return current.span

    return rebuild_tree(tree, leaf, node)[1]


def write_tree(tree: Tree) -> str:
    """Single-line bracketed form; inverse of read_tree up to whitespace."""
    return rebuild_tree(
        tree, lambda word: word, lambda node, parts: f"({node.label} {' '.join(parts)})"
    )


def _tokenize_line(line: str) -> list[str]:
    return line.replace("(", " ( ").replace(")", " ) ").split()


def read_tree(line: str, lineno: int | None = None) -> Tree:
    """Parse one bracketed tree from a single line of text."""
    tokens = _tokenize_line(line)
    if not tokens:
        raise TreebankError("empty tree", lineno)
    if tokens[0] != "(":
        raise TreebankError("tree must start with '('", lineno)
    # the open nodes, outermost first: label, first word, children so far
    stack: list[tuple[str, int, list[Tree | str]]] = []
    done: list[Tree] = []  # the root, once it is closed
    pos = 0
    words = 0  # words read so far, so spans are set as nodes close
    while pos < len(tokens) and not done:
        token = tokens[pos]
        if token == "(":
            if pos + 1 >= len(tokens) or tokens[pos + 1] in "()":
                raise TreebankError("missing node label", lineno)
            stack.append((tokens[pos + 1], words, []))
            pos += 2
            continue
        pos += 1
        if token != ")":
            stack[-1][2].append(token)
            words += 1
            continue
        label, start, children = stack.pop()
        if not children:
            raise TreebankError(f"node {label!r} has no children", lineno)
        (stack[-1][2] if stack else done).append(Tree(label, children, (start, words)))
    if not done:
        raise TreebankError("unbalanced brackets: missing ')'", lineno)
    if pos != len(tokens):
        raise TreebankError("unbalanced brackets: trailing input", lineno)
    return done[0]


def read_treebank(
    text: str | Iterable[str], grammar: Grammar | None = None
) -> tuple[list[tuple[Sentence, Tree]], Grammar]:
    """Read one tree per nonblank line; intern symbols into ``grammar``.

    Returns (corpus, grammar) where corpus pairs each tree with its
    token yield. Only symbols are interned here; rules are collected
    after preprocessing (see ``model.build_grammar``).
    """
    if grammar is None:
        grammar = Grammar()
    lines = text.splitlines() if isinstance(text, str) else text
    corpus: list[tuple[Sentence, Tree]] = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        tree = read_tree(raw, lineno)
        words = tree.leaves()
        for node in tree.internal_nodes():
            grammar.nonterminal(node.label)
        for word in words:
            grammar.terminal(word)
        corpus.append((words, tree))
    return corpus, grammar


def replace_leaves(tree: Tree, words: Sentence) -> Tree:
    """Copy of ``tree`` with leaves replaced by ``words`` in yield order."""
    if len(tree.leaves()) != len(words):
        raise DataError("replacement words do not match the tree yield length")
    replacements = iter(words)
    return rebuild_tree(
        tree,
        lambda _: next(replacements),
        lambda node, children: Tree(node.label, children, node.span),
    )


def read_tag_corpus(text: str | Iterable[str]) -> list[tuple[Sentence, list[str]]]:
    """Read ``word/TAG`` lines into (words, tags) pairs."""
    lines = text.splitlines() if isinstance(text, str) else text
    corpus: list[tuple[Sentence, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        words: Sentence = []
        tags: list[str] = []
        for token in raw.split():
            word, sep, tag = token.rpartition("/")
            if not sep or not word or not tag:
                raise DataError(f"line {lineno}: token {token!r} is not word/TAG")
            words.append(word)
            tags.append(tag)
        corpus.append((words, tags))
    return corpus


def write_tagged(words: Sentence, tags: list[str]) -> str:
    if len(words) != len(tags):
        raise DataError("words/tags length mismatch")
    return " ".join(f"{w}/{t}" for w, t in zip(words, tags))
