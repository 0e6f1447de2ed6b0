"""The derivation enumeration shared by every chart algorithm, and the
pruned parse hypergraph for one sentence.

Nodes are (nonterminal, start, end) items; a hyperedge records the rule
and split that build its head from tail items or words. ``derivations``
lists every such edge of every derivable item that the grammar's position
fixpoint allows at its span, bottom-up, in the order chart folds combine
them: inside sums and maxima, Viterbi backpointers, sampling weights,
tree counts and span-count maximization are each one pass over that list
under a different semiring (Goodman 1999, *Semiring Parsing*). As that
filter over-approximates, the hypergraph keeps exactly the items that
are also reachable from the root item, so every retained node
takes part in at least one complete tree; its pruned list is the one
enumeration a decoder makes per sentence, and every chart it reads is a
fold over that list. Each derivation stores its edge's tail items, so
counting and enumerating trees read tails from the list. Top-down
decoders walk edges from the root (``events.leftmost_walk``, where the
edge encoding (rule id, split) gives child spans and kinds), and
``build_tree`` turns the walk's steps into a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import DataError
from .grammar import Grammar
from .trees import Sentence, Tree

Node = tuple[int, int, int]  # (nonterminal id, start, end)
Edge = tuple[int, int]  # (rule id, split; -1 when the rule is not binary)
Derivation = tuple[Node, Edge, tuple[Node, ...]]  # head, edge, nonterminal tails
Step = tuple[Node, tuple[int, ...], Edge]  # an expansion: item, its context, edge


@dataclass
class Hypergraph:
    grammar: Grammar
    words: Sentence
    nodes: set[Node] = field(default_factory=set)
    edges: dict[Node, list[Edge]] = field(default_factory=dict)
    root: Node | None = None
    # the kept edges in ``derivations`` order: each after its tails' edges
    derivations: list[Derivation] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.root is None


def derivations(grammar: Grammar, words: Sentence) -> list[Derivation]:
    """Every edge of every item derivable over ``words`` at a span where
    some complete tree could hold it (``Grammar.tables``), bottom-up.

    Cells come by increasing width, then start. Within a cell come the
    lexical edges in rule-id order, then the binary edges by (rule id,
    split), then the unary edges in ``grammar.unary_rule_order()``; so
    every edge comes after all edges of its tails, and a fold over the
    list combines each item's edges in one fixed order. Per split, each
    left child's nonterminal partners are intersected with the right cell
    (one set operation, not one test per rule); a terminal in a binary
    child slot matches exactly a width-one span with that word.
    """
    # unknown words get -1, which no rule matches
    word_ids = [grammar.terminals.id(w) if w in grammar.terminals else -1 for w in words]
    by_position = grammar.tables.by_position

    n = len(words)
    cells: dict[tuple[int, int], set[int]] = {}  # derivable nonterminals per span
    out: list[Derivation] = []
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            j = i + width
            lexical, binary, unary = by_position[j < n, i > 0]
            here: set[int] = set()
            if width == 1:
                for rid, lhs in lexical.get(word_ids[i], ()):
                    out.append(((lhs, i, j), (rid, -1), ()))
                    here.add(lhs)
            found: list[tuple[int, int, int, tuple[Node, ...]]] = []
            for m in range(i + 1, j):
                rights = cells[m, j]
                lefts = [(False, a) for a in cells[i, m]]
                if m == i + 1:
                    lefts.append((True, word_ids[i]))
                for left in lefts:
                    partners = binary.get(left)
                    if partners is None:
                        continue
                    by_nonterminal, by_terminal = partners
                    left_tail: tuple[Node, ...] = () if left[0] else ((left[1], i, m),)
                    for right in by_nonterminal.keys() & rights:
                        tails = left_tail + ((right, m, j),)
                        for rid, lhs in by_nonterminal[right]:
                            found.append((rid, m, lhs, tails))
                    if j == m + 1:
                        for rid, lhs in by_terminal.get(word_ids[m], ()):
                            found.append((rid, m, lhs, left_tail))
            found.sort()  # (rule id, split) is unique within a cell
            for rid, m, lhs, tails in found:
                out.append(((lhs, i, j), (rid, m), tails))
                here.add(lhs)
            for rid, lhs, child in unary:
                if child in here:
                    out.append(((lhs, i, j), (rid, -1), ((child, i, j),)))
                    here.add(lhs)
            cells[i, j] = here
    return out


def build_tree(grammar: Grammar, words: Sentence, steps: Sequence[Step]) -> Tree:
    """The tree a derivation builds, from its steps in leftmost pre-order
    (as ``events.leftmost_walk`` gives them; contexts are not read).

    The steps are folded last to first, so each item's subtrees, left
    ones on top, are done before it; the depth of the tree is not bounded
    by the interpreter's recursion limit. Spans are set as nodes are made.
    """
    done: list[Tree] = []
    for (nt, i, j), _, (rule_id, split) in reversed(steps):
        rhs = grammar.rules[rule_id].rhs
        starts = (i,) if len(rhs) == 1 else (i, split)
        children = [words[a] if sym.terminal else done.pop() for sym, a in zip(rhs, starts)]
        done.append(Tree(grammar.nonterminals.text(nt), children, (i, j)))
    [tree] = done
    return tree


def build_hypergraph(grammar: Grammar, words: Sentence) -> Hypergraph:
    """Derivable-and-reachable chart of items for ``words``.

    Returns an explicitly empty hypergraph (root None, no nodes) when the
    sentence has no complete derivation.
    """
    if grammar.root is None:
        raise DataError("grammar has no root symbol")
    n = len(words)
    if n == 0:
        raise DataError("cannot build a hypergraph for an empty sentence")
    root = (grammar.root, 0, n)
    # Backwards, every edge of an item comes after all edges that use it,
    # so the reachable set is complete for an item when its edges come up.
    reachable = {root}
    kept: list[Derivation] = []
    for derivation in reversed(derivations(grammar, words)):
        head, _, tails = derivation
        if head in reachable:
            reachable.update(tails)
            kept.append(derivation)
    if not kept:
        return Hypergraph(grammar, words)
    kept.reverse()
    edges: dict[Node, list[Edge]] = {}
    for head, edge, _ in kept:
        edges.setdefault(head, []).append(edge)
    for node_edges in edges.values():
        node_edges.sort()
    return Hypergraph(grammar, words, reachable, edges, root, kept)


def count_trees(hg: Hypergraph) -> int:
    """Number of complete trees the hypergraph encodes (exact big-int DP)."""
    if hg.empty:
        return 0
    counts: dict[Node, int] = {}
    for head, _, tails in hg.derivations:
        product = 1
        for tail in tails:
            product *= counts[tail]
        counts[head] = counts.get(head, 0) + product
    assert hg.root is not None
    return counts[hg.root]


def enumerate_trees(hg: Hypergraph, limit: int | None = None) -> Iterator[Tree]:
    """All complete trees, depth-first over edges in deterministic order.

    Raises DataError if ``limit`` is given and exceeded; intended for
    desk-scale instances only.
    """
    if hg.empty:
        return
    assert hg.root is not None
    produced = 0
    tails = {(head, edge): items for head, edge, items in hg.derivations}
    # A state is the steps taken so far in leftmost order and the items
    # still open, leftmost first. Alternatives are pushed last edge first,
    # so trees come out ordered by their edge choices in pre-order. No
    # context enters a tree, so the steps carry empty ones.
    stack: list[tuple[tuple[Step, ...], tuple[Node, ...]]] = [((), (hg.root,))]
    while stack:
        steps, frontier = stack.pop()
        if frontier:
            item, rest = frontier[0], frontier[1:]
            for edge in reversed(hg.edges[item]):
                stack.append((steps + ((item, (), edge),), tails[item, edge] + rest))
            continue
        produced += 1
        if limit is not None and produced > limit:
            raise DataError(f"more than {limit} trees in hypergraph")
        yield build_tree(hg.grammar, hg.words, steps)
