"""The vertical context rule, and the events and derivations it scores.

Every rule application is one event: the rule plus the vertical chain
of its ancestors, stored earliest ancestor first and nearest last. Two
context alphabets are supported:

  * nonterminal mode: ancestor labels, including the node's own label as
    the final element (so the expanded frontier symbol is the last entry);
  * rule mode: the rules applied at strict ancestors, each fused with the
    child slot that was descended into, so the frontier symbol is still
    recoverable from the final element.

``root_context`` and ``child_elements`` state that rule once. A* folds
a child's element onto its parent's restaurant (``TrainedModel.step``),
one expansion at a time; ``leftmost_walk`` folds it onto the parent's
context tuple along a whole derivation, as (item, context, edge) steps,
asking a callback for each item's edge. A tree is a derivation too:
``tree_edges`` reads its (rule, split) edges off its spans (training
reads them in the walk that interns the tree), ``tree_steps`` replays
them through the walk, and the tree's events (``extract_events``) are
its steps' (context, rule) pairs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import DataError
from .grammar import Grammar, Rule, Sym
from .hypergraph import Edge, Node, Step
from .trees import Sentence, Tree, annotate_spans

NONTERMINAL_CONTEXT = "nonterminal"
RULE_CONTEXT = "rule"
CONTEXT_MODES = (NONTERMINAL_CONTEXT, RULE_CONTEXT)


class Event(NamedTuple):
    context: tuple[int, ...]
    rule: int


def rule_context_element(rule_id: int, child_slot: int) -> int:
    return rule_id * 2 + child_slot


def root_context(root: int, mode: str) -> tuple[int, ...]:
    """Context under which the rule at a root labelled ``root`` is chosen."""
    if mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {mode!r}")
    return (root,) if mode == NONTERMINAL_CONTEXT else ()


def child_elements(grammar: Grammar, item: Node, edge: Edge, mode: str) -> list[tuple[Node, int]]:
    """The nonterminal child items of an expansion, left to right, each
    with the element its context adds to its parent's: the child's label
    (nonterminal mode) or the rule fused with the child's slot (rule mode)."""
    rule_id, split = edge
    rhs = grammar.rules[rule_id].rhs
    _, i, j = item
    spans = ((i, j),) if len(rhs) == 1 else ((i, split), (split, j))
    out: list[tuple[Node, int]] = []
    for slot, (sym, (a, b)) in enumerate(zip(rhs, spans)):
        if not sym.terminal:
            element = sym.id if mode == NONTERMINAL_CONTEXT else rule_context_element(rule_id, slot)
            out.append(((sym.id, a, b), element))
    return out


def leftmost_walk(
    grammar: Grammar, root: Node, pick: Callable[[Node], Edge], mode: str = NONTERMINAL_CONTEXT
) -> list[Step]:
    """The derivation in which each item is built by the edge ``pick``
    gives it, as (item, context, edge) steps in leftmost pre-order.

    ``pick`` is called in that order (a parent before its children, a left
    subtree before its right sibling), so it may draw random numbers or
    replay decisions, such as a tree's ``tree_edges``.
    """
    steps: list[Step] = []
    stack = [(root, root_context(root[0], mode))]
    while stack:
        item, context = stack.pop()
        edge = pick(item)
        steps.append((item, context, edge))
        for child, element in reversed(child_elements(grammar, item, edge, mode)):
            stack.append((child, context + (element,)))
    return steps


def tree_edges(grammar: Grammar, tree: Tree, words: Sentence | None = None) -> list[Edge]:
    """Each internal node's (rule id, split) in pre-order; a binary node's
    split is where its first child's span ends. Given ``words`` (its yield,
    or the yield's mapped words), the same walk interns the tree into the
    grammar: labels and rules in pre-order, and ``words`` in yield order in
    place of its leaves. A tree without spans is given them first."""
    if tree.span is None:
        annotate_spans(tree)
    nonterminals, terminals = grammar.nonterminals, grammar.terminals
    if words is not None and len(words) != tree.span[1] - tree.span[0]:
        raise DataError(f"{len(words)} words for a tree yield of {tree.span[1] - tree.span[0]}")
    mapped = iter(words or ())  # in place of the leaves, which the walk pops in yield order
    label, word = (nonterminals.id, terminals.id) if words is None else (nonterminals.intern, lambda _: terminals.intern(next(mapped)))
    rows: list[tuple[Tree, int, list[Sym]]] = []  # per internal node in pre-order: node, lhs, rhs
    todo: list[tuple[Tree | str, list[Sym]]] = [(tree, [])]  # a child with its parent's rhs
    while todo:  # pops labels in pre-order and words in yield order
        node, parent_rhs = todo.pop()
        if isinstance(node, str):
            parent_rhs.append(Sym(True, word(node)))
            continue
        lhs, rhs = label(node.label), []
        parent_rhs.append(Sym(False, lhs))
        rows.append((node, lhs, rhs))
        todo.extend((child, rhs) for child in reversed(node.children))
    edges = []
    for node, lhs, rhs in rows:
        rule_id = grammar.add_rule(lhs, rhs) if words is not None else grammar.rule_id(Rule(lhs, tuple(rhs)))
        first = node.children[0]
        edges.append((rule_id, -1 if len(rhs) == 1 else first.span[1] if isinstance(first, Tree) else node.span[0] + 1))
    return edges


def tree_steps(
    grammar: Grammar, tree: Tree, mode: str = NONTERMINAL_CONTEXT, edges: list[Edge] | None = None
) -> list[Step]:
    """The tree's derivation: its ``tree_edges`` (``edges``, if already
    read) replayed through ``leftmost_walk`` from the root item."""
    replay = iter(tree_edges(grammar, tree) if edges is None else edges)
    root = (grammar.nonterminals.id(tree.label),) + tree.span
    return leftmost_walk(grammar, root, lambda _: next(replay), mode)


def extract_events(
    tree: Tree, grammar: Grammar, mode: str = NONTERMINAL_CONTEXT, edges: list[Edge] | None = None
) -> list[Event]:
    """One event per internal node, in pre-order: the (context, rule) of
    each step of the tree's derivation (``tree_steps``)."""
    return [Event(context, edge[0]) for _, context, edge in tree_steps(grammar, tree, mode, edges)]
