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
``tree_edges`` reads its (rule, split) edges off its spans,
``tree_steps`` replays them through the walk, and the tree's events
(``extract_events``) are its steps' (context, rule) pairs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .grammar import Grammar, Rule, Sym
from .hypergraph import Edge, Node, Step
from .trees import Tree, annotate_spans

NONTERMINAL_CONTEXT = "nonterminal"
RULE_CONTEXT = "rule"
CONTEXT_MODES = (NONTERMINAL_CONTEXT, RULE_CONTEXT)


class Event(NamedTuple):
    context: tuple[int, ...]
    rule: int


def rule_context_element(rule_id: int, child_slot: int) -> int:
    return rule_id * 2 + child_slot


def node_rule(grammar: Grammar, node: Tree) -> Rule:
    lhs = grammar.nonterminals.id(node.label)
    rhs = tuple(
        Sym(True, grammar.terminals.id(c)) if isinstance(c, str) else Sym(False, grammar.nonterminals.id(c.label))
        for c in node.children
    )
    return Rule(lhs, rhs)


def register_rules(grammar: Grammar, tree: Tree) -> None:
    """Intern every production used in ``tree`` into the grammar."""
    for node in tree.internal_nodes():
        rule = node_rule(grammar, node)
        grammar.add_rule(rule.lhs, rule.rhs)


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


def tree_edges(grammar: Grammar, tree: Tree) -> list[Edge]:
    """Each internal node's (rule id, split) in pre-order; a binary node's
    split is where its first child's span ends. A tree without spans is
    given them first."""
    if tree.span is None:
        annotate_spans(tree)
    edges: list[Edge] = []
    for node in tree.internal_nodes():
        rule_id = grammar.rule_id(node_rule(grammar, node))
        if len(node.children) == 1:
            edges.append((rule_id, -1))
        else:
            first = node.children[0]
            split = first.span[1] if isinstance(first, Tree) else node.span[0] + 1
            edges.append((rule_id, split))
    return edges


def tree_steps(grammar: Grammar, tree: Tree, mode: str = NONTERMINAL_CONTEXT) -> list[Step]:
    """The tree's derivation: its ``tree_edges`` replayed through
    ``leftmost_walk`` from the root item."""
    replay = iter(tree_edges(grammar, tree))
    root = (grammar.nonterminals.id(tree.label),) + tree.span
    return leftmost_walk(grammar, root, lambda _: next(replay), mode)


def extract_events(tree: Tree, grammar: Grammar, mode: str = NONTERMINAL_CONTEXT) -> list[Event]:
    """One event per internal node, in pre-order: the (context, rule) of
    each step of the tree's derivation."""
    return [Event(context, edge[0]) for _, context, edge in tree_steps(grammar, tree, mode)]
