"""The vertical context rule, and the events and derivations it scores.

Every rule application is one event: the rule plus the vertical chain
of its ancestors, stored earliest ancestor first and nearest last. Two
context alphabets are supported:

  * nonterminal mode: ancestor labels, including the node's own label as
    the final element (so the expanded frontier symbol is the last entry);
  * rule mode: the rules applied at strict ancestors, each fused with the
    child slot that was descended into, so the frontier symbol is still
    recoverable from the final element.

``root_context`` and ``child_context`` state that rule once, for events
read off trees (``extract_events``) and off derivations, grown one
expansion at a time (A*) or walked whole (``leftmost_walk``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import DataError
from .grammar import Grammar, Rule, Sym
from .hypergraph import Edge, Node, Step, _child_spans
from .trees import Tree

NONTERMINAL_CONTEXT = "nonterminal"
RULE_CONTEXT = "rule"
CONTEXT_MODES = (NONTERMINAL_CONTEXT, RULE_CONTEXT)


class Event(NamedTuple):
    context: tuple[int, ...]
    rule: int


def rule_context_element(rule_id: int, child_slot: int) -> int:
    return rule_id * 2 + child_slot


def decode_rule_context_element(element: int) -> tuple[int, int]:
    return divmod(element, 2)[0], element % 2


def frontier_nonterminal(grammar: Grammar, context: tuple[int, ...], mode: str) -> int:
    """The nonterminal being expanded, read off the context's last element.

    In rule mode an empty context denotes the root, whose symbol is the
    grammar root by convention.
    """
    if mode == NONTERMINAL_CONTEXT:
        return context[-1]
    if not context:
        assert grammar.root is not None
        return grammar.root
    rule_id, slot = decode_rule_context_element(context[-1])
    sym = grammar.rules[rule_id].rhs[slot]
    if sym.terminal:
        raise DataError("context element descends into a terminal child")
    return sym.id


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


def child_context(
    context: tuple[int, ...], rule_id: int, slot: int, child: int, mode: str
) -> tuple[int, ...]:
    """Context of the nonterminal ``child`` in ``slot`` of rule ``rule_id``,
    applied under ``context``."""
    if mode == NONTERMINAL_CONTEXT:
        return context + (child,)
    return context + (rule_context_element(rule_id, slot),)


def child_items(
    grammar: Grammar, item: Node, context: tuple[int, ...], edge: Edge, mode: str
) -> list[tuple[Node, tuple[int, ...]]]:
    """The nonterminal child items of an expansion, left to right, each
    with the context its own expansion is scored under."""
    rule_id, split = edge
    rule = grammar.rules[rule_id]
    _, i, j = item
    out: list[tuple[Node, tuple[int, ...]]] = []
    for slot, (sym, (a, b)) in enumerate(zip(rule.rhs, _child_spans(rule, i, j, split))):
        if not sym.terminal:
            out.append(((sym.id, a, b), child_context(context, rule_id, slot, sym.id, mode)))
    return out


def leftmost_walk(
    grammar: Grammar, root: Node, pick: Callable[[Node], Edge], mode: str = NONTERMINAL_CONTEXT
) -> list[Step]:
    """The derivation in which each item is built by the edge ``pick``
    gives it, as (item, context, edge) steps in leftmost pre-order.

    ``pick`` is called in that order (a parent before its children, a left
    subtree before its right sibling), so it may draw random numbers or
    replay decisions. It is also the order of ``extract_events``.
    """
    steps: list[Step] = []
    stack = [(root, root_context(root[0], mode))]
    while stack:
        item, context = stack.pop()
        edge = pick(item)
        steps.append((item, context, edge))
        stack.extend(reversed(child_items(grammar, item, context, edge, mode)))
    return steps


def extract_events(tree: Tree, grammar: Grammar, mode: str = NONTERMINAL_CONTEXT) -> list[Event]:
    """One event per internal node, in preorder."""
    events: list[Event] = []
    root = grammar.nonterminals.id(tree.label)
    stack: list[tuple[Tree, tuple[int, ...]]] = [(tree, root_context(root, mode))]
    while stack:
        node, context = stack.pop()
        rule = node_rule(grammar, node)
        rule_id = grammar.rule_id(rule)
        events.append(Event(context, rule_id))
        for slot, child in reversed(list(enumerate(node.children))):
            if isinstance(child, Tree):
                sym = rule.rhs[slot].id
                stack.append((child, child_context(context, rule_id, slot, sym, mode)))
    return events
