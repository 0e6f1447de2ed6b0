"""Extraction of context-rule events from trees.

Every internal node of a (binarized) tree yields one event: the rule
applied there plus the vertical chain of its ancestors, stored earliest
ancestor first and nearest last. Two context alphabets are supported:

  * nonterminal mode: ancestor labels, including the node's own label as
    the final element (so the expanded frontier symbol is the last entry);
  * rule mode: the rules applied at strict ancestors, each fused with the
    child slot that was descended into, so the frontier symbol is still
    recoverable from the final element.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DataError
from .grammar import Grammar, Rule, Sym
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


def extract_events(tree: Tree, grammar: Grammar, mode: str = NONTERMINAL_CONTEXT) -> list[Event]:
    """One event per internal node, in preorder."""
    if mode not in CONTEXT_MODES:
        raise ValueError(f"unknown context mode {mode!r}")
    events: list[Event] = []
    stack: list[tuple[Tree, tuple[int, ...]]] = [(tree, ())]
    while stack:
        node, context = stack.pop()
        rule = node_rule(grammar, node)
        rule_id = grammar.rule_id(rule)
        if mode == NONTERMINAL_CONTEXT:
            here = context + (rule.lhs,)
        else:
            here = context
        events.append(Event(here, rule_id))
        for slot in reversed(range(len(node.children))):
            child = node.children[slot]
            if isinstance(child, Tree):
                if mode == NONTERMINAL_CONTEXT:
                    stack.append((child, here))
                else:
                    stack.append((child, context + (rule_context_element(rule_id, slot),)))
    return events
