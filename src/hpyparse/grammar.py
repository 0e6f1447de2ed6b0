"""Symbols, rules, and the grammar container shared by every module.

Terminals and nonterminals are interned into dense integer ids (one id
space per kind). Rules are interned into dense rule ids. A Grammar is
built single-writer while reading a corpus, then treated as read-only.
The rule tables every reader looks rules up in (per lhs, unary rules
children first, and per span position by terminal, by left child and
unary) are derived once, on first use, and dropped by ``add_rule``.
"""

from __future__ import annotations

import graphlib
from typing import Iterable, NamedTuple

from .errors import GrammarError


class Sym(NamedTuple):
    """A reference to an interned symbol: (is-terminal flag, dense id)."""

    terminal: bool
    id: int


class Rule(NamedTuple):
    """A production ``lhs -> rhs``.

    Admitted right-hand sides:
      * one terminal                      (lexical, ``A -> a``)
      * one nonterminal                   (unary,   ``A -> B``)
      * two children, each kind allowed   (binary,  ``A -> B C`` / ``A -> B a`` / ...)
    """

    lhs: int
    rhs: tuple[Sym, ...]

    @property
    def is_lexical(self) -> bool:
        return len(self.rhs) == 1 and self.rhs[0].terminal

    @property
    def is_unary(self) -> bool:
        return len(self.rhs) == 1 and not self.rhs[0].terminal

    @property
    def is_binary(self) -> bool:
        return len(self.rhs) == 2


class RuleTables(NamedTuple):
    """Indexes over a grammar's rules; each list is in rule-id order
    unless said otherwise."""

    by_lhs: dict[int, list[int]]  # lhs -> rule ids
    lhs_position: list[int]  # rule id -> its position in its lhs's list
    # (rule, lhs, child) for the unary nonterminal rules, children before parents
    unary: list[tuple[int, int, int]]
    # (span ends before n, starts after 0) -> for such spans: terminal -> (rule,
    # lhs), left child Sym -> ({right nonterminal: rows}, {right terminal: rows}), unary
    by_position: dict[tuple[bool, bool], tuple[dict, dict, list]]


class SymbolTable:
    """Bidirectional text <-> dense id interning for one symbol kind."""

    def __init__(self) -> None:
        self._texts: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, text: str) -> int:
        if not text:
            raise GrammarError("empty symbol text")
        got = self._ids.get(text)
        if got is None:
            got = len(self._texts)
            self._texts.append(text)
            self._ids[text] = got
        return got

    def id(self, text: str) -> int:
        try:
            return self._ids[text]
        except KeyError:
            raise KeyError(f"unknown symbol {text!r}") from None

    def text(self, id: int) -> str:
        return self._texts[id]

    def __contains__(self, text: str) -> bool:
        return text in self._ids

    def __len__(self) -> int:
        return len(self._texts)

    def texts(self) -> list[str]:
        return list(self._texts)


class Grammar:
    """Symbol tables plus an interned rule set and its rule tables."""

    def __init__(self) -> None:
        self.nonterminals = SymbolTable()
        self.terminals = SymbolTable()
        self.rules: list[Rule] = []
        self._rule_ids: dict[Rule, int] = {}
        self.root: int | None = None
        self._tables: RuleTables | None = None

    # -- symbol interning ------------------------------------------------

    def nonterminal(self, text: str) -> int:
        return self.nonterminals.intern(text)

    def terminal(self, text: str) -> int:
        return self.terminals.intern(text)

    # -- rules -----------------------------------------------------------

    def add_rule(self, lhs: int, rhs: Iterable[Sym]) -> int:
        rule = Rule(lhs, tuple(rhs))
        if not 1 <= len(rule.rhs) <= 2:
            raise GrammarError(f"rule arity must be 1 or 2, got {len(rule.rhs)}")
        got = self._rule_ids.get(rule)
        if got is not None:
            return got
        got = len(self.rules)
        self.rules.append(rule)
        self._rule_ids[rule] = got
        self._tables = None
        return got

    def rule_id(self, rule: Rule) -> int:
        try:
            return self._rule_ids[rule]
        except KeyError:
            lhs = self.nonterminals.text(rule.lhs)
            raise KeyError(f"rule not in grammar: {lhs} -> {self.rhs_text(rule)}") from None

    def rules_for(self, lhs: int) -> list[int]:
        return self.tables.by_lhs.get(lhs, [])

    @property
    def lhs_position(self) -> list[int]:
        """Each rule's position in its lhs's ``rules_for`` list."""
        return self.tables.lhs_position

    def set_root(self, nt_id: int) -> None:
        self.root = nt_id

    @property
    def num_rules(self) -> int:
        return len(self.rules)

    # -- presentation ----------------------------------------------------

    def sym_text(self, sym: Sym) -> str:
        return self.terminals.text(sym.id) if sym.terminal else self.nonterminals.text(sym.id)

    def rhs_text(self, rule: Rule) -> str:
        return " ".join(self.sym_text(s) for s in rule.rhs)

    def rule_text(self, rule_id: int) -> str:
        rule = self.rules[rule_id]
        return f"{self.nonterminals.text(rule.lhs)} -> {self.rhs_text(rule)}"

    # -- rule tables -------------------------------------------------------

    @property
    def tables(self) -> RuleTables:
        """The rule tables, derived from ``rules`` on first use.

        Unary rules are ordered child-before-parent, so chart algorithms
        that apply them per cell in this order let a parent see entries
        produced by its (transitively) unary children. Raises
        GrammarError if the unary rules form a cycle, which would make
        inside sums diverge.
        """
        if self._tables is not None:
            return self._tables
        by_lhs: dict[int, list[int]] = {}
        lhs_position: list[int] = []
        lexical: dict[int, list[tuple[int, int]]] = {}
        unary: list[tuple[int, int, int]] = []
        children: dict[int, set[int]] = {}  # unary lhs -> its children
        for rid, rule in enumerate(self.rules):
            same_lhs = by_lhs.setdefault(rule.lhs, [])
            lhs_position.append(len(same_lhs))
            same_lhs.append(rid)
            if rule.is_lexical:
                lexical.setdefault(rule.rhs[0].id, []).append((rid, rule.lhs))
            elif rule.is_unary:
                unary.append((rid, rule.lhs, rule.rhs[0].id))
                children.setdefault(rule.lhs, set()).add(rule.rhs[0].id)
        try:
            order = graphlib.TopologicalSorter(children).static_order()
            rank = {nt: i for i, nt in enumerate(order)}
        except graphlib.CycleError:
            raise GrammarError("unary rule cycle; such grammars are not supported") from None
        unary.sort(key=lambda r: (rank[r[1]], r[0]))
        # Fixpoints: the nonterminals that can end before n (start after 0).
        # Every child but the last (first) of a rule can; the last (first)
        # ends (starts) where its lhs does, so it can when its lhs can.
        early: set[int] = set()
        late: set[int] = set()
        size = -1
        while size < len(early) + len(late):
            size = len(early) + len(late)
            for lhs, rhs in (rule for rule in self.rules if not rule.is_lexical):
                for free, inner, outer in ((early, rhs[:-1], rhs[-1]), (late, rhs[1:], rhs[0])):
                    free.update(sym.id for sym in inner if not sym.terminal)
                    if lhs in free and not outer.terminal:
                        free.add(outer.id)
        by_position: dict[tuple[bool, bool], tuple[dict, dict, list]] = {}
        for position in ((False, False), (False, True), (True, False), (True, True)):
            ok = set(by_lhs).intersection(*(f for f, on in zip((early, late), position) if on))
            if ok == set(by_lhs) and by_position:  # drops nothing, as (False, False) does
                by_position[position] = by_position[False, False]
                continue
            by_left: dict[Sym, tuple[dict, dict]] = {}
            for rid, (lhs, rhs) in enumerate(self.rules):
                if len(rhs) == 2 and lhs in ok:
                    by_right = by_left.setdefault(rhs[0], ({}, {}))[rhs[1].terminal]
                    by_right.setdefault(rhs[1].id, []).append((rid, lhs))
            by_position[position] = (
                {t: kept for t, rows in lexical.items() if (kept := [r for r in rows if r[1] in ok])},
                by_left,
                [row for row in unary if row[1] in ok],
            )
        self._tables = RuleTables(by_lhs, lhs_position, unary, by_position)
        return self._tables

    def unary_rule_order(self) -> list[int]:
        """Unary nonterminal rule ids ordered child-before-parent."""
        return [rid for rid, _, _ in self.tables.unary]

    def validate(self) -> None:
        """Check structural invariants after construction."""
        if self.root is None:
            raise GrammarError("grammar has no root symbol")
        if not 0 <= self.root < len(self.nonterminals):
            raise GrammarError("root is not an interned nonterminal")
        for rule in self.rules:
            if not 0 <= rule.lhs < len(self.nonterminals):
                raise GrammarError(f"rule lhs {rule.lhs} not interned")
            for sym in rule.rhs:
                table = self.terminals if sym.terminal else self.nonterminals
                if not 0 <= sym.id < len(table):
                    raise GrammarError(f"rule symbol {sym} not interned")
        self.unary_rule_order()
