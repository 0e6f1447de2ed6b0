"""Symbols, rules, and the grammar container shared by every module.

Terminals and nonterminals are interned into dense integer ids (one id
space per kind). Rules are interned into dense rule ids. A Grammar is
built single-writer while reading a corpus, then treated as read-only.
"""

from __future__ import annotations

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
    """Symbol tables plus an interned rule set with per-lhs indexing."""

    def __init__(self) -> None:
        self.nonterminals = SymbolTable()
        self.terminals = SymbolTable()
        self.rules: list[Rule] = []
        self._rule_ids: dict[Rule, int] = {}
        self.rules_by_lhs: dict[int, list[int]] = {}
        # each rule's position in its lhs's ``rules_by_lhs`` list
        self.lhs_position: list[int] = []
        self.root: int | None = None
        self._unary_order: list[int] | None = None

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
        same_lhs = self.rules_by_lhs.setdefault(lhs, [])
        self.lhs_position.append(len(same_lhs))
        same_lhs.append(got)
        self._unary_order = None
        return got

    def rule_id(self, rule: Rule) -> int:
        try:
            return self._rule_ids[rule]
        except KeyError:
            lhs = self.nonterminals.text(rule.lhs)
            raise KeyError(f"rule not in grammar: {lhs} -> {self.rhs_text(rule)}") from None

    def rules_for(self, lhs: int) -> list[int]:
        return self.rules_by_lhs.get(lhs, [])

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

    # -- unary structure ---------------------------------------------------

    def unary_rule_order(self) -> list[int]:
        """Unary nonterminal rules ordered child-before-parent.

        Chart algorithms apply unary rules per cell in this order so a
        parent can see entries produced by its (transitively) unary
        children. Raises GrammarError if the unary rules form a cycle,
        which would make inside sums diverge.
        """
        if self._unary_order is not None:
            return self._unary_order
        unary = [(rid, r) for rid, r in enumerate(self.rules) if r.is_unary]
        children: dict[int, set[int]] = {}
        for _, r in unary:
            children.setdefault(r.lhs, set()).add(r.rhs[0].id)
        # Kahn's algorithm over lhs -> child edges; emit nodes whose
        # children are all emitted (reverse topological).
        indeg = {a: len(cs) for a, cs in children.items()}
        parents: dict[int, list[int]] = {}
        for a, cs in children.items():
            for b in cs:
                parents.setdefault(b, []).append(a)
        ready = sorted(
            set(c for cs in children.values() for c in cs) - set(children), key=int
        )
        emitted: list[int] = []
        while ready:
            b = ready.pop()
            emitted.append(b)
            for a in sorted(parents.get(b, []), reverse=True):
                indeg[a] -= 1
                if indeg[a] == 0:
                    ready.append(a)
        if len(emitted) < len(set(children) | set(parents)):
            raise GrammarError("unary rule cycle; such grammars are not supported")
        rank = {nt: i for i, nt in enumerate(emitted)}
        order = sorted(unary, key=lambda pair: (rank[pair[1].lhs], pair[0]))
        self._unary_order = [rid for rid, _ in order]
        return self._unary_order

    def validate(self) -> None:
        """Check structural invariants after construction."""
        if self.root is None:
            raise GrammarError("grammar has no root symbol")
        if not 0 <= self.root < len(self.nonterminals):
            raise GrammarError("root is not an interned nonterminal")
        seen = 0
        for lhs, ids in self.rules_by_lhs.items():
            for rid in ids:
                if self.rules[rid].lhs != lhs:
                    raise GrammarError("rules_by_lhs index is inconsistent")
            seen += len(ids)
        if seen != len(self.rules):
            raise GrammarError("rules_by_lhs does not partition the rule set")
        for rule in self.rules:
            if not 0 <= rule.lhs < len(self.nonterminals):
                raise GrammarError(f"rule lhs {rule.lhs} not interned")
            for sym in rule.rhs:
                table = self.terminals if sym.terminal else self.nonterminals
                if not 0 <= sym.id < len(table):
                    raise GrammarError(f"rule symbol {sym} not interned")
        self.unary_rule_order()
