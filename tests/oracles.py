"""Independent brute-force references the tests check the library against.

Everything here is deliberately written from first principles (plain
dicts, recursion, raw counts) and avoids the library's own chart, trie,
and search code paths.
"""

from __future__ import annotations

import struct
from collections import Counter, defaultdict

import numpy as np

from hpyparse.grammar import Grammar, Rule, Sym
from hpyparse.trees import Tree, annotate_spans


# -- generalized factorials ---------------------------------------------------


def log_generalized_factorial(a: float, count: int, step: float) -> float:
    """log of prod_{i=0}^{count-1} (a + i*step); empty products are one.

    The per-restaurant form of the seating likelihood's factors; the
    library pools them into exceedance histograms instead.
    """
    if count <= 0:
        return 0.0
    return float(np.log(a + step * np.arange(count)).sum())


# -- minimal-assumption seating ----------------------------------------------


class SeatingSimulator:
    """Sequential Chinese-restaurant seating with the minimal assumption.

    Restaurants are keyed by full context tuples (earliest element
    first); tables are explicit lists of occupancy counts. A customer
    joins the dish's existing table if there is one, otherwise opens a
    table and sends a proxy to the context with the earliest element
    dropped; at the empty context the proxy draws from the base.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple, dict[int, list[int]]] = defaultdict(dict)
        self.base_draws: Counter = Counter()

    def seat(self, context: tuple, dish: int) -> None:
        per_dish = self.tables[context].setdefault(dish, [])
        if per_dish:
            per_dish[0] += 1
            return
        per_dish.append(1)
        if context:
            self.seat(context[1:], dish)
        else:
            self.base_draws[dish] += 1

    def customers(self, context: tuple, dish: int) -> int:
        return sum(self.tables.get(context, {}).get(dish, []))

    def table_count(self, context: tuple, dish: int) -> int:
        return len(self.tables.get(context, {}).get(dish, []))

    def contexts(self) -> list[tuple]:
        return [c for c, dishes in self.tables.items() if dishes]


# -- a node's rule, read directly ---------------------------------------------


def _node_rule(grammar: Grammar, node: Tree) -> Rule:
    rhs = tuple(
        Sym(True, grammar.terminals.id(c)) if isinstance(c, str) else Sym(False, grammar.nonterminals.id(c.label))
        for c in node.children
    )
    return Rule(grammar.nonterminals.id(node.label), rhs)


# -- exhaustive parse enumeration --------------------------------------------


def enumerate_parses(grammar: Grammar, words: list[str], limit: int = 100000) -> list[Tree]:
    """All parse trees of ``words`` rooted at the grammar root.

    Direct recursion over (nonterminal, span) with memoization; unary
    rules must be acyclic (they are, for grammars under test).
    """
    word_ids = [
        grammar.terminals.id(w) if w in grammar.terminals else -1 for w in words
    ]
    memo: dict[tuple[int, int, int], list[Tree]] = {}

    def parses(nt: int, i: int, j: int) -> list[Tree]:
        key = (nt, i, j)
        if key in memo:
            return memo[key]
        label = grammar.nonterminals.text(nt)
        out: list[Tree] = []
        for rid in grammar.rules_for(nt):
            rule = grammar.rules[rid]
            if rule.is_lexical:
                if j == i + 1 and word_ids[i] == rule.rhs[0].id:
                    out.append(Tree(label, [words[i]]))
            elif rule.is_unary:
                for sub in parses(rule.rhs[0].id, i, j):
                    out.append(Tree(label, [sub]))
            else:
                left, right = rule.rhs
                for m in range(i + 1, j):
                    if left.terminal:
                        lefts = [words[i]] if (m == i + 1 and word_ids[i] == left.id) else []
                    else:
                        lefts = parses(left.id, i, m)
                    if not lefts:
                        continue
                    if right.terminal:
                        rights = [words[m]] if (j == m + 1 and word_ids[m] == right.id) else []
                    else:
                        rights = parses(right.id, m, j)
                    for l in lefts:
                        for r in rights:
                            out.append(Tree(label, [l, r]))
            if len(out) > limit:
                raise RuntimeError("enumeration blew past the limit")
        memo[key] = out
        return out

    assert grammar.root is not None
    found = parses(grammar.root, 0, len(words))
    for tree in found:
        annotate_spans(tree)
    return found


def tree_prob(grammar: Grammar, rule_probs, tree: Tree) -> float:
    """Product of rule probabilities, computed directly."""
    p = 1.0
    for node in tree.internal_nodes():
        p *= float(rule_probs[grammar.rule_id(_node_rule(grammar, node))])
    return p


# -- a treebank's grammar and a trie's bytes ---------------------------------


def reference_grammar(trees: list[Tree]) -> Grammar:
    """The grammar of processed trees, read in separate passes and not
    validated: every tree's labels in pre-order and words in yield order,
    then every tree's rules in pre-order; the first tree's label is the root."""
    grammar = Grammar()
    for tree in trees:
        for node in tree.internal_nodes():
            grammar.nonterminal(node.label)
        for word in tree.leaves():
            grammar.terminal(word)
    for tree in trees:
        for node in tree.internal_nodes():
            grammar.add_rule(*_node_rule(grammar, node))
    grammar.set_root(grammar.nonterminal(trees[0].label))
    return grammar


def reference_edges(grammar: Grammar, tree: Tree) -> list[tuple[int, int]]:
    """Each internal node's (rule id, split) in pre-order, node by node:
    the split is -1 for a unary node, else where its first child's span ends."""
    edges = []
    for node in tree.internal_nodes():
        first = node.children[0]
        split = -1 if len(node.children) == 1 else first.span[1] if isinstance(first, Tree) else node.span[0] + 1
        edges.append((grammar.rule_id(_node_rule(grammar, node)), split))
    return edges


def write_trie_reference(trie) -> bytes:
    """The model format's trie section, one ``struct.pack`` per value group:
    the event count and maximum depth; each restaurant in preorder, children
    by edge label, as its edge (not for the top one), its dish count and
    sorted (dish, customers) pairs, and its child count; then the base
    draws, one per dish the top restaurant serves."""
    out = [struct.pack("<QI", trie.num_events, trie.max_depth)]

    def pairs(counts: dict[int, int]) -> None:
        out.append(struct.pack("<I", len(counts)))
        for key in sorted(counts):
            out.append(struct.pack("<II", key, counts[key]))

    def restaurant(node, edge) -> None:
        if edge is not None:
            out.append(struct.pack("<I", edge))
        pairs(node.customers)
        out.append(struct.pack("<I", len(node.children)))
        for child_edge in sorted(node.children):
            restaurant(node.children[child_edge], child_edge)

    restaurant(trie.root, None)
    pairs({dish: 1 for dish in trie.root.customers})
    return b"".join(out)


# -- interpolated Kneser-Ney --------------------------------------------------


class KneserNeyReference:
    """Textbook interpolated Kneser-Ney over fixed-length context events.

    Raw counts at the full order; type-based continuation counts at every
    shorter order (the count of distinct one-element-longer contexts in
    which the outcome was seen); absolute discount per order; uniform
    bottom distribution over the vocabulary.
    """

    def __init__(self, events: list[tuple[tuple, int]], order: int, vocab: int):
        self.order = order
        self.vocab = vocab
        # counts[k][(context, w)] for context length k
        self.counts: list[Counter] = [Counter() for _ in range(order + 1)]
        for context, w in events:
            assert len(context) == order
            self.counts[order][(context, w)] += 1
        for k in range(order - 1, -1, -1):
            extensions = defaultdict(set)
            for (context, w), c in self.counts[k + 1].items():
                if c >= 1:
                    extensions[(context[1:], w)].add(context[0])
            self.counts[k] = Counter(
                {key: len(exts) for key, exts in extensions.items()}
            )
        self.totals: list[Counter] = []
        self.types: list[Counter] = []
        for k in range(order + 1):
            tot: Counter = Counter()
            typ: Counter = Counter()
            for (context, w), c in self.counts[k].items():
                tot[context] += c
                typ[context] += 1
            self.totals.append(tot)
            self.types.append(typ)

    def prob(self, context: tuple, w: int, discounts: list[float]) -> float:
        """P(w | context) with per-order discounts, no concentration."""
        context = context[-self.order :] if self.order else ()
        p = 1.0 / self.vocab
        for k in range(0, len(context) + 1):
            ctx = context[len(context) - k :]
            total = self.totals[k].get(ctx, 0)
            if total == 0:
                continue
            d = discounts[k]
            c = self.counts[k].get((ctx, w), 0)
            own = (c - d) / total if c > 0 else 0.0
            p = own + (d * self.types[k][ctx] / total) * p
        return p
