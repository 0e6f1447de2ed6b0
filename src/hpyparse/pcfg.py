"""Maximum-likelihood PCFG, inside charts, CYK decoding, exact sampling.

This triple serves three roles: the baseline parser, the completion-cost
estimator for best-first search, and the proposal distribution for the
sampling decoder. Charts are dense log-probability tables over
(nonterminal, start, end); all arithmetic is in log space.

Rule shapes beyond Chomsky normal form are handled uniformly: a terminal
occupying a binary child slot matches exactly a width-one span with that
word, and unary nonterminal rules are applied per cell in an order where
children precede parents (cyclic unary grammars are rejected upstream).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError
from .grammar import Grammar
from .events import leftmost_walk, node_rule
from .hypergraph import Derivation, Edge, Node, Step, build_tree, derivations
from .trees import Sentence, Tree

NEG_INF = float("-inf")


@dataclass
class Pcfg:
    """Relative-frequency rule probabilities plus lhs frequencies."""

    grammar: Grammar
    rule_probs: np.ndarray  # P(rule | lhs), indexed by rule id
    lhs_freq: np.ndarray  # empirical P(lhs) over rule applications

    def __post_init__(self) -> None:
        self.log_probs = np.full(len(self.rule_probs), NEG_INF)
        seen = self.rule_probs > 0
        self.log_probs[seen] = np.log(self.rule_probs[seen])

    def joint_rule_probs(self) -> np.ndarray:
        """P(lhs) * P(rule | lhs), a single distribution over all rules."""
        lhs = np.array([r.lhs for r in self.grammar.rules])
        return self.lhs_freq[lhs] * self.rule_probs


def estimate_mle(grammar: Grammar, trees: list[Tree]) -> Pcfg:
    """Relative-frequency estimates from a corpus of processed trees."""
    if not trees:
        raise DataError("cannot estimate a grammar from an empty corpus")
    rule_counts = np.zeros(grammar.num_rules)
    for tree in trees:
        for node in tree.internal_nodes():
            rule = node_rule(grammar, node)
            rule_counts[grammar.rule_id(rule)] += 1
    lhs_totals = np.zeros(len(grammar.nonterminals))
    for rid, rule in enumerate(grammar.rules):
        lhs_totals[rule.lhs] += rule_counts[rid]
    probs = np.zeros(grammar.num_rules)
    for rid, rule in enumerate(grammar.rules):
        if lhs_totals[rule.lhs] > 0:
            probs[rid] = rule_counts[rid] / lhs_totals[rule.lhs]
    total = rule_counts.sum()
    if total == 0:
        raise DataError("corpus contains no rule applications")
    return Pcfg(grammar, probs, lhs_totals / total)


@dataclass
class InsideChart:
    """Dense log-probability table over (nonterminal, start, end)."""

    scores: np.ndarray  # [num_nts, n+1, n+1]
    mode: str  # "sum" or "max"
    # the edges folded into ``scores``, as ``derivations`` lists them
    derivations: list[Derivation] = field(default_factory=list)

    def __post_init__(self) -> None:
        # per-item edges and normalized cumulative weights, shared
        # across repeated draws
        self._options: dict[Node, tuple[list[Edge], np.ndarray]] = {}

    def log_prob(self, nt: int, i: int, j: int) -> float:
        return float(self.scores[nt, i, j])

    @property
    def n(self) -> int:
        return self.scores.shape[1] - 1


def _edge_score(pcfg: Pcfg, scores, edge: Edge, tails: tuple[Node, ...]) -> float:
    """Rule log-probability plus the tails' scores, added left to right.

    ``scores`` is indexed by item: a chart array or a dict.
    """
    total = pcfg.log_probs[edge[0]]
    for tail in tails:
        total = total + scores[tail]
    return total


def inside(pcfg: Pcfg, words: Sentence, mode: str = "sum") -> InsideChart:
    """Inside chart: cell (A, i, j) aggregates all derivations of the span.

    ``sum`` gives total probabilities (the root cell is the sentence
    probability); ``max`` gives best-derivation (Viterbi) scores.
    """
    if mode not in ("sum", "max"):
        raise ValueError(f"bad chart mode {mode!r}")
    n = len(words)
    if n == 0:
        raise DataError("cannot build a chart for an empty sentence")
    chart = np.full((len(pcfg.grammar.nonterminals), n + 1, n + 1), NEG_INF)
    combine = np.logaddexp if mode == "sum" else max
    edges = derivations(pcfg.grammar, words, pcfg.log_probs > NEG_INF)
    for head, edge, tails in edges:
        chart[head] = combine(chart[head], _edge_score(pcfg, chart, edge, tails))
    return InsideChart(chart, mode, edges)


def sentence_log_prob(pcfg: Pcfg, chart: InsideChart) -> float:
    assert pcfg.grammar.root is not None
    return chart.log_prob(pcfg.grammar.root, 0, chart.n)


def cyk_viterbi(pcfg: Pcfg, words: Sentence) -> Tree | None:
    """Highest-probability tree, or None if the sentence has no parse.

    Ties are broken deterministically: lowest rule id, then lowest split.
    """
    grammar = pcfg.grammar
    assert grammar.root is not None
    scores: dict[Node, float] = {}
    back: dict[Node, Edge] = {}
    for head, edge, tails in derivations(grammar, words, pcfg.log_probs > NEG_INF):
        score = _edge_score(pcfg, scores, edge, tails)
        got = scores.get(head)
        if got is None or score > got or (score == got and edge < back[head]):
            scores[head] = score
            back[head] = edge
    root = (grammar.root, 0, len(words))
    if root not in back:
        return None
    return build_tree(grammar, words, leftmost_walk(grammar, root, back.__getitem__))


def sampling_pick(
    pcfg: Pcfg, chart: InsideChart, rng: np.random.Generator
) -> Callable[[Node], Edge]:
    """A ``pick`` drawing each item's edge in proportion to its rule
    probability times its tails' inside sums (a sum-mode chart's)."""
    if chart.mode != "sum":
        raise ValueError("sampling requires a sum-mode inside chart")
    assert pcfg.grammar.root is not None
    if chart.log_prob(pcfg.grammar.root, 0, chart.n) == NEG_INF:
        raise DataError("sentence has no derivation under the proposal grammar")
    options = chart._options
    if not options:
        weights: dict[Node, tuple[list[Edge], list[float]]] = {}
        for head, edge, tails in chart.derivations:
            head_edges, head_weights = weights.setdefault(head, ([], []))
            head_edges.append(edge)
            head_weights.append(_edge_score(pcfg, chart.scores, edge, tails))
        for head, (head_edges, head_weights) in weights.items():
            logw = np.array(head_weights)
            probs = np.exp(logw - logw.max())
            probs /= probs.sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            options[head] = (head_edges, cdf)

    def pick(item: Node) -> Edge:
        # the draw ``rng.choice(len(item_edges), p=probs)`` makes, without
        # its per-call checks of ``probs``
        item_edges, cdf = options[item]
        return item_edges[cdf.searchsorted(rng.random(), side="right")]

    return pick


def sample_tree(
    pcfg: Pcfg, chart: InsideChart, words: Sentence, rng: np.random.Generator
) -> tuple[Tree, float]:
    """Draw a tree proportional to its probability, given a sum-inside chart.

    Returns the tree and its log probability under the grammar (the sum
    of chosen rule log-probabilities), following top-down chart sampling.
    """
    root = (pcfg.grammar.root, 0, chart.n)
    steps = leftmost_walk(pcfg.grammar, root, sampling_pick(pcfg, chart, rng))
    return build_tree(pcfg.grammar, words, steps), derivation_log_prob(pcfg, steps)


def derivation_log_prob(pcfg: Pcfg, steps: list[Step]) -> float:
    """Sum of the steps' rule log-probabilities, added in pre-order."""
    total = 0.0
    for _, _, (rule_id, _) in steps:
        total += float(pcfg.log_probs[rule_id])
    return total


def tree_log_prob_under_pcfg(pcfg: Pcfg, tree: Tree) -> float:
    """Sum of rule log-probabilities for every internal node."""
    total = 0.0
    for node in tree.internal_nodes():
        rid = pcfg.grammar.rule_id(node_rule(pcfg.grammar, node))
        total += float(pcfg.log_probs[rid])
    return total
