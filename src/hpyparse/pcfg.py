"""Maximum-likelihood PCFG, inside charts, CYK decoding, exact sampling.

This triple serves three roles: the baseline parser, the completion-cost
estimator for best-first search, and the proposal distribution for the
sampling decoder. Charts are dense log-probability tables over
(nonterminal, start, end); all arithmetic is in log space.

Every algorithm here is a fold over one derivation list. On the decode
path that is the sentence's pruned hypergraph, enumerated once: the
inside chart folds its edges in the log-sum semiring and skips
those a zero-probability rule scores ``-inf``, the sampler draws from
the kept edges, and ``best_tree``, the max-plus fold that CYK and MBR
decoding share, picks each item's best edge. Standalone ``inside``
folds its own (position-filtered) enumeration. Trees are
read as derivations (``events.tree_edges``): MLE counts the rule ids of
each tree's edges, and a tree's log probability sums its steps'.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError
from .grammar import Grammar
from .events import leftmost_walk, tree_edges, tree_steps
from .hypergraph import Derivation, Edge, Hypergraph, Node, Step, build_tree, derivations
from .hypergraph import build_hypergraph
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


def estimate_mle(grammar: Grammar, trees: list[Tree], edges: list[list[Edge]] | None = None) -> Pcfg:
    """Relative-frequency estimates from a corpus of processed trees;
    ``edges`` are their ``tree_edges``, if already read."""
    if not trees:
        raise DataError("cannot estimate a grammar from an empty corpus")
    if edges is None:
        edges = [tree_edges(grammar, tree) for tree in trees]
    rule_ids = [rule_id for row in edges for rule_id, _ in row]
    rule_counts = np.bincount(rule_ids, minlength=grammar.num_rules).astype(float)
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
    # the edges folded into ``scores``, in order; those scoring -inf are left out
    derivations: list[Derivation] = field(default_factory=list)

    def __post_init__(self) -> None:
        # per-item edges and normalized cumulative weights, shared
        # across repeated draws
        self._options: dict[Node, tuple[list[Edge], list[float]]] = {}

    def log_prob(self, nt: int, i: int, j: int) -> float:
        return float(self.scores[nt, i, j])

    @property
    def n(self) -> int:
        return self.scores.shape[1] - 1


def _edge_score(pcfg: Pcfg, scores, edge: Edge, tails: tuple[Node, ...]) -> float:
    """Rule log-probability plus the tails' chart scores, added left to right."""
    total = pcfg.log_probs[edge[0]]
    for tail in tails:
        total = total + scores[tail]
    return total


def inside(
    pcfg: Pcfg, words: Sentence, derivs: list[Derivation] | None = None
) -> InsideChart:
    """Inside chart: cell (A, i, j) is the log total probability of all
    derivations of the span (the root cell is the sentence probability).

    The fold runs over ``derivs`` (a hypergraph's, whose nodes get the
    default chart's scores, as an item's score depends only on its
    descendants), by default over ``derivations(grammar, words)``, which
    leaves ``-inf`` where no complete tree can hold an item. It skips the
    edges scoring ``-inf`` and keeps the rest in order as ``chart.derivations``.
    """
    n = len(words)
    if n == 0:
        raise DataError("cannot build a chart for an empty sentence")
    chart = np.full((len(pcfg.grammar.nonterminals), n + 1, n + 1), NEG_INF)
    if derivs is None:
        derivs = derivations(pcfg.grammar, words)
    kept: list[Derivation] = []
    for derivation in derivs:
        head, edge, tails = derivation
        score = _edge_score(pcfg, chart, edge, tails)
        if score != NEG_INF:
            chart[head] = np.logaddexp(chart[head], score)
            kept.append(derivation)
    return InsideChart(chart, kept)


def sentence_log_prob(pcfg: Pcfg, chart: InsideChart) -> float:
    assert pcfg.grammar.root is not None
    return chart.log_prob(pcfg.grammar.root, 0, chart.n)


def best_tree(hg: Hypergraph, start: Callable[[Node, Edge], float]) -> Tree | None:
    """The hypergraph's best tree under a max-plus fold, or None when the
    hypergraph is empty or the root's best score is ``-inf``.

    An edge scores ``start(head, edge)`` plus its tails' best scores,
    added left to right; ties break to the lowest (rule id, split).
    """
    if hg.empty:
        return None
    scores: dict[Node, float] = {}
    back: dict[Node, Edge] = {}
    for head, edge, tails in hg.derivations:
        score = start(head, edge)
        for tail in tails:
            score = score + scores[tail]
        got = scores.get(head)
        if got is None or score > got or (score == got and edge < back[head]):
            scores[head] = score
            back[head] = edge
    assert hg.root is not None
    if scores[hg.root] == NEG_INF:
        return None
    return build_tree(hg.grammar, hg.words, leftmost_walk(hg.grammar, hg.root, back.__getitem__))


def cyk_viterbi(pcfg: Pcfg, words: Sentence) -> Tree | None:
    """Highest-probability tree, or None if the sentence has no parse.

    Ties are broken deterministically: lowest rule id, then lowest split.
    """
    log_probs = pcfg.log_probs
    return best_tree(build_hypergraph(pcfg.grammar, words), lambda _, edge: log_probs[edge[0]])


def sampling_pick(
    pcfg: Pcfg, chart: InsideChart, rng: np.random.Generator
) -> Callable[[Node], Edge]:
    """A ``pick`` drawing each item's edge in proportion to its rule
    probability times its tails' inside sums; ``bisect_right`` on a list cdf
    draws the index ``searchsorted(u, side="right")`` does, without numpy."""
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
            options[head] = (head_edges, cdf.tolist())

    def pick(item: Node) -> Edge:
        # the draw ``rng.choice(len(item_edges), p=probs)`` makes, without
        # its per-call checks of ``probs``
        item_edges, cdf = options[item]
        return item_edges[bisect_right(cdf, rng.random())]

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
    """Sum of the rule log-probabilities of the tree's derivation."""
    return derivation_log_prob(pcfg, tree_steps(pcfg.grammar, tree))
