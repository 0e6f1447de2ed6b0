"""Metropolis-Hastings tree sampling and minimum-risk span decoding.

The chain proposes whole derivations from the baseline grammar via inside
sampling, and accepts with the standard independence-proposal ratio; on
rejection the previous state is retained. A proposal draws only its edges;
each distinct derivation drawn is replayed once through
``events.leftmost_walk`` for its (item, context, edge) steps and scored
(both log probabilities are sums over its steps). Post-burn-in states
count their items' (label, span) pairs, and one tree is built per distinct
kept derivation. The decoder picks the tree in the hypergraph whose total
span count is maximal, summed over its derivation's items (``tree_steps``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .events import child_elements, leftmost_walk, tree_steps
from .hypergraph import Edge, Hypergraph, Node, Step, build_tree
from .model import TrainedModel
from .pcfg import InsideChart, best_tree, derivation_log_prob, inside, sampling_pick
from .pcfg import sample_tree  # noqa: F401 - hpybench/tracing.py wraps this name
from .trees import Sentence, Tree, write_tree


@dataclass
class SampleStats:
    """Span-label counts accumulated over the kept portion of a chain."""

    span_counts: Counter = field(default_factory=Counter)
    sample_count: int = 0
    acceptance_count: int = 0
    iterations: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.acceptance_count / self.iterations if self.iterations else 0.0

    def add_derivation(self, steps: list[Step]) -> None:
        self.sample_count += 1
        for item, _, _ in steps:
            self.span_counts[item] += 1


def mh_sample(
    model: TrainedModel,
    words: Sentence,
    iters: int,
    burn_in: int,
    rng: np.random.Generator,
    chart: InsideChart | None = None,
) -> tuple[SampleStats, list[Tree], list[bool]]:
    """Run one chain; returns (stats, kept samples, acceptance trace).

    The proposal is the model's baseline grammar. The first state is a
    direct proposal draw; each iteration then draws a fresh derivation,
    keyed by its (rule id, split) edges, and applies the acceptance test
    in log space. The trace has one entry per iteration; samples are the
    post-burn-in states' trees in order, one tree per distinct kept
    derivation.
    """
    if iters <= burn_in:
        raise DataError(f"iters ({iters}) must exceed burn_in ({burn_in})")
    pcfg = model.pcfg
    if chart is None:
        chart = inside(pcfg, words)
    grammar = model.grammar
    root = (grammar.root, 0, len(words))
    mode = model.context_mode
    pick = sampling_pick(pcfg, chart, rng)
    children: dict[tuple[Node, Edge], list[Node]] = {}  # right to left, per edge drawn
    weights: dict[tuple[Edge, ...], float] = {}  # log p - log q, per derivation drawn
    walks: dict[tuple[Edge, ...], list[Step]] = {}  # per derivation drawn
    trees: dict[tuple[Edge, ...], Tree] = {}  # per derivation kept

    def propose() -> tuple[Edge, ...]:
        edges, stack = [], [root]  # leftmost_walk's stack, so pick draws in its order
        while stack:
            item = stack.pop()
            edges.append(edge := pick(item))
            if (item, edge) not in children:
                children[item, edge] = [c for c, _ in child_elements(grammar, item, edge, mode)][::-1]
            stack.extend(children[item, edge])
        key = tuple(edges)
        if key not in weights:
            replay = iter(key)
            steps = walks[key] = leftmost_walk(grammar, root, lambda _: next(replay), mode)
            events = ((context, rule_id) for _, context, (rule_id, _) in steps)
            weights[key] = model.events_log_prob(events) - derivation_log_prob(pcfg, steps)
        return key

    key = propose()
    stats = SampleStats(iterations=iters)
    samples: list[Tree] = []
    trace: list[bool] = []
    for t in range(iters):
        proposal_key = propose()
        log_ratio = weights[proposal_key] - weights[key]
        accept = log_ratio >= 0 or math.log(rng.random()) < log_ratio
        if accept:
            key = proposal_key
            stats.acceptance_count += 1
        trace.append(accept)
        if t >= burn_in:
            if key not in trees:
                trees[key] = build_tree(grammar, words, walks[key])
            samples.append(trees[key])
            stats.add_derivation(walks[key])
    return stats, samples, trace


def span_count_objective(stats: SampleStats, tree: Tree, grammar) -> int:
    """Total sampled-span count collected by the items of a tree's derivation."""
    counts = stats.span_counts
    return sum(counts.get(item, 0) for item, _, _ in tree_steps(grammar, tree))


def mbr_decode(stats: SampleStats, hg: Hypergraph) -> Tree:
    """Tree in the hypergraph maximizing the summed span-label counts.

    Each edge starts from its head's span count; ties break on
    (rule id, split).
    """
    if hg.empty:
        raise DataError("cannot decode over an empty hypergraph")
    counts = stats.span_counts
    tree = best_tree(hg, lambda head, _: counts.get(head, 0))
    assert tree is not None
    return tree


def most_frequent_tree(samples: list[Tree]) -> tuple[Tree, int]:
    """Diagnostic only: modal sampled tree (high variance in large spaces).
    A derivation's samples share one tree (``mh_sample``), so samples are
    counted by identity; ties break on the written tree."""
    counts = Counter(map(id, samples))
    distinct = {id(tree): tree for tree in samples}.values()
    tree = min(distinct, key=lambda tree: (-counts[id(tree)], write_tree(tree)))
    return tree, counts[id(tree)]
