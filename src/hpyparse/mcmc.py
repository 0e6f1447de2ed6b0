"""Metropolis-Hastings tree sampling and minimum-risk span decoding.

The chain proposes whole derivations, the (item, context, edge) steps of
``events.leftmost_walk``, from the baseline grammar via inside sampling,
and accepts with the standard independence-proposal ratio; on rejection
the previous state is retained. Both log probabilities are sums over the
steps, post-burn-in states count their items' (label, span) pairs, and a
tree is built once per distinct kept state. The decoder picks the tree
in the hypergraph whose total span count is maximal.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .events import leftmost_walk
from .hypergraph import Hypergraph, Step, build_tree
from .model import TrainedModel
from .pcfg import NEG_INF, InsideChart, derivation_log_prob, inside, sampling_pick
from .pcfg import best_tree, sentence_log_prob
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

    def merge(self, other: "SampleStats") -> None:
        """Pool counts from an independent chain."""
        self.span_counts.update(other.span_counts)
        self.sample_count += other.sample_count
        self.acceptance_count += other.acceptance_count
        self.iterations += other.iterations


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
    direct proposal draw; each iteration then draws a fresh derivation
    and applies the acceptance test in log space. The trace has one
    entry per iteration; samples are the post-burn-in states' trees in
    order (the same tree object repeats across rejected iterations).
    """
    if iters <= burn_in:
        raise DataError(f"iters ({iters}) must exceed burn_in ({burn_in})")
    pcfg = model.pcfg
    if chart is None:
        chart = inside(pcfg, words, "sum")
    if sentence_log_prob(pcfg, chart) == NEG_INF:
        raise DataError("sentence has no derivation; cannot start a chain")
    grammar = model.grammar
    root = (grammar.root, 0, len(words))
    pick = sampling_pick(pcfg, chart, rng)

    def propose() -> tuple[list[Step], float, float]:
        # log q and log p, each summed over the steps in pre-order
        steps = leftmost_walk(grammar, root, pick, model.context_mode)
        events = ((context, rule_id) for _, context, (rule_id, _) in steps)
        return steps, derivation_log_prob(pcfg, steps), model.events_log_prob(events)

    current, log_q_cur, log_p_cur = propose()
    tree: Tree | None = None  # the current state's, once it is kept
    stats = SampleStats(iterations=iters)
    samples: list[Tree] = []
    trace: list[bool] = []
    for t in range(iters):
        proposal, log_q_new, log_p_new = propose()
        log_ratio = (log_p_new - log_q_new) - (log_p_cur - log_q_cur)
        accept = log_ratio >= 0 or math.log(rng.random()) < log_ratio
        if accept:
            current, log_q_cur, log_p_cur = proposal, log_q_new, log_p_new
            tree = None
            stats.acceptance_count += 1
        trace.append(accept)
        if t >= burn_in:
            if tree is None:
                tree = build_tree(grammar, words, current)
            samples.append(tree)
            stats.add_derivation(current)
    return stats, samples, trace


def span_count_objective(stats: SampleStats, tree: Tree, grammar) -> int:
    """Total sampled-span count collected by a tree's internal nodes."""
    total = 0
    for node in tree.internal_nodes():
        assert node.span is not None
        nt = grammar.nonterminals.id(node.label)
        total += stats.span_counts.get((nt, node.span[0], node.span[1]), 0)
    return total


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
    """Diagnostic only: modal sampled tree (high variance in large spaces)."""
    counts: Counter = Counter()
    first: dict[str, Tree] = {}
    for tree in samples:
        key = write_tree(tree)
        counts[key] += 1
        first.setdefault(key, tree)
    key, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return first[key], count
