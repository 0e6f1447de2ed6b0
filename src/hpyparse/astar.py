"""Best-first top-down search over the parse hypergraph.

Partial derivations grow from the root item; the leftmost frontier item
is always expanded next, so each complete tree is reached by exactly one
expansion sequence. Queue priority is the accumulated model log score
plus a completion estimate computed from the proposal grammar's inside
chart. Neither estimate is admissible, so the first complete tree popped
is not guaranteed optimal; with generous beams it is in practice.

Two estimates are provided: the full-frontier sum over all open items,
and a local variant that scores only the children created by the latest
expansion.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .errors import DataError
from .events import NONTERMINAL_CONTEXT, rule_context_element
from .hypergraph import Edge, Hypergraph, Node, _child_spans, build_tree
from .model import TrainedModel
from .pcfg import NEG_INF, InsideChart, cyk_viterbi
from .trees import Tree

HEURISTIC_FULL = "full"
HEURISTIC_LOCAL = "local"


@dataclass(frozen=True)
class Hypothesis:
    """A partial top-down derivation.

    ``frontier`` holds the unexpanded items left to right, each paired
    with the vertical context under which its expansion will be scored.
    ``decisions`` records the applied edges in expansion order, which is
    enough to rebuild the tree (leftmost expansion is deterministic).
    """

    frontier: tuple[tuple[Node, tuple[int, ...]], ...]
    log_score: float
    heuristic: float
    decisions: tuple[Edge, ...]

    @property
    def priority(self) -> float:
        return self.log_score + self.heuristic

    @property
    def complete(self) -> bool:
        return not self.frontier


def heuristic_full_frontier(
    frontier: tuple[tuple[Node, tuple[int, ...]], ...], chart: InsideChart
) -> float:
    """Sum of inside log scores over every open frontier item."""
    total = 0.0
    for (nt, i, j), _ in frontier:
        score = chart.log_prob(nt, i, j)
        if score == NEG_INF:
            return NEG_INF
        total += score
    return total


def heuristic_local_frontier(children: list[Node], chart: InsideChart) -> float:
    """Sum of inside log scores over just-created children (0 if none)."""
    total = 0.0
    for nt, i, j in children:
        score = chart.log_prob(nt, i, j)
        if score == NEG_INF:
            return NEG_INF
        total += score
    return total


@dataclass
class AStarResult:
    tree: Tree
    log_score: float
    used_fallback: bool
    pops: int = 0
    pushes: int = 0
    max_queue: int = 0
    evictions: int = 0


def _child_items(
    model: TrainedModel, node: Node, context: tuple[int, ...], edge: Edge
) -> list[tuple[Node, tuple[int, ...]]]:
    """Frontier entries for the nonterminal children of an expansion."""
    rule = model.grammar.rules[edge[0]]
    _, i, j = node
    out: list[tuple[Node, tuple[int, ...]]] = []
    for slot, (sym, (a, b)) in enumerate(zip(rule.rhs, _child_spans(rule, i, j, edge[1]))):
        if sym.terminal:
            continue
        if model.context_mode == NONTERMINAL_CONTEXT:
            child_ctx = context + (sym.id,)
        else:
            child_ctx = context + (rule_context_element(edge[0], slot),)
        out.append(((sym.id, a, b), child_ctx))
    return out


def astar_parse(
    model: TrainedModel,
    hg: Hypergraph,
    chart: InsideChart,
    heuristic: str = HEURISTIC_FULL,
    beam: int | None = None,
) -> AStarResult:
    """Search the hypergraph for the highest-scoring tree under the model.

    ``beam`` caps the queue size (worst entries are evicted); ``None``
    means unbounded. If the queue starves before any complete tree is
    popped, the proposal-grammar Viterbi tree is returned with the
    fallback flag set.
    """
    if heuristic not in (HEURISTIC_FULL, HEURISTIC_LOCAL):
        raise DataError(f"unknown heuristic {heuristic!r}")
    if hg.empty:
        raise DataError("cannot search an empty hypergraph")
    assert hg.root is not None

    root_entry = (hg.root, model.root_context())
    h0 = heuristic_full_frontier((root_entry,), chart) if heuristic == HEURISTIC_FULL \
        else heuristic_local_frontier([hg.root], chart)
    start = Hypothesis((root_entry,), 0.0, h0, ())

    # Queue kept sorted ascending by (priority, -seq): the best entry sits
    # at the end (FIFO among exact ties), the worst at the front where
    # beam eviction removes it.
    seq = itertools.count()
    queue: list[tuple[float, int, Hypothesis]] = [(start.priority, -next(seq), start)]
    pops = pushes = evictions = 0
    max_queue = 1

    while queue:
        _, _, hyp = queue.pop()
        pops += 1
        if hyp.complete:
            replay = iter(hyp.decisions)
            return AStarResult(
                build_tree(hg.grammar, hg.words, hg.root, lambda _: next(replay)),
                hyp.log_score,
                False,
                pops,
                pushes,
                max_queue,
                evictions,
            )
        (node, context), rest = hyp.frontier[0], hyp.frontier[1:]
        for edge in hg.edges[node]:
            logp = model.expansion_log_prob(context, edge[0])
            children = _child_items(model, node, context, edge)
            frontier = tuple(children) + rest
            if heuristic == HEURISTIC_FULL:
                h = heuristic_full_frontier(frontier, chart)
            else:
                h = heuristic_local_frontier([n for n, _ in children], chart)
            new = Hypothesis(frontier, hyp.log_score + logp, h, hyp.decisions + (edge,))
            if new.priority == NEG_INF:
                continue
            bisect.insort(queue, (new.priority, -next(seq), new))
            pushes += 1
            if beam is not None and len(queue) > beam:
                del queue[0]
                evictions += 1
            max_queue = max(max_queue, len(queue))

    fallback = cyk_viterbi(model.pcfg, hg.words)
    if fallback is None:
        raise DataError("search starved and the fallback grammar has no parse")
    return AStarResult(
        fallback,
        model.tree_log_prob(fallback),
        True,
        pops,
        pushes,
        max_queue,
        evictions,
    )
