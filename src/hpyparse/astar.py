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
from .events import child_items, leftmost_walk, root_context
from .hypergraph import Edge, Hypergraph, Node, build_tree
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
    enough to replay the derivation (leftmost expansion is deterministic).
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
    return heuristic_local_frontier([item for item, _ in frontier], chart)


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

    root_entry = (hg.root, root_context(hg.root[0], model.context_mode))
    # both estimates are the root's inside score here
    start = Hypothesis((root_entry,), 0.0, heuristic_local_frontier([hg.root], chart), ())

    lhs_position = model.grammar.lhs_position
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
            steps = leftmost_walk(hg.grammar, hg.root, lambda _: next(replay))
            tree = build_tree(hg.grammar, hg.words, steps)
            log_score, used_fallback = hyp.log_score, False
            break
        (node, context), rest = hyp.frontier[0], hyp.frontier[1:]
        # every edge of the item is scored under its one (context, lhs)
        _, logs = model.expansion_log_probs(context, node[0])
        for edge in hg.edges[node]:
            logp = float(logs[lhs_position[edge[0]]])
            children = child_items(hg.grammar, node, context, edge, model.context_mode)
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
    else:  # the queue starved
        tree = cyk_viterbi(model.pcfg, hg.words)
        if tree is None:
            raise DataError("search starved and the fallback grammar has no parse")
        log_score, used_fallback = model.tree_log_prob(tree), True
    return AStarResult(tree, log_score, used_fallback, pops, pushes, max_queue, evictions)
