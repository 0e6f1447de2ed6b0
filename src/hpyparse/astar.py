"""Best-first top-down search over the parse hypergraph.

Partial derivations grow from the root item; the leftmost frontier item
is always expanded next, so each complete tree is reached by exactly one
expansion sequence. Queue priority is the accumulated model log score
plus a completion estimate computed from the proposal grammar's inside
chart. Neither estimate is admissible, so the first complete tree popped
is not guaranteed optimal, and often it is not. On the tag-astar bench
workload at seed 7 (ROADMAP item 3), the exact argmax beat A*'s tree on
42 of 197 enumerable held-out sentences, by 1.16 nats on average. Beams
of 256, 4,096 and unbounded miss the same sentences of a 43-sentence
subset: the proposal grammar's inside scores do not bound the HPYP's
renormalized scores, so the estimate is the cause, not the beam.

Both estimates sum inside log scores over a list of items
(``completion_estimate``): the full estimate over every open frontier
item, the local one over just the children created by the latest
expansion.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from .errors import DataError
from .events import child_items, leftmost_walk, root_context
from .hypergraph import Hypergraph, Node, build_tree
from .model import TrainedModel
from .pcfg import NEG_INF, InsideChart, cyk_viterbi
from .trees import Tree

HEURISTIC_FULL = "full"
HEURISTIC_LOCAL = "local"


def completion_estimate(items: list[Node], chart: InsideChart) -> float:
    """Sum of the items' inside log scores, left to right (0 if none)."""
    total = 0.0
    for nt, i, j in items:
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

    # A queue entry is (priority, -seq, log score, frontier, decisions).
    # ``frontier`` holds the unexpanded items left to right, each paired
    # with the vertical context under which its expansion will be scored;
    # ``decisions`` records the applied edges in expansion order, which is
    # enough to replay the derivation (leftmost expansion is deterministic).
    # The queue is kept sorted ascending by (priority, -seq): the best entry
    # sits at the end (FIFO among exact ties), the worst at the front where
    # beam eviction removes it.
    root_entry = (hg.root, root_context(hg.root[0], model.context_mode))
    seq = itertools.count()
    queue = [(completion_estimate([hg.root], chart), -next(seq), 0.0, (root_entry,), ())]
    lhs_position = model.grammar.lhs_position
    full = heuristic == HEURISTIC_FULL
    pops = pushes = evictions = 0
    max_queue = 1

    while queue:
        _, _, log_score, frontier, decisions = queue.pop()
        pops += 1
        if not frontier:
            replay = iter(decisions)
            steps = leftmost_walk(hg.grammar, hg.root, lambda _: next(replay))
            tree = build_tree(hg.grammar, hg.words, steps)
            used_fallback = False
            break
        (node, context), rest = frontier[0], frontier[1:]
        # every edge of the item is scored under its one (context, lhs)
        _, logs = model.expansion_log_probs(context, node[0])
        for edge in hg.edges[node]:
            children = child_items(hg.grammar, node, context, edge, model.context_mode)
            new_frontier = tuple(children) + rest
            score = log_score + float(logs[lhs_position[edge[0]]])
            estimated = new_frontier if full else children
            priority = score + completion_estimate([n for n, _ in estimated], chart)
            if priority == NEG_INF:
                continue
            bisect.insort(queue, (priority, -next(seq), score, new_frontier, decisions + (edge,)))
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
