"""Best-first top-down search over the parse hypergraph.

Partial derivations grow from the root item; the leftmost frontier item
is always expanded next, so each complete tree is reached by exactly one
expansion sequence. Queue priority is the accumulated model log score
plus a completion estimate computed from the proposal grammar's inside
chart. Neither estimate is admissible, so the first complete tree popped
is not guaranteed optimal, and often it is not: ROADMAP item 3's table
counts the held-out sentences where the exact argmax beats A*'s tree
(245 of 1,000 on the tag-astar bench workload at seed 7). Wider beams
miss the same sentences: the proposal grammar's inside scores do not
bound the HPYP's renormalized scores, so the estimate is the cause.

Both estimates sum inside log scores (``completion_estimate``): the full
estimate over every open frontier item, the local one over just the
children created by the latest expansion. An item's edges, with their
children's context elements and inside scores, are tabled at its first
pop. The frontier is a linked chain of those tabled child tuples, so a
push copies nothing, and an item's restaurant is stepped from its
parent's (``TrainedModel.step``) when the item is popped: entries that
are never popped never pay for a step.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import DataError
from .events import child_elements, leftmost_walk, root_context
from .hypergraph import Hypergraph, Node, build_tree
from .model import TrainedModel
from .pcfg import NEG_INF, InsideChart, best_tree
from .pcfg import cyk_viterbi  # noqa: F401 - hpybench/tracing.py wraps this name
from .trees import Tree

HEURISTIC_FULL = "full"
HEURISTIC_LOCAL = "local"


def completion_estimate(insides: Iterable[float], total: float = 0.0) -> float:
    """``total`` plus the items' inside log scores, added left to right
    (``-inf`` at the first ``-inf``)."""
    for score in insides:
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
    # ``frontier`` chains the unexpanded items left to right: () or (kids,
    # parent restaurant, rest), where ``kids`` is an item table's tuple of
    # (item, context element, inside score) siblings, so a push copies
    # nothing. An item's restaurant is stepped from its parent's when it is
    # popped (the root's element is None: its parent is its restaurant).
    # ``decisions`` links the applied edges as (edge, previous) pairs, which
    # is enough to replay the derivation (leftmost expansion is
    # deterministic). The queue is kept sorted ascending by (priority,
    # -seq): the best entry sits at the end (FIFO among exact ties), the
    # worst at the front where beam eviction removes it.
    mode = model.context_mode
    root_inside = chart.log_prob(*hg.root)
    root_frontier = (((hg.root, None, root_inside),), model.restaurant(root_context(hg.root[0], mode)), ())
    neg_seq = itertools.count(0, -1)
    queue = [(completion_estimate([root_inside]), next(neg_seq), 0.0, root_frontier, ())]
    lhs_position = model.grammar.lhs_position
    step, insort = model.step, bisect.insort
    full = heuristic == HEURISTIC_FULL
    # per item, at its first pop: (edge, lhs position, children, their estimate)
    tables: dict[Node, list] = {}
    pops = pushes = evictions = 0
    max_queue = 1

    while queue:
        _, _, log_score, frontier, decisions = queue.pop()
        pops += 1
        if not frontier:
            edges = []  # newest first, so popping replays them in order
            while decisions:
                edge, decisions = decisions
                edges.append(edge)
            steps = leftmost_walk(hg.grammar, hg.root, lambda _: edges.pop())
            tree = build_tree(hg.grammar, hg.words, steps)
            used_fallback = False
            break
        kids, parent, rest = frontier
        node, element, _ = kids[0]
        rest = (kids[1:], parent, rest) if len(kids) > 1 else rest
        restaurant = parent if element is None else step(parent, element)
        table = tables.get(node)
        if table is None:
            table = tables[node] = []
            for edge in hg.edges[node]:
                kids = tuple([(c, e, chart.log_prob(*c)) for c, e in child_elements(hg.grammar, node, edge, mode)])
                table.append((edge, lhs_position[edge[0]], kids, completion_estimate([k[2] for k in kids])))
        # every edge of the item is scored under its one (restaurant, lhs)
        _, logs = model.expansion_log_probs(restaurant, node[0])
        rest_insides, chain = [], (rest if full else ())
        while chain:  # the rest's inside scores, left to right
            kids, _, chain = chain
            rest_insides += [inside for _, _, inside in kids]
        for edge, position, kids, estimate in table:
            score = log_score + float(logs[position])
            # the full estimate goes on from the children's over the rest
            priority = score + completion_estimate(rest_insides, estimate)
            if priority == NEG_INF:
                continue
            insort(queue, (priority, next(neg_seq), score, (kids, restaurant, rest) if kids else rest, (edge, decisions)))
            pushes += 1
            if beam is not None and len(queue) > beam:
                del queue[0]
                evictions += 1
            if len(queue) > max_queue:
                max_queue = len(queue)
    else:  # the queue starved: the proposal grammar's Viterbi tree of ``hg``
        log_probs = model.pcfg.log_probs.tolist()
        tree = best_tree(hg, lambda _, edge: log_probs[edge[0]])
        if tree is None:
            raise DataError("search starved and the fallback grammar has no parse")
        log_score, used_fallback = model.tree_log_prob(tree), True
    return AStarResult(tree, log_score, used_fallback, pops, pushes, max_queue, evictions)
