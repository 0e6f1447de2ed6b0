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

Both estimates sum inside log scores (``completion_estimate``): the full
estimate over every open frontier item, the local one over just the
children created by the latest expansion. A frontier item carries its
restaurant and its inside score. An item's edges, with their children's
context elements and inside scores, are tabled at its first pop, and a
push steps each child's restaurant from its parent's (``TrainedModel.step``)
instead of building a context tuple and walking the trie.
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
    # ``frontier`` holds the unexpanded items left to right as (item,
    # restaurant, inside score) triples; the restaurant scores the item's
    # expansion. ``decisions`` links the applied edges as (edge, previous)
    # pairs, which is enough to replay the derivation (leftmost expansion
    # is deterministic). The queue is kept sorted ascending by (priority,
    # -seq): the best entry sits at the end (FIFO among exact ties), the
    # worst at the front where beam eviction removes it.
    mode = model.context_mode
    root_entry = (hg.root, model.restaurant(root_context(hg.root[0], mode)), chart.log_prob(*hg.root))
    neg_seq = itertools.count(0, -1)
    queue = [(completion_estimate([root_entry[2]]), next(neg_seq), 0.0, (root_entry,), ())]
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
        (node, restaurant, _), rest = frontier[0], frontier[1:]
        table = tables.get(node)
        if table is None:
            table = tables[node] = []
            for edge in hg.edges[node]:
                kids = [(c, e, chart.log_prob(*c)) for c, e in child_elements(hg.grammar, node, edge, mode)]
                table.append((edge, lhs_position[edge[0]], kids, completion_estimate([k[2] for k in kids])))
        # every edge of the item is scored under its one (restaurant, lhs)
        _, logs = model.expansion_log_probs(restaurant, node[0])
        rest_insides = [inside for _, _, inside in rest] if full else ()
        for edge, position, kids, estimate in table:
            score = log_score + float(logs[position])
            # the full estimate goes on from the children's over the rest
            priority = score + completion_estimate(rest_insides, estimate)
            if priority == NEG_INF:
                continue
            children = tuple([(child, step(restaurant, element), inside) for child, element, inside in kids])
            insort(queue, (priority, next(neg_seq), score, children + rest, (edge, decisions)))
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
