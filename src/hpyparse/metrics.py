"""Bracket-based parsing metrics and tagging accuracies.

Brackets are (label, start, end) triples from internal nodes that have
at least one nonterminal child; preterminal spans (a node whose children
are all words, e.g. a POS tag or a twin emitter) are excluded, and the
root bracket is included. Metrics are micro-averaged over the corpus and
reported on a 0-100 scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DataError
from .trees import Tree, annotate_spans


def brackets(tree: Tree) -> Counter:
    """Multiset of labeled spans for scoring."""
    if tree.span is None:
        annotate_spans(tree)
    out: Counter = Counter()
    for node in tree.internal_nodes():
        if node.is_preterminal():
            continue
        assert node.span is not None
        out[(node.label, node.span[0], node.span[1])] += 1
    return out


@dataclass
class BracketScore:
    precision: float
    recall: float
    f1: float
    exact_match: float
    matched: int
    gold_total: int
    pred_total: int
    compared: int
    skipped: int


def score_brackets(gold: list[Tree], pred: list[Tree]) -> BracketScore:
    """Micro-averaged precision/recall/F1 and exact bracketing match.

    Pairs with mismatched yields are skipped (counted, not scored).
    """
    if len(gold) != len(pred):
        raise DataError(f"{len(gold)} gold trees vs {len(pred)} predictions")
    matched = gold_total = pred_total = exact = compared = skipped = 0
    for g, p in zip(gold, pred):
        if g.leaves() != p.leaves():
            skipped += 1
            continue
        compared += 1
        gb, pb = brackets(g), brackets(p)
        inter = gb & pb
        matched += sum(inter.values())
        gold_total += sum(gb.values())
        pred_total += sum(pb.values())
        exact += int(gb == pb)
    precision = 100.0 * matched / pred_total if pred_total else (100.0 if not gold_total else 0.0)
    recall = 100.0 * matched / gold_total if gold_total else (100.0 if not pred_total else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return BracketScore(
        precision=precision,
        recall=recall,
        f1=f1,
        exact_match=exact / compared if compared else 0.0,
        matched=matched,
        gold_total=gold_total,
        pred_total=pred_total,
        compared=compared,
        skipped=skipped,
    )


def labelled_f1(gold: list[Tree], pred: list[Tree]) -> tuple[float, float, float]:
    score = score_brackets(gold, pred)
    return score.precision, score.recall, score.f1


def exact_match(gold: list[Tree], pred: list[Tree]) -> float:
    return score_brackets(gold, pred).exact_match


def token_accuracy(gold: list[list[str]], pred: list[list[str]]) -> float:
    """Fraction of tokens tagged correctly across the corpus."""
    correct = total = 0
    _check_aligned(gold, pred)
    for g, p in zip(gold, pred):
        correct += sum(a == b for a, b in zip(g, p))
        total += len(g)
    return correct / total if total else 0.0


def sentence_accuracy(gold: list[list[str]], pred: list[list[str]]) -> float:
    """Fraction of sentences with every token tagged correctly."""
    _check_aligned(gold, pred)
    if not gold:
        return 0.0
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


def _check_aligned(gold: list[list[str]], pred: list[list[str]]) -> None:
    if len(gold) != len(pred):
        raise DataError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
    for k, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise DataError(f"sentence {k}: {len(g)} gold tags vs {len(p)} predicted")


def render_report(values: dict[str, float | int]) -> str:
    """Aligned human-readable table followed by machine-readable lines."""
    width = max(len(k) for k in values)
    rows = []
    for key, val in values.items():
        shown = f"{val:.2f}" if isinstance(val, float) else str(val)
        rows.append(f"{key:<{width}}  {shown}")
    machine = [
        f"{key}={val:.6f}" if isinstance(val, float) else f"{key}={val}"
        for key, val in values.items()
    ]
    return "\n".join(rows + machine)
