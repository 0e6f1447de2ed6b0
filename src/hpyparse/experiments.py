"""Held-out experiments over synthetic treebanks.

The context-depth experiment trains one unbounded-context model on an
order-3 synthetic tag treebank and decodes the held-out split under
query-depth caps 1, 2, 3, and unbounded, plus the plain PCFG baseline.
Capped models see progressively more of the generator's true context,
so exact-match accuracy should rise (and plateau at the generator's
order); the PCFG baseline conditions on the parent alone.

Decoding here is exact: every candidate tree in the sentence hypergraph
is scored and the argmax taken, so the comparison isolates the model
from search error.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .hypergraph import build_hypergraph, enumerate_trees
from .model import TASK_TAG, TrainedModel, train_model
from .pcfg import best_tree
from .synthetic import TagChainSpec, generate_tag_corpus
from .transforms import pos_to_tree
from .trees import Tree, write_tree


@dataclass
class DepthEffectResult:
    accuracy: dict[str, float]  # decoder label -> held-out exact match
    train_size: int
    test_size: int
    seed: int

    def table(self) -> str:
        width = max(len(k) for k in self.accuracy)
        lines = [f"{'decoder':<{width}}  exact-match"]
        lines += [f"{k:<{width}}  {v:.4f}" for k, v in self.accuracy.items()]
        return "\n".join(lines)


def exact_decode(model: TrainedModel, candidates: list[Tree]) -> Tree:
    """Argmax over enumerated candidate trees under ``model`` (ties go to
    the smallest written form)."""
    best: tuple[float, str, Tree] | None = None
    for tree in candidates:
        score = model.tree_log_prob(tree)
        key = write_tree(tree)
        if best is None or score > best[0] or (score == best[0] and key < best[1]):
            best = (score, key, tree)
    assert best is not None
    return best[2]


def run_depth_effect(
    train_size: int = 2000,
    test_size: int = 500,
    seed: int = 0,
    caps: tuple[int | None, ...] = (1, 2, 3, None),
    spec: TagChainSpec | None = None,
    enumeration_limit: int = 5000,
) -> DepthEffectResult:
    rng = np.random.default_rng(seed)
    corpus = generate_tag_corpus(train_size + test_size, rng, spec)
    train, test = corpus[:train_size], corpus[train_size:]

    train_trees = [(words, pos_to_tree(tags, words)) for words, tags in train]
    model, _ = train_model(train_trees, RunConfig(task=TASK_TAG))

    labels = ["pcfg"] + [f"cap{c}" if c is not None else "unbounded" for c in caps]
    # one model per cap, so each keeps its expansion cache across sentences
    capped = [dataclasses.replace(model, context_cap=c) for c in caps]
    correct = {label: 0 for label in labels}
    log_probs = model.pcfg.log_probs.tolist()
    for words, tags in test:
        gold = write_tree(pos_to_tree(tags, words))
        hg = build_hypergraph(model.grammar, words)
        candidates = list(enumerate_trees(hg, limit=enumeration_limit))
        viterbi = best_tree(hg, lambda _, edge: log_probs[edge[0]])
        if viterbi is not None and write_tree(viterbi) == gold:
            correct["pcfg"] += 1
        for label, capped_model in zip(labels[1:], capped):
            if write_tree(exact_decode(capped_model, candidates)) == gold:
                correct[label] += 1

    accuracy = {label: correct[label] / len(test) for label in labels}
    return DepthEffectResult(accuracy, train_size, test_size, seed)
