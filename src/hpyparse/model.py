"""The trained model bundle and the end-to-end training pipeline.

A trained model couples the grammar, the context trie with its fitted
depth parameters, the base distribution, the proposal/baseline PCFG,
and the rare-word mapper. Training is single-writer; afterwards the
bundle is read-only and safe to share across decoding workers.

Decoders score rule expansions with per-frontier renormalization: the
smoothed predictive distribution spreads mass over every rule in the
vocabulary, so when a specific nonterminal is being expanded the mass
is renormalized over the rules with that left-hand side. That vector,
``expansion_log_probs``, is the model's one probability query; the
unrenormalized P(rule | context) is ``trie.predictive_prob``.

A decoding context is a stored restaurant: ``restaurant`` maps a context
tuple to the last restaurant of its ``ContextTrie.chain`` capped at
``context_cap`` + 1 entries, which fixes the chain the probabilities are
folded over. Every stored restaurant's context without its newest
element is stored too (the reader refuses a trie where it is not), so a
child's restaurant is one memoized ``step`` from its parent's, the
trie's analogue of a sequence memoizer's suffix links. The vectors are
cached per (restaurant, lhs); a miss folds on from its parent's memoized
unrenormalized vector (or the deepest memoized one in its chain). Every
memo is keyed on stored restaurants, so it stays bounded over a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import RunConfig
from .errors import DataError
from .events import extract_events, tree_edges
from .grammar import Grammar
from .hypergraph import Edge
from .hpyp import BaseDistribution, ContextTrie, DepthParams, Restaurant
from .optimize import optimize_params
from .pcfg import Pcfg, estimate_mle
from .signatures import SignatureMapper, replace_rare_words
from .transforms import binarize_right
from .trees import Sentence, Tree

TASK_PARSE = "parse"
TASK_TAG = "tag"


@dataclass
class TrainStats:
    num_trees: int
    num_events: int
    max_context_depth: int
    num_rules: int
    num_nonterminals: int
    num_terminals: int
    final_objective: float
    optimizer_iterations: int
    optimizer_converged: bool


@dataclass
class TrainedModel:
    grammar: Grammar
    context_mode: str
    task: str
    trie: ContextTrie
    params: DepthParams
    base: BaseDistribution
    pcfg: Pcfg
    mapper: SignatureMapper
    context_cap: int | None = None

    def __post_init__(self) -> None:
        self._expansion_cache: dict = {}
        self._paths: dict = {}  # restaurant -> (its chain, its context)
        self._steps: dict = {}  # (restaurant, element, cap) -> restaurant
        self._folds: dict = {}  # lhs -> {restaurant: unrenormalized vector}

    # -- probabilities ---------------------------------------------------

    def restaurant(self, context: tuple[int, ...]) -> Restaurant:
        """The stored restaurant that scores expansions under ``context``:
        the last of its chain's first ``context_cap`` + 1 entries."""
        chain = self.trie.chain(context)[: None if self.context_cap is None else self.context_cap + 1]
        found = chain[-1]
        if found not in self._paths:
            self._paths[found] = (chain, context[len(context) + 1 - len(chain) :])
        return found

    def step(self, restaurant: Restaurant, element: int) -> Restaurant:
        """``restaurant(c + (element,))`` for every context c that maps to
        ``restaurant``, memoized. Exact because every stored restaurant's
        context without its newest element is stored too."""
        key = (restaurant, element, self.context_cap)  # the cap may be set by attribute
        got = self._steps.get(key)
        if got is None:
            got = self._steps[key] = self.restaurant(self._paths[restaurant][1] + (element,))
        return got

    def expansion_log_probs(self, restaurant: Restaurant, lhs: int) -> tuple[list[int], np.ndarray]:
        """Rule ids with lhs ``lhs`` and their renormalized log probabilities
        under a restaurant given by ``restaurant`` or ``step``."""
        key = (restaurant, lhs)
        got = self._expansion_cache.get(key)
        if got is not None:
            return got
        rule_ids = self.grammar.rules_for(lhs)
        if not rule_ids:
            raise DataError(
                f"nonterminal {self.grammar.nonterminals.text(lhs)!r} has no rules"
            )
        probs = self.trie.predictive_probs(
            self._paths[restaurant][0], rule_ids, self.params, self.base, self._folds.setdefault(lhs, {})
        )
        logs = np.log(probs) - math.log(probs.sum())
        got = self._expansion_cache[key] = (rule_ids, logs)
        return got

    def events_log_prob(self, events: Iterable[tuple[tuple[int, ...], int]]) -> float:
        """Sum of the (context, rule id) events' expansion log probabilities,
        added in the order given."""
        rules, position = self.grammar.rules, self.grammar.lhs_position
        total = 0.0
        for context, rule_id in events:
            _, logs = self.expansion_log_probs(self.restaurant(context), rules[rule_id].lhs)
            total += float(logs[position[rule_id]])
        return total

    def tree_log_prob(self, tree: Tree) -> float:
        """Log probability of a (binarized-form) tree: sum over its events."""
        return self.events_log_prob(extract_events(tree, self.grammar, self.context_mode))


def intern_corpus(trees: list[Tree]) -> tuple[Grammar, list[list[Edge]]]:
    """The grammar of fully preprocessed trees and each tree's edges,
    read in one walk per tree (``tree_edges``)."""
    if not trees:
        raise DataError("empty corpus")
    roots = {t.label for t in trees}
    if len(roots) != 1:
        raise DataError(f"corpus has multiple root labels: {sorted(roots)}")
    grammar = Grammar()
    edges = [tree_edges(grammar, tree, intern=True) for tree in trees]
    grammar.set_root(grammar.nonterminal(trees[0].label))
    grammar.validate()
    return grammar, edges


def build_grammar(trees: list[Tree]) -> Grammar:
    """Intern symbols and rules of fully preprocessed trees."""
    return intern_corpus(trees)[0]


def make_base(variant: str, pcfg: Pcfg) -> BaseDistribution:
    if variant == BaseDistribution.UNIFORM:
        return BaseDistribution.uniform(pcfg.grammar.num_rules)
    return BaseDistribution(BaseDistribution.MLE_PCFG, pcfg.joint_rule_probs())


def train_model(
    corpus: list[tuple[Sentence, Tree]],
    config: RunConfig | None = None,
) -> tuple[TrainedModel, TrainStats]:
    """Full training pipeline over raw (sentence, tree) pairs.

    Preprocessing order: right-binarize, then replace rare words; the
    grammar, events, and probability tables are all built from the
    processed trees, whose edges are read once (``intern_corpus``). The
    depth parameters are then fitted from the config's hyperpriors, and
    the model keeps its ``context_cap``.
    """
    config = config or RunConfig()
    config.validate()
    if not corpus:
        raise DataError("empty corpus")
    binarized = [(words, binarize_right(tree)) for words, tree in corpus]
    replaced, mapper = replace_rare_words(binarized, config.rare_threshold)
    trees = [tree for _, tree in replaced]
    grammar, edges = intern_corpus(trees)
    mapper.terminals = frozenset(grammar.terminals.texts())
    pcfg = estimate_mle(grammar, trees, edges)
    base = make_base(config.base, pcfg)

    trie = ContextTrie(num_dishes=grammar.num_rules)
    num_events = 0
    edges.reverse()  # popped in tree order: each tree's edges are freed once seated
    for tree in trees:
        for context, rule_id in extract_events(tree, grammar, config.context_mode, edges.pop()):
            trie.insert(context, rule_id)
            num_events += 1

    result = optimize_params(
        trie,
        base,
        init=DepthParams.uniform(
            trie.depth_count(),
            beta_a=config.beta_a,
            beta_b=config.beta_b,
            gamma_shape=config.gamma_shape,
            gamma_rate=config.gamma_rate,
        ),
    )
    model = TrainedModel(
        grammar=grammar,
        context_mode=config.context_mode,
        task=config.task,
        trie=trie,
        params=result.params,
        base=base,
        pcfg=pcfg,
        mapper=mapper,
        context_cap=config.context_cap,
    )
    stats = TrainStats(
        num_trees=len(corpus),
        num_events=num_events,
        max_context_depth=trie.max_depth,
        num_rules=grammar.num_rules,
        num_nonterminals=len(grammar.nonterminals),
        num_terminals=len(grammar.terminals),
        final_objective=result.objective,
        optimizer_iterations=result.iterations,
        optimizer_converged=result.converged,
    )
    return model, stats
