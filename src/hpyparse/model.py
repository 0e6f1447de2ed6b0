"""The trained model bundle and the end-to-end training pipeline.

A trained model couples the grammar, the context trie with its fitted
depth parameters, the base distribution, the proposal/baseline PCFG,
and the rare-word mapper. Training is single-writer; afterwards the
bundle is read-only and safe to share across decoding workers.

Decoders score rule expansions with per-frontier renormalization: the
smoothed predictive distribution spreads mass over every rule in the
vocabulary, so when a specific nonterminal is being expanded the mass
is renormalized over the rules with that left-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .events import (
    CONTEXT_MODES,
    NONTERMINAL_CONTEXT,
    extract_events,
    register_rules,
)
from .grammar import Grammar
from .hpyp import BaseDistribution, ContextTrie, DepthParams
from .optimize import OptimizeResult, optimize_params
from .pcfg import Pcfg, estimate_mle
from .signatures import SignatureMapper, replace_rare_words
from .transforms import binarize_right
from .trees import Sentence, Tree

TASK_PARSE = "parse"
TASK_TAG = "tag"


@dataclass
class TrainConfig:
    context_mode: str = NONTERMINAL_CONTEXT
    base_variant: str = BaseDistribution.MLE_PCFG
    rare_threshold: int = 1
    task: str = TASK_PARSE
    optimize: bool = True
    beta_a: float = 1.0
    beta_b: float = 1.0
    gamma_shape: float = 1.0
    gamma_rate: float = 1.0

    def validate(self) -> None:
        if self.context_mode not in CONTEXT_MODES:
            raise DataError(f"unknown context mode {self.context_mode!r}")
        if self.base_variant not in (BaseDistribution.UNIFORM, BaseDistribution.MLE_PCFG):
            raise DataError(f"unknown base distribution {self.base_variant!r}")
        if self.rare_threshold < 0:
            raise DataError("rare threshold must be >= 0")
        if self.task not in (TASK_PARSE, TASK_TAG):
            raise DataError(f"unknown task {self.task!r}")


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
    optimizer_converged: bool  # True also when no fit was asked for


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

    def clear_cache(self) -> None:
        self._expansion_cache = {}

    # -- probabilities ---------------------------------------------------

    def predictive_prob(self, context: tuple[int, ...], rule_id: int) -> float:
        """Smoothed P(rule | context) over the whole rule vocabulary."""
        return self.trie.predictive_prob(
            context, rule_id, self.params, self.base, self.context_cap
        )

    def expansion_log_probs(
        self, context: tuple[int, ...], lhs: int
    ) -> tuple[list[int], np.ndarray]:
        """Rule ids with lhs ``lhs`` and their renormalized log probabilities."""
        if self.context_cap is not None:
            context = context[-self.context_cap :] if self.context_cap > 0 else ()
        key = (context, lhs)
        got = self._expansion_cache.get(key)
        if got is not None:
            return got
        rule_ids = self.grammar.rules_for(lhs)
        if not rule_ids:
            raise DataError(
                f"nonterminal {self.grammar.nonterminals.text(lhs)!r} has no rules"
            )
        probs = self.trie.predictive_probs(context, rule_ids, self.params, self.base)
        logs = np.log(probs) - math.log(probs.sum())
        got = (rule_ids, logs)
        self._expansion_cache[key] = got
        return got

    def expansion_log_prob(self, context: tuple[int, ...], rule_id: int) -> float:
        lhs = self.grammar.rules[rule_id].lhs
        rule_ids, logs = self.expansion_log_probs(context, lhs)
        return float(logs[rule_ids.index(rule_id)])

    def tree_log_prob(self, tree: Tree) -> float:
        """Log probability of a (binarized-form) tree: sum over its events."""
        total = 0.0
        for context, rule_id in extract_events(tree, self.grammar, self.context_mode):
            total += self.expansion_log_prob(context, rule_id)
        return total

    def root_context(self) -> tuple[int, ...]:
        """Context under which the root node's rule is chosen."""
        assert self.grammar.root is not None
        if self.context_mode == NONTERMINAL_CONTEXT:
            return (self.grammar.root,)
        return ()


def build_grammar(trees: list[Tree]) -> Grammar:
    """Intern symbols and rules of fully preprocessed trees."""
    if not trees:
        raise DataError("empty corpus")
    grammar = Grammar()
    roots = {t.label for t in trees}
    if len(roots) != 1:
        raise DataError(f"corpus has multiple root labels: {sorted(roots)}")
    for tree in trees:
        for node in tree.internal_nodes():
            grammar.nonterminal(node.label)
        for word in tree.leaves():
            grammar.terminal(word)
    for tree in trees:
        register_rules(grammar, tree)
    grammar.set_root(grammar.nonterminal(trees[0].label))
    grammar.validate()
    return grammar


def make_base(variant: str, pcfg: Pcfg) -> BaseDistribution:
    if variant == BaseDistribution.UNIFORM:
        return BaseDistribution.uniform(pcfg.grammar.num_rules)
    return BaseDistribution(BaseDistribution.MLE_PCFG, pcfg.joint_rule_probs())


def train_model(
    corpus: list[tuple[Sentence, Tree]],
    config: TrainConfig | None = None,
) -> tuple[TrainedModel, TrainStats]:
    """Full training pipeline over raw (sentence, tree) pairs.

    Preprocessing order: right-binarize, then replace rare words; the
    grammar, events, and probability tables are all built from the
    processed trees.
    """
    config = config or TrainConfig()
    config.validate()
    if not corpus:
        raise DataError("empty corpus")
    binarized = [(words, binarize_right(tree)) for words, tree in corpus]
    replaced, mapper = replace_rare_words(binarized, config.rare_threshold)
    trees = [tree for _, tree in replaced]
    grammar = build_grammar(trees)
    mapper.terminals = frozenset(grammar.terminals.texts())
    pcfg = estimate_mle(grammar, trees)
    base = make_base(config.base_variant, pcfg)

    trie = ContextTrie(num_dishes=grammar.num_rules)
    num_events = 0
    for tree in trees:
        for context, rule_id in extract_events(tree, grammar, config.context_mode):
            trie.insert(context, rule_id)
            num_events += 1

    if config.optimize:
        result: OptimizeResult = optimize_params(
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
        params, objective, iterations = result.params, result.objective, result.iterations
        converged = result.converged
    else:
        params = DepthParams.uniform(
            trie.depth_count(),
            beta_a=config.beta_a,
            beta_b=config.beta_b,
            gamma_shape=config.gamma_shape,
            gamma_rate=config.gamma_rate,
        )
        objective, iterations, converged = float("nan"), 0, True

    model = TrainedModel(
        grammar=grammar,
        context_mode=config.context_mode,
        task=config.task,
        trie=trie,
        params=params,
        base=base,
        pcfg=pcfg,
        mapper=mapper,
    )
    stats = TrainStats(
        num_trees=len(corpus),
        num_events=num_events,
        max_context_depth=trie.max_depth,
        num_rules=grammar.num_rules,
        num_nonterminals=len(grammar.nonterminals),
        num_terminals=len(grammar.terminals),
        final_objective=objective,
        optimizer_iterations=iterations,
        optimizer_converged=converged,
    )
    return model, stats
