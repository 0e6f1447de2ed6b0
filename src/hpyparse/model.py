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

Those renormalized vectors are cached per (restaurant, lhs): the last
restaurant of the context's ``ContextTrie.chain`` (capped), which fixes
the whole chain the probabilities are folded over. So the cache holds
at most one entry per stored restaurant and lhs over a whole decoding
run, however long or novel the sentences' contexts are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import RunConfig
from .errors import DataError
from .events import extract_events, register_rules
from .grammar import Grammar
from .hpyp import BaseDistribution, ContextTrie, DepthParams
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

    # -- probabilities ---------------------------------------------------

    def expansion_log_probs(
        self, context: tuple[int, ...], lhs: int
    ) -> tuple[list[int], np.ndarray]:
        """Rule ids with lhs ``lhs`` and their renormalized log probabilities,
        given the context's last ``context_cap`` elements (all if unset)."""
        chain = self.trie.chain(context)
        if self.context_cap is not None:
            chain = chain[: self.context_cap + 1]
        key = (chain[-1], lhs)
        got = self._expansion_cache.get(key)
        if got is not None:
            return got
        rule_ids = self.grammar.rules_for(lhs)
        if not rule_ids:
            raise DataError(
                f"nonterminal {self.grammar.nonterminals.text(lhs)!r} has no rules"
            )
        probs = self.trie.predictive_probs(chain, rule_ids, self.params, self.base)
        logs = np.log(probs) - math.log(probs.sum())
        got = (rule_ids, logs)
        self._expansion_cache[key] = got
        return got

    def events_log_prob(self, events: Iterable[tuple[tuple[int, ...], int]]) -> float:
        """Sum of the (context, rule id) events' expansion log probabilities,
        added in the order given."""
        rules, position = self.grammar.rules, self.grammar.lhs_position
        total = 0.0
        for context, rule_id in events:
            _, logs = self.expansion_log_probs(context, rules[rule_id].lhs)
            total += float(logs[position[rule_id]])
        return total

    def tree_log_prob(self, tree: Tree) -> float:
        """Log probability of a (binarized-form) tree: sum over its events."""
        return self.events_log_prob(extract_events(tree, self.grammar, self.context_mode))


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
    config: RunConfig | None = None,
) -> tuple[TrainedModel, TrainStats]:
    """Full training pipeline over raw (sentence, tree) pairs.

    Preprocessing order: right-binarize, then replace rare words; the
    grammar, events, and probability tables are all built from the
    processed trees. The depth parameters are then fitted from the
    config's hyperpriors, and the model keeps its ``context_cap``.
    """
    config = config or RunConfig()
    config.validate()
    if not corpus:
        raise DataError("empty corpus")
    binarized = [(words, binarize_right(tree)) for words, tree in corpus]
    replaced, mapper = replace_rare_words(binarized, config.rare_threshold)
    trees = [tree for _, tree in replaced]
    grammar = build_grammar(trees)
    mapper.terminals = frozenset(grammar.terminals.texts())
    pcfg = estimate_mle(grammar, trees)
    base = make_base(config.base, pcfg)

    trie = ContextTrie(num_dishes=grammar.num_rules)
    num_events = 0
    for tree in trees:
        for context, rule_id in extract_events(tree, grammar, config.context_mode):
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
