"""Span recorder for the traced run, installed by wrapping public names.

Each wrapper is put at the name its caller looks up (for example
``hpyparse.cli.inside``, which ``cli._decode_one`` calls, or the class
attribute ``ContextTrie.predictive_probs``), so the program itself is
unchanged. A wrapper times the call, charges its duration to the
enclosing span's child time, and aggregates per span name:

* ``total`` seconds, ``self`` seconds (duration minus traced children)
  and ``calls``;
* for the coarse layers (a few per sentence) a full span record
  ``(id, name, start, end, parent, sentence)`` kept in memory and written
  out when the run ends. The hot inner calls (cache lookups, trie
  queries, event extraction) are aggregated only, which keeps the trace
  small and its overhead low.

Counts that the layers return (A* pops, hypergraph size, MH acceptance,
optimizer convergence, ...) are read from the wrapped calls' results.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import hpyparse.astar
import hpyparse.cli
import hpyparse.mcmc
import hpyparse.model
from hpyparse.hpyp import ContextTrie
from hpyparse.model import TrainedModel
from hpyparse.signatures import SignatureMapper


@dataclass
class _Frame:
    span_id: int
    child_s: float = 0.0


@dataclass
class Tracer:
    """Per-name timings, coarse span records and layer counters."""

    totals: dict = field(default_factory=lambda: defaultdict(float))
    selfs: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    spans: list = field(default_factory=list)
    phase: str = "train"
    sentence: int = -1
    _stack: list = field(default_factory=lambda: [_Frame(-1)])
    _next_id: int = 0

    def wrap(self, name, fn: Callable, record: bool = True, observe: Callable | None = None):
        """Return ``fn`` timed under span ``name`` (a str, or a callable of the tracer)."""
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(tracer)
            frame = _Frame(tracer._next_id)
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                parent.child_s += duration
                tracer.totals[label] += duration
                tracer.selfs[label] += duration - frame.child_s
                tracer.calls[label] += 1
                if record:
                    tracer.spans.append(
                        (frame.span_id, label, start, end, parent.span_id, tracer.sentence)
                    )
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, sentence in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "sentence": sentence,
                }) + "\n")


# -- observers: counts read from the layers' own results ---------------------


def _on_map(tracer: Tracer, args, mapped) -> None:
    words = args[1]
    tracer.counts["tokens"] += len(words)
    tracer.counts["unk_tokens"] += sum(a != b for a, b in zip(words, mapped))


def _on_hypergraph(tracer: Tracer, args, hg) -> None:
    tracer.counts["hg_nodes"] += len(hg.nodes)
    tracer.counts["hg_edges"] += sum(len(e) for e in hg.edges.values())


def _on_astar(tracer: Tracer, args, result) -> None:
    tracer.counts["pops"] += result.pops
    tracer.counts["pushes"] += result.pushes
    tracer.counts["evictions"] += result.evictions
    tracer.counts["fallbacks"] += int(result.used_fallback)
    tracer.counts["max_queue"] = max(tracer.counts["max_queue"], result.max_queue)


def _on_mh(tracer: Tracer, args, result) -> None:
    stats, samples, _ = result
    tracer.counts["mh_accepted"] += stats.acceptance_count
    tracer.counts["mh_iterations"] += stats.iterations
    tracer.counts["mh_chains"] += 1
    tracer.counts["mh_distinct"] += len({id(tree) for tree in samples})


def _on_optimize(tracer: Tracer, args, result) -> None:
    tracer.counts["opt_iterations"] = result.iterations
    tracer.counts["opt_converged"] = float(result.converged)


def _on_train_model(tracer: Tracer, args, result) -> None:
    model, _ = result
    tracer.counts["restaurants"] = sum(1 for _ in model.trie.iter_restaurants())
    tracer.counts["max_depth"] = model.trie.max_depth


def _events_span(tracer: Tracer) -> str:
    return f"events.extract_{tracer.phase}"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced name; returns a function that restores them."""
    targets = [
        # (owner, attribute, span name, record, observe)
        (hpyparse.cli, "train_model", "model.train", True, _on_train_model),
        (hpyparse.cli, "save_model_file", "serialize.save", True, None),
        (hpyparse.cli, "load_model_file", "serialize.load", True, None),
        (hpyparse.model, "binarize_right", "transforms.binarize", False, None),
        (hpyparse.model, "replace_rare_words", "signatures.replace", True, None),
        (hpyparse.model, "estimate_mle", "pcfg.estimate", True, None),
        (hpyparse.model, "extract_events", _events_span, False, None),
        (hpyparse.model, "optimize_params", "optimize.fit", True, _on_optimize),
        (ContextTrie, "insert", "hpyp.insert", False, None),
        (ContextTrie, "predictive_probs", "hpyp.predictive_probs", False, None),
        (TrainedModel, "expansion_log_probs", "model.expansion", False, None),
        (TrainedModel, "tree_log_prob", "model.tree_log_prob", False, None),
        (SignatureMapper, "map_sentence", "signatures.map", True, _on_map),
        (hpyparse.cli, "build_hypergraph", "hypergraph.build", True, _on_hypergraph),
        (hpyparse.cli, "inside", "pcfg.inside", True, None),
        (hpyparse.cli, "cyk_viterbi", "pcfg.cyk", True, None),
        (hpyparse.astar, "cyk_viterbi", "pcfg.cyk", True, None),
        (hpyparse.cli, "astar_parse", "astar", True, _on_astar),
        (hpyparse.cli, "mh_sample", "mcmc", True, _on_mh),
        (hpyparse.mcmc, "sample_tree", "pcfg.sample_tree", False, None),
        (hpyparse.cli, "mbr_decode", "mcmc.mbr", True, None),
        (hpyparse.cli, "unbinarize_right", "transforms.unbinarize", True, None),
    ]
    saved = []
    for owner, attr, name, record, observe in targets:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, record, observe))

    original_decode = hpyparse.cli._decode_one
    decode = tracer.wrap("cli.decode", original_decode)

    def decode_one(model, words, config, index):
        tracer.sentence = index
        return decode(model, words, config, index)

    saved.append((hpyparse.cli, "_decode_one", original_decode))
    hpyparse.cli._decode_one = decode_one

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    s, t, n, c = tracer.selfs, tracer.totals, tracer.calls, tracer.counts
    expansion = n["model.expansion"]
    misses = n["hpyp.predictive_probs"]
    pops = c["pops"]
    chains = c["mh_chains"]
    return {
        "hpyp.predictive_probs_s": (s["hpyp.predictive_probs"], "s"),
        "hpyp.predictive_probs_calls": (misses, "count"),
        "model.expansion_calls": (expansion, "count"),
        "model.expansion_hit_rate": (1 - misses / expansion if expansion else 0.0, "ratio"),
        "model.expansion_cache_entries": (misses, "count"),
        "astar.self_s": (s["astar"], "s"),
        "astar.pops": (pops, "count"),
        "astar.pushes": (c["pushes"], "count"),
        "astar.evictions": (c["evictions"], "count"),
        "astar.max_queue": (c["max_queue"], "count"),
        "astar.fallbacks": (c["fallbacks"], "count"),
        "astar.us_per_pop": (1e6 * s["astar"] / pops if pops else 0.0, "us"),
        "hypergraph.build_s": (s["hypergraph.build"], "s"),
        "hypergraph.nodes": (c["hg_nodes"], "count"),
        "hypergraph.edges": (c["hg_edges"], "count"),
        "pcfg.inside_s": (s["pcfg.inside"], "s"),
        "pcfg.sample_tree_s": (s["pcfg.sample_tree"], "s"),
        "pcfg.sample_tree_calls": (n["pcfg.sample_tree"], "count"),
        "mcmc.mbr_s": (s["mcmc.mbr"], "s"),
        "pcfg.cyk_s": (s["pcfg.cyk"], "s"),
        "mcmc.self_s": (s["mcmc"], "s"),
        "model.tree_log_prob_s": (s["model.tree_log_prob"], "s"),
        "model.tree_log_prob_calls": (n["model.tree_log_prob"], "count"),
        "events.extract_predict_s": (s["events.extract_predict"], "s"),
        "mcmc.acceptance_rate": (
            c["mh_accepted"] / c["mh_iterations"] if c["mh_iterations"] else 0.0, "ratio"
        ),
        "mcmc.distinct_accepted": (c["mh_distinct"] / chains if chains else 0.0, "count"),
        "transforms.binarize_s": (s["transforms.binarize"], "s"),
        "signatures.replace_s": (s["signatures.replace"], "s"),
        "pcfg.estimate_s": (s["pcfg.estimate"], "s"),
        "events.extract_train_s": (s["events.extract_train"], "s"),
        "hpyp.insert_s": (s["hpyp.insert"], "s"),
        "hpyp.restaurants": (c["restaurants"], "count"),
        "hpyp.max_depth": (c["max_depth"], "count"),
        "optimize.fit_s": (s["optimize.fit"], "s"),
        "optimize.iterations": (c["opt_iterations"], "count"),
        "optimize.converged": (c["opt_converged"], "bool"),
        "model.train_s": (t["model.train"], "s"),
        "serialize.save_s": (s["serialize.save"], "s"),
        "serialize.load_s": (s["serialize.load"], "s"),
        "signatures.map_s": (s["signatures.map"], "s"),
        "signatures.unk_token_frac": (
            c["unk_tokens"] / c["tokens"] if c["tokens"] else 0.0, "ratio"
        ),
        "transforms.unbinarize_s": (s["transforms.unbinarize"], "s"),
        "cli.other_s": (s["cli.predict"] + s["cli.decode"], "s"),
    }
