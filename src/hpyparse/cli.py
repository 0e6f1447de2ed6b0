"""Command-line surface: train, predict, evaluate, diagnose.

Product output (trees, tags, metric reports) goes to stdout or the
requested output file and is deterministic for a fixed seed and config;
progress and timing go to stderr. Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Iterable, TextIO

import numpy as np

from .astar import astar_parse
from .config import RunConfig, build_config, parse_config_text
from .errors import DataError, UsageError, file_errors
from .hypergraph import build_hypergraph
from .hpyp import SeatingStats, log_posterior_from_stats
from .mcmc import mbr_decode, mh_sample, most_frequent_tree
from .metrics import (
    render_report,
    score_brackets,
    sentence_accuracy,
    token_accuracy,
)
from .model import TrainedModel, train_model
from .pcfg import NEG_INF, cyk_viterbi, inside, sentence_log_prob
from .serialize import load_model_file, save_model_file
from .transforms import pos_to_tree, tree_to_pos, unbinarize_right
from .trees import (
    Tree,
    read_tag_corpus,
    read_tree,
    read_treebank,
    replace_leaves,
    write_tagged,
    write_tree,
)

NO_PARSE = "(())"
UNK_TAG = "UNK"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=["parse", "tag"], default=None)
    p.add_argument("--decoder", choices=["cyk", "astar-full", "astar-local", "mcmc"], default=None)
    p.add_argument("--beam", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--context-mode", dest="context_mode", choices=["nonterminal", "rule"], default=None)
    p.add_argument("--base", choices=["mle", "uniform"], default=None)
    p.add_argument("--rare-threshold", dest="rare_threshold", type=int, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--config", default=None)


def _make_parser() -> _Parser:
    parser = _Parser(prog="hpyparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a treebank or tag corpus")
    train.add_argument("input", help="bracketed trees (parse) or word/TAG lines (tag)")
    train.add_argument("--model", required=True, help="output model file")
    _add_shared_flags(train)

    predict = sub.add_parser("predict", help="parse or tag raw sentences")
    predict.add_argument("input", help="one tokenized sentence per line")
    predict.add_argument("--model", required=True)
    predict.add_argument("--output", default=None, help="default stdout")
    _add_shared_flags(predict)

    evaluate = sub.add_parser("evaluate", help="score predictions against gold")
    evaluate.add_argument("gold")
    evaluate.add_argument("pred")
    _add_shared_flags(evaluate)

    diagnose = sub.add_parser("diagnose", help="dump model and decoder diagnostics")
    diagnose.add_argument("--model", required=True)
    diagnose.add_argument("--sentence", default=None, help="tokenized sentence to trace")
    diagnose.add_argument(
        "--context",
        default=None,
        help="ancestor labels (earliest first) whose restaurant to dump",
    )
    diagnose.add_argument("--out", default="diagnostics", help="directory for CSV dumps")
    _add_shared_flags(diagnose)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, object] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        except (OSError, UnicodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    # RunConfig fields without a flag read None and are skipped
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return build_config(file_values, overrides)


def _read_text(path: str) -> str:
    with file_errors("read", path), open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- train ---------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    text = _read_text(args.input)
    if config.task == "tag":
        tagged = read_tag_corpus(text)
        corpus = [(words, pos_to_tree(tags, words)) for words, tags in tagged]
    else:
        corpus, _ = read_treebank(text)
    if not corpus:
        raise DataError(f"no training instances in {args.input}")
    model, stats = train_model(corpus, config)
    save_model_file(model, args.model)
    print(f"trees            {stats.num_trees}")
    print(f"events           {stats.num_events}")
    print(f"max-depth        {stats.max_context_depth}")
    print(f"rules            {stats.num_rules}")
    print(f"nonterminals     {stats.num_nonterminals}")
    print(f"terminals        {stats.num_terminals}")
    print(f"final-objective  {stats.final_objective:.6f}")
    print(f"optimizer-iters  {stats.optimizer_iterations}")
    print(f"optimizer-converged  {'yes' if stats.optimizer_converged else 'no'}")
    if not stats.optimizer_converged:
        print(
            f"warning: depth-parameter fit stopped after {stats.optimizer_iterations} "
            "iterations without converging",
            file=sys.stderr,
        )
    print(f"model            {args.model}")
    return 0


# -- predict ---------------------------------------------------------------


@dataclass
class DecodeOutcome:
    line: str
    parsed: bool
    seconds: float
    note: str = ""


_WORKER_STATE: dict[str, object] = {}


def _decode_one(model: TrainedModel, words: list[str], config: RunConfig, index: int) -> DecodeOutcome:
    start = time.perf_counter()
    mapped = model.mapper.map_sentence(words)
    tree: Tree | None = None
    note = ""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(index,)))
    if config.max_len is not None and len(words) > config.max_len:
        note = f"over max-len {config.max_len}"
    elif config.decoder == "cyk":
        tree = cyk_viterbi(model.pcfg, mapped)
    else:
        hg = build_hypergraph(model.grammar, mapped)
        if not hg.empty:
            chart = inside(model.pcfg, mapped, hg.derivations)
            if config.decoder in ("astar-full", "astar-local"):
                result = astar_parse(
                    model,
                    hg,
                    chart,
                    heuristic=config.decoder.split("-", 1)[1],
                    beam=config.beam,
                )
                tree = result.tree
                note = f"pops={result.pops} pushes={result.pushes}"
                if result.used_fallback:
                    note += " fallback=cyk"
            elif sentence_log_prob(model.pcfg, chart) > NEG_INF:  # mcmc
                stats, _, _ = mh_sample(
                    model, mapped, config.iters, config.burn_in, rng, chart
                )
                tree = mbr_decode(stats, hg)
                note = f"accept-rate={stats.acceptance_rate:.3f}"
    seconds = time.perf_counter() - start
    if tree is None:
        if model.task == "tag":
            line = write_tagged(words, [UNK_TAG] * len(words))
        else:
            line = NO_PARSE
        return DecodeOutcome(line, False, seconds, note)
    if model.task == "tag":
        line = write_tagged(words, tree_to_pos(tree)[0])
    else:
        line = write_tree(unbinarize_right(replace_leaves(tree, words)))
    return DecodeOutcome(line, True, seconds, note)


def _load_decoding_model(path: str, config: RunConfig) -> TrainedModel:
    """Load a model to decode with, under the config's context cap if it sets one."""
    model = load_model_file(path)
    if config.context_cap is not None:
        model.context_cap = config.context_cap
    return model


def _pool_init(model_path: str, config: RunConfig) -> None:
    # a forked worker inherits the parent's loaded model and the collector
    # off; a spawned or forkserver one does not run main, so it turns it off
    gc.disable()
    if "model" not in _WORKER_STATE:
        _WORKER_STATE["model"] = _load_decoding_model(model_path, config)
    _WORKER_STATE["config"] = config


def _pool_decode(item: tuple[int, list[str]]) -> DecodeOutcome:
    index, words = item
    model: TrainedModel = _WORKER_STATE["model"]  # type: ignore[assignment]
    config: RunConfig = _WORKER_STATE["config"]  # type: ignore[assignment]
    return _decode_one(model, words, config, index)


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_outcomes(outcomes: Iterable[DecodeOutcome], out: TextIO) -> None:
    """Write each product line, and its stderr line, as its outcome arrives."""
    for i, outcome in enumerate(outcomes):
        print(outcome.line, file=out)
        flag = "" if outcome.parsed else " NO-PARSE"
        note = f" {outcome.note}" if outcome.note else ""
        print(f"[{i}] {outcome.seconds:.3f}s{note}{flag}", file=sys.stderr)


def cmd_predict(args: argparse.Namespace) -> int:
    config = _load_config(args)
    model = _load_decoding_model(args.model, config)
    if args.task is not None and args.task != model.task:
        raise UsageError(
            f"model was trained for task {model.task!r}, requested {args.task!r}"
        )
    sentences = []
    for lineno, line in enumerate(_read_text(args.input).splitlines(), start=1):
        words = line.split()
        if model.task == "parse" and any("(" in w or ")" in w for w in words):
            # the word would be written back as a bracketed-tree leaf
            raise DataError(f"{args.input} line {lineno}: a word contains '(' or ')'")
        if words:
            sentences.append(words)
    out: TextIO = sys.stdout
    if args.output:
        with file_errors("write", args.output):
            out = open(args.output, "w", encoding="utf-8")
    try:
        items = list(enumerate(sentences))
        # a pool starts all its workers at once (each loads the model unless forked)
        workers = min(config.workers, len(items), _available_cpus())
        if workers > 1:
            _WORKER_STATE["model"] = model  # set before the pool forks
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=(args.model, config),
            ) as pool:
                # map yields the outcomes in input order as they complete
                _write_outcomes(pool.map(_pool_decode, items, chunksize=8), out)
        else:
            _write_outcomes((_decode_one(model, words, config, i) for i, words in items), out)
    finally:
        _WORKER_STATE.clear()
        if out is not sys.stdout:
            out.close()
    return 0


# -- evaluate ---------------------------------------------------------------


def _read_pred_trees(text: str) -> list[Tree]:
    trees: list[Tree] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        if raw.strip() == NO_PARSE:
            trees.append(Tree("NO-PARSE", ["?"]))
            continue
        trees.append(read_tree(raw, lineno))
    return trees


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.task == "tag":
        gold = read_tag_corpus(_read_text(args.gold))
        pred = read_tag_corpus(_read_text(args.pred))
        if len(gold) != len(pred):
            raise DataError(f"{len(gold)} gold sentences vs {len(pred)} predictions")
        if config.max_len is not None:
            keep = [k for k, (w, _) in enumerate(gold) if len(w) <= config.max_len]
            gold = [gold[k] for k in keep]
            pred = [pred[k] for k in keep]
        gold_tags = [tags for _, tags in gold]
        pred_tags = [tags for _, tags in pred]
        report = {
            "token-accuracy": 100.0 * token_accuracy(gold_tags, pred_tags),
            "sentence-accuracy": 100.0 * sentence_accuracy(gold_tags, pred_tags),
            "sentences": len(gold_tags),
        }
    else:
        gold_corpus, _ = read_treebank(_read_text(args.gold))
        gold_trees = [tree for _, tree in gold_corpus]
        pred_trees = _read_pred_trees(_read_text(args.pred))
        if len(gold_trees) != len(pred_trees):
            raise DataError(f"{len(gold_trees)} gold trees vs {len(pred_trees)} predictions")
        if config.max_len is not None:
            keep = [k for k, t in enumerate(gold_trees) if len(t.leaves()) <= config.max_len]
            gold_trees = [gold_trees[k] for k in keep]
            pred_trees = [pred_trees[k] for k in keep]
        score = score_brackets(gold_trees, pred_trees)
        report = {
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "exact-match": 100.0 * score.exact_match,
            "compared": score.compared,
            "skipped": score.skipped,
        }
    print(render_report(report))
    return 0


# -- diagnose ---------------------------------------------------------------


def cmd_diagnose(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.sentence:  # runs both the sampler and the search, whatever --decoder says
        for decoder in ("mcmc", "astar-full"):
            replace(config, decoder=decoder).validate()
    model = _load_decoding_model(args.model, config)
    if args.context and model.context_mode != "nonterminal":
        # a rule-mode context element is a (rule, child slot) pair, not a label
        raise UsageError(f"--context needs a nonterminal-mode model, not {model.context_mode!r}")
    with file_errors("create", args.out):
        os.makedirs(args.out, exist_ok=True)

    print("depth  discount  concentration  restaurants  customers")
    stats = SeatingStats.collect(model.trie, model.base)
    for depth in range(model.params.depths):
        d, c = model.params.at(depth)
        # entry i counts restaurants with more than i customers: entry 0 the
        # non-empty ones, the sum their customers
        ge = stats.customers_ge[depth] if depth < stats.depths else ()
        count, customers = (int(ge[0]), int(ge.sum())) if len(ge) else (0, 0)
        print(f"{depth:<5}  {d:<8.4f}  {c:<13.4f}  {count:<11}  {customers}")
    print(f"events           {model.trie.num_events}")
    print(f"max-depth        {model.trie.max_depth}")
    print(f"log-posterior    {log_posterior_from_stats(stats, model.params):.6f}")

    def dump_restaurant(restaurant, name: str) -> None:
        path = os.path.join(args.out, f"rank_frequency_{name}.csv")
        rows = sorted(restaurant.customers.items(), key=lambda kv: (-kv[1], kv[0]))
        with file_errors("write", path), open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "count", "rule"])
            for rank, (dish, count) in enumerate(rows, start=1):
                writer.writerow([rank, count, model.grammar.rule_text(dish)])
        print(f"wrote {path} ({len(rows)} dishes)")

    # Rank/frequency dump for the empty-context restaurant (all base dishes),
    # plus any requested context, for plotting frequency against rank.
    dump_restaurant(model.trie.root, "depth0")
    if args.context:
        labels = args.context.split()
        try:
            context = tuple(model.grammar.nonterminals.id(l) for l in labels)
        except KeyError as exc:
            raise DataError(str(exc)) from exc
        chain = model.trie.chain(context)
        if len(chain) == len(context) + 1:
            dump_restaurant(chain[-1], "context")
        else:
            print(f"context {' '.join(labels)!r} has no restaurant in the trie")

    if args.sentence:
        words = args.sentence.split()
        mapped = model.mapper.map_sentence(words)
        rng = np.random.default_rng(config.seed)
        hg = build_hypergraph(model.grammar, mapped)
        chart = inside(model.pcfg, mapped, hg.derivations)
        root_log = sentence_log_prob(model.pcfg, chart)
        print(f"sentence-inside-logprob {root_log:.6f}")
        if root_log == NEG_INF:
            raise DataError("sentence has no parse under the model grammar")
        print(f"hypergraph-nodes {len(hg.nodes)}")
        stats, samples, trace = mh_sample(
            model, mapped, config.iters, config.burn_in, rng, chart
        )
        trace_path = os.path.join(args.out, "acceptance_trace.csv")
        with file_errors("write", trace_path), open(trace_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "accepted", "cumulative_rate"])
            accepted = 0
            for t, ok in enumerate(trace):
                accepted += int(ok)
                writer.writerow([t, int(ok), f"{accepted / (t + 1):.6f}"])
        print(f"wrote {trace_path} ({len(trace)} iterations)")
        print(f"acceptance-rate {stats.acceptance_rate:.4f}")
        modal, count = most_frequent_tree(samples)
        print(f"modal-sample-count {count}")
        print(f"modal-sample {write_tree(modal)}")
        result = astar_parse(model, hg, chart, "full", config.beam)
        print(
            f"astar-full pops={result.pops} pushes={result.pushes} "
            f"max-queue={result.max_queue} evictions={result.evictions} "
            f"fallback={result.used_fallback}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    # No command makes a reference cycle per input, so the cyclic collector
    # would only rescan the model's restaurants: it is off while a command
    # runs, and handed back as the caller had it.
    collecting = gc.isenabled()
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "train": cmd_train,
            "predict": cmd_predict,
            "evaluate": cmd_evaluate,
            "diagnose": cmd_diagnose,
        }[args.command]
        gc.disable()
        code = handler(args)
        sys.stdout.flush()  # so a reader that left shows here, not at exit
        return code
    except BrokenPipeError:  # stdout goes to devnull, so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("data error: standard output closed", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
