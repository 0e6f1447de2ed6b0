#!/usr/bin/env python3
"""hpyparse benchmark: train and decode one seeded workload through the CLI.

Usage (from the repository root):

    python3 hpybench/run.py --workload tag-astar --seed 1 --seconds 10 --trace 0

One process runs one workload. It generates the workload's training and
held-out files from ``--seed`` under ``.bench_work/``, then drives the
real command line in-process with ``hpyparse.cli.main``: ``train`` on the
training file, ``predict`` on the held-out sentences. The client is a
closed loop: one caller, ``workers`` = 1, each sentence decoded after the
previous one.

``--trace 0`` measures the end-to-end metrics. ``train`` is run
``setup_reps`` times. ``predict`` is then run over the whole held-out set,
pass after pass, until ``--seconds`` have passed and at least
``min_passes`` passes are done; each pass loads the model afresh, so each
starts with a cold cache. Set-up is the median ``train`` time plus the
median time of the model load that starts each pass. Sentence latency is
timed around ``cli._decode_one`` and averaged over the passes before the
percentiles are taken; throughput is sentences over decode time, pooled.

Every reported time is taken at the reference speed. On a shared host the
CPU speed of one process swings by up to 2x in phases of a few seconds,
which no run length averages away. So the benchmark times a fixed piece
of its own work, ``reference_work``, between sentences and scales each
sentence's wall time by ``REFERENCE_MS`` over the mean of the readings
just before and after it: the time the sentence takes when the reference
work takes ``REFERENCE_MS``. Set-up, whose calls last seconds, is scaled
by the run's median reading. The program never runs the reference work,
so a change to the program moves only the times it is compared with. The
raw wall times are in the details line.

``--trace 1`` trains and predicts three times: untraced, with every layer
wrapped (see ``tracing.py``), and untraced again. It checks that all
three give the same model and prediction bytes and reports the per-layer
metrics.

Every run checks its outputs: each prediction line parses, yields the
input words (parse) or one tag per word (tag), and every pass and the
traced run give byte-identical predictions. The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` (sentences), and
``metrics``. The line before it holds the details: accuracy figures,
sample counts, the predictions' SHA-256 and the environment. Both are
also written to ``.bench_out/``. The exit code is 1 when a check fails
and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"


def _load_program() -> None:
    if not (SRC / "hpyparse" / "cli.py").is_file():
        print(f"hpybench: no hpyparse sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    # One client decodes one sentence at a time. A BLAS thread pool would
    # spin on the machine's other core after each call and slow this one.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


_load_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hpyparse.cli  # noqa: E402
from hpyparse.cli import NO_PARSE, main  # noqa: E402
from hpyparse.errors import DataError  # noqa: E402
from hpyparse.metrics import score_brackets, sentence_accuracy, token_accuracy  # noqa: E402
from hpyparse.trees import Tree, read_tag_corpus, read_tree  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SIZES = {"full": workloads.FULL, "tiny": workloads.TINY}


# -- driving the CLI ------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """``main(argv)`` with stdout/stderr captured; returns (code, out, err, wall)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


class Files:
    """The generated inputs of one run and the command lines that use them."""

    def __init__(self, workload: workloads.Workload, directory: Path):
        directory.mkdir(parents=True)
        train, test = directory / "train.txt", directory / "test.txt"
        self.model, self.pred = directory / "model.bin", directory / "pred.txt"
        train.write_text(workload.train_text, encoding="utf-8")
        test.write_text(workload.test_text, encoding="utf-8")
        self.train_argv = ["train", str(train), "--model", str(self.model),
                           "--task", workload.task]
        self.predict_argv = ["predict", str(test), "--model", str(self.model),
                             "--output", str(self.pred), *workload.predict_flags]


# About the reference work's median time on a 2-vCPU Intel Xeon under
# Python 3.11 (1.5 to 2.2 ms there, by the phase), so that times read
# close to wall time there. It is a fixed unit: changing it rescales every
# time the benchmark reports.
REFERENCE_MS = 1.8


def reference_work() -> float:
    """A fixed piece of interpreter work (dict, float, str): the speed yardstick."""
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(4000):
        counts[i & 63] = counts.get(i & 63, 0) + i
        total += (i * 0.5) % 7.0 + len(str(i))
    return total


def reference_ms() -> float:
    """Wall time of one run of ``reference_work``, in ms.

    The collector is off while it runs, so that a collection of the
    program's garbage does not land in the reading.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return 1000 * (time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()


class Timers:
    """Times taken outside the program, per sentence and per model load.

    Each sentence is bracketed by reference readings: ``latencies`` holds
    its time at the reference speed, ``raw_latencies`` its wall time.
    ``loads`` holds load wall times, ``readings`` every reading and
    ``reference_s`` the wall time the readings took.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.loads: list[float] = []
        self.readings: list[float] = []
        self.reference_s = 0.0
        self._last_reading: float | None = None

    def read_reference(self) -> float:
        start = time.perf_counter()
        reading = reference_ms()
        self.reference_s += time.perf_counter() - start
        self.readings.append(reading)
        self._last_reading = reading
        return reading

    def speed(self) -> float:
        """Reference over the run's median reading: the scale for longer steps.

        A train or load call runs for a second or more, through several
        speed phases, so the readings right around it tell little; it is
        scaled by the speed over the whole run instead.
        """
        return REFERENCE_MS / statistics.median(self.readings)

    @contextlib.contextmanager
    def installed(self):
        decode, load = hpyparse.cli._decode_one, hpyparse.cli.load_model_file

        def timed_decode(*args):
            before = self._last_reading
            if before is None:
                before = self.read_reference()
            start = time.perf_counter()
            outcome = decode(*args)
            wall = time.perf_counter() - start
            after = self.read_reference()
            self.latencies.append(wall * REFERENCE_MS / ((before + after) / 2))
            self.raw_latencies.append(wall)
            return outcome

        def timed_load(*args):
            start = time.perf_counter()
            model = load(*args)
            self.loads.append(time.perf_counter() - start)
            self._last_reading = None  # stale: the first sentence takes a fresh one
            return model

        hpyparse.cli._decode_one = timed_decode
        hpyparse.cli.load_model_file = timed_load
        try:
            yield self
        finally:
            hpyparse.cli._decode_one = decode
            hpyparse.cli.load_model_file = load


# -- checking and scoring ---------------------------------------------------------


class Checks:
    """Collects failed output checks; a run with any is not correct."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def count_failed(code: int, err: str, sentences: int) -> int:
    """Failed sentences of one predict call: all on a non-zero exit, else NO-PARSE lines."""
    if code != 0:
        return sentences
    return sum(line.endswith(" NO-PARSE") for line in err.splitlines())


def score(workload: workloads.Workload, text: str, checks: Checks) -> dict[str, float]:
    """Check every prediction line, then score accuracy and exact match."""
    lines = text.splitlines()
    sentences = workload.sentences
    checks.require(len(lines) == len(sentences),
                   f"{len(lines)} prediction lines for {len(sentences)} sentences")
    if workload.task == "tag":
        predicted: list[list[str]] = []
        for k, (line, words) in enumerate(zip(lines, sentences)):
            try:
                [(got_words, tags)] = read_tag_corpus(line)
            except (DataError, ValueError):
                checks.require(False, f"sentence {k}: unreadable tag line {line!r}")
                got_words, tags = words, [""] * len(words)
            checks.require(got_words == words and len(tags) == len(words),
                           f"sentence {k}: tagged words differ from the input")
            predicted.append(tags if len(tags) == len(words) else [""] * len(words))
        gold = workload.gold_tags[: len(predicted)]
        return {"accuracy": token_accuracy(gold, predicted),
                "exact_match": sentence_accuracy(gold, predicted)}
    trees: list[Tree] = []
    for k, (line, words) in enumerate(zip(lines, sentences)):
        if line.strip() == NO_PARSE:
            trees.append(Tree("NO-PARSE", list(words)))  # no brackets: scores zero recall
            continue
        try:
            tree = read_tree(line)
        except DataError:
            checks.require(False, f"sentence {k}: unreadable tree {line!r}")
            tree = Tree("NO-PARSE", list(words))
        checks.require(tree.leaves() == words, f"sentence {k}: tree yield differs from the input")
        trees.append(tree)
    result = score_brackets(workload.gold_trees[: len(trees)], trees)
    return {"accuracy": result.f1 / 100.0, "exact_match": result.exact_match}


def environment() -> dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two kinds of run ---------------------------------------------------------


def measure(workload, files: Files, size: workloads.Size, seconds: float, checks: Checks):
    """End-to-end run: repeated set-up, then predict passes for ``seconds``."""
    timers = Timers()
    train_walls: list[float] = []
    n = len(workload.sentences)
    attempted = failed = 0
    digest = ""
    quality: dict[str, float] = {}
    passes: list[tuple[float, float, list[float]]] = []  # (scaled s, wall s, sentence latencies)
    with timers.installed():
        for _ in range(size.setup_reps):
            code, _, err, wall = run_cli(files.train_argv)
            checks.require(code == 0, f"train exited {code}: {err.strip()[-300:]}")
            if code != 0:
                return None
            train_walls.append(wall)

        first: bytes | None = None
        deadline = time.perf_counter() + seconds
        while len(passes) < size.min_passes or time.perf_counter() < deadline:
            loads_before, decoded_before = len(timers.loads), len(timers.latencies)
            reference_before = timers.reference_s
            code, _, err, wall = run_cli(files.predict_argv)
            attempted += n
            failed += count_failed(code, err, n)
            checks.require(code == 0, f"predict exited {code}: {err.strip()[-300:]}")
            if code != 0:
                break
            # Decode wall: the pass without its model load and reference
            # readings, scaled by the speed its sentences ran at.
            decode_wall = (wall - sum(timers.loads[loads_before:])
                           - (timers.reference_s - reference_before))
            scale = (sum(timers.latencies[decoded_before:])
                     / sum(timers.raw_latencies[decoded_before:]))
            passes.append((decode_wall * scale, decode_wall, timers.latencies[decoded_before:]))
            got = files.pred.read_bytes()
            if first is None:
                first = got
                digest = hashlib.sha256(got).hexdigest()
                quality = score(workload, got.decode("utf-8"), checks)
            checks.require(got == first, f"pass {len(passes)} predictions differ from pass 1")

    # Every pass decodes the whole held-out set in the same order; a
    # sentence's latency is its mean over the passes (usually one: the
    # held-out set alone takes longer than ``--seconds`` to decode).
    metrics = {}
    if passes:
        latencies = [statistics.fmean(times) for times in zip(*(lat for _, _, lat in passes))]
        metrics = {
            "setup_s": ((statistics.median(train_walls) + statistics.median(timers.loads))
                        * timers.speed(), "s"),
            "sent_per_s": (len(passes) * n / sum(s for s, _, _ in passes), "1/s"),
            "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "latency_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[-1], "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "accuracy": (quality.get("accuracy", 0.0), "ratio"),
        }
    raw = [statistics.fmean(times) for times in zip(*(
        timers.raw_latencies[k * n:(k + 1) * n] for k in range(len(passes))))]
    details = {
        "passes": len(passes),
        "sentences": n,
        "latency_percentile_samples": n if passes else 0,  # per-sentence means over the passes
        "pass_s": [s for s, _, _ in passes],
        "exact_match": quality.get("exact_match"),
        "failed_frac": failed / attempted if attempted else 0.0,
        "predictions_sha256": digest,
        "reference_ms": REFERENCE_MS,
        "reference_median_ms": statistics.median(timers.readings) if timers.readings else None,
        "wall": {
            "train_s": train_walls,
            "load_s": timers.loads,
            "pass_s": [w for _, w, _ in passes],
            "latency_p50_ms": 1000 * statistics.median(raw) if raw else None,
            "latency_p90_ms": 1000 * statistics.quantiles(raw, n=10)[-1] if len(raw) > 1 else None,
        },
    }
    return metrics, attempted, failed, details


def traced(workload, files: Files, checks: Checks, seed: int):
    """Per-layer run: untraced, traced, untraced train+predict; outputs must match.

    ``trace.overhead_frac`` compares the traced wall with the mean of the
    untraced walls before and after it, so that neither first-run costs
    (imports, allocator growth) nor a drift in machine speed fall on one
    side only.
    """
    n = len(workload.sentences)
    attempted = failed = 0
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    outputs: list[tuple[str, bytes, bytes]] = []
    tracer = tracing.Tracer()
    for mode in ("untraced", "traced", "untraced"):
        if mode == "traced":
            wrap, restore = tracer.wrap, tracing.install(tracer)
        else:
            wrap, restore = (lambda name, fn: fn), (lambda: None)
        try:
            tracer.phase = "train"
            code, _, err, train_wall = wrap("cli.train", run_cli)(files.train_argv)
            checks.require(code == 0, f"{mode} train exited {code}: {err.strip()[-300:]}")
            if code != 0:
                return None
            model_bytes = files.model.read_bytes()
            tracer.phase = "predict"
            code, _, err, predict_wall = wrap("cli.predict", run_cli)(files.predict_argv)
        finally:
            restore()
        attempted += n
        failed += count_failed(code, err, n)
        checks.require(code == 0, f"{mode} predict exited {code}: {err.strip()[-300:]}")
        if code != 0:
            return None
        walls[mode].append(train_wall + predict_wall)
        outputs.append((mode, model_bytes, files.pred.read_bytes()))

    _, model_u, pred_u = outputs[0]
    for k, (mode, model, pred) in enumerate(outputs[1:], start=2):
        checks.require(model == model_u, f"run {k} ({mode}) wrote different model bytes than run 1")
        checks.require(pred == pred_u, f"run {k} ({mode}) predictions differ from run 1's")
    untraced_s, traced_s = statistics.fmean(walls["untraced"]), walls["traced"][0]
    quality = score(workload, pred_u.decode("utf-8"), checks)
    metrics = tracing.layer_metrics(tracer)
    metrics["serialize.model_bytes"] = (len(model_u), "bytes")
    metrics["quality.exact_match"] = (quality["exact_match"], "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}-spans.jsonl"
    tracer.write_spans(str(spans_path))
    details = {
        "sentences": n,
        "accuracy": quality["accuracy"],
        "exact_match": quality["exact_match"],
        "failed_frac": failed / attempted,
        "predictions_sha256": hashlib.sha256(pred_u).hexdigest(),
        "model_sha256": hashlib.sha256(model_u).hexdigest(),
        "untraced_s": walls["untraced"],
        "traced_s": traced_s,
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, attempted, failed, details


def main_bench(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    size = SIZES[args.size]
    workload = workloads.build(args.workload, args.seed, size)
    checks = Checks()
    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    files = Files(workload, run_dir)
    try:
        if args.trace:
            outcome = traced(workload, files, checks, args.seed)
        else:
            outcome = measure(workload, files, size, args.seconds, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    if outcome is None:
        metrics, attempted, failed, details = {}, len(workload.sentences), len(workload.sentences), {}
    else:
        metrics, attempted, failed, details = outcome
    correct = not checks.problems and bool(metrics)
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "problems": checks.problems,
        "environment": environment(),
    })
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"details": details, "result": result}, indent=1), encoding="utf-8")
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main_bench())
