import dataclasses
import functools
import gc
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import hpyparse.cli
import hpyparse.model
from hpyparse.cli import _decode_one, main
from hpyparse.config import RunConfig
from hpyparse.errors import DataError
from hpyparse.hpyp import ContextTrie
from hpyparse.pcfg import cyk_viterbi
from hpyparse.serialize import load_model_file
from hpyparse.synthetic import TagChainSpec, generate_tag_corpus
from hpyparse.transforms import unbinarize_right
from hpyparse.trees import replace_leaves, write_tagged, write_tree

from .conftest import AMBIGUOUS_SENTENCE

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
TRAIN = os.path.join(DATA, "toy_parse_train.mrg")
GOLD = os.path.join(DATA, "toy_parse_test.mrg")
SENTS = os.path.join(DATA, "toy_parse_test_sentences.txt")
TAG_TRAIN = os.path.join(DATA, "toy_tag_train.txt")
TAG_GOLD = os.path.join(DATA, "toy_tag_test.txt")
TAG_SENTS = os.path.join(DATA, "toy_tag_test_sentences.txt")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "toy.model")
    code = main(["train", TRAIN, "--model", path, "--rare-threshold", "0"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def synthetic_tag(tmp_path_factory):
    """(model path, sentences path, longest training sentence) for a seeded
    synthetic tag chain, whose tags need more than one level of context."""
    root = tmp_path_factory.mktemp("synthetic")
    rng = np.random.default_rng(5)
    train = generate_tag_corpus(150, rng)
    test = generate_tag_corpus(12, rng, TagChainSpec(min_len=6, max_len=9))
    train_path = root / "train.txt"
    train_path.write_text("".join(write_tagged(w, t) + "\n" for w, t in train))
    sents_path = root / "sents.txt"
    sents_path.write_text("".join(" ".join(w) + "\n" for w, _ in test))
    model = str(root / "tag.model")
    assert main(["train", str(train_path), "--model", model, "--task", "tag"]) == 0
    return model, str(sents_path), max(len(w) for w, _ in train)


def test_train_reports_stats(tmp_path, capsys):
    path = str(tmp_path / "m.model")
    code, out, _ = run(["train", TRAIN, "--model", path, "--rare-threshold", "0"], capsys)
    assert code == 0
    assert os.path.exists(path)
    stats = dict(
        line.split(maxsplit=1) for line in out.strip().splitlines() if line.strip()
    )
    assert int(stats["trees"]) == 12
    assert int(stats["events"]) > 0
    assert int(stats["max-depth"]) >= 4
    float(stats["final-objective"])


def test_retraining_is_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    run(["train", TRAIN, "--model", a, "--seed", "7"], capsys)
    run(["train", TRAIN, "--model", b, "--seed", "7"], capsys)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_predict_cyk_matches_library_call(trained, tmp_path, capsys):
    out_path = str(tmp_path / "pred.txt")
    code, _, err = run(
        ["predict", SENTS, "--model", trained, "--decoder", "cyk", "--output", out_path],
        capsys,
    )
    assert code == 0
    model = load_model_file(trained)
    with open(SENTS) as fh:
        sentences = [line.split() for line in fh if line.strip()]
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == len(sentences)
    for words, line in zip(sentences, lines):
        direct = cyk_viterbi(model.pcfg, model.mapper.map_sentence(words))
        expected = write_tree(unbinarize_right(replace_leaves(direct, words)))
        assert line == expected
    assert "[0]" in err  # per-sentence timing log


def test_predict_mcmc_deterministic_with_seed(trained, tmp_path, capsys):
    outputs = []
    for name in ("one.txt", "two.txt"):
        out_path = str(tmp_path / name)
        code, _, err = run(
            [
                "predict", SENTS, "--model", trained,
                "--decoder", "mcmc", "--iters", "80", "--burn-in", "20",
                "--seed", "11", "--output", out_path,
            ],
            capsys,
        )
        assert code == 0
        assert "accept-rate=" in err
        with open(out_path) as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


def test_predict_astar_runs(trained, tmp_path, capsys):
    out_path = str(tmp_path / "astar.txt")
    code, _, err = run(
        ["predict", SENTS, "--model", trained, "--decoder", "astar-local",
         "--beam", "64", "--output", out_path],
        capsys,
    )
    assert code == 0
    assert "pops=" in err
    with open(out_path) as fh:
        assert len(fh.read().splitlines()) == 4


def test_predict_unparseable_emits_sentinel(trained, tmp_path, capsys):
    weird = str(tmp_path / "weird.txt")
    with open(weird, "w") as fh:
        fh.write("the dog zzz\n")
    # rare-threshold 0 leaves no signatures, so an unseen word cannot parse
    code, out, err = run(
        ["predict", weird, "--model", trained, "--decoder", "cyk"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["(())"]
    assert "NO-PARSE" in err


def test_predict_with_worker_pool(trained, tmp_path, capsys):
    config = str(tmp_path / "pool.conf")
    with open(config, "w") as fh:
        fh.write("workers=2\n")
    pooled = str(tmp_path / "pooled.txt")
    serial = str(tmp_path / "serial.txt")
    base = ["predict", SENTS, "--model", trained, "--decoder", "mcmc",
            "--iters", "60", "--burn-in", "10", "--seed", "4"]
    code, _, _ = run(base + ["--config", config, "--output", pooled], capsys)
    assert code == 0
    code, _, _ = run(base + ["--output", serial], capsys)
    assert code == 0
    with open(pooled) as fa, open(serial) as fb:
        assert fa.read() == fb.read()


def _bracket_word_sentences(tmp_path, model):
    path = tmp_path / "bracket.txt"
    path.write_text("the dog ran\nthe (dog ran\n")
    return ["predict", str(path), "--model", model]


def _corrupted_model(tmp_path, model):
    with open(model, "rb") as fh:
        data = fh.read()
    path = tmp_path / "corrupted.model"
    path.write_bytes(data[: len(data) // 2])
    return ["predict", SENTS, "--model", str(path)]


@pytest.mark.parametrize(
    "command, exit_code",
    [
        (lambda tmp_path, model: ["predict", SENTS, "--model", model,
                                  "--output", str(tmp_path / "pred.txt")], 0),
        (_bracket_word_sentences, 2),  # refused after the model has loaded
        (_corrupted_model, 2),  # refused while the model loads
        (lambda tmp_path, model: ["diagnose", "--model", model, "--out", str(tmp_path / "diag"),
                                  "--sentence", "the dog saw the cat with the hat",
                                  "--iters", "20", "--burn-in", "2"], 0),
        (lambda tmp_path, model: ["train", TRAIN, "--model", str(tmp_path / "m.model")], 0),
        (lambda tmp_path, model: ["evaluate", GOLD, GOLD], 0),
    ],
    ids=["predict", "predict-data-error", "predict-corrupted-model", "diagnose-sentence",
         "train", "evaluate"],
)
def test_decoding_commands_hand_the_collector_back(trained, tmp_path, capsys, command, exit_code):
    before = gc.get_freeze_count(), gc.isenabled()
    code, _, err = run(command(tmp_path, trained), capsys)
    assert code == exit_code, err
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def _internal_error(*args):
    raise RuntimeError("decoder fault")


@pytest.mark.parametrize("exit_code", [0, 1, 2, 3])
def test_main_hands_back_the_callers_collector_state(trained, tmp_path, capsys, monkeypatch, exit_code):
    """Whatever the exit code, main leaves the collector on or off as the
    caller had it, and the objects the caller froze stay frozen: outside
    the collected generations, so not in ``gc.get_objects()``. (The freeze
    count itself can fall while main runs, as frozen cache entries such as
    ``re``'s are replaced.)"""
    bracket = tmp_path / "bracket.txt"
    bracket.write_text("the (dog ran\n")
    args = {
        0: ["predict", SENTS, "--model", trained],
        1: ["predict", SENTS, "--model", trained, "--task", "tag"],  # refused after the load
        2: ["predict", str(bracket), "--model", trained],
        3: ["predict", SENTS, "--model", trained],
    }[exit_code]
    if exit_code == 3:
        monkeypatch.setattr(hpyparse.cli, "_decode_one", _internal_error)
    callers = [[] for _ in range(100)]
    gc.freeze()
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            code, _, err = run(args, capsys)
            assert code == exit_code, err
            assert gc.isenabled() == collecting
            tracked = {id(obj) for obj in gc.get_objects()}
            assert not any(id(obj) in tracked for obj in callers)
    finally:
        gc.unfreeze()
        gc.enable()


def test_the_collector_is_off_while_sentences_decode(trained, capsys, monkeypatch):
    seen = []

    def load(path):
        seen.append(("load", gc.isenabled(), gc.get_freeze_count()))
        return load_model_file(path)

    def decode(model, *args):
        seen.append(("decode", gc.isenabled(), gc.get_freeze_count()))
        return _decode_one(model, *args)

    monkeypatch.setattr(hpyparse.cli, "_decode_one", decode)
    monkeypatch.setattr(hpyparse.cli, "load_model_file", load)
    frozen = gc.get_freeze_count()
    code, _, _ = run(["predict", SENTS, "--model", trained, "--decoder", "cyk"], capsys)
    assert code == 0
    try:  # a pool worker that was not forked starts with the collector on
        hpyparse.cli._pool_init(trained, RunConfig(decoder="cyk"))
        hpyparse.cli._pool_decode((0, ["the", "dog", "ran"]))
    finally:
        hpyparse.cli._WORKER_STATE.clear()
        gc.enable()
    with open(SENTS) as fh:
        sentences = sum(1 for line in fh if line.strip())
    assert [step for step, _, _ in seen] == ["load"] + ["decode"] * sentences + ["load", "decode"]
    assert all(not collecting and count == frozen for _, collecting, count in seen)


def _repeated(tmp_path, path, times):
    """A new file holding ``path``'s lines ``times`` times over."""
    with open(path) as fh:
        text = fh.read()
    repeated = tmp_path / f"{times}x_{os.path.basename(path)}"
    repeated.write_text(text * times)
    return str(repeated)


def _pool_config(tmp_path):
    config = tmp_path / "pool.conf"
    config.write_text("workers=2\n")
    return str(config)


def _predict(decoder, pooled=False):
    def command(tmp_path, model, times):
        args = ["predict", _repeated(tmp_path, SENTS, times), "--model", model, "--decoder", decoder]
        if decoder == "mcmc":
            args += ["--iters", "30", "--burn-in", "5", "--seed", "2"]
        return args + (["--config", _pool_config(tmp_path)] if pooled else [])

    return command


@pytest.mark.parametrize(
    "command, sizes",
    [
        (lambda tmp_path, model, times: ["train", _repeated(tmp_path, TRAIN, times),
                                         "--model", str(tmp_path / "m.model")], (1, 3)),
        (_predict("mcmc"), (1, 4)),
        (_predict("astar-full"), (1, 4)),
        (_predict("mcmc", pooled=True), (1, 4)),
        (_predict("astar-full", pooled=True), (1, 4)),
        (lambda tmp_path, model, times: ["diagnose", "--model", model, "--out", str(tmp_path / "diag"),
                                         "--sentence", "the dog saw the cat with the hat",
                                         "--iters", str(30 * times), "--burn-in", "5"], (1, 4)),
        (lambda tmp_path, model, times: ["evaluate", _repeated(tmp_path, GOLD, times),
                                         _repeated(tmp_path, GOLD, times)], (1, 4)),
    ],
    ids=["train", "predict-mcmc", "predict-astar", "predict-mcmc-pool", "predict-astar-pool",
         "diagnose-sentence", "evaluate"],
)
def test_commands_make_no_reference_cycles_per_input(trained, tmp_path, capsys, command, sizes):
    """Run with the collector off, a command leaves the same cyclic garbage
    at both input sizes (copies of the toy inputs, or diagnose's chain
    length), so memory does not grow with the input without the collector."""
    run(command(tmp_path, trained, sizes[0]), capsys)  # lazy imports and caches fill
    garbage = []
    for times in sizes:
        args = command(tmp_path, trained, times)
        gc.collect()
        gc.disable()
        try:
            code, _, err = run(args, capsys)
            garbage.append(gc.collect())
        finally:
            gc.enable()
        assert code == 0, err
    assert garbage[0] == garbage[1]


def test_worker_pool_is_capped_by_sentences_and_cpus(trained, tmp_path, capsys, monkeypatch):
    # A fork pool starts every worker it is given at once, so the pool size
    # is bounded before it is made; no real pool is started here.
    pools = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(hpyparse.cli, "ProcessPoolExecutor", FakePool)
    base = ["predict", SENTS, "--model", trained, "--decoder", "cyk"]
    code, serial, _ = run(base, capsys)
    assert code == 0 and pools == []
    for workers, cpus, started in [(5000, 3, [3]), (5000, 64, [4]), (2, 64, [2]), (5000, 1, [])]:
        config = tmp_path / "pool.conf"
        config.write_text(f"workers={workers}\n")
        monkeypatch.setattr(hpyparse.cli, "_available_cpus", lambda: cpus)
        pools.clear()
        code, out, _ = run(base + ["--config", str(config)], capsys)
        assert code == 0
        assert pools == started
        assert out == serial


def test_parse_predict_refuses_bracket_words_before_any_output(tmp_path, capsys):
    # Under the default rare threshold "(" maps to a signature and decodes,
    # but a tree leaf "(" could not be read back.
    model = str(tmp_path / "toy.model")
    code, _, _ = run(["train", TRAIN, "--model", model], capsys)
    assert code == 0
    sents = tmp_path / "sents.txt"
    sents.write_text("the dog ran\n\nthe ( ran\n")
    code, out, err = run(["predict", str(sents), "--model", model], capsys)
    assert code == 2 and out == ""
    assert f"{sents} line 3" in err
    pred = tmp_path / "pred.txt"
    code, _, _ = run(["predict", str(sents), "--model", model, "--output", str(pred)], capsys)
    assert code == 2 and not pred.exists()


def test_tag_predict_keeps_bracket_words(synthetic_tag, tmp_path, capsys):
    model, _, _ = synthetic_tag
    sents = tmp_path / "sents.txt"
    sents.write_text("u ( v)\n")
    code, out, _ = run(["predict", str(sents), "--model", model, "--decoder", "cyk"], capsys)
    assert code == 0
    assert [token.rsplit("/", 1)[0] for token in out.split()] == ["u", "(", "v)"]


def test_config_context_cap_reaches_every_worker(synthetic_tag, tmp_path, capsys):
    model, sents, _ = synthetic_tag
    base = ["predict", sents, "--model", model, "--decoder", "astar-full", "--beam", "64"]
    outputs = {}
    for name, lines in [
        ("uncapped", ""),
        ("serial", "context_cap=1\n"),
        ("pooled", "context_cap=1\nworkers=2\n"),
    ]:
        config = tmp_path / f"{name}.conf"
        config.write_text(lines)
        out = tmp_path / f"{name}.txt"
        code, _, _ = run(base + ["--config", str(config), "--output", str(out)], capsys)
        assert code == 0
        outputs[name] = out.read_text()
    assert outputs["pooled"] == outputs["serial"]
    assert outputs["serial"] != outputs["uncapped"]  # the cap is felt on this input


def test_expansion_cache_is_bounded_by_stored_restaurants(synthetic_tag):
    path, sents, longest_training = synthetic_tag
    model = load_model_file(path)
    with open(sents) as fh:
        sentences = [line.split() * 2 for line in fh if line.strip()]
    assert min(len(words) for words in sentences) > longest_training
    configs = [
        RunConfig(task="tag", decoder="astar-full", beam=64),
        RunConfig(task="tag", decoder="mcmc", iters=40, burn_in=5, seed=2),
    ]

    def decode_all():
        for config in configs:
            for i, words in enumerate(sentences):
                assert _decode_one(model, words, config, i).parsed

    def memo_keys():
        folds = {(lhs, restaurant) for lhs, memo in model._folds.items() for restaurant in memo}
        return [set(model._expansion_cache), set(model._paths), set(model._steps), folds]

    decode_all()
    keys = memo_keys()
    assert all(keys)
    stored = {id(node) for _, _, node in model.trie.iter_restaurants()}
    cached, paths, steps, folds = keys
    assert all(id(key[0]) in stored for key in cached | steps)
    assert all(id(restaurant) in stored for _, restaurant in folds)
    assert all(id(restaurant) in stored for restaurant in paths)
    assert all(id(model._steps[key]) in stored for key in steps)
    decode_all()
    assert memo_keys() == keys


def test_each_expansion_cache_miss_is_one_trie_fold(toy_corpus, toy_model, monkeypatch):
    # the benchmark counts ``ContextTrie.predictive_probs`` calls as misses
    model = dataclasses.replace(toy_model)
    real = ContextTrie.predictive_probs
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ContextTrie, "predictive_probs", counted)
    for config in [
        RunConfig(decoder="astar-full"),
        RunConfig(decoder="mcmc", iters=40, burn_in=5, seed=2),
    ]:
        for i, (words, _) in enumerate(toy_corpus):
            assert _decode_one(model, list(words), config, i).parsed
    assert len(calls) == len(model._expansion_cache) > 0


def test_predict_writes_each_line_as_its_sentence_is_decoded(
    trained, tmp_path, capsys, monkeypatch
):
    decode = hpyparse.cli._decode_one

    def fail_second(model, words, config, index):
        if index == 1:
            raise DataError("stop")
        return decode(model, words, config, index)

    monkeypatch.setattr(hpyparse.cli, "_decode_one", fail_second)
    out_path = str(tmp_path / "out.txt")
    code, _, err = run(["predict", SENTS, "--model", trained, "--output", out_path], capsys)
    assert code == 2
    with open(out_path) as fh:
        assert len(fh.read().splitlines()) == 1  # the first sentence's line
    assert err.startswith("[0] ")


@pytest.mark.parametrize("decoder", ["cyk", "astar-full", "astar-local", "mcmc"])
def test_decoding_enumerates_derivations_once_per_sentence(toy_model, derivation_calls, decoder):
    config = RunConfig(decoder=decoder, iters=30, burn_in=5)
    for index, line in enumerate(["the dog ran", " ".join(AMBIGUOUS_SENTENCE)]):
        derivation_calls.clear()
        outcome = _decode_one(toy_model, line.split(), config, index)
        assert outcome.parsed and "fallback" not in outcome.note
        assert len(derivation_calls) == 1


def test_importing_the_cli_leaves_scipy_unloaded():
    # only ``train`` fits depth parameters, so only it pays for scipy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, hpyparse.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("command", [["evaluate", GOLD, GOLD], ["predict", SENTS, "--model", "{trained}"]])
def test_a_closed_standard_output_is_a_data_error(trained, command):
    # the reader leaves before the child writes: the pipe's read end is closed first
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys; from hpyparse.cli import main; sys.exit(main())"
    args = [arg.format(trained=trained) for arg in command]
    try:
        child = subprocess.run(
            [sys.executable, "-c", code, *args], stdout=write_end, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write_end)
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert err.endswith("data error: standard output closed\n")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_predict_task_mismatch_is_usage_error(trained, capsys):
    code, _, err = run(
        ["predict", SENTS, "--model", trained, "--task", "tag"], capsys
    )
    assert code == 1
    assert "task" in err


def test_evaluate_gold_vs_itself_is_perfect(capsys):
    code, out, _ = run(["evaluate", GOLD, GOLD], capsys)
    assert code == 0
    assert "f1=100.000000" in out
    assert "exact-match=100.000000" in out


def test_evaluate_fixture_through_cli(tmp_path, capsys):
    gold = str(tmp_path / "gold.mrg")
    pred = str(tmp_path / "pred.mrg")
    with open(gold, "w") as fh:
        fh.write(
            "(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (NP (DT the) (NN cat)) (PP (IN with) (NP (DT the) (NN hat))))))\n"
            "(S (NP (DT a) (NN hat)) (VP (VB fell)))\n"
        )
    with open(pred, "w") as fh:
        fh.write(
            "(S (NP (DT the) (NN dog)) (VP (VP (VB saw) (NP (DT the) (NN cat))) (PP (IN with) (NP (DT the) (NN hat)))))\n"
            "(S (NP (DT a) (NN hat)) (VP (VB fell)))\n"
        )
    code, out, _ = run(["evaluate", gold, pred], capsys)
    assert code == 0
    assert "precision=90.000000" in out
    assert "recall=90.000000" in out
    assert "f1=90.000000" in out


def test_evaluate_max_len_filter(tmp_path, capsys):
    # only the 8-token sentence exceeds 7 tokens: exactly one drops
    code, out, _ = run(["evaluate", GOLD, GOLD, "--max-len", "7"], capsys)
    assert code == 0
    assert "compared=3" in out
    code, out, _ = run(["evaluate", GOLD, GOLD, "--max-len", "4"], capsys)
    assert code == 0
    assert "compared=2" in out


def test_evaluate_tags(capsys):
    code, out, _ = run(["evaluate", TAG_GOLD, TAG_GOLD, "--task", "tag"], capsys)
    assert code == 0
    assert "token-accuracy=100.000000" in out
    assert "sentence-accuracy=100.000000" in out


def test_tag_pipeline_end_to_end(tmp_path, capsys):
    model_path = str(tmp_path / "tag.model")
    code, _, _ = run(
        ["train", TAG_TRAIN, "--model", model_path, "--task", "tag", "--rare-threshold", "0"],
        capsys,
    )
    assert code == 0
    pred_path = str(tmp_path / "tag_pred.txt")
    code, _, _ = run(
        ["predict", TAG_SENTS, "--model", model_path, "--decoder", "cyk",
         "--output", pred_path],
        capsys,
    )
    assert code == 0
    with open(pred_path) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert all("/" in line for line in lines)
    code, out, _ = run(["evaluate", TAG_GOLD, pred_path, "--task", "tag"], capsys)
    assert code == 0
    assert "token-accuracy=" in out


def test_parse_pipeline_composes_on_shipped_fixtures(tmp_path, capsys):
    model_path = str(tmp_path / "m.model")
    pred_path = str(tmp_path / "pred.mrg")
    assert main(["train", TRAIN, "--model", model_path, "--rare-threshold", "0"]) == 0
    assert main(
        ["predict", SENTS, "--model", model_path, "--decoder", "astar-full",
         "--beam", "512", "--output", pred_path]
    ) == 0
    capsys.readouterr()
    code, out, _ = run(["evaluate", GOLD, pred_path], capsys)
    assert code == 0
    assert "f1=" in out and "skipped=0" in out


def test_diagnose_dumps(trained, tmp_path, capsys):
    out_dir = str(tmp_path / "diag")
    code, out, _ = run(
        ["diagnose", "--model", trained, "--out", out_dir,
         "--sentence", "the dog saw the cat with the hat",
         "--iters", "50", "--burn-in", "5", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert "depth  discount" in out
    assert os.path.exists(os.path.join(out_dir, "rank_frequency_depth0.csv"))
    trace = os.path.join(out_dir, "acceptance_trace.csv")
    with open(trace) as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 51  # header + one line per iteration
    assert "acceptance-rate" in out
    assert "astar-full pops=" in out


def test_diagnose_sentence_checks_the_sampler_and_search_settings(trained, tmp_path, capsys):
    # --sentence runs MH and A* whatever --decoder says, so both are checked
    out_dir = tmp_path / "diag"
    diagnose = ["diagnose", "--model", trained, "--out", str(out_dir),
                "--sentence", "the dog saw the cat"]
    for flags in (["--iters", "0", "--burn-in", "-1"], ["--beam", "0"],
                  ["--iters", "3", "--burn-in", "-5"]):
        code, _, err = run(diagnose + flags, capsys)
        assert code == 1, (flags, err)
        assert err.startswith("usage error:")
    assert not out_dir.exists()


def test_diagnose_context_is_refused_on_a_rule_mode_model(trained, tmp_path, capsys):
    # a rule-mode context element is a (rule, child slot) pair, so labels
    # cannot name its restaurants
    rule_model = str(tmp_path / "rule.model")
    assert main(
        ["train", TRAIN, "--model", rule_model, "--context-mode", "rule", "--rare-threshold", "0"]
    ) == 0
    capsys.readouterr()
    for label in ("S", "NP"):
        out_dir = tmp_path / f"rule-{label}"
        code, _, err = run(
            ["diagnose", "--model", rule_model, "--context", label, "--out", str(out_dir)], capsys
        )
        assert code == 1
        assert err.startswith("usage error:") and "'rule'" in err
        assert not (out_dir / "rank_frequency_context.csv").exists()
    out_dir = tmp_path / "nonterminal"
    code, out, _ = run(
        ["diagnose", "--model", trained, "--context", "S", "--out", str(out_dir)], capsys
    )
    assert code == 0
    assert (out_dir / "rank_frequency_context.csv").exists()


def test_diagnose_params_match_model(trained, tmp_path, capsys):
    code, out, _ = run(["diagnose", "--model", trained, "--out", str(tmp_path)], capsys)
    model = load_model_file(trained)
    for depth in range(model.params.depths):
        d, c = model.params.at(depth)
        assert f"{d:.4f}" in out and f"{c:.4f}" in out


def test_config_file_with_cli_override(trained, tmp_path, capsys):
    config = str(tmp_path / "run.conf")
    with open(config, "w") as fh:
        fh.write("decoder=mcmc\niters=60\nburn_in=10\nseed=5\n")
    out_path = str(tmp_path / "out.txt")
    code, _, err = run(
        ["predict", SENTS, "--model", trained, "--config", config,
         "--iters", "70", "--output", out_path],
        capsys,
    )
    assert code == 0
    assert "accept-rate=" in err  # decoder came from the config file


def test_hyperprior_config_keys_reach_training(tmp_path, capsys):
    flat = str(tmp_path / "flat.model")
    tight = str(tmp_path / "tight.model")
    config = str(tmp_path / "prior.conf")
    with open(config, "w") as fh:
        fh.write("gamma_rate=50.0\nbeta_a=3.0\n")
    run(["train", TRAIN, "--model", flat], capsys)
    run(["train", TRAIN, "--model", tight, "--config", config], capsys)
    a = load_model_file(flat)
    b = load_model_file(tight)
    # a strong Gamma rate pulls fitted concentrations toward zero
    assert b.params.concentration.sum() < a.params.concentration.sum()
    assert b.params.gamma_rate[0] == 50.0


def test_bad_config_key_is_usage_error(trained, tmp_path, capsys):
    config = str(tmp_path / "bad.conf")
    predict = ["predict", SENTS, "--model", trained, "--config", config]
    train = ["train", TRAIN, "--model", str(tmp_path / "m"), "--config", config]
    diagnose = ["diagnose", "--model", trained, "--config", config,
                "--sentence", "the dog ran", "--out", str(tmp_path / "diag")]
    for args, text in [
        (predict, "not_a_key=1\n"),
        (predict + ["--seed", "-1"], ""),
        (diagnose + ["--seed", "-1"], ""),
        (train, "beta_a=nan\n"),
        (train, "gamma_rate=inf\n"),
        (train, b"seed=1 # \xff\n"),
    ]:
        with open(config, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        code, _, err = run(args, capsys)
        assert code == 1, (args, text, err)
        assert err.startswith("usage error:")


def test_invalid_decoder_flags_rejected(trained, capsys):
    code, _, _ = run(
        ["predict", SENTS, "--model", trained, "--decoder", "mcmc",
         "--iters", "10", "--burn-in", "10"],
        capsys,
    )
    assert code == 1


def test_missing_input_is_data_error(trained, capsys):
    code, _, err = run(["predict", "/does/not/exist", "--model", trained], capsys)
    assert code == 2


def test_malformed_treebank_is_data_error(tmp_path, capsys):
    bad = str(tmp_path / "bad.mrg")
    with open(bad, "w") as fh:
        fh.write("(S (A a)\n")
    code, _, err = run(["train", bad, "--model", str(tmp_path / "m")], capsys)
    assert code == 2
    assert "line 1" in err


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1
    capsys.readouterr()


def test_train_reports_optimizer_convergence(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "m.model")
    code, out, err = run(["train", TRAIN, "--model", path], capsys)
    assert code == 0
    assert "optimizer-converged  yes" in out.splitlines()
    assert "warning:" not in err

    capped = functools.partial(hpyparse.model.optimize_params, max_iters=1)
    monkeypatch.setattr(hpyparse.model, "optimize_params", capped)
    code, out, err = run(["train", TRAIN, "--model", path], capsys)
    assert code == 0
    assert "optimizer-converged  no" in out.splitlines()
    assert err.startswith("warning:")


def test_garbage_model_is_data_error(tmp_path, capsys):
    garbage = tmp_path / "garbage.model"
    garbage.write_bytes(b"\x00 not a model \xff" * 20)
    code, _, err = run(["predict", SENTS, "--model", str(garbage)], capsys)
    assert code == 2
    assert err.startswith("data error:")


def test_trees_deeper_than_the_recursion_limit_never_exit_3(tmp_path, capsys):
    """train and evaluate on one tree nested 1,500 levels deep, run at
    CPython's default recursion limit, finish or fail as a data error."""
    tree = "(S (A a))"
    for k in range(1, 1500):
        tree = f"(S (A w{k % 5}) {tree})"
    bank = str(tmp_path / "deep.mrg")
    with open(bank, "w") as fh:
        fh.write(tree + "\n")
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        results = [
            run(["train", bank, "--model", str(tmp_path / "deep.model")], capsys),
            run(["evaluate", bank, bank], capsys),
        ]
    finally:
        sys.setrecursionlimit(saved)
    for code, _, err in results:
        assert code == 0 or (code == 2 and err.startswith("data error:")), err


@pytest.mark.parametrize(
    "args",
    [
        ["predict", SENTS, "--model", "{missing}"],
        ["predict", SENTS, "--model", "{dir}"],
        ["diagnose", "--model", "{missing}"],
        ["diagnose", "--model", "{dir}"],
        ["train", "{latin1}", "--model", "{missing}.model"],
        ["train", TRAIN, "--model", "{missing}/m.model"],
        ["train", TRAIN, "--model", "{file}/m.model"],
        ["predict", SENTS, "--model", "{trained}", "--output", "{missing}/out.txt"],
        ["predict", SENTS, "--model", "{trained}", "--output", "{file}/out.txt"],
        ["diagnose", "--model", "{trained}", "--out", "{file}"],
        ["diagnose", "--model", "{trained}", "--out", "{file}/diag"],
        ["diagnose", "--model", "{trained}", "--out", "{blocked_dump}"],
        ["diagnose", "--model", "{trained}", "--out", "{blocked_trace}",
         "--sentence", "the dog saw the cat"],
    ],
)
def test_unreadable_or_unwritable_files_are_data_errors(trained, tmp_path, capsys, args):
    (tmp_path / "file").write_text("not a directory\n")
    # a directory where diagnose writes a CSV dump
    (tmp_path / "blocked_dump" / "rank_frequency_depth0.csv").mkdir(parents=True)
    (tmp_path / "blocked_trace" / "acceptance_trace.csv").mkdir(parents=True)
    (tmp_path / "latin1.mrg").write_bytes("(S (A caf\xe9))\n".encode("latin-1"))
    paths = {
        "latin1": str(tmp_path / "latin1.mrg"),
        "missing": str(tmp_path / "missing"),
        "dir": str(tmp_path),
        "file": str(tmp_path / "file"),
        "trained": trained,
        "blocked_dump": str(tmp_path / "blocked_dump"),
        "blocked_trace": str(tmp_path / "blocked_trace"),
    }
    code, _, err = run([arg.format(**paths) for arg in args], capsys)
    assert code == 2, err
    assert err.startswith("data error:")


def _logged(fn, path, record):
    """``fn``, appending ``record(args)`` and the process id to ``path`` on
    each call; forked pool workers inherit it and append to the same file."""

    def wrapper(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{record(args)} {os.getpid()}\n")
        return fn(*args, **kwargs)

    return wrapper


def test_pool_workers_decode_with_the_parents_model(trained, tmp_path, capsys, monkeypatch):
    # Under fork the workers inherit the model the parent loaded; a worker
    # started another way loads its own.
    loads = tmp_path / "loads.txt"
    monkeypatch.setattr(
        hpyparse.cli, "load_model_file", _logged(load_model_file, loads, lambda args: "load")
    )
    monkeypatch.setattr(hpyparse.cli, "_available_cpus", lambda: 2)
    base = ["predict", SENTS, "--model", trained, "--decoder", "astar-local", "--beam", "16"]
    outputs = {}
    for workers in (1, 2):
        config = tmp_path / f"workers{workers}.conf"
        config.write_text(f"workers={workers}\n")
        out = tmp_path / f"workers{workers}.txt"
        loads.write_text("")
        code, _, _ = run(base + ["--config", str(config), "--output", str(out)], capsys)
        assert code == 0
        outputs[workers] = out.read_bytes()
        pids = [line.split()[1] for line in loads.read_text().splitlines()]
        forked = multiprocessing.get_start_method() == "fork"
        assert len(pids) == (1 if workers == 1 or forked else 1 + workers)
    assert outputs[1] == outputs[2]
    assert hpyparse.cli._WORKER_STATE == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_predict_gives_sentences_over_max_len_no_parse(trained, tmp_path, capsys, monkeypatch, workers):
    built = tmp_path / "built.txt"
    monkeypatch.setattr(
        hpyparse.cli,
        "build_hypergraph",
        _logged(hpyparse.cli.build_hypergraph, built, lambda args: len(args[1])),
    )
    monkeypatch.setattr(hpyparse.cli, "_available_cpus", lambda: 2)
    config = tmp_path / "workers.conf"
    config.write_text(f"workers={workers}\n")
    base = ["predict", SENTS, "--model", trained, "--decoder", "astar-full", "--config", str(config)]
    code, unbounded, _ = run(base, capsys)
    assert code == 0
    built.write_text("")
    code, out, err = run(base + ["--max-len", "3"], capsys)
    assert code == 0
    with open(SENTS) as fh:
        lengths = [len(line.split()) for line in fh if line.strip()]
    assert 3 in lengths and max(lengths) > 3
    err_lines = [line for line in err.splitlines() if line.startswith("[")]
    for n, line, want, note in zip(lengths, out.splitlines(), unbounded.splitlines(), err_lines):
        if n > 3:
            assert line == "(())"
            assert note.endswith("over max-len 3 NO-PARSE")
        else:
            assert line == want and "NO-PARSE" not in note
    assert all(int(line.split()[0]) <= 3 for line in built.read_text().splitlines())


def test_tag_predict_gives_sentences_over_max_len_unk_tags(tmp_path, capsys):
    model = str(tmp_path / "tag.model")
    code, _, _ = run(["train", TAG_TRAIN, "--model", model, "--task", "tag"], capsys)
    assert code == 0
    code, out, err = run(["predict", TAG_SENTS, "--model", model, "--max-len", "3"], capsys)
    assert code == 0
    code, unbounded, _ = run(["predict", TAG_SENTS, "--model", model], capsys)
    assert code == 0
    with open(TAG_SENTS) as fh:
        sentences = [line.split() for line in fh if line.strip()]
    over = [len(words) > 3 for words in sentences]
    assert any(over) and not all(over)
    assert out.splitlines() == [
        write_tagged(words, ["UNK"] * len(words)) if long else line
        for words, long, line in zip(sentences, over, unbounded.splitlines())
    ]
    assert err.count("over max-len 3 NO-PARSE") == sum(over)
