import functools
import os
import sys

import pytest

import hpyparse.cli
import hpyparse.hypergraph
import hpyparse.model
from hpyparse.cli import _decode_one, main
from hpyparse.config import RunConfig
from hpyparse.errors import DataError
from hpyparse.pcfg import cyk_viterbi
from hpyparse.serialize import load_model_file
from hpyparse.transforms import unbinarize_right
from hpyparse.trees import replace_leaves, write_tree

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
def test_decoding_enumerates_derivations_once_per_sentence(toy_model, monkeypatch, decoder):
    calls = []
    real = hpyparse.hypergraph.derivations

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hpyparse") and getattr(module, "derivations", None) is real:
            monkeypatch.setattr(module, "derivations", counted)
    config = RunConfig(decoder=decoder, iters=30, burn_in=5)
    for index, line in enumerate(["the dog ran", " ".join(AMBIGUOUS_SENTENCE)]):
        calls.clear()
        outcome = _decode_one(toy_model, line.split(), config, index)
        assert outcome.parsed and "fallback" not in outcome.note
        assert len(calls) == 1


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
    ]:
        with open(config, "w") as fh:
            fh.write(text)
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
