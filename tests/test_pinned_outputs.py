"""Decoder output and model bytes pinned byte for byte across versions.

Each decoder's predictions on fixed, seeded inputs are stored as SHA-256
digests of the output file, and so is ``diagnose --sentence``'s report
(its modal MH sample, acceptance trace and A* line). A change to the
chart, search, sampling or tree-building code that moves a single output
byte fails here; a change meant to move output must update the digests
and say why. The toy parse and tag models' bytes are pinned the same
way, in both context modes, so a training or model-writer change that
moves one model byte fails here too.
"""

import hashlib
import os

import numpy as np
import pytest

from hpyparse.cli import main
from hpyparse.config import RunConfig
from hpyparse.model import train_model
from hpyparse.serialize import save_model
from hpyparse.synthetic import TagChainSpec, generate_tag_corpus
from hpyparse.transforms import pos_to_tree
from hpyparse.trees import read_tag_corpus, read_treebank, write_tagged

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

DECODER_FLAGS = {
    "cyk": ["--decoder", "cyk"],
    "astar-full": ["--decoder", "astar-full", "--beam", "64"],
    "astar-local": ["--decoder", "astar-local", "--beam", "64"],
    "mcmc": ["--decoder", "mcmc", "--iters", "120", "--burn-in", "20", "--seed", "3"],
}

EXPECTED = {
    ("parse", "cyk"): "98953fd80c548c915c7d83e77e51db78bfb7170681f5a06e05b9969cba02294d",
    ("parse", "astar-full"): "33f468a0f7a0b4d7558f61bc06e1756409d9c295e289511dc1754953827e5204",
    ("parse", "astar-local"): "33f468a0f7a0b4d7558f61bc06e1756409d9c295e289511dc1754953827e5204",
    ("parse", "mcmc"): "33f468a0f7a0b4d7558f61bc06e1756409d9c295e289511dc1754953827e5204",
    ("tag", "cyk"): "1f6308559f1715374c1b85f8ce53a9e8ca8ed9feff241d682d30b7f3ffb8618f",
    ("tag", "astar-full"): "bacd48dcd034b810afbdec7098a617e207a74786ae1a4f78fe2ebce9a8f6ff13",
    ("tag", "astar-local"): "bacd48dcd034b810afbdec7098a617e207a74786ae1a4f78fe2ebce9a8f6ff13",
    ("tag", "mcmc"): "2cc4787322e043966caabdcb01a14b854b86be2faa4009e40580fb449ce2e655",
}

MODEL_EXPECTED = {
    ("parse", "nonterminal"): "379af06f831bacb378b8aa48e1756dc615fffa6c8fa1c0f04398db9eda1c9b4e",
    ("parse", "rule"): "c6f07221a7e57bb43ed0ad0134048a4a2411e0ff292b01eabf18215ae3d59af8",
    ("tag", "nonterminal"): "2dcbdddda08f0e6b05d052c466c0683f63108556fe1b34af25e5bf9f7588ff50",
    ("tag", "rule"): "dab1c59061678dcda44c9dc8bd295fb588689153de81a15a51908c129d56ecbe",
}

DIAGNOSE_FLAGS = ["--iters", "200", "--burn-in", "20", "--seed", "3", "--beam", "64"]

DIAGNOSE_EXPECTED = {
    "parse": "0cfb2f932d984373451399d9a0a5ee18baeeeafc05fe1f7f2e34142a219c9b80",
    "tag": "ded0eae0093618d0cf9406e3c6bd1d0e0ccc13cae42f3d91153e2189735d50d3",
}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """(model path, sentences path) per task, trained once for the module."""
    root = tmp_path_factory.mktemp("pinned")
    parse_model = str(root / "parse.model")
    assert main(["train", os.path.join(DATA, "toy_parse_train.mrg"), "--model", parse_model]) == 0

    rng = np.random.default_rng(5)
    train = generate_tag_corpus(150, rng)
    test = generate_tag_corpus(12, rng, TagChainSpec(min_len=6, max_len=9))
    tag_train = root / "tag_train.txt"
    tag_train.write_text("".join(write_tagged(w, t) + "\n" for w, t in train))
    tag_sents = root / "tag_sents.txt"
    tag_sents.write_text("".join(" ".join(w) + "\n" for w, _ in test))
    tag_model = str(root / "tag.model")
    assert main(["train", str(tag_train), "--model", tag_model, "--task", "tag"]) == 0
    return {
        "parse": (parse_model, os.path.join(DATA, "toy_parse_test_sentences.txt")),
        "tag": (tag_model, str(tag_sents)),
    }


@pytest.mark.parametrize("task, decoder", sorted(EXPECTED))
def test_decoder_output_is_pinned(models, task, decoder, tmp_path, capsys):
    model, sentences = models[task]
    out = tmp_path / "pred.txt"
    code = main(["predict", sentences, "--model", model, "--output", str(out)]
                + DECODER_FLAGS[decoder])
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED[(task, decoder)], text


@pytest.mark.parametrize("task", sorted(DIAGNOSE_EXPECTED))
def test_diagnose_sentence_report_is_pinned(models, task, tmp_path, capsys):
    model, sentences = models[task]
    with open(sentences, encoding="utf-8") as fh:
        sentence = fh.readline().strip()
    out_dir = tmp_path / "diag"
    code = main(["diagnose", "--model", model, "--sentence", sentence, "--out", str(out_dir)]
                + DIAGNOSE_FLAGS)
    stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
    assert code == 0
    report = stdout + (out_dir / "acceptance_trace.csv").read_text()
    assert hashlib.sha256(report.encode()).hexdigest() == DIAGNOSE_EXPECTED[task], report


def _toy_corpus(task):
    if task == "parse":
        with open(os.path.join(DATA, "toy_parse_train.mrg"), encoding="utf-8") as fh:
            return read_treebank(fh.read())[0]
    with open(os.path.join(DATA, "toy_tag_train.txt"), encoding="utf-8") as fh:
        return [(words, pos_to_tree(tags, words)) for words, tags in read_tag_corpus(fh.read())]


@pytest.mark.parametrize("task, mode", sorted(MODEL_EXPECTED))
def test_model_bytes_are_pinned(task, mode):
    model, _ = train_model(_toy_corpus(task), RunConfig(task=task, context_mode=mode))
    assert hashlib.sha256(save_model(model)).hexdigest() == MODEL_EXPECTED[(task, mode)]
