"""Decoder output pinned byte for byte across versions.

Each decoder's predictions on fixed, seeded inputs are stored as SHA-256
digests of the output file, and so is ``diagnose --sentence``'s report
(its modal MH sample, acceptance trace and A* line). A change to the
chart, search, sampling or tree-building code that moves a single output
byte fails here; a change meant to move output must update the digests
and say why.
"""

import hashlib
import os

import numpy as np
import pytest

from hpyparse.cli import main
from hpyparse.synthetic import TagChainSpec, generate_tag_corpus
from hpyparse.trees import write_tagged

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
