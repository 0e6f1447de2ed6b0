"""The benchmark tracer wraps ``hpyparse`` names by attribute; a refactor
that drops or renames one breaks ``hpybench/run.py --trace 1``, and one
that keeps importing a wrapped name but stops calling it leaves a layer
reading zero. Installing the tracer here, and running the command line
under it, catches both in the unit suite."""

import os
from pathlib import Path

import pytest

import hpyparse.events
import hpyparse.model
from hpyparse.astar import astar_parse
from hpyparse.cli import main
from hpyparse.config import RunConfig
from hpyparse.hypergraph import build_hypergraph
from hpyparse.pcfg import inside
from hpyparse.serialize import load_model_file

HPYBENCH = Path(__file__).resolve().parent.parent / "hpybench"
DATA = os.path.join(os.path.dirname(__file__), "..", "data")
# task -> (training file, sentences to predict)
TOY = {
    "parse": ("toy_parse_train.mrg", "toy_parse_test_sentences.txt"),
    "tag": ("toy_tag_train.txt", "toy_tag_test_sentences.txt"),
}
# the traced layers every predict run passes through, and those of each decoder
EVERY_RUN = ["serialize.load", "cli.decode", "signatures.map"]
DECODER_LAYERS = {
    "astar-full": [
        "hypergraph.build", "pcfg.inside", "astar", "model.expansion", "hpyp.predictive_probs"
    ],
    "mcmc": [
        "hypergraph.build", "pcfg.inside", "mcmc", "mcmc.mbr", "model.expansion",
        "hpyp.predictive_probs",
    ],
    "cyk": ["pcfg.cyk"],
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(HPYBENCH))
    import tracing

    return tracing


@pytest.fixture(scope="module")
def toy_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for task, (train, _) in TOY.items():
        paths[task] = str(root / f"{task}.model")
        args = ["train", os.path.join(DATA, train), "--model", paths[task], "--task", task]
        assert main(args) == 0
    return paths


def test_the_benchmark_tracer_finds_every_name_it_wraps(tracing):
    restore = tracing.install(tracing.Tracer())
    try:
        assert hpyparse.model.extract_events.__wrapped__ is hpyparse.events.extract_events
    finally:
        restore()
    assert hpyparse.model.extract_events is hpyparse.events.extract_events


@pytest.mark.parametrize(
    "task, decoder",
    [("parse", "astar-full"), ("tag", "astar-full"), ("parse", "mcmc"), ("parse", "cyk")],
)
def test_every_layer_a_decoder_runs_counts_calls(
    tracing, toy_models, tmp_path, capsys, task, decoder
):
    sentences = os.path.join(DATA, TOY[task][1])
    tracer = tracing.Tracer(phase="predict")
    restore = tracing.install(tracer)
    try:
        code = main([
            "predict", sentences, "--model", toy_models[task], "--decoder", decoder,
            "--iters", "30", "--burn-in", "5", "--output", str(tmp_path / "out.txt"),
        ])
    finally:
        restore()
    capsys.readouterr()
    assert code == 0
    layers = EVERY_RUN + DECODER_LAYERS[decoder]
    if task == "parse":
        layers.append("transforms.unbinarize")
    assert {name: tracer.calls[name] for name in layers if tracer.calls[name] == 0} == {}
    if decoder != "astar-full":
        return
    # the traced counters are the untraced search's own
    model = load_model_file(toy_models[task])
    pops = pushes = 0
    with open(sentences, encoding="utf-8") as fh:
        for line in fh:
            mapped = model.mapper.map_sentence(line.split())
            hg = build_hypergraph(model.grammar, mapped)
            if hg.empty:
                continue
            chart = inside(model.pcfg, mapped, hg.derivations)
            result = astar_parse(model, hg, chart, "full", RunConfig().beam)
            pops += result.pops
            pushes += result.pushes
    assert pops > 0
    assert (tracer.counts["pops"], tracer.counts["pushes"]) == (pops, pushes)
