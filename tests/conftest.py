import sys

import pytest
from hypothesis import settings

import hpyparse.hypergraph
import hpyparse.mcmc

from hpyparse.config import RunConfig
from hpyparse.events import NONTERMINAL_CONTEXT, leftmost_walk
from hpyparse.model import train_model
from hpyparse.trees import read_treebank

# Property tests build real tries and charts; wall-clock deadlines only
# add flakiness under load.
settings.register_profile("hpyparse", deadline=None)
settings.load_profile("hpyparse")

# A small treebank with a real attachment ambiguity: "... saw the cat
# with the hat" admits both NP- and VP-attachment once the grammar is
# read off the corpus. NP attachment dominates the counts, so the MLE
# baseline and the context model agree on the argmax for that sentence
# (the divergent-preference case is exercised separately).
TOY_TREEBANK = """\
(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (DT the) (NN cat))))
(S (NP (DT the) (NN cat)) (VP (VB saw) (NP (DT the) (NN dog))))
(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (NP (DT the) (NN cat)) (PP (IN with) (NP (DT the) (NN hat))))))
(S (NP (DT a) (NN dog)) (VP (VB saw) (NP (NP (DT the) (NN hat)) (PP (IN with) (NP (DT a) (NN cat))))))
(S (NP (DT the) (NN hat)) (VP (VB saw) (NP (NP (DT a) (NN dog)) (PP (IN with) (NP (DT the) (NN cat))))))
(S (NP (DT the) (NN cat)) (VP (VP (VB saw) (NP (DT the) (NN dog))) (PP (IN with) (NP (DT the) (NN hat)))))
(S (NP (DT the) (NN hat)) (VP (VB fell)))
(S (NP (DT a) (NN dog)) (VP (VB ran)))
(S (NP (DT the) (NN dog)) (VP (VB ran)))
(S (NP (DT a) (NN cat)) (VP (VB fell)))
(S (NP (DT the) (NN cat)) (VP (VP (VB ran)) (PP (IN with) (NP (DT the) (NN dog)))))
(S (NP (DT a) (NN hat)) (VP (VB fell)))
"""

# Attachment preference flips between the baseline grammar and the
# context model when VP attachment dominates raw counts but the seen
# vertical contexts all favor NP attachment for this lexical pattern.
DIVERGENT_TREEBANK = """\
(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (DT the) (NN cat))))
(S (NP (DT the) (NN cat)) (VP (VB saw) (NP (DT the) (NN dog))))
(S (NP (DT the) (NN dog)) (VP (VB saw) (NP (NP (DT the) (NN cat)) (PP (IN with) (NP (DT the) (NN hat))))))
(S (NP (DT the) (NN cat)) (VP (VP (VB saw) (NP (DT the) (NN dog))) (PP (IN with) (NP (DT the) (NN hat)))))
(S (NP (DT the) (NN hat)) (VP (VB fell)))
(S (NP (DT a) (NN dog)) (VP (VB ran)))
(S (NP (DT the) (NN dog)) (VP (VB ran)))
(S (NP (DT a) (NN cat)) (VP (VB fell)))
(S (NP (DT the) (NN cat)) (VP (VP (VB ran)) (PP (IN with) (NP (DT the) (NN dog)))))
(S (NP (DT a) (NN hat)) (VP (VB fell)))
"""

AMBIGUOUS_SENTENCE = "the dog saw the cat with the hat".split()


@pytest.fixture(scope="session")
def toy_corpus():
    corpus, _ = read_treebank(TOY_TREEBANK)
    return corpus


@pytest.fixture(scope="session")
def toy_model(toy_corpus):
    model, stats = train_model(toy_corpus, RunConfig(rare_threshold=0))
    return model


@pytest.fixture(scope="session")
def toy_model_and_stats(toy_corpus):
    return train_model(toy_corpus, RunConfig(rare_threshold=0))


@pytest.fixture
def default_recursion_limit():
    """CPython's default limit, whatever another test module raised it to."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


@pytest.fixture
def derivation_calls(monkeypatch):
    """The calls made to ``hypergraph.derivations`` under every name that
    ``hpyparse`` modules import it as, for tests that count enumerations."""
    calls = []
    real = hpyparse.hypergraph.derivations

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("hpyparse") and getattr(module, "derivations", None) is real:
            monkeypatch.setattr(module, "derivations", counted)
    return calls


@pytest.fixture
def drawn_picks(monkeypatch):
    """Each (item, edge) that ``mh_sample``'s pick is asked for and gives, in order."""
    picks = []
    real = hpyparse.mcmc.sampling_pick

    def recording(*args):
        pick = real(*args)

        def recorded(item):
            picks.append((item, pick(item)))
            return picks[-1][1]

        return recorded

    monkeypatch.setattr(hpyparse.mcmc, "sampling_pick", recording)
    return picks


def replay_proposals(grammar, root, picks, mode=NONTERMINAL_CONTEXT):
    """Cut recorded picks into proposals: each is the ``leftmost_walk`` that
    asks for the recorded items in their order and is given their edges."""
    walks, position = [], 0

    def replay(item):
        nonlocal position
        drawn_item, edge = picks[position]
        position += 1
        assert drawn_item == item
        return edge

    while position < len(picks):
        walks.append(leftmost_walk(grammar, root, replay, mode))
    return walks
