import numpy as np

from hpyparse.experiments import exact_decode, run_depth_effect
from hpyparse.hypergraph import build_hypergraph, enumerate_trees
from hpyparse.synthetic import generate_tag_corpus


def test_generator_shapes_and_alphabet():
    rng = np.random.default_rng(0)
    corpus = generate_tag_corpus(50, rng)
    for words, tags in corpus:
        assert 4 <= len(words) <= 6
        assert len(words) == len(tags)
        for w, t in zip(words, tags):
            assert w in ("u", "v")
            assert t in ("T00", "T01", "T10", "T11")
            # word spells the class bit
            assert w == ("u" if t[1] == "0" else "v")


def test_depth_effect_direction_small_scale():
    # Reduced-scale sanity check; the full monotone chain is asserted at
    # criterion scale in the acceptance suite, where the noise floor of
    # the weakest capped models is small enough to resolve their order.
    res = run_depth_effect(train_size=600, test_size=150, seed=0)
    acc = res.accuracy
    assert set(acc) == {"pcfg", "cap1", "cap2", "cap3", "unbounded"}
    assert acc["cap1"] <= acc["cap3"] <= acc["unbounded"]
    assert acc["cap2"] <= acc["cap3"]
    assert acc["unbounded"] > acc["pcfg"]
    assert "exact-match" in res.table()


def test_exact_decode_prefers_higher_scores(toy_model):
    from .conftest import AMBIGUOUS_SENTENCE

    hg = build_hypergraph(toy_model.grammar, AMBIGUOUS_SENTENCE)
    candidates = list(enumerate_trees(hg))
    best = exact_decode(toy_model, candidates)
    scores = [toy_model.tree_log_prob(t) for t in candidates]
    assert toy_model.tree_log_prob(best) == max(scores)


def test_depth_effect_enumerates_each_held_out_sentence_once(derivation_calls):
    run_depth_effect(train_size=60, test_size=10)
    assert len(derivation_calls) == 10
