from hypothesis import given
from hypothesis import strategies as st

from hpyparse.config import RunConfig
from hpyparse.model import train_model
from hpyparse.pcfg import cyk_viterbi
from hpyparse.serialize import load_model, save_model
from hpyparse.signatures import (
    SignatureMapper,
    count_words,
    replace_rare_words,
    word_signature,
)
from hpyparse.trees import read_tree, read_treebank

from .strategies import token_text


SIGNATURE_TABLE = [
    ("Xylo", True, "UNK-INITC-init"),
    ("Xylo", False, "UNK-INITC"),
    ("NASA", False, "UNK-CAPS"),
    ("eBay", False, "UNK-MIXED"),
    ("running", False, "UNK-ing"),
    ("walked", False, "UNK-ed"),
    ("strongest", False, "UNK-est"),
    ("quickly", False, "UNK-ly"),
    ("stations", False, "UNK-s"),
    ("fusion", False, "UNK-ion"),
    ("smaller", False, "UNK-er"),
    ("mid-1990s", False, "UNK-NUM-DASH-s"),
    ("12", False, "UNK-NUM"),
    ("plain", False, "UNK"),
    ("Big-Time", True, "UNK-MIXED-DASH-init"),
    ("Costly", True, "UNK-INITC-ly-init"),
]


def test_signature_inventory():
    for word, initial, expected in SIGNATURE_TABLE:
        assert word_signature(word, initial) == expected, word


def test_signatures_pass_through_unchanged():
    assert word_signature("UNK-INITC", False) == "UNK-INITC"
    assert word_signature("UNK", True) == "UNK"


@given(token_text, st.booleans())
def test_signature_deterministic_and_idempotent(word, initial):
    sig = word_signature(word, initial)
    assert sig == word_signature(word, initial)
    assert sig.startswith("UNK")
    assert word_signature(sig, initial) == sig


def corpus_from(lines: list[str]):
    trees = [read_tree(line) for line in lines]
    return [(t.leaves(), t) for t in trees]


def test_threshold_zero_is_identity():
    corpus = corpus_from(["(S (A rare) (B words))"])
    sentences, mapper = replace_rare_words(corpus, 0)
    assert sentences == [words for words, _ in corpus]
    assert mapper.map_word("rare", 1) == "rare"


def test_rare_words_replaced_in_tree_and_sentence():
    corpus = corpus_from(
        ["(S (A dog) (B dog))", "(S (A dog) (B Xylo))"]
    )
    sentences, mapper = replace_rare_words(corpus, 1)
    assert sentences == [["dog", "dog"], ["dog", "UNK-INITC"]]
    assert corpus[1][1].leaves() == ["dog", "Xylo"]
    # unseen test word maps through the same function
    assert mapper.map_word("Zq", 0) == word_signature("Zq", True)
    assert mapper.map_word("dog", 3) == "dog"


def test_no_surviving_rare_words_after_replacement():
    corpus = corpus_from(
        ["(S (A a) (B b))", "(S (A a) (B c))", "(S (A a) (B b))"]
    )
    sentences, _ = replace_rare_words(corpus, 1)
    counts = count_words([(words, tree) for words, (_, tree) in zip(sentences, corpus)])
    for word, count in counts.items():
        if not word.startswith("UNK"):
            assert count > 1


def test_replacement_idempotent_on_corpus():
    corpus = corpus_from(["(S (A one) (B two))", "(S (A one) (B three))"])
    once, _ = replace_rare_words(corpus, 1)
    twice, _ = replace_rare_words([(words, tree) for words, (_, tree) in zip(once, corpus)], 1)
    assert twice == once


def test_mapper_sentence_positions():
    mapper = SignatureMapper(known=set())
    out = mapper.map_sentence(["Deep", "Deep"])
    assert out[0].endswith("-init")
    assert not out[1].endswith("-init")


def test_missing_initial_signature_falls_back_to_plain_signature():
    # Every rare word is non-initial, so the grammar has UNK but no UNK-init.
    corpus, _ = read_treebank(
        "(S (NP (NN john)) (VP (VB saw) (NP (NN mary))))\n"
        "(S (NP (NN john)) (VP (VB saw) (NP (NN bill))))\n"
        "(S (NP (NN john)) (VP (VB saw) (NP (NN sue))))\n"
    )
    model, _ = train_model(corpus, RunConfig(rare_threshold=1))
    assert set(model.grammar.terminals.texts()) == {"john", "saw", "UNK"}
    for mapper in (model.mapper, load_model(save_model(model)).mapper):
        assert mapper.map_sentence(["bob", "saw", "tom"]) == ["UNK", "saw", "UNK"]
    assert cyk_viterbi(model.pcfg, model.mapper.map_sentence(["bob", "saw", "john"]))
    # an initial signature the grammar has is kept
    mapper = SignatureMapper({"john"}, 1, frozenset({"john", "UNK", "UNK-init"}))
    assert mapper.map_sentence(["bob", "john"]) == ["UNK-init", "john"]
