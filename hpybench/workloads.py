"""Seeded inputs for the benchmark workloads.

Two generators, both pure functions of a seed:

* ``random_pcfg`` / ``sample_treebank``: a random PCFG with n-ary rules
  over phrasal categories and part-of-speech tags, and trees drawn from
  it. Each tag owns a Zipfian vocabulary whose words share a suffix
  family (``-ing``, ``-ed``, capitalized, digits, ...), so the rare tail
  of the training corpus is replaced by signatures and unseen test words
  map onto them. The grammar itself is drawn from a fixed seed, so every
  workload seed samples the same language; the workload seed draws the
  treebank and the held-out sentences.
* ``tag_split``: the order-3 tag chain of ``hpyparse.synthetic``, with a
  training draw of short sentences (4 to 12 tags, so the trie is 13 deep)
  and a separate held-out draw of longer, mixed-length sentences.

A workload bundles the generated files' contents with the decoder flags
and the gold answers the run is scored against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hpyparse.synthetic import TagChainSpec, generate_tag_corpus
from hpyparse.trees import Tree, write_tagged, write_tree

# The language (rules, vocabularies) is fixed; seeds vary the samples.
GRAMMAR_SEED = 20150309

ROOT = "S"
PHRASES = ("NP", "VP", "PP", "AP", "SB")
# (tag, suffix family, capitalized, digit-bearing); families are distinct
# so a word's signature tells its tag.
TAGS = (
    ("NN", "s", False, False),
    ("VB", "ed", False, False),
    ("VG", "ing", False, False),
    ("JJ", "est", False, False),
    ("RB", "ly", False, False),
    ("NM", "ion", False, False),
    ("AG", "er", False, False),
    ("NP0", "", True, False),
    ("CD", "", False, True),
)
VOCAB_SIZE = 200
ZIPF_EXPONENT = 1.0
RULES_PER_PHRASE = (14, 26)
RHS_LENGTHS = (1, 2, 3, 4, 5)
RHS_LENGTH_WEIGHTS = (0.06, 0.34, 0.32, 0.18, 0.10)
PHRASE_CHILD_PROB = 0.30
MAX_TREE_WORDS = 40


@dataclass
class Pcfg:
    """Rules as (rhs tuple, probability) per lhs, plus tag vocabularies."""

    rules: dict[str, list[tuple[tuple[str, ...], float]]]
    vocab: dict[str, list[str]]
    word_probs: dict[str, np.ndarray]


def _zipf(n: int, rng: np.random.Generator, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    rng.shuffle(weights)
    return weights / weights.sum()


def _stem(rng: np.random.Generator) -> str:
    consonants, vowels = "bcdfghklmnprstvz", "aeiou"
    syllables = int(rng.integers(2, 4))
    return "".join(
        consonants[rng.integers(len(consonants))] + vowels[rng.integers(len(vowels))]
        for _ in range(syllables)
    )


def _vocabulary(rng: np.random.Generator) -> dict[str, list[str]]:
    used: set[str] = set()
    vocab: dict[str, list[str]] = {}
    for tag, suffix, capital, digits in TAGS:
        words: list[str] = []
        while len(words) < VOCAB_SIZE:
            word = _stem(rng) + suffix
            if capital:
                word = word.capitalize()
            if digits:
                word = f"{word[:2]}{int(rng.integers(10, 1000))}"
            if word not in used:
                used.add(word)
                words.append(word)
        vocab[tag] = words
    return vocab


def _expected_children(rules: dict[str, list[tuple[tuple[str, ...], float]]]) -> np.ndarray:
    index = {p: k for k, p in enumerate(PHRASES)}
    mean = np.zeros((len(PHRASES), len(PHRASES)))
    for lhs in PHRASES:
        for rhs, prob in rules[lhs]:
            for sym in rhs:
                if sym in index:
                    mean[index[lhs], index[sym]] += prob
    return mean


def random_pcfg(seed: int = GRAMMAR_SEED) -> Pcfg:
    """Draw a subcritical n-ary PCFG (finite expected tree size)."""
    rng = np.random.default_rng(seed)
    tags = [t for t, *_ in TAGS]
    while True:
        rules: dict[str, list[tuple[tuple[str, ...], float]]] = {}
        for lhs in (ROOT,) + PHRASES:
            count = int(rng.integers(*RULES_PER_PHRASE))
            rhs_set: dict[tuple[str, ...], None] = {}
            while len(rhs_set) < count:
                length = int(rng.choice(RHS_LENGTHS, p=RHS_LENGTH_WEIGHTS))
                rhs = tuple(
                    PHRASES[rng.integers(len(PHRASES))]
                    if rng.random() < PHRASE_CHILD_PROB
                    else tags[rng.integers(len(tags))]
                    for _ in range(length)
                )
                if length == 1 and rhs[0] in PHRASES:
                    continue  # no phrase-to-phrase unaries: keeps unary chains acyclic
                rhs_set[rhs] = None
            probs = _zipf(count, rng, 1.0)
            rules[lhs] = list(zip(rhs_set, probs.tolist()))
        if max(abs(np.linalg.eigvals(_expected_children(rules)))) < 0.85:
            break
    vocab = _vocabulary(rng)
    word_probs = {tag: _zipf(VOCAB_SIZE, rng, ZIPF_EXPONENT) for tag in tags}
    return Pcfg(rules, vocab, word_probs)


def _sample_tree(pcfg: Pcfg, label: str, rng: np.random.Generator, budget: list[int]) -> Tree:
    if label in pcfg.vocab:
        budget[0] -= 1
        if budget[0] < 0:
            raise OverflowError
        words = pcfg.vocab[label]
        return Tree(label, [words[rng.choice(len(words), p=pcfg.word_probs[label])]])
    options = pcfg.rules[label]
    rhs = options[rng.choice(len(options), p=[p for _, p in options])][0]
    return Tree(label, [_sample_tree(pcfg, sym, rng, budget) for sym in rhs])


def sample_treebank(
    pcfg: Pcfg, count: int, min_len: int, max_len: int, rng: np.random.Generator
) -> list[Tree]:
    """``count`` trees whose yield length lies in [min_len, max_len]."""
    trees: list[Tree] = []
    while len(trees) < count:
        tree = _draw(pcfg, max_len, rng)
        if tree is not None and min_len <= len(tree.leaves()):
            trees.append(tree)
    return trees


def sample_by_length(
    pcfg: Pcfg, per_length: int, lengths: tuple[int, ...], rng: np.random.Generator
) -> list[Tree]:
    """``per_length`` trees of each yield length, in a seeded random order.

    A fixed length mix keeps the decode cost of a run the same from seed
    to seed; only the sentences differ. See ``_shuffled`` for the order.
    """
    buckets: dict[int, list[Tree]] = {n: [] for n in lengths}
    missing = per_length * len(buckets)
    while missing:
        tree = _draw(pcfg, lengths[-1], rng)
        if tree is None:
            continue
        bucket = buckets.get(len(tree.leaves()))
        if bucket is not None and len(bucket) < per_length:
            bucket.append(tree)
            missing -= 1
    return _shuffled([tree for n in lengths for tree in buckets[n]], rng)


def _shuffled(items: list, rng: np.random.Generator) -> list:
    """``items`` in a random order.

    Decoding sentences sorted by length would time all sentences near a
    percentile within a few seconds of each other, so the percentile
    would follow the machine's speed in those seconds; mixed, it samples
    the whole run.
    """
    return [items[k] for k in rng.permutation(len(items))]


def _draw(pcfg: Pcfg, max_len: int, rng: np.random.Generator) -> Tree | None:
    """One tree from the root, or None once it would exceed ``max_len`` words."""
    try:
        return _sample_tree(pcfg, ROOT, rng, [max_len])
    except OverflowError:
        return None


def tag_split(
    train_size: int, per_length: int, lengths: tuple[int, ...], rng: np.random.Generator
) -> tuple[list[tuple[list[str], list[str]]], list[tuple[list[str], list[str]]]]:
    """Short training sentences and a separate held-out draw at fixed lengths.

    Training on 4 to 6 tags, as ``run_depth_effect`` does, leaves A* on
    8 to 24 tags with about 0.6 token accuracy that swings by 0.15 from
    seed to seed; 4 to 12 tags keeps it near 0.83 and steady.
    """
    train = generate_tag_corpus(train_size, rng, TagChainSpec(min_len=4, max_len=12))
    test = [
        pair
        for n in lengths
        for pair in generate_tag_corpus(per_length, rng, TagChainSpec(min_len=n, max_len=n))
    ]
    return train, _shuffled(test, rng)


@dataclass
class Workload:
    """Generated inputs for one run: file texts, decoder flags and gold."""

    name: str
    task: str
    train_text: str
    test_text: str
    predict_flags: list[str]
    gold_trees: list[Tree] = field(default_factory=list)
    gold_tags: list[list[str]] = field(default_factory=list)

    @property
    def sentences(self) -> list[list[str]]:
        return [line.split() for line in self.test_text.splitlines()]


@dataclass(frozen=True)
class Size:
    """How much input a run generates; ``FULL`` is the measured size.

    Held-out sentences come ``*_per_length`` to each of the workload's
    ``*_lengths``. Five lengths in equal shares put the median inside the
    third length's group and the 90th percentile inside the fifth's, so
    each reads as the typical cost at one length rather than a tail
    quantile that a few hard sentences move. The full set takes 15 to 25 s
    to decode, so one pass fills a run. ``setup_reps`` is how often a run
    trains and loads the model, ``min_passes`` how often it at least decodes
    the held-out set.
    """

    tag_train: int
    tag_per_length: int
    tag_lengths: tuple[int, ...]
    parse_train: int
    mcmc_per_length: int
    mcmc_lengths: tuple[int, ...]
    cyk_per_length: int
    cyk_lengths: tuple[int, ...]
    mcmc_iters: int
    mcmc_burn_in: int
    setup_reps: int
    min_passes: int


FULL = Size(
    tag_train=2000, tag_per_length=200, tag_lengths=(8, 10, 12, 14, 16),
    parse_train=3000, mcmc_per_length=56, mcmc_lengths=(6, 8, 10, 12, 14),
    cyk_per_length=50, cyk_lengths=(10, 13, 16, 19, 22),
    mcmc_iters=60, mcmc_burn_in=10, setup_reps=3, min_passes=1,
)
TINY = Size(
    tag_train=200, tag_per_length=1, tag_lengths=(6, 7, 8),
    parse_train=600, mcmc_per_length=1, mcmc_lengths=(6, 7, 8),
    cyk_per_length=1, cyk_lengths=(6, 7, 8),
    mcmc_iters=12, mcmc_burn_in=2, setup_reps=1, min_passes=1,
)


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def build(name: str, seed: int, size: Size = FULL) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(17,)))
    if name == "tag-astar":
        train, test = tag_split(size.tag_train, size.tag_per_length, size.tag_lengths, rng)
        return Workload(
            name,
            "tag",
            _lines(write_tagged(w, t) for w, t in train),
            _lines(" ".join(w) for w, _ in test),
            ["--decoder", "astar-full", "--beam", "256"],
            gold_tags=[t for _, t in test],
        )
    if name in ("parse-mcmc", "parse-cyk"):
        pcfg = random_pcfg()
        # The treebank comes first from the stream, so both parse workloads
        # train the same model for a given seed.
        train = sample_treebank(pcfg, size.parse_train, 2, MAX_TREE_WORDS, rng)
        if name == "parse-mcmc":
            test = sample_by_length(pcfg, size.mcmc_per_length, size.mcmc_lengths, rng)
            flags = ["--decoder", "mcmc", "--iters", str(size.mcmc_iters),
                     "--burn-in", str(size.mcmc_burn_in), "--seed", str(seed)]
        else:
            test = sample_by_length(pcfg, size.cyk_per_length, size.cyk_lengths, rng)
            flags = ["--decoder", "cyk"]
        return Workload(
            name,
            "parse",
            _lines(write_tree(t) for t in train),
            _lines(" ".join(t.leaves()) for t in test),
            flags,
            gold_trees=test,
        )
    raise KeyError(name)


WORKLOADS = ("tag-astar", "parse-mcmc", "parse-cyk")
