"""Rare-word replacement with feature-based unknown-word signatures.

Words at or below a count threshold in the training corpus are replaced
by a marker summarizing their lexical features and sentence position.
The same mapping (keyed by the surviving vocabulary) is applied to test
words, so unseen tokens share statistics with rare training tokens that
looked alike. Tokens starting with ``UNK`` pass through unchanged, which
makes the replacement idempotent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .trees import Sentence, Tree

UNK_PREFIX = "UNK"

# Checked longest-first so e.g. "running" gets "ing", not "s".
SUFFIXES = ("ing", "ion", "est", "ed", "er", "ly", "s")


def word_signature(word: str, sentence_initial: bool) -> str:
    """Deterministic marker for an unknown word, e.g. ``UNK-INITC-init``."""
    if word.startswith(UNK_PREFIX):
        return word
    parts = [UNK_PREFIX]
    alpha = [c for c in word if c.isalpha()]
    if alpha:
        if all(c.isupper() for c in alpha):
            parts.append("CAPS")
        elif word[0].isupper() and all(c.islower() for c in alpha[1:]):
            parts.append("INITC")
        elif any(c.isupper() for c in alpha):
            parts.append("MIXED")
        # all-lowercase is the default class and gets no token
    if any(c.isdigit() for c in word):
        parts.append("NUM")
    if "-" in word:
        parts.append("DASH")
    lower = word.lower()
    for suffix in SUFFIXES:
        if len(lower) > len(suffix) and lower.endswith(suffix):
            parts.append(suffix)
            break
    if sentence_initial:
        parts.append("init")
    return "-".join(parts)


@dataclass
class SignatureMapper:
    """Maps words to themselves or to their signature, by training vocabulary."""

    known: set[str] = field(default_factory=set)
    threshold: int = 1
    # Terminals of the trained grammar; empty while the training corpus
    # is rewritten, before the grammar exists.
    terminals: frozenset[str] = frozenset()

    def map_word(self, word: str, position: int) -> str:
        """The word if known, else its signature.

        A sentence-initial signature the grammar lacks (no rare training
        word had it) falls back to the same signature without ``-init``.
        """
        if word in self.known:
            return word
        signature = word_signature(word, position == 0)
        if self.terminals and signature not in self.terminals:
            return word_signature(word, False)
        return signature

    def map_sentence(self, words: Sentence) -> Sentence:
        return [self.map_word(w, i) for i, w in enumerate(words)]


def count_words(corpus: list[tuple[Sentence, Tree]]) -> Counter:
    counts: Counter = Counter()
    for words, _ in corpus:
        counts.update(words)
    return counts


def replace_rare_words(
    corpus: list[tuple[Sentence, Tree]], threshold: int
) -> tuple[list[Sentence], SignatureMapper]:
    """Map words with corpus count <= threshold to their signatures.

    Returns each sentence's mapped words and the mapper to apply to test
    input; no tree is copied. Signatures never count as rare themselves
    (they pass through), so the operation is idempotent.
    """
    counts = count_words(corpus)
    known = {w for w, c in counts.items() if c > threshold or w.startswith(UNK_PREFIX)}
    mapper = SignatureMapper(known=known, threshold=threshold)
    if threshold <= 0:
        mapper.known = set(counts)
        return [words for words, _ in corpus], mapper
    return [mapper.map_sentence(words) for words, _ in corpus], mapper
