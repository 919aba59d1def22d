"""N-gram extraction and clipped matching.

Variants: contiguous unigrams/bigrams and skip-bigrams with maximum gap 4
plus sentence-marker unigram pairs (the SU convention). Matching is
clipped: a gram's matches never exceed the smaller of its model and peer
occurrence counts. Recall over several references (the ``r*`` variants
of ``grouge.scorer.grouge_score``) sums these counts over the models.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .text import SummaryText

BOS_MARKER = "<s>"


@dataclass(frozen=True, slots=True)
class NGram:
    terms: tuple[str, ...]

    def content_terms(self) -> tuple[str, ...]:
        """Terms excluding the sentence marker."""
        return tuple(t for t in self.terms if t != BOS_MARKER)

    def __str__(self) -> str:
        return " ".join(self.terms)


class NGramMultiset:
    """Occurrence-counted bag of n-grams; iteration order is first-seen."""

    def __init__(self, grams: Iterable[NGram] = ()):
        self.counts: Counter[NGram] = Counter(grams)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, gram: NGram) -> int:
        return self.counts.get(gram, 0)

    def items(self) -> Iterator[tuple[NGram, int]]:
        return iter(self.counts.items())

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, gram: NGram) -> bool:
        return gram in self.counts


def extract_ngrams(text: SummaryText, n: int) -> NGramMultiset:
    """Contiguous n-grams within sentence boundaries."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    grams = []
    for sent in text.sentences:
        for i in range(len(sent) - n + 1):
            grams.append(NGram(tuple(sent[i : i + n])))
    return NGramMultiset(grams)


def extract_su4(text: SummaryText, max_gap: int = 4) -> NGramMultiset:
    """Skip-bigrams with gap <= max_gap plus marker-paired unigrams."""
    grams = []
    for sent in text.sentences:
        for i, token in enumerate(sent):
            grams.append(NGram((BOS_MARKER, token)))
            for j in range(i + 1, min(i + max_gap, len(sent) - 1) + 1):
                grams.append(NGram((token, sent[j])))
    return NGramMultiset(grams)


def grams_for(text: SummaryText, variant: str) -> NGramMultiset:
    if variant == "1":
        return extract_ngrams(text, 1)
    if variant == "2":
        return extract_ngrams(text, 2)
    if variant == "su4":
        return extract_su4(text)
    raise ValueError(f"unknown variant {variant!r}")


def clipped_matches(model: NGramMultiset, peer: NGramMultiset) -> int:
    """Total clipped matches: sum over grams of min(model, peer) counts."""
    return sum(min(c, peer.count(g)) for g, c in model.items())
