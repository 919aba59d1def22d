"""N-gram extraction and clipped matching.

Variants: contiguous unigrams/bigrams and skip-bigrams with maximum gap 4
plus sentence-marker unigram pairs (the SU convention). A gram is its
tuple of terms, and a text's grams are a ``Counter`` of occurrences in
first-seen order. Matching is clipped: a gram's matches never exceed the
smaller of its model and peer occurrence counts. Recall over several
references (the ``r*`` variants of ``grouge.scorer.grouge_score``) sums
these counts over the models.
"""

from __future__ import annotations

from collections import Counter

from .text import SummaryText

BOS_MARKER = "<s>"


def content_terms(gram: tuple[str, ...]) -> tuple[str, ...]:
    """Terms of a gram excluding the sentence marker."""
    return tuple(t for t in gram if t != BOS_MARKER)


def extract_ngrams(text: SummaryText, n: int) -> Counter[tuple[str, ...]]:
    """Contiguous n-grams within sentence boundaries."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(sent[i : i + n] for sent in text.sentences for i in range(len(sent) - n + 1))


def extract_su4(text: SummaryText, max_gap: int = 4) -> Counter[tuple[str, ...]]:
    """Skip-bigrams with gap <= max_gap plus marker-paired unigrams."""
    grams = []
    for sent in text.sentences:
        for i, token in enumerate(sent):
            grams.append((BOS_MARKER, token))
            for j in range(i + 1, min(i + max_gap, len(sent) - 1) + 1):
                grams.append((token, sent[j]))
    return Counter(grams)


def grams_for(text: SummaryText, variant: str) -> Counter[tuple[str, ...]]:
    if variant == "1":
        return extract_ngrams(text, 1)
    if variant == "2":
        return extract_ngrams(text, 2)
    if variant == "su4":
        return extract_su4(text)
    raise ValueError(f"unknown variant {variant!r}")


def clipped_matches(model: Counter[tuple[str, ...]], peer: Counter[tuple[str, ...]]) -> int:
    """Total clipped matches: sum over the shared grams of min(model, peer)
    counts. The total is an integer, so the order of the sum is immaterial."""
    shared = model.keys() & peer.keys()
    return sum(map(min, map(model.__getitem__, shared), map(peer.__getitem__, shared)))
