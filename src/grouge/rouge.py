"""N-gram extraction and clipped matching.

Variants: contiguous unigrams/bigrams and skip-bigrams with maximum gap 4
plus sentence-marker unigram pairs (the SU convention). A gram is its
tuple of terms, and a text's grams are a ``Counter`` of occurrences in
first-seen order. Matching is clipped: a gram's matches never exceed the
smaller of its model and peer occurrence counts. Recall over several
references (the ``r*`` variants of ``grouge.scorer.grouge_score``) sums
these counts over the models.

A ``GramIndex`` holds one family's grams of all of a topic's models, so a
peer is matched against every model at once: each peer gram is looked up
once, and the clipped counts of all models come from one integer matrix.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Sequence

import numpy as np

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


class GramIndex:
    """Clipped matching of peers against a fixed list of model gram counts.

    Each distinct model gram has a row of ``counts``, an int64 matrix of
    rows × models, and one more row of zeros stands for every gram no
    model has. ``totals`` holds each model's gram total.
    """

    def __init__(self, models: Sequence[Counter[tuple[str, ...]]]) -> None:
        rows: dict[tuple[str, ...], int] = {}
        for model in models:
            for gram in model:
                rows.setdefault(gram, len(rows))
        self.counts = np.zeros((len(rows) + 1, len(models)), np.int64)
        for j, model in enumerate(models):
            self.counts[[rows[gram] for gram in model], j] = list(model.values())
        self.totals = self.counts.sum(axis=0)
        self._rows = rows

    def matches(self, peer: Counter[tuple[str, ...]]) -> np.ndarray:
        """Each model's total clipped matches with peer: the sum over grams
        of min(model, peer) counts, as an int64 array in model order."""
        absent = repeat(len(self._rows), len(peer))
        rows = np.fromiter(map(self._rows.get, peer, absent), np.intp, len(peer))
        peer_counts = np.fromiter(peer.values(), np.int64, len(peer))
        return np.minimum(self.counts[rows], peer_counts[:, None]).sum(axis=0)
