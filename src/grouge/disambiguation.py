"""Alignment-based sense assignment.

Each word type in a text is assigned the sense that is most similar, by
walk-vector overlap, to any sense of any word type in the paired text.
There is no sentence context: the paired text itself is the disambiguation
signal, so the procedure is symmetric and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Dictionary, SenseId
from .ppr import PprEngine
from .text import SummaryText


@dataclass(frozen=True)
class WordType:
    stem: str
    senses: tuple[SenseId, ...] = ()

    @property
    def is_oov(self) -> bool:
        return not self.senses


@dataclass(frozen=True)
class AssignedWord:
    word: WordType
    sense: SenseId | None  # None marks OOV
    support: float


def build_word_types(text: SummaryText, dictionary: Dictionary) -> list[WordType]:
    """Distinct final tokens of a text with their ranked dictionary senses.

    Lookup tries the surface form first, then the stem, since stemming can
    destroy dictionary lemmas. A word with no senses under either form is
    out of vocabulary. The senses of every pos category compete.
    """
    out = []
    for token, surface in text.word_types():
        senses = dictionary.senses_of(surface) or dictionary.senses_of(token)
        out.append(WordType(stem=token, senses=tuple(senses)))
    return out


class SimilarityTable:
    """Similarity of each candidate sense of the row words (once each) to
    each of the column words', one ``engine.sense_similarity`` call (a
    run-wide memo lookup) per cell, and each row's maximum ``best`` (0
    for a table without columns)."""

    def __init__(self, rows: Iterable[WordType], columns: Iterable[WordType], engine: PprEngine):
        senses = [dict.fromkeys(s for w in words for s in w.senses) for words in (rows, columns)]
        self.rows, self.columns = ({s: i for i, s in enumerate(keys)} for keys in senses)
        sim = engine.sense_similarity
        cells = [sim(r, c) for r in self.rows for c in self.columns]
        self.values = np.array(cells, dtype=np.float64).reshape(len(self.rows), len(self.columns))
        self.best = self.values.max(axis=1, initial=0.0)


def _assign(words: Sequence[WordType], index: dict, best: np.ndarray) -> tuple[AssignedWord, ...]:
    """Give each word its candidate sense s with the largest best[index[s]];
    np.argmax returns the first maximum, so a tie keeps the lowest rank."""
    if not words:
        raise ValueError("item must contain at least one word")
    entries = []
    for word in words:
        if word.is_oov:
            entries.append(AssignedWord(word, None, 0.0))
            continue
        scores = best[[index[s] for s in word.senses]]
        k = int(np.argmax(scores))
        entries.append(AssignedWord(word, word.senses[k], float(scores[k])))
    return tuple(entries)


def align_disambiguate(
    item: Sequence[WordType],
    context: Sequence[WordType],
    engine: PprEngine,
) -> tuple[AssignedWord, ...]:
    """Assign each item word the sense closest to any context sense.

    An item sense's score is its row maximum in the item × context
    ``SimilarityTable``. Ties prefer the lower sense rank. When the context
    has no senses at all, every word keeps its rank-1 sense with support 0
    (the maximum's initial value). OOV words are marked as such. A cell
    missing from the engine's similarity memo gets both of its sense vectors
    from one ``PprEngine.prime_seed_sets`` call, which walks the uncached
    ones together in one pass.
    """
    table = SimilarityTable(item, context, engine)
    return _assign(item, table.rows, table.best)


def disambiguate_pair(
    model_text: Sequence[WordType],
    peer_text: Sequence[WordType],
    table: SimilarityTable,
) -> tuple[tuple[AssignedWord, ...], tuple[AssignedWord, ...]]:
    """Disambiguate each side against the other as context.

    table's rows include the model's senses and its columns are the peer's:
    ``parts_by_family`` fills one per peer and shares it among the peer's
    models. A model sense's score is its row maximum over all of the
    table's columns, and a peer sense's its column maximum over the
    model's rows.
    """
    model_rows = table.values[[table.rows[s] for w in model_text for s in w.senses]]
    model_assignment = _assign(model_text, table.rows, table.best)
    peer_assignment = _assign(peer_text, table.columns, model_rows.max(axis=0, initial=0.0))
    return model_assignment, peer_assignment
