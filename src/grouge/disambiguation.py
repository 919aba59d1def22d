"""Alignment-based sense assignment.

Each word type in a text is assigned the sense that is most similar, by
walk-vector overlap, to any sense of any word type in the paired text.
There is no sentence context: the paired text itself is the disambiguation
signal, so the procedure is symmetric and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph import Dictionary, SenseId
from .ppr import PprEngine
from .text import SummaryText


@dataclass(frozen=True)
class WordType:
    surface: str
    stem: str
    pos: str | None = None
    senses: tuple[SenseId, ...] = ()

    @property
    def is_oov(self) -> bool:
        return not self.senses


@dataclass(frozen=True)
class AssignedWord:
    word: WordType
    sense: SenseId | None  # None marks OOV
    support: float


@dataclass(frozen=True)
class SenseAssignment:
    entries: tuple[AssignedWord, ...]

    def __iter__(self) -> Iterator[AssignedWord]:
        return iter(self.entries)

    def senses(self) -> tuple[SenseId, ...]:
        """Assigned senses, duplicate-free, in entry order."""
        return tuple(dict.fromkeys(e.sense for e in self.entries if e.sense is not None))

    def oov_stems(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(e.word.stem for e in self.entries if e.sense is None))


def build_word_types(
    text: SummaryText,
    dictionary: Dictionary,
    pos_tags: dict[str, str] | None = None,
) -> list[WordType]:
    """Distinct final tokens of a text with their ranked dictionary senses.

    Lookup tries the surface form first, then the stem, since stemming can
    destroy dictionary lemmas. A word with no senses under either form is
    out of vocabulary. Without pos_tags all pos categories' senses compete;
    a pos_tags map (surface or stem -> pos) restricts candidates.
    """
    out = []
    for token, surface in text.word_types():
        pos = None
        if pos_tags is not None:
            pos = pos_tags.get(surface) or pos_tags.get(token)
        senses = dictionary.senses_of(surface, pos) or dictionary.senses_of(token, pos)
        out.append(WordType(surface=surface, stem=token, pos=pos, senses=tuple(senses)))
    return out


def align_disambiguate(
    item: Sequence[WordType],
    context: Sequence[WordType],
    engine: PprEngine,
) -> SenseAssignment:
    """Assign each item word the sense closest to any context sense.

    Ties prefer the lower sense rank, then the smaller sense id. When the
    context has no senses at all, every word keeps its rank-1 sense with
    support 0. OOV words are marked as such. Sense vectors missing from the
    engine's cache are walked one at a time, so callers scoring many words
    prime them first (see ``PprEngine.prime_senses``).
    """
    if not item:
        raise ValueError("item must contain at least one word")
    context_senses = tuple(dict.fromkeys(s for w in context for s in w.senses))

    entries = []
    for word in item:
        if word.is_oov:
            entries.append(AssignedWord(word, None, 0.0))
            continue
        if not context_senses:
            entries.append(AssignedWord(word, word.senses[0], 0.0))
            continue
        best_sense = word.senses[0]
        best_score = -1.0
        for sense in word.senses:  # rank order; strict > keeps the lowest rank on tie
            score = max(engine.sense_similarity(sense, c) for c in context_senses)
            if score > best_score:
                best_sense = sense
                best_score = score
        entries.append(AssignedWord(word, best_sense, best_score))
    return SenseAssignment(tuple(entries))


def disambiguate_pair(
    model_text: Sequence[WordType],
    peer_text: Sequence[WordType],
    engine: PprEngine,
) -> tuple[SenseAssignment, SenseAssignment]:
    """Disambiguate each side against the other as context."""
    model_assignment = align_disambiguate(model_text, peer_text, engine)
    peer_assignment = align_disambiguate(peer_text, model_text, engine)
    return model_assignment, peer_assignment
