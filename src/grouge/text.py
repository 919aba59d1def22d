"""Summary text ingestion: sentence splitting, tokenization, stemming.

Sentences break on line boundaries and on ``. ! ?`` followed by whitespace.
Tokens are maximal runs of ASCII letters and digits, case-folded. Stopwords
are kept and stemming is applied by default, matching the usual recall
scoring configuration; both can be switched off.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .porter import stem

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")
# A corpus repeats few distinct tokens many times; the bound caps the memo's
# memory whatever the vocabulary.
_memo_stem = lru_cache(maxsize=1 << 16)(stem)


@lru_cache(maxsize=1)
def stopwords() -> frozenset[str]:
    """The shipped English stopword list (lowercase)."""
    text = resources.files("grouge").joinpath("data/stopwords.txt").read_text("utf-8")
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


@dataclass(frozen=True)
class SummaryText:
    """Tokenized summary: per-sentence final tokens plus their pre-stem forms."""

    sentences: tuple[tuple[str, ...], ...]
    surfaces: tuple[tuple[str, ...], ...]

    @property
    def tokens(self) -> list[str]:
        return [t for sent in self.sentences for t in sent]

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def word_types(self) -> list[tuple[str, str]]:
        """Distinct final tokens in first-appearance order, with the first
        surface form seen for each."""
        seen: dict[str, str] = {}
        for sent, surf in zip(self.sentences, self.surfaces):
            for token, surface in zip(sent, surf):
                seen.setdefault(token, surface)
        return list(seen.items())


def tokenize(raw: str, stemming: bool = True, remove_stopwords: bool = False) -> SummaryText:
    """Split text into sentences and normalized tokens.

    Empty sentences are dropped; empty input yields an empty SummaryText.
    """
    drop = stopwords() if remove_stopwords else frozenset()
    sentences: list[tuple[str, ...]] = []
    surfaces: list[tuple[str, ...]] = []
    for line in raw.splitlines():
        for piece in _SENTENCE_BREAK.split(line):
            raw_tokens = [t.lower() for t in _TOKEN_RE.findall(piece)]
            kept = [t for t in raw_tokens if t not in drop]
            if not kept:
                continue
            surfaces.append(tuple(kept))
            sentences.append(tuple(map(_memo_stem, kept)) if stemming else tuple(kept))
    return SummaryText(sentences=tuple(sentences), surfaces=tuple(surfaces))
