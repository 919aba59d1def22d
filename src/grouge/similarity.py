"""Rank-harmonic comparison of walk vectors.

Two vectors are compared through the ranks of their shared dimensions:

    score = sum_h 1/(rank_1(h) + rank_2(h)) / sum_{i=1..|H|} 1/(2i)

which is 1 when the shared dimensions occupy identical rank prefixes and 0
when the supports are disjoint. Only ranks matter, so rescaling weights
never changes a score.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import SenseId
from .ppr import PprVector

DimensionKey = SenseId | str


@functools.cache
def _normalizer(h: int) -> float:
    """sum of 1/(2i) for i in 1..h, cached per h."""
    return float(np.sum(1.0 / (2.0 * np.arange(1, h + 1, dtype=np.float64))))


def _key_text(key: DimensionKey) -> str:
    return key.canonical if isinstance(key, SenseId) else key


@dataclass(frozen=True)
class RankedVector:
    """Dimension-key to rank map; ranks are exactly 1..N."""

    ranks: dict[DimensionKey, int]

    def __post_init__(self) -> None:
        if sorted(self.ranks.values()) != list(range(1, len(self.ranks) + 1)):
            raise ValueError("ranks must be exactly 1..N with no gaps or duplicates")

    @classmethod
    def from_weights(cls, weights: Mapping[DimensionKey, float]) -> "RankedVector":
        """Rank by descending weight, ties by ascending key text."""
        ordered = sorted(weights.items(), key=lambda kv: (-kv[1], _key_text(kv[0])))
        return cls({key: rank for rank, (key, _) in enumerate(ordered, start=1)})

    def __len__(self) -> int:
        return len(self.ranks)


def to_ranked(vector: PprVector) -> RankedVector:
    return RankedVector({key: rank for rank, (key, _) in enumerate(vector.items(), 1)})


def _score_from_rank_sums(rank_sums: np.ndarray) -> float:
    # Summing both the numerator and the normalizer over descending addends
    # makes identical rank structures compare to exactly 1.0 and keeps the
    # score symmetric in its arguments.
    h = len(rank_sums)
    if h == 0:
        return 0.0
    num = float(np.sum(1.0 / np.sort(rank_sums)))
    return min(num / _normalizer(h), 1.0)


def weighted_overlap(v1: RankedVector, v2: RankedVector) -> float:
    """Rank-harmonic overlap of two ranked vectors, in [0, 1]."""
    if not len(v1) or not len(v2):
        raise ValueError("empty signature")
    small, large = (v1.ranks, v2.ranks) if len(v1) <= len(v2) else (v2.ranks, v1.ranks)
    rank_sums = np.array(
        [r + large[k] for k, r in small.items() if k in large], dtype=np.float64
    )
    return _score_from_rank_sums(rank_sums)


def sim_sem(a: PprVector, b: PprVector) -> float:
    """Weighted overlap of two walk vectors' rank projections."""
    if not a or not b:
        raise ValueError("empty signature")
    if a.graph is not b.graph:
        return weighted_overlap(to_ranked(a), to_ranked(b))
    # Both tables are indexed by key id, so the shared keys come out in
    # ascending key order from either side and the score is exactly symmetric.
    table_a, table_b = a.dense_rank_table(), b.dense_rank_table()
    common = min(len(table_a), len(table_b))
    ranks_a, ranks_b = table_a[:common], table_b[:common]
    shared = (ranks_a > 0.0) & (ranks_b > 0.0)
    ranks_a_shared = ranks_a[shared]
    ranks_b_shared = ranks_b[shared]
    h = len(ranks_a_shared)
    if h == 0:
        return 0.0
    if h == len(a) == len(b) and np.array_equal(ranks_a_shared, ranks_b_shared):
        return 1.0  # identical rank structure
    num = float(np.sum(1.0 / (ranks_a_shared + ranks_b_shared)))
    return min(num / _normalizer(h), 1.0)


def insert_oov(
    vector: PprVector,
    oov_terms: list[str] | tuple[str, ...],
    weight_factor: float = 1.01,
) -> PprVector:
    """Add one top-ranked dimension per distinct OOV term.

    Inserted dimensions share a weight strictly above the current maximum
    (``weight_factor`` times it, or 1.0 on an empty vector), so they occupy
    the leading ranks, ordered by term. The same term inserted into two
    vectors yields the same dimension key, so the vectors intersect on it.
    """
    terms = sorted({t.lower() for t in oov_terms})
    if not terms:
        return vector
    if weight_factor <= 1.0:
        raise ValueError("weight_factor must exceed 1 to guarantee top placement")
    merged = sorted(set(vector.oov_terms) | set(terms))
    current_max = 0.0
    if len(vector.weights):
        current_max = float(vector.weights[0])
    if vector.oov_terms:
        current_max = max(current_max, vector.oov_weight)
    weight = weight_factor * current_max if current_max > 0.0 else 1.0
    return PprVector(vector.graph, vector.idx, vector.weights, tuple(merged), weight)
