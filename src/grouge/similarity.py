"""Rank-harmonic comparison of walk vectors.

Two vectors are compared through the ranks of their shared dimensions:

    score = sum_h 1/(rank_1(h) + rank_2(h)) / sum_{i=1..|H|} 1/(2i)

which is 1 when the shared dimensions occupy identical rank prefixes and 0
when the supports are disjoint. Only ranks matter, so rescaling weights
never changes a score.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from .ppr import PprVector

# An OOV dimension's weight over the vector's largest weight: above 1, so
# inserted dimensions take the leading ranks.
_OOV_WEIGHT_FACTOR = 1.01


@functools.cache
def _normalizer(h: int) -> float:
    """sum of 1/(2i) for i in 1..h, cached per h."""
    return float(np.sum(1.0 / (2.0 * np.arange(1, h + 1, dtype=np.float64))))


def sim_sem(a: PprVector, b: PprVector) -> float:
    """Weighted overlap of two walk vectors' rank projections.

    OOV dimensions rank first, in term order, and are matched by term; each
    sense's rank is its rank among the senses plus the count of its vector's
    OOV dimensions. The shared senses are summed in ascending node index,
    then the shared OOV terms in term order, so the score is exactly
    symmetric and depends on nothing but the two vectors.
    """
    if not a or not b:
        raise ValueError("empty signature")
    if a.graph is not b.graph:
        raise ValueError("vectors from different graphs")
    table_a, table_b = a.ranks, b.ranks
    common = min(len(table_a), len(table_b))
    ranks_a, ranks_b = table_a[:common], table_b[:common]
    rank_sums = ranks_a + ranks_b
    if a.senses == b.senses == len(table_a) == len(table_b):
        n_shared = common  # neither table has a zero: every sense is shared
    else:
        shared = np.minimum(ranks_a, ranks_b) > 0
        n_shared = int(np.count_nonzero(shared))
        if n_shared < common:  # compact only when some sense is in one vector alone
            rank_sums = rank_sums[shared]
    oov_sums: list[int] = []
    if a.oov_terms and b.oov_terms:
        oov_b = {term: r for r, term in enumerate(b.oov_terms, 1)}
        oov_sums = [r + oov_b[term] for r, term in enumerate(a.oov_terms, 1) if term in oov_b]
    h = n_shared + len(oov_sums)
    if h == 0:
        return 0.0
    # All dimensions shared: the prefixes are zero at the same entries. The
    # first ranks almost always differ already, which is cheaper to find.
    if h == len(a) == len(b) and (
        not common or ranks_a[0] == ranks_b[0] and np.array_equal(ranks_a, ranks_b)
    ):
        return 1.0  # identical rank structure
    oov_count = len(a.oov_terms) + len(b.oov_terms)
    if oov_count:
        rank_sums = rank_sums + oov_count
    if oov_sums:
        rank_sums = np.concatenate([rank_sums, np.array(oov_sums, dtype=rank_sums.dtype)])
    num = float(np.sum(1.0 / rank_sums))
    return min(num / _normalizer(h), 1.0)


def insert_oov(vector: PprVector, oov_terms: list[str] | tuple[str, ...]) -> PprVector:
    """Add one top-ranked dimension per distinct OOV term.

    Inserted dimensions share a weight strictly above the current maximum
    (1.01 times it, or 1.0 on a vector without weights: an empty one, or a
    rank-only composed one, whose sense weights are all below 1), so they
    occupy the leading ranks, ordered by term. The same term inserted into
    two vectors is the same dimension, so the vectors intersect on it. The
    result shares the vector's rank table and weights.
    """
    terms = sorted({t.lower() for t in oov_terms})
    if not terms:
        return vector
    merged = sorted(set(vector.oov_terms) | set(terms))
    current_max = 0.0
    if len(vector.weights):
        current_max = float(vector.weights[0])
    if vector.oov_terms:
        current_max = max(current_max, vector.oov_weight)
    weight = _OOV_WEIGHT_FACTOR * current_max if current_max > 0.0 else 1.0
    out = copy.copy(vector)
    out.oov_terms, out.oov_weight = tuple(merged), weight
    return out
