"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit loops) and never calls the library code paths it is
used to check.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def dense_ppr(
    n_nodes: int,
    edges: list[tuple[int, int]],
    seeds: list[int],
    alpha: float = 0.15,
    iterations: int = 30,
) -> np.ndarray:
    """Dense power iteration with dangling mass returned to the seeds."""
    W = np.zeros((n_nodes, n_nodes), dtype=np.float64)
    for i, j in edges:
        if i != j:
            W[i, j] = 1.0
            W[j, i] = 1.0
    deg = W.sum(axis=0)
    P = np.divide(W, np.where(deg == 0.0, 1.0, deg)[None, :])
    dangling = deg == 0.0
    v0 = np.zeros(n_nodes)
    v0[list(seeds)] = 1.0 / len(seeds)
    v = v0.copy()
    for _ in range(iterations):
        v = (1.0 - alpha) * (P @ v + v0 * v[dangling].sum()) + alpha * v0
    return v


def walk_reference(graph, v0: np.ndarray, alpha: float = 0.15, iterations: int = 30) -> np.ndarray:
    """The walk kernel written term by term: scale every column by 1/degree,
    apply the adjacency, and add the restart times V(0) at every entry.

    Sums the same terms in the same order as the library kernel, so the
    two must agree bit for bit.
    """
    adj = graph.adjacency
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_deg = 1.0 / degree
    inv_deg[degree == 0] = 0.0
    inv_deg = inv_deg[:, None]
    dangling = np.flatnonzero(degree == 0)
    v = v0.copy()
    for _ in range(iterations):
        flow = adj @ (v * inv_deg)
        dangling_mass = v[dangling, :].sum(axis=0) if len(dangling) else 0.0
        v = (1.0 - alpha) * flow + v0 * ((1.0 - alpha) * dangling_mass + alpha)
    return v


def compress_reference(graph, column: np.ndarray, truncation: int | None = None):
    """(node indices, weights) of a column's positive entries, ranked by
    descending weight with ties by ascending SenseId text, by one lexsort."""
    n = graph.node_count
    order = sorted(range(n), key=lambda i: graph.sense_at(i).canonical)
    sid_rank = np.empty(n, dtype=np.int64)
    sid_rank[order] = np.arange(n)
    nz = np.flatnonzero(column > 0.0)
    w = column[nz]
    ranked = np.lexsort((sid_rank[nz], -w))
    idx, w = nz[ranked].astype(np.int64), w[ranked]
    if truncation is not None:
        idx, w = idx[:truncation], w[:truncation]
    return idx, w


def weighted_overlap_direct(w1: dict, w2: dict) -> float:
    """Direct evaluation of the rank-harmonic overlap from weight maps."""

    def ranks(weights: dict) -> dict:
        ordered = sorted(weights.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return {key: i + 1 for i, (key, _) in enumerate(ordered)}

    r1, r2 = ranks(w1), ranks(w2)
    shared = sorted(set(r1) & set(r2), key=str)
    if not shared:
        return 0.0
    num = sum(1.0 / (r1[h] + r2[h]) for h in shared)
    den = sum(1.0 / (2.0 * (i + 1)) for i in range(len(shared)))
    return num / den


def brute_force_align(item, context, pair_sim) -> list:
    """Exhaustive alignment over all sense pairings.

    pair_sim(sense_a, sense_b) must itself be oracle-based. For each word
    returns (word, {sense: best score over context senses}); the map is
    None for OOV words and empty when the context has no senses. Callers
    check that an implementation's choice is maximal in this enumeration;
    exact ties resolve to the lowest sense rank, which summation-order
    noise between two float paths cannot reproduce bit for bit, so the
    maximality check carries a tolerance instead.
    """
    context_senses = []
    for word in context:
        for sense in word.senses:
            if sense not in context_senses:
                context_senses.append(sense)
    out = []
    for word in item:
        if not word.senses:
            out.append((word, None))
            continue
        scores = {
            sense: max(pair_sim(sense, c) for c in context_senses)
            for sense in word.senses
        } if context_senses else {}
        out.append((word, scores))
    return out


def clipped_match_total(model_grams: list, peer_grams: list) -> int:
    """Multiset-intersection size: sum over grams of min(model, peer) count."""
    cm, cp = Counter(model_grams), Counter(peer_grams)
    return sum(min(count, cp[gram]) for gram, count in cm.items())


def su4_pairs(tokens: list[str], bos: str, max_gap: int = 4) -> list[tuple[str, str]]:
    """All (token_i, token_j) with 1 <= j - i <= max_gap plus (bos, token)."""
    out = []
    for i in range(len(tokens)):
        out.append((bos, tokens[i]))
        for j in range(i + 1, len(tokens)):
            if j - i <= max_gap:
                out.append((tokens[i], tokens[j]))
    return out


def consumed_matches(model_grams: list, peer_grams: list) -> list[int]:
    """Per model occurrence, in order: 1 if an equal peer occurrence is left
    unconsumed (and is consumed by it), else 0."""
    remaining = list(peer_grams)
    out = []
    for gram in model_grams:
        if gram in remaining:
            remaining.remove(gram)
            out.append(1)
        else:
            out.append(0)
    return out


def recall_oracle(peer_sentences: list, model_sentences: list[list], family: str,
                  bos: str) -> float:
    """Clipped recall of one peer over several models, from token sentences.

    family is "1" (unigrams), "2" (bigrams) or "su4" (su4_pairs); grams
    never cross a sentence boundary.
    """

    def grams(sentences) -> list:
        out = []
        for sent in sentences:
            tokens = list(sent)
            if family == "1":
                out += [(t,) for t in tokens]
            elif family == "2":
                out += [(tokens[i], tokens[i + 1]) for i in range(len(tokens) - 1)]
            else:
                out += su4_pairs(tokens, bos)
        return out

    peer = grams(peer_sentences)
    matched = sum(sum(consumed_matches(grams(m), peer)) for m in model_sentences)
    total = sum(len(grams(m)) for m in model_sentences)
    return matched / total if total else 0.0


def pearson_oracle(x, y) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def average_ranks_oracle(values) -> list[float]:
    ordered = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[ordered[j + 1]] == values[ordered[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[ordered[k]] = mean_rank
        i = j + 1
    return ranks


def spearman_oracle(x, y) -> float:
    return pearson_oracle(average_ranks_oracle(list(x)), average_ranks_oracle(list(y)))


def kendall_tau_b_oracle(x, y) -> float:
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    pairs = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((pairs - ties_x) * (pairs - ties_y))


def williams_oracle(r12: float, r13: float, r23: float, n: int):
    """High-precision evaluation of the dependent-correlation t test."""
    import mpmath as mp

    with mp.workdps(50):
        r12m, r13m, r23m, nm = mp.mpf(r12), mp.mpf(r13), mp.mpf(r23), mp.mpf(n)
        det = 1 - r12m**2 - r13m**2 - r23m**2 + 2 * r12m * r13m * r23m
        rbar = (r12m + r13m) / 2
        t = (r12m - r13m) * mp.sqrt((nm - 1) * (1 + r23m)) / mp.sqrt(
            2 * det * (nm - 1) / (nm - 3) + rbar**2 * (1 - r23m) ** 3
        )
        df = nm - 3
        x = df / (df + t**2)
        tail = mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
        p = tail if t >= 0 else 1 - tail
        return float(t), float(p)
