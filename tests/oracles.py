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
    two must agree bit for bit. A column's dangling mass adds its entries
    at the dangling nodes one at a time in ascending node index, whatever
    other columns v0 holds. The 0/1 adjacency is built from the graph's
    edge list, not from the walk matrix.
    """
    from scipy import sparse

    n = graph.node_count
    ends = [(graph.node_index(a), graph.node_index(b)) for a, b in graph.edge_list()]
    rows = [i for i, j in ends] + [j for i, j in ends]
    cols = [j for i, j in ends] + [i for i, j in ends]
    adj = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    degree = np.asarray(adj.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_deg = 1.0 / degree
    inv_deg[degree == 0] = 0.0
    inv_deg = inv_deg[:, None]
    dangling = np.flatnonzero(degree == 0)
    v = v0.copy()
    for _ in range(iterations):
        flow = adj @ (v * inv_deg)
        dangling_mass = np.zeros(v.shape[1])
        for i in dangling:
            dangling_mass += v[i, :]
        v = (1.0 - alpha) * flow + v0 * ((1.0 - alpha) * dangling_mass + alpha)
    return v


def seed_set_reference(graph, seeds, alpha: float = 0.15, iterations: int = 30) -> np.ndarray:
    """The multi-seed walk's column for a uniform distribution over the seed
    node indices: the weights a composed seed-set vector must match."""
    v0 = np.zeros((graph.node_count, 1))
    v0[list(seeds), 0] = 1.0 / len(set(seeds))
    return walk_reference(graph, v0, alpha, iterations)[:, 0]


def compress_reference(graph, column: np.ndarray):
    """(node indices, weights) of a column's positive entries, ranked by
    descending weight with ties by ascending SenseId text, by one lexsort."""
    n = graph.node_count
    order = sorted(range(n), key=lambda i: graph.sense_at(i).canonical)
    sid_rank = np.empty(n, dtype=np.int64)
    sid_rank[order] = np.arange(n)
    nz = np.flatnonzero(column > 0.0)
    w = column[nz]
    ranked = np.lexsort((sid_rank[nz], -w))
    return nz[ranked].astype(np.int64), w[ranked]


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


def vector_from_weights(graph, weights: dict):
    """A PprVector holding a {SenseId: weight} map, in rank order: descending
    weight, ties by ascending sense id."""
    from grouge import PprVector

    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0].canonical))
    idx = np.array([graph.node_index(key) for key, _ in ordered], dtype=np.int64)
    return PprVector(graph, idx, np.array([w for _, w in ordered], dtype=np.float64))


def weight_in(vector, key) -> float:
    """key's weight as vector.items() lists it; 0.0 when it is absent."""
    return next((w for k, w in vector.items() if k == key), 0.0)


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


def align_loop(item, context, engine) -> list[tuple]:
    """(sense, support) per item word, by the per-cell loop ``grouge`` used
    before it read assignments from a similarity table.

    Every item sense takes the max of ``engine.sense_similarity`` over the
    context senses; the senses are visited in rank order and a strict ``>``
    keeps the lowest rank on a tie. OOV words get (None, 0.0) and, when the
    context has no senses, each word gets (rank-1 sense, 0.0).
    """
    if not item:
        raise ValueError("item must contain at least one word")
    context_senses = tuple(dict.fromkeys(s for w in context for s in w.senses))
    out = []
    for word in item:
        if not word.senses:
            out.append((None, 0.0))
            continue
        if not context_senses:
            out.append((word.senses[0], 0.0))
            continue
        best_sense = word.senses[0]
        best_score = -1.0
        for sense in word.senses:
            score = max(engine.sense_similarity(sense, c) for c in context_senses)
            if score > best_score:
                best_sense = sense
                best_score = score
        out.append((best_sense, best_score))
    return out


def sim_sem_reference(a, b) -> float:
    """``sim_sem`` as it was before it skipped the compaction of fully
    shared rank tables: shared senses selected by a mask every time."""
    if not a or not b:
        raise ValueError("empty signature")
    table_a, table_b = a.ranks, b.ranks
    common = min(len(table_a), len(table_b))
    ranks_a, ranks_b = table_a[:common], table_b[:common]
    shared = (ranks_a > 0) & (ranks_b > 0)
    ranks_a_shared = ranks_a[shared]
    ranks_b_shared = ranks_b[shared]
    oov_sums: list[int] = []
    if a.oov_terms and b.oov_terms:
        oov_b = {term: r for r, term in enumerate(b.oov_terms, 1)}
        oov_sums = [r + oov_b[term] for r, term in enumerate(a.oov_terms, 1) if term in oov_b]
    h = len(ranks_a_shared) + len(oov_sums)
    if h == 0:
        return 0.0
    if h == len(a) == len(b) and np.array_equal(ranks_a_shared, ranks_b_shared):
        return 1.0
    rank_sums = ranks_a_shared + ranks_b_shared + (len(a.oov_terms) + len(b.oov_terms))
    if oov_sums:
        rank_sums = np.concatenate([rank_sums, np.array(oov_sums, dtype=rank_sums.dtype)])
    num = float(np.sum(1.0 / rank_sums))
    normalizer = float(np.sum(1.0 / (2.0 * np.arange(1, h + 1, dtype=np.float64))))
    return min(num / normalizer, 1.0)


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


# The correlation coefficients and the bootstrap as they were written one
# resample at a time, with numpy; the row-wise library code must reproduce
# them bit for bit.


def pearson_reference(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    vx = float(np.sum(dx * dx))
    vy = float(np.sum(dy * dy))
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero variance")
    return float(np.sum(dx * dy)) / math.sqrt(vx * vy)


def average_ranks_reference(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def spearman_reference(x: np.ndarray, y: np.ndarray) -> float:
    return pearson_reference(average_ranks_reference(x), average_ranks_reference(y))


def kendall_reference(x: np.ndarray, y: np.ndarray, variant: str = "b") -> float:
    n = len(x)
    iu = np.triu_indices(n, k=1)
    dx = np.sign(x[:, None] - x[None, :])[iu]
    dy = np.sign(y[:, None] - y[None, :])[iu]
    product = dx * dy
    concordant = int(np.sum(product > 0))
    discordant = int(np.sum(product < 0))
    pairs = n * (n - 1) // 2
    if variant == "a":
        return (concordant - discordant) / pairs
    ties_x = int(np.sum(dx == 0))
    ties_y = int(np.sum(dy == 0))
    denom = (pairs - ties_x) * (pairs - ties_y)
    if denom == 0:
        raise ValueError("zero variance")
    return (concordant - discordant) / math.sqrt(denom)


def bootstrap_ci_reference(x, y, coefficient="pearson", resamples=1000, confidence=0.95,
                           seed=42, kendall_variant="b") -> tuple[float, float]:
    """One resample at a time: child stream i of the seed draws resample i,
    redrawing while a column is constant (at most 10x resamples redraws in
    all), and the coefficient is computed on each resample in turn."""
    funcs = {
        "pearson": pearson_reference,
        "spearman": spearman_reference,
        "kendall": lambda a, b: kendall_reference(a, b, kendall_variant),
    }
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    func = funcs[coefficient]
    n = len(x)
    retries_left = 10 * resamples
    values = np.empty(resamples, dtype=np.float64)
    children = np.random.SeedSequence(seed).spawn(resamples)
    for i in range(resamples):
        rng = np.random.default_rng(children[i])
        while True:
            idx = rng.integers(0, n, size=n)
            bx, by = x[idx], y[idx]
            if np.all(bx == bx[0]) or np.all(by == by[0]):
                retries_left -= 1
                if retries_left < 0:
                    raise ValueError("bootstrap exceeded retry cap on degenerate resamples")
                continue
            values[i] = func(bx, by)
            break
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(values, [tail, 100.0 - tail])
    return float(lo), float(hi)


# -- row-wise kernels over resampled positions -------------------------------
# ``grouge.stats`` computed its Kendall and Spearman bootstrap rows this way
# before it computed them from how often each original row is drawn: every
# resampled position gathered, every pair of positions looked up in a code
# table, and every row of values sorted again.

_KENDALL_BLOCK = 1 << 20  # pair entries per block of resample rows


def kendall_rows_reference(x: np.ndarray, y: np.ndarray, idx: np.ndarray,
                           variant: str) -> np.ndarray:
    """Kendall coefficient of (x[idx[r]], y[idx[r]]) for each row r of idx."""
    n = idx.shape[1]
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    product = dx * dy
    # bit 0: concordant, 1: discordant, 2: tied in x, 3: tied in y
    code = ((product > 0) + 2 * (product < 0) + 4 * (dx == 0) + 8 * (dy == 0)).astype(np.uint8)
    code = code.ravel()
    first, second = np.triu_indices(n, k=1)
    pairs = len(first)
    counts = np.empty((4, len(idx)), dtype=np.int64)
    step = max(1, _KENDALL_BLOCK // pairs)
    for lo in range(0, len(idx), step):
        block = idx[lo : lo + step]
        codes = code[block[:, first] * n + block[:, second]]
        for bit in range(4):
            counts[bit, lo : lo + step] = np.count_nonzero(codes & (1 << bit), axis=1)
    concordant, discordant, ties_x, ties_y = counts
    if variant == "a":
        return (concordant - discordant) / pairs
    denom = (pairs - ties_x) * (pairs - ties_y)
    if np.any(denom == 0):
        raise ValueError("zero variance")
    return (concordant - discordant) / np.sqrt(denom)


def average_ranks_rows_reference(x: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based) within each row; ties get the mean of
    their positions."""
    rows, n = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=1)
    position = np.broadcast_to(np.arange(n), (rows, n))
    starts_run = np.ones((rows, n), dtype=bool)
    starts_run[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends_run = np.ones((rows, n), dtype=bool)
    ends_run[:, :-1] = starts_run[:, 1:]
    first = np.maximum.accumulate(np.where(starts_run, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends_run, position, n - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty_like(x)
    np.put_along_axis(ranks, order, (first + last + 2) / 2.0, axis=1)
    return ranks


def pearson_rows_reference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson coefficient of each row of x with the same row of y, as the
    bootstrap computed it on gathered values."""
    dx = x - np.mean(x, axis=1, keepdims=True)
    dy = y - np.mean(y, axis=1, keepdims=True)
    scale = np.sqrt(np.sum(dx * dx, axis=1) * np.sum(dy * dy, axis=1))
    if np.any(scale == 0.0):
        raise ValueError("zero variance")
    return np.sum(dx * dy, axis=1) / scale


def load_graph_reference(lines):
    """The relation-file loader as it was: every endpoint token parsed into a
    SenseId, interned by SenseId, edges kept as a set of (min, max) tuples
    and sorted in Python."""
    from grouge.graph import ParseError, SemanticGraph, SenseId

    senses: list = []
    index: dict = {}
    edges: set = set()

    def intern(sense) -> int:
        idx = index.get(sense)
        if idx is None:
            idx = len(senses)
            index[sense] = idx
            senses.append(sense)
        return idx

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields: dict = {}
        for token in line.split():
            key, sep, value = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed token {token!r}")
            fields.setdefault(key, value)
        for required in ("u", "v"):
            if required not in fields:
                raise ParseError(f"line {lineno}: missing key {required!r}")
        try:
            u = SenseId.parse(fields["u"])
            v = SenseId.parse(fields["v"])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        ui, vi = intern(u), intern(v)
        if ui == vi:
            continue
        edges.add((min(ui, vi), max(ui, vi)))

    if not edges:
        raise ParseError("no edges loaded")
    return SemanticGraph(senses, np.array(sorted(edges), dtype=np.int64))


# -- Porter stemmer ----------------------------------------------------------
# The stemmer ``grouge.porter`` used before it read every test from one
# consonant/vowel pattern and ran steps 1a-4 through one suffix matcher:
# consonant-ness one letter at a time, a hand-coded step 1a and a separate
# step 4. Within each rule group the longest matching suffix selects the
# single candidate rule; if that rule's condition fails, no shorter suffix
# in the group is tried. Words of one or two letters are returned unchanged.

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o: ends consonant-vowel-consonant, final consonant not w, x, or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _apply_group(word: str, rules: list[tuple[str, str, int | None]]) -> str:
    """Longest matching suffix wins; its m-condition then gates the rewrite."""
    best = None
    for suffix, replacement, min_m in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, replacement, min_m)
    if best is None:
        return word
    suffix, replacement, min_m = best
    stem = word[: len(word) - len(suffix)]
    if min_m is not None and _measure(stem) <= min_m:
        return word
    return stem + replacement


_STEP2 = [
    ("ational", "ate", 0), ("tional", "tion", 0), ("enci", "ence", 0),
    ("anci", "ance", 0), ("izer", "ize", 0), ("abli", "able", 0),
    ("alli", "al", 0), ("entli", "ent", 0), ("eli", "e", 0),
    ("ousli", "ous", 0), ("ization", "ize", 0), ("ation", "ate", 0),
    ("ator", "ate", 0), ("alism", "al", 0), ("iveness", "ive", 0),
    ("fulness", "ful", 0), ("ousness", "ous", 0), ("aliti", "al", 0),
    ("iviti", "ive", 0), ("biliti", "ble", 0),
]

_STEP3 = [
    ("icate", "ic", 0), ("ative", "", 0), ("alize", "al", 0),
    ("iciti", "ic", 0), ("ical", "ic", 0), ("ful", "", 0), ("ness", "", 0),
]

_STEP4 = [
    ("al", "", 1), ("ance", "", 1), ("ence", "", 1), ("er", "", 1),
    ("ic", "", 1), ("able", "", 1), ("ible", "", 1), ("ant", "", 1),
    ("ement", "", 1), ("ment", "", 1), ("ent", "", 1), ("ion", "", 1),
    ("ou", "", 1), ("ism", "", 1), ("ate", "", 1), ("iti", "", 1),
    ("ous", "", 1), ("ive", "", 1), ("ize", "", 1),
]


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    applied = False
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
        applied = True
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
        applied = True
    if not applied:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    best = None
    for suffix, _, _ in _STEP4:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    if best is None:
        return word
    stem = word[: len(word) - len(best)]
    if _measure(stem) <= 1:
        return word
    if best == "ion" and (not stem or stem[-1] not in "st"):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word[-1] == "l":
        return word[:-1]
    return word


def porter_reference(token: str) -> str:
    """Stem a lowercase token; tokens shorter than 3 letters pass through."""
    if len(token) <= 2:
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_group(word, _STEP2)
    word = _apply_group(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
