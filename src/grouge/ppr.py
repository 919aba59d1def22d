"""Personalized PageRank vectors over the semantic graph.

The walk update is

    V(t) = (1 - alpha) * W @ V(t-1) + alpha * V(0)

with W column-stochastic (column j uniform over j's neighbours) and the
mass of degree-zero columns redistributed to the seed distribution V(0),
so every iterate stays a probability vector. The iteration count is fixed
(default 30) so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graph import SemanticGraph, SenseId

_BATCH_COLUMNS = 256


@dataclass(frozen=True, slots=True)
class PprConfig:
    alpha: float = 0.15
    iterations: int = 30
    truncation: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.truncation is not None and self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")


@dataclass(frozen=True)
class SeedSet:
    """Duplicate-free, order-preserving set of seed senses."""

    senses: tuple[SenseId, ...]

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.senses))
        object.__setattr__(self, "senses", deduped)
        if not deduped:
            raise ValueError("empty seed set")

    @classmethod
    def of(cls, senses: Iterable[SenseId]) -> "SeedSet":
        return cls(tuple(senses))

    def __len__(self) -> int:
        return len(self.senses)

    def __iter__(self) -> Iterator[SenseId]:
        return iter(self.senses)


class PprVector:
    """Sparse probability vector over senses, plus optional OOV dimensions.

    Entries iterate in rank order: descending weight, ties by ascending
    dimension key. OOV dimensions outweigh every sense dimension by
    construction, so they come first, ordered by term.
    """

    __slots__ = ("graph", "idx", "weights", "oov_terms", "oov_weight", "_dense", "_cache")

    def __init__(
        self,
        graph: SemanticGraph,
        idx: np.ndarray,
        weights: np.ndarray,
        oov_terms: tuple[str, ...] = (),
        oov_weight: float = 0.0,
    ):
        self.graph = graph
        self.idx = idx
        self.weights = weights
        self.oov_terms = oov_terms
        self.oov_weight = oov_weight
        self._dense: np.ndarray | None = None
        self._cache: _LruCache | None = None  # the cache holding this vector

    def __len__(self) -> int:
        return len(self.idx) + len(self.oov_terms)

    def __bool__(self) -> bool:
        return len(self) > 0

    def items(self) -> Iterator[tuple[SenseId | str, float]]:
        for term in self.oov_terms:
            yield term, self.oov_weight
        for i, w in zip(self.idx, self.weights):
            yield self.graph.sense_at(int(i)), float(w)

    def top(self, k: int) -> list[tuple[SenseId | str, float]]:
        out = []
        for key, w in self.items():
            if len(out) >= k:
                break
            out.append((key, w))
        return out

    def weight_of(self, key: SenseId | str) -> float:
        if isinstance(key, str):
            return self.oov_weight if key in self.oov_terms else 0.0
        pos = np.flatnonzero(self.idx == self.graph.node_index(key))
        return float(self.weights[pos[0]]) if len(pos) else 0.0

    def sense_weight_sum(self) -> float:
        return float(self.weights.sum())

    def dense_rank_table(self) -> np.ndarray:
        """key id -> rank lookup array (0 marks an absent dimension).

        Sense keys are graph node indices; OOV keys are interned past the
        node range, so the two namespaces cannot collide. The table ends at
        the largest key present.
        """
        table = self._dense
        if table is None:
            m = len(self.oov_terms)
            oov_keys = [self.graph.oov_key_id(term) for term in self.oov_terms]
            size = max(oov_keys) + 1 if oov_keys else int(self.idx.max(initial=-1)) + 1
            table = np.zeros(size, dtype=np.float64)
            table[oov_keys] = np.arange(1, m + 1, dtype=np.float64)
            table[self.idx] = np.arange(m + 1, m + 1 + len(self.idx), dtype=np.float64)
            self._dense = table
            if self._cache is not None:
                self._cache.stored_bytes += table.nbytes
        return table

    def rank_of(self, key: SenseId | str) -> int | None:
        for r, (k, _) in enumerate(self.items(), start=1):
            if k == key:
                return r
        return None

    def nbytes(self) -> int:
        """Bytes held by the arrays of this vector, the rank table included
        once it is built."""
        table = 0 if self._dense is None else self._dense.nbytes
        return self.idx.nbytes + self.weights.nbytes + table + 64 * len(self.oov_terms)


def _seed_indices(graph: SemanticGraph, seeds: SeedSet | Iterable[SenseId]) -> np.ndarray:
    if not isinstance(seeds, SeedSet):
        seeds = SeedSet.of(seeds)
    return np.array([graph.node_index(s) for s in seeds], dtype=np.int64)


def _run_walk(graph: SemanticGraph, v0: np.ndarray, cfg: PprConfig) -> np.ndarray:
    """Apply the walk update to every column of v0 simultaneously."""
    adj = graph.adjacency
    inv_deg = graph.inv_degree[:, None]
    dangling = graph.dangling
    v = v0.copy()
    for _ in range(cfg.iterations):
        flow = adj @ (v * inv_deg)
        dangling_mass = v[dangling, :].sum(axis=0) if len(dangling) else 0.0
        v = (1.0 - cfg.alpha) * flow + v0 * ((1.0 - cfg.alpha) * dangling_mass + cfg.alpha)
    return v


def _compress(graph: SemanticGraph, column: np.ndarray, cfg: PprConfig) -> PprVector:
    nz = np.flatnonzero(column > 0.0)
    w = column[nz]
    order = np.lexsort((graph.sid_rank[nz], -w))
    idx = nz[order].astype(np.int64)
    w = w[order]
    if cfg.truncation is not None and len(idx) > cfg.truncation:
        idx = idx[: cfg.truncation]
        w = w[: cfg.truncation]
    return PprVector(graph, idx, w)


def compute_ppr(
    graph: SemanticGraph,
    seeds: SeedSet | Iterable[SenseId],
    cfg: PprConfig = PprConfig(),
) -> PprVector:
    """Run the walk from a uniform distribution over the seed set."""
    seed_idx = _seed_indices(graph, seeds)
    v0 = np.zeros((graph.node_count, 1), dtype=np.float64)
    v0[seed_idx, 0] = 1.0 / len(seed_idx)
    v = _run_walk(graph, v0, cfg)
    return _compress(graph, v[:, 0], cfg)


class _LruCache:
    """LRU map of walk vectors with hit/miss/eviction counters.

    stored_bytes is the summed nbytes() of the cached vectors; a vector adds
    its rank table's bytes itself when it builds the table while cached.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict[tuple[int, ...], PprVector] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stored_bytes = 0
        # Entries loaded from a persisted cache file; hits on them measure
        # cross-run reuse, which is what the cache-stats command reports.
        self.preloaded: set = set()
        self.preloaded_hits = 0

    def get(self, key: tuple[int, ...]) -> PprVector | None:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        if key in self.preloaded:
            self.preloaded_hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: tuple[int, ...], vec: PprVector, preloaded: bool = False) -> None:
        if self.capacity <= 0 or key in self._data:
            return
        self._data[key] = vec
        vec._cache = self
        self.stored_bytes += vec.nbytes()
        if preloaded:
            self.preloaded.add(key)
        while len(self._data) > self.capacity:
            evicted_key, evicted = self._data.popitem(last=False)
            self.evictions += 1
            self.preloaded.discard(evicted_key)
            self.stored_bytes -= evicted.nbytes()
            evicted._cache = None

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> list[tuple[tuple[int, ...], PprVector]]:
        return list(self._data.items())


@dataclass
class CacheStats:
    enabled: bool
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    memory_bytes: int = 0
    preloaded: int = 0
    preloaded_hits: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class PprEngine:
    """Walk-vector provider with an LRU cache keyed by seed set.

    Every output is a pure function of (graph, config, seeds).
    """

    def __init__(
        self,
        graph: SemanticGraph,
        cfg: PprConfig = PprConfig(),
        cache_capacity: int = 200_000,
        sim_cache_capacity: int = 1 << 20,
    ):
        self.graph = graph
        self.cfg = cfg
        self._cache = _LruCache(cache_capacity)
        self._sim_memo: dict[tuple[int, int], float] = {}
        self._sim_memo_cap = sim_cache_capacity

    # -- vector access ------------------------------------------------

    def vector_for_seeds(self, seeds: SeedSet | Iterable[SenseId]) -> PprVector:
        seed_idx = _seed_indices(self.graph, seeds)
        key = tuple(sorted(set(seed_idx.tolist())))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        vec = compute_ppr(self.graph, [self.graph.sense_at(i) for i in key], self.cfg)
        self._cache.put(key, vec)
        return vec

    def ppr_for_sense(self, sense: SenseId) -> PprVector:
        return self.vector_for_seeds((sense,))

    def ppr_for_sense_set(self, senses: SeedSet | Iterable[SenseId]) -> PprVector:
        return self.vector_for_seeds(senses)

    # -- batch priming --------------------------------------------------

    def prime_seed_sets(self, seed_sets: Sequence[Iterable[SenseId]]) -> None:
        """Compute any uncached vectors for the given seed sets in batches.

        One walk pass over the adjacency serves many columns at once, which
        is far cheaper than per-seed passes on large graphs.
        """
        keys: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for seeds in seed_sets:
            idx = _seed_indices(self.graph, seeds)
            key = tuple(sorted(set(idx.tolist())))
            if key in seen:
                continue
            seen.add(key)
            if self._cache.get(key) is None:
                keys.append(key)
        for start in range(0, len(keys), _BATCH_COLUMNS):
            chunk = keys[start : start + _BATCH_COLUMNS]
            v0 = np.zeros((self.graph.node_count, len(chunk)), dtype=np.float64)
            for col, key in enumerate(chunk):
                v0[list(key), col] = 1.0 / len(key)
            v = _run_walk(self.graph, v0, self.cfg)
            for col, key in enumerate(chunk):
                vec = _compress(self.graph, v[:, col], self.cfg)
                self._cache.put(key, vec)

    def prime_senses(self, senses: Iterable[SenseId]) -> None:
        self.prime_seed_sets([(s,) for s in dict.fromkeys(senses)])

    # -- sense-pair similarity memo ------------------------------------

    def sense_similarity(self, a: SenseId, b: SenseId) -> float:
        from .similarity import sim_sem

        ia, ib = self.graph.node_index(a), self.graph.node_index(b)
        key = (ia, ib) if ia <= ib else (ib, ia)
        cached = self._sim_memo.get(key)
        if cached is not None:
            return cached
        value = sim_sem(self.ppr_for_sense(a), self.ppr_for_sense(b))
        if len(self._sim_memo) < self._sim_memo_cap:
            self._sim_memo[key] = value
        return value

    # -- cache administration ------------------------------------------

    def stats(self) -> CacheStats:
        c = self._cache
        return CacheStats(
            enabled=c.capacity > 0,
            hits=c.hits,
            misses=c.misses,
            evictions=c.evictions,
            size=len(c),
            capacity=c.capacity,
            memory_bytes=c.stored_bytes,
            preloaded=len(c.preloaded),
            preloaded_hits=c.preloaded_hits,
        )

    def save_cache(self, path, meta: dict) -> None:
        entries = [
            (key, vec.idx, vec.weights) for key, vec in self._cache.items()
        ]
        payload = {
            "version": 1,
            "meta": meta,
            "stats": self.stats().as_dict(),
            "entries": entries,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def load_cache(self, path, expect_meta: dict) -> bool:
        """Load a persisted cache; returns False (and loads nothing) when the
        stored graph/dict fingerprints do not match."""
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if payload.get("meta") != expect_meta:
            return False
        for key, idx, weights in payload["entries"]:
            vec = PprVector(self.graph, idx, weights)
            self._cache.put(key, vec, preloaded=True)
        return True


def read_cache_file(path) -> dict:
    """Stats and fingerprints of a persisted cache file, without a graph."""
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    return {"meta": payload.get("meta", {}), "stats": payload.get("stats", {})}
