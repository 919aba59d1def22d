"""Personalized PageRank vectors over the semantic graph.

The walk update is

    V(t) = (1 - alpha) * P @ V(t-1) + c(t) * V(0),
    c(t) = (1 - alpha) * (dangling mass of V(t-1)) + alpha

with P the column-stochastic transition matrix (column j uniform over j's
neighbours) and the mass of degree-zero columns returned to the seed
distribution V(0), so every iterate stays a probability vector. The
iteration count is fixed (``PprConfig.iterations``) so runs are bit-for-bit reproducible.

P is the graph's one matrix (``SemanticGraph.transition``, with the
node degrees beside it), built once per graph, and V(0) is nonzero only at
the seed entries, so an iteration is one sparse product, one scaling and
an update of the seed entries alone. This gives the same bits as applying
the 0/1 adjacency to a degree-scaled copy of V and adding c * V(0)
everywhere: each adjacency product 1.0 * (v * 1/deg) equals (1/deg) * v
exactly and the sparse product sums the same terms in the same order;
adding the 0.0 that c * V(0) holds off the seeds leaves a non-negative
entry unchanged.

Nodes are numbered in ascending SenseId order (``SemanticGraph``), so
"ascending node index" below is ascending sense id, and a vector does not
depend on the order in which the relation file lists its edges.

A seed set's vector is defined as follows. A single seed is walked. A set
with more than one seed, none of them isolated (degree 0), is composed:
the mean of its seeds' single-seed walk columns, summed in ascending node
index, multiplied by 1/len(seeds) and then ranked by ``_compress``. On an
undirected graph a walk from a seed with neighbours never reaches a
dangling node, so the update is linear in V(0) and the mean equals the
multi-seed walk in real arithmetic (Jeh & Widom, "Scaling Personalized
Web Search", WWW 2003); the two differ in rounding only. A set with an
isolated seed is walked from its uniform seed distribution, because that
seed's restart mass leaks to the other seeds. A walked vector stores every
positive entry of its column, so scattering its weights back through its
rank table restores the column bit for bit.

Scoring compares vectors by rank only (``similarity.sim_sem``), and only
composition reads weights, from walked single-seed vectors. So a composed
vector in an engine keeps its rank table and sense count only: at 117k
nodes that is 0.47 MB instead of 1.41 MB. ``compute_ppr``, which the
``ppr`` command lists, composes a set's weights with the same ``_compose``.

Columns are independent: a column's bits do not depend on the other
columns of its pass, nor a composed vector on the other sets of its batch.
So each walk pass is split by columns, and each batch of composed sets by
set, into one share per CPU the process may run on (``_by_share``); the
calling thread computes one share, and only it touches the cache.

A cache file (``save_cache``) holds the walked vectors only, the basis that
every composed vector is built from; a run that loads it composes the other
sets again. It is an uncompressed ``.npz`` archive of plain arrays, read
with ``np.load``, which refuses object arrays, so opening it runs no code
from it.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fileio import atomic_output
from .graph import SemanticGraph, SenseId

_BATCH_COLUMNS = 256
DEFAULT_CACHE_CAPACITY = 200_000  # walk vectors an engine keeps
_SIM_MEMO_CAPACITY = 1 << 20  # sense pairs whose similarity the engine keeps
_NO_WEIGHTS = np.empty(0, dtype=np.float64)  # the weights of every rank-only vector
_NO_WEIGHTS.flags.writeable = False


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


_THREADS = _usable_cpus()  # shares per walk pass and per batch of composed sets
# A batch is split only on a graph of at least this many nodes. On 2 CPUs,
# split walk passes over 1,000-5,000 nodes took up to 3.4 times as long as
# unsplit ones (5,000 nodes: 1.34 times at 4 columns, 1.07 at 8), and over
# 10,000 nodes 0.66-0.88 times at any width.
_MIN_SHARE_SIZE = 10_000
# The one pool of _THREADS - 1 worker threads, with the _THREADS it was made for.
# It is remade only when _THREADS changes; its threads start on the first split.
_pool: tuple[int, ThreadPoolExecutor] | None = None


def _by_share(fn: Callable[[Sequence], list], items: Sequence, size: int) -> list:
    """fn applied to consecutive shares of items, one share per usable CPU,
    with the results joined in item order; size is the node count of the
    graph the items cover. A batch on fewer than ``_MIN_SHARE_SIZE`` nodes
    is one share.

    The calling thread computes the last share, which is the largest, and
    then waits for the worker threads' shares. fn must only read what is
    shared, so a result does not depend on the number of shares or on
    scheduling.
    """
    global _pool
    parts = min(_THREADS, len(items))
    if parts <= 1 or size < _MIN_SHARE_SIZE:
        return fn(items)
    if _pool is None or _pool[0] != _THREADS:
        if _pool is not None:
            _pool[1].shutdown()
        _pool = _THREADS, ThreadPoolExecutor(_THREADS - 1, "grouge-ppr")
    pool = _pool[1]
    bounds = [len(items) * i // parts for i in range(parts + 1)]
    futures = [pool.submit(fn, items[a:b]) for a, b in zip(bounds[:-2], bounds[1:-1])]
    try:
        last = fn(items[bounds[-2] :])
    finally:
        wait(futures)
    results = []
    for future in futures:
        results += future.result()
    return results + last


@dataclass(frozen=True, slots=True)
class PprConfig:
    alpha: float = 0.15
    iterations: int = 30

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


class PprVector:
    """Sparse probability vector over senses, plus optional OOV dimensions.

    Entries iterate in rank order: descending weight, ties by ascending
    dimension key. OOV dimensions outweigh every sense dimension by
    construction, so they come first, ordered by term.

    ``ranks`` maps node index -> int32 rank among the senses, 1..senses
    (0: absent), up to the largest index present; ``senses`` counts them.
    ``weights`` are the senses' weights in rank order. A rank-only vector
    (weights None; an engine's composed vectors) holds an empty weight
    array: it can be compared but not listed. OOV dimensions are not in
    the table (``sim_sem`` uses the terms).
    """

    __slots__ = ("graph", "ranks", "senses", "weights", "oov_terms", "oov_weight")

    def __init__(self, graph: SemanticGraph, idx: np.ndarray, weights: np.ndarray | None = None):
        self.graph = graph
        self.ranks = np.zeros(int(idx.max(initial=-1)) + 1, dtype=np.int32)
        self.ranks[idx] = np.arange(1, len(idx) + 1, dtype=np.int32)
        self.senses = len(idx)
        self.weights = _NO_WEIGHTS if weights is None else weights
        self.oov_terms: tuple[str, ...] = ()
        self.oov_weight = 0.0

    @property
    def idx(self) -> np.ndarray:
        """Node indices of the senses in rank order (int64)."""
        present = np.flatnonzero(self.ranks)
        idx = np.empty(len(present), dtype=np.int64)
        idx[self.ranks[present] - 1] = present
        return idx

    def __len__(self) -> int:
        return self.senses + len(self.oov_terms)

    def items(self) -> Iterator[tuple[SenseId | str, float]]:
        if len(self.weights) < self.senses:
            raise ValueError(
                "a composed vector keeps its ranks only; compute_ppr gives its weights"
            )
        senses = ((self.graph.sense_at(int(i)), float(w)) for i, w in zip(self.idx, self.weights))
        return chain(((term, self.oov_weight) for term in self.oov_terms), senses)

    def top(self, k: int) -> list[tuple[SenseId | str, float]]:
        return list(islice(self.items(), k))

    def nbytes(self) -> int:
        """Bytes held by the arrays of this vector."""
        return self.ranks.nbytes + self.weights.nbytes + 64 * len(self.oov_terms)


def _seed_key(graph: SemanticGraph, seeds: Iterable[SenseId]) -> tuple[int, ...]:
    """A seed set's distinct node indices, ascending: its walk and cache key."""
    key = tuple(sorted({graph.node_index(s) for s in seeds}))
    if not key:
        raise ValueError("empty seed set")
    return key


def _run_walk(graph: SemanticGraph, v0: np.ndarray, cfg: PprConfig) -> np.ndarray:
    """Apply the walk update to every column of v0 simultaneously.

    A column's bits do not depend on the other columns of v0. Mass reaches
    a dangling node only where it is a seed (it has no neighbours), so a
    column's dangling mass is the sum of its own dangling seed entries in
    ascending node index, which ``np.bincount`` adds one by one.

    v0 is not kept past the first product, so a caller that holds no other
    reference to it needs two (n, columns) arrays at a time, not three.
    """
    trans = graph.transition
    keep = 1.0 - cfg.alpha
    width = v0.shape[1]
    rows, cols = np.nonzero(v0)
    seeds = v0[rows, cols]
    dead = graph.degree[rows] == 0
    dead_rows, dead_cols = rows[dead], cols[dead]
    restart = seeds * cfg.alpha
    v = v0
    del v0
    for _ in range(cfg.iterations):
        if len(dead_rows):
            mass = np.bincount(dead_cols, weights=v[dead_rows, dead_cols], minlength=width)
            restart = seeds * (keep * mass + cfg.alpha)[cols]
        v = trans @ v
        v *= keep
        v[rows, cols] += restart
    return v


def _compress(graph: SemanticGraph, column: np.ndarray, weights: bool = True) -> PprVector:
    """The column's positive entries in rank order: descending weight, ties
    by ascending node index, which is ascending SenseId; without their
    weights (a rank-only vector) when weights is False.

    Entries are sorted by weight with the fast unstable sort; only the
    entries in runs of equal weight are then put back in ascending index.
    """
    n = len(column)
    order = np.argsort(-column)
    ranked = column[order]
    ranked = ranked[: np.count_nonzero(ranked > 0.0)]
    same = ranked[1:] == ranked[:-1]
    if same.any():
        tied = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
        run = np.cumsum(np.r_[True, ~same[tied[1:] - 1]])
        # One int64 key per tied entry, (run, index): sorting it orders
        # each run by index and leaves the runs where they are.
        order[tied] = np.sort(run * n + order[tied]) % n
    return PprVector(graph, order[: len(ranked)], ranked.copy() if weights else None)


def _walk(
    graph: SemanticGraph, keys: Sequence[tuple[int, ...]], cfg: PprConfig
) -> list[PprVector]:
    """One walk pass, one column per seed key, each starting uniform over
    its seeds; the vectors come back in key order. Each share of the keys
    (``_by_share``) is walked and compressed on a thread of its own."""

    def seed_matrix(share: Sequence[tuple[int, ...]]) -> np.ndarray:
        v0 = np.zeros((graph.node_count, len(share)), dtype=np.float64)
        for col, key in enumerate(share):
            v0[list(key), col] = 1.0 / len(key)
        return v0

    def walk_share(share: Sequence[tuple[int, ...]]) -> list[PprVector]:
        # Passed unnamed, so _run_walk can free it after its first product.
        v = _run_walk(graph, seed_matrix(share), cfg)
        return [_compress(graph, v[:, col]) for col in range(len(share))]

    return _by_share(walk_share, keys, graph.node_count)


def _composes(graph: SemanticGraph, key: tuple[int, ...]) -> bool:
    """Whether a seed set's vector is composed from its seeds' single-sense
    columns: it has more than one seed and no isolated seed."""
    return len(key) > 1 and bool(graph.degree[list(key)].all())


def _compose(
    graph: SemanticGraph, key: tuple[int, ...], singles: dict[int, PprVector], weights: bool = True
) -> PprVector:
    """The mean of the seeds' walk columns, summed in ascending node index,
    ranked by ``_compress`` (rank-only when weights is False).

    A single vector's column is its weights read through its rank table,
    where rank 0 (absent) reads a 0.0 put in front of them: the walk
    column's exact bits.
    """
    total = np.zeros(graph.node_count, dtype=np.float64)
    for i in key:
        vec = singles[i]
        total[: len(vec.ranks)] += np.concatenate(([0.0], vec.weights))[vec.ranks]
    total *= 1.0 / len(key)
    return _compress(graph, total, weights)


class _LruCache:
    """LRU map of walk vectors with hit/miss/eviction counters.

    stored_bytes is the summed nbytes() of the cached vectors.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict[tuple[int, ...], PprVector] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stored_bytes = 0

    def get(self, key: tuple[int, ...]) -> PprVector | None:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def peek(self, key: tuple[int, ...]) -> PprVector | None:
        """The cached vector, without counting a lookup or refreshing it."""
        return self._data.get(key)

    def put(self, key: tuple[int, ...], vec: PprVector) -> None:
        if self.capacity <= 0 or key in self._data:
            return
        self._data[key] = vec
        self.stored_bytes += vec.nbytes()
        while len(self._data) > self.capacity:
            _, evicted = self._data.popitem(last=False)
            self.evictions += 1
            self.stored_bytes -= evicted.nbytes()

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> list[tuple[tuple[int, ...], PprVector]]:
        return list(self._data.items())


@dataclass
class CacheStats:
    """An engine's cache counters over its whole life. A hit on a vector
    loaded from a file counts like any other; ``save_cache`` stores these
    counts in the file, where ``cache-stats`` reads them."""

    enabled: bool
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0
    memory_bytes: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class PprEngine:
    """Walk-vector provider with an LRU cache keyed by seed set.

    ``prime_seed_sets`` is the one path that reads, computes and stores
    vectors; the other vector methods ask it for one or two sets. The cache
    capacity decides only which vectors outlive a call. Every output is a
    pure function of (graph, config, seeds). Walked vectors keep their
    weights; composed vectors are rank-only, never holding their weights.
    """

    def __init__(
        self,
        graph: SemanticGraph,
        cfg: PprConfig = PprConfig(),
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        self.graph = graph
        self.cfg = cfg
        self._vectors = _LruCache(self.check_capacity(cache_capacity))
        self._sim_memo: dict[tuple[int, int], float] = {}

    @staticmethod
    def check_capacity(capacity: int) -> int:
        if capacity < 0:  # 0 caches nothing
            raise ValueError(f"cache_capacity must be >= 0, got {capacity}")
        return capacity

    # -- vector access ------------------------------------------------

    def prime_seed_sets(self, seed_sets: Sequence[Iterable[SenseId]]) -> list[PprVector]:
        """The vectors of the given seed sets, one per set in input order.

        Each distinct set is looked up in the cache once, counting one hit
        or one miss. The missing sets that are walked, and the uncached
        single senses of the missing sets that are composed, share batched
        walk passes of ``_BATCH_COLUMNS`` columns, which are far cheaper
        than per-seed passes on large graphs. The singles are held here
        until every set is composed, so none is read back from a cache that
        may evict it. Every vector the call walks or composes is put in the
        cache, the singles walked only to compose a set first, so the
        requested sets stay the most recently used; a cache that keeps
        nothing (capacity 0) makes no difference to what is returned.
        """
        graph = self.graph
        keys = [_seed_key(graph, seeds) for seeds in seed_sets]
        vectors = {key: self._vectors.get(key) for key in dict.fromkeys(keys)}
        missing = [key for key, vec in vectors.items() if vec is None]
        singles: dict[int, PprVector] = {}
        walks: dict[tuple[int, ...], None] = {}
        for key in missing:
            if not _composes(graph, key):
                walks[key] = None
                continue
            for i in key:
                if i not in singles:
                    vec = self._vectors.peek((i,))
                    if vec is None:
                        walks[(i,)] = None
                    else:
                        singles[i] = vec
        computed: dict[tuple[int, ...], PprVector] = {}
        order = list(walks)
        for start in range(0, len(order), _BATCH_COLUMNS):
            chunk = order[start : start + _BATCH_COLUMNS]
            computed.update(zip(chunk, _walk(graph, chunk, self.cfg)))
        singles.update((key[0], vec) for key, vec in computed.items() if len(key) == 1)
        composed = [key for key in missing if key not in computed]
        computed.update(zip(composed, _by_share(
            lambda share: [_compose(graph, key, singles, weights=False) for key in share],
            composed, graph.node_count,
        )))
        for key, vec in computed.items():  # the singles walked only to compose a set
            if key not in vectors:
                self._vectors.put(key, vec)
        for key in missing:
            vectors[key] = computed[key]
            self._vectors.put(key, vectors[key])
        return [vectors[key] for key in keys]

    def vector_for_seeds(self, seeds: Iterable[SenseId]) -> PprVector:
        return self.prime_seed_sets([seeds])[0]

    def ppr_for_sense(self, sense: SenseId) -> PprVector:
        return self.vector_for_seeds((sense,))

    def ppr_for_sense_set(self, senses: Iterable[SenseId]) -> PprVector:
        return self.vector_for_seeds(senses)

    def prime_senses(self, senses: Iterable[SenseId]) -> None:
        self.prime_seed_sets([(s,) for s in dict.fromkeys(senses)])

    # -- sense-pair similarity memo ------------------------------------

    def sense_similarity(self, a: SenseId, b: SenseId) -> float:
        ia, ib = self.graph.node_index(a), self.graph.node_index(b)
        key = (ia, ib) if ia <= ib else (ib, ia)
        cached = self._sim_memo.get(key)
        if cached is not None:
            return cached
        from .similarity import sim_sem  # read at call time: tracers replace it

        value = sim_sem(*self.prime_seed_sets([(a,), (b,)]))
        if len(self._sim_memo) < _SIM_MEMO_CAPACITY:
            self._sim_memo[key] = value
        return value

    # -- cache administration ------------------------------------------

    def stats(self) -> CacheStats:
        c = self._vectors
        return CacheStats(
            enabled=c.capacity > 0,
            hits=c.hits,
            misses=c.misses,
            evictions=c.evictions,
            size=len(c),
            capacity=c.capacity,
            memory_bytes=c.stored_bytes,
        )

    def _cache_meta(self, meta: dict) -> dict:
        """meta plus the walk settings and the node count, which are part of
        a cache's identity: vectors are stored by node index."""
        return {**meta, **asdict(self.cfg), "node_count": self.graph.node_count}

    def save_cache(self, path, meta: dict) -> None:
        """Write the cached vectors that keep weights (the walked ones) and
        this engine's counters to an archive that ``load_cache`` reads.
        Composed vectors are left out: composing one again from its walked
        singles is cheaper than a walk. The members are a JSON header, flat
        int32 seed keys, int32 node indices in rank order and float64
        weights, with int32 per-entry sizes; their bytes do not depend on
        when the file was written."""
        walked = [(key, vec) for key, vec in self._vectors.items() if len(vec.weights)]
        header = {"meta": self._cache_meta(meta), "stats": self.stats().as_dict()}
        members = {
            "header": np.array(json.dumps(header)),
            "keys": _flat([key for key, _ in walked], np.int32),
            "key_sizes": np.array([len(key) for key, _ in walked], dtype=np.int32),
            "indices": _flat([vec.idx for _, vec in walked], np.int32),
            "sizes": np.array([vec.senses for _, vec in walked], dtype=np.int32),
            "weights": _flat([vec.weights for _, vec in walked], np.float64),
        }
        with atomic_output(path) as fh, zipfile.ZipFile(fh, "w") as archive:
            for name, array in members.items():  # ZipInfo dates every member 1980
                with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, array)

    def load_cache(self, path, expect_meta: dict) -> bool:
        """Load a cache file's vectors; returns False (and loads nothing)
        when the stored meta (graph/dict fingerprints) or walk settings
        differ from expect_meta and this engine's. A file that
        ``read_cache_file`` refuses raises CacheFileError. Each vector gets
        its own copy of its weights."""
        header, members = read_cache_file(path)
        if header["meta"] != self._cache_meta(expect_meta):
            return False
        keys, key_sizes, indices, sizes, weights = members.values()
        entries = zip(_split(keys, key_sizes), _split(indices, sizes), _split(weights, sizes))
        for key, idx, w in entries:
            self._vectors.put(tuple(key.tolist()), PprVector(self.graph, idx, w.copy()))
        return True


def compute_ppr(
    graph: SemanticGraph,
    seeds: Iterable[SenseId],
    cfg: PprConfig = PprConfig(),
) -> PprVector:
    """The vector of a uniform distribution over the seed set, composed or
    walked as the module docstring defines, with its weights: a composed
    set's are composed here from its seeds' walked vectors."""
    seeds = list(seeds)
    key = _seed_key(graph, seeds)
    engine = PprEngine(graph, cfg, cache_capacity=0)
    if not _composes(graph, key):
        return engine.vector_for_seeds(seeds)
    singles = engine.prime_seed_sets([(graph.sense_at(i),) for i in key])
    return _compose(graph, key, dict(zip(key, singles)))


class CacheFileError(ValueError):
    """A persisted cache file that cannot be read, such as an empty file,
    one cut short or one that is not a cache archive."""


_MEMBERS = dict(keys=np.int32, key_sizes=np.int32, indices=np.int32, sizes=np.int32,
                weights=np.float64)


def _flat(parts: Iterable, dtype) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype), *parts], dtype=dtype, casting="same_kind")


def _split(flat: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    return np.split(flat, np.cumsum(sizes)[:-1]) if len(sizes) else []


def read_cache_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header ({"meta": ..., "stats": ...}) and the vector members of a
    cache file, without a graph. A file that is not such an archive, or
    that ``_check_members`` refuses, raises CacheFileError. ``np.load``
    refuses object arrays by default, so reading runs no code from the
    file."""
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an archive")
        with archive:
            header = json.loads(str(archive["header"]))
            members = {name: archive[name] for name in _MEMBERS}
        _check_members(header, members)
    except (OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile,
            zlib.error) as exc:  # RuntimeError: an encrypted or unsupported member
        raise CacheFileError(f"cannot read cache file {path}: {exc}") from None
    return header, members


def _check_members(header, members: dict[str, np.ndarray]) -> None:
    """Raise ValueError unless the header is a JSON object with meta and
    stats, every member is 1-D with its dtype, the sizes add up to the
    members' lengths, and every seed and node index is below the node
    count in the meta."""
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("stats"), dict)):
        raise ValueError("the header is not a JSON object with meta and stats")
    for name, dtype in _MEMBERS.items():
        if members[name].ndim != 1 or members[name].dtype != dtype:
            raise ValueError(f"{name} is not a 1-D {np.dtype(dtype)} array")
    keys, key_sizes, indices, sizes, weights = members.values()
    if not (len(key_sizes) == len(sizes) and key_sizes.min(initial=1) >= 1
            and sizes.min(initial=1) >= 1 and key_sizes.sum() == len(keys)
            and sizes.sum() == len(indices) == len(weights)):
        raise ValueError("the entry sizes do not match the members")
    n = header["meta"].get("node_count")
    if type(n) is not int or any(a.min(initial=0) < 0 or a.max(initial=-1) >= n
                                 for a in (keys, indices)):
        raise ValueError("a node index is out of range")
