import os
import pickle
import tempfile
import threading
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouge.ppr
from grouge import PprConfig, PprEngine, PprVector, SenseId, compute_ppr, load_graph
from grouge.ppr import (
    CacheFileError,
    _composes,
    _compress,
    _run_walk,
    _seed_key,
    _walk,
    read_cache_file,
)

from conftest import (
    CACHE_DAMAGES,
    damage_cache_file,
    graph_from_edges,
    labelled_graph,
    planted_pickle,
    ring_graphs,
    sense,
    sid,
    star_graphs,
)
from oracles import compress_reference, dense_ppr, seed_set_reference, walk_reference, weight_in
from synth import node_id, relist_lines, symmetric_relation_lines, write_graph


def exact_two_node_iterate(iterations: int, alpha: float = 0.15) -> tuple[float, float]:
    """Scalar recurrence for the A-B graph seeded at A."""
    a, b = 1.0, 0.0
    for _ in range(iterations):
        a, b = (1 - alpha) * b + alpha, (1 - alpha) * a
    return a, b


class TestComputePpr:
    def test_two_node_thirty_iterations_matches_recurrence(self, two_node_graph):
        v = compute_ppr(two_node_graph, [sense(1)], PprConfig())
        a30, b30 = exact_two_node_iterate(30)
        assert weight_in(v, sense(1)) == pytest.approx(a30, abs=1e-15)
        assert weight_in(v, sense(2)) == pytest.approx(b30, abs=1e-15)

    def test_two_node_fixed_point_at_convergence(self, two_node_graph):
        # 0.15 / (1 - 0.85^2) and its complement; the default 30 iterations
        # sit ~3.5e-3 away on this bipartite graph, so run longer.
        v = compute_ppr(two_node_graph, [sense(1)], PprConfig(iterations=120))
        assert weight_in(v, sense(1)) == pytest.approx(0.15 / (1 - 0.85**2), abs=1e-6)
        assert weight_in(v, sense(2)) == pytest.approx(1 - 0.15 / (1 - 0.85**2), abs=1e-6)

    def test_complete_graph_all_seeds_uniform_every_iteration(self):
        g = graph_from_edges([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        seeds = [sense(i) for i in range(1, 5)]
        for iterations in (1, 3, 30):
            v = compute_ppr(g, seeds, PprConfig(iterations=iterations))
            for s in seeds:
                assert weight_in(v, s) == pytest.approx(0.25, abs=1e-15)

    def test_isolated_seed_keeps_all_mass(self):
        g = graph_from_edges([(1, 2)], isolated=[9])
        v = compute_ppr(g, [sense(9)])
        assert weight_in(v, sense(9)) == 1.0
        assert len(v) == 1

    def test_two_seeds_on_symmetric_pair_uniform(self, two_node_graph):
        v = compute_ppr(two_node_graph, [sense(1), sense(2)])
        assert weight_in(v, sense(1)) == pytest.approx(0.5, abs=1e-12)
        assert weight_in(v, sense(2)) == pytest.approx(0.5, abs=1e-12)

    def test_unknown_seed_named_in_error(self, two_node_graph):
        with pytest.raises(ValueError, match="00000042-n"):
            compute_ppr(two_node_graph, [sense(42)])

    def test_empty_seed_set_rejected(self, two_node_graph):
        with pytest.raises(ValueError, match="empty seed set"):
            compute_ppr(two_node_graph, [])

    def test_conservation_every_iteration(self, path_graph):
        g = graph_from_edges([(1, 2), (2, 3)], isolated=[7])
        for iterations in range(1, 31):
            v = compute_ppr(g, [sense(1), sense(7)], PprConfig(iterations=iterations))
            assert float(v.weights.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_restart_floor_on_seeds(self, path_graph):
        seeds = [sense(1), sense(3)]
        for iterations in range(1, 31):
            v = compute_ppr(path_graph, seeds, PprConfig(iterations=iterations))
            for s in seeds:
                assert weight_in(v, s) >= 0.15 / 2

    def test_monotone_locality_on_path(self, path_graph):
        # Mass is non-increasing with distance from the seed's neighbour on.
        # The seed itself ranks below its only neighbour: the neighbour
        # receives the seed's entire outflow (degree-1 column), which the
        # dense oracle confirms, so monotonicity is asserted from distance 1.
        v = compute_ppr(path_graph, [sense(1)])
        weights = [weight_in(v, sense(i)) for i in range(1, 6)]
        assert all(a >= b for a, b in zip(weights[1:], weights[2:]))
        oracle = dense_ppr(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [0])
        assert np.max(np.abs(np.array(weights) - oracle)) <= 1e-12

    def test_deterministic_entry_order(self, path_graph):
        v = compute_ppr(path_graph, [sense(3)])
        entries = list(v.items())
        weights = [w for _, w in entries]
        assert weights == sorted(weights, reverse=True)
        # equal-weight pairs (symmetric around the seed) order by sense id
        assert [k.canonical for k, _ in entries[1:3]] == sorted(
            k.canonical for k, _ in entries[1:3]
        )


class TestOracleEquivalence:
    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 51))
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.2
            ]
            if not edges:
                edges = [(0, 1)]
            lines = [f"u:{i:08d}-n v:{j:08d}-n" for i, j in edges]
            lines += [f"u:{i:08d}-n v:{i:08d}-n" for i in range(n)]
            g = load_graph(lines)
            k = int(rng.integers(1, max(2, n // 2)))
            seed_nodes = sorted(rng.choice(n, size=k, replace=False).tolist())
            v = compute_ppr(g, [sense(i) for i in seed_nodes])
            expected = dense_ppr(n, edges, seed_nodes)
            got = np.zeros(n)
            for key, w in v.items():
                got[int(key.offset)] = w
            assert np.max(np.abs(got - expected)) <= 1e-12


def random_graphs(rng):
    for _ in range(8):
        n = int(rng.integers(6, 40))
        linked = n - int(rng.integers(1, 4))  # the rest start isolated
        edges = [
            (i, j) for i in range(linked) for j in range(i + 1, linked) if rng.random() < 0.15
        ] or [(0, 1)]
        touched = {u for e in edges for u in e}
        yield labelled_graph(edges, n, rng, [i for i in range(n) if i not in touched])


def ring_with_isolated(rng):
    """A 30-node ring beside 30 isolated nodes, and seed sets of 6 to 27
    isolated seeds plus 0 to 2 ring seeds: sets whose dangling mass can
    change in the last bits when it is summed in another grouping."""
    g = labelled_graph([(i, (i + 1) % 30) for i in range(30)], 60, rng, range(30, 60))
    linked, isolated = np.flatnonzero(g.degree), np.flatnonzero(g.degree == 0)
    sets = [
        sorted(rng.choice(isolated, size=k, replace=False).tolist()
               + rng.choice(linked, size=int(rng.integers(0, 3)), replace=False).tolist())
        for k in range(6, 28)
    ]
    return g, sets


def seed_sets(graph, rng, count):
    n = graph.node_count
    sets = [[int(i)] for i in rng.choice(n, size=min(n, count), replace=False)]
    sets += [rng.choice(n, size=min(n, k), replace=False).tolist() for k in (2, 3, 5)]
    return sets


class TestKernelOracle:
    """The walk and compress kernels against term-by-term reference
    copies: every column, index array and weight array bit-identical."""

    def check(self, graph, sets):
        columns = tied = 0
        for width in range(1, 6):
            for start in range(0, len(sets), width):
                batch = sets[start : start + width]
                v0 = np.zeros((graph.node_count, len(batch)))
                for col, seeds in enumerate(batch):
                    v0[seeds, col] = 1.0 / len(seeds)
                got = _run_walk(graph, v0, PprConfig())
                assert np.array_equal(got, walk_reference(graph, v0))
                for col in range(len(batch)):
                    column = got[:, col]
                    positive = column[column > 0.0]
                    tied += len(np.unique(positive)) < len(positive)
                    columns += 1
                    vec = _compress(graph, column)
                    idx, weights = compress_reference(graph, column)
                    assert vec.idx.dtype == idx.dtype
                    assert np.array_equal(vec.idx, idx)
                    assert np.array_equal(vec.weights, weights)
        return columns, tied

    def test_ring_graphs_with_mirror_ties(self):
        rng = np.random.default_rng(5)
        counts = [self.check(g, seed_sets(g, rng, 10)) for g in ring_graphs(rng)]
        assert sum(t for _, t in counts) > 0.8 * sum(c for c, _ in counts)

    def test_star_graphs_with_tied_leaves(self):
        rng = np.random.default_rng(6)
        counts = [self.check(g, seed_sets(g, rng, 10)) for g in star_graphs(rng)]
        assert sum(t for _, t in counts) > 0.8 * sum(c for c, _ in counts)

    def test_random_graphs_with_dangling_nodes(self):
        rng = np.random.default_rng(7)
        graphs = list(random_graphs(rng))
        assert all((g.degree == 0).any() for g in graphs)
        for g in graphs:
            self.check(g, seed_sets(g, rng, 10))

    def test_a_column_does_not_depend_on_its_pass(self):
        """Seed sets with many isolated seeds walk to the same bits alone
        and beside another column: each column sums its own dangling mass."""
        g, sets = ring_with_isolated(np.random.default_rng(16))
        for seeds in sets:
            v0 = np.zeros((g.node_count, 2))
            v0[seeds, 0] = 1.0 / len(seeds)
            v0[np.flatnonzero(g.degree)[0], 1] = 1.0
            beside = _run_walk(g, v0, PprConfig())[:, 0]
            assert np.array_equal(_run_walk(g, v0[:, :1], PprConfig())[:, 0], beside)
        self.check(g, sets)

    def test_acceptance_world(self, tmp_path):
        path = tmp_path / "relations.txt"
        write_graph(path, 10_000, extra_edges=10_000, seed=202)
        graph = load_graph(path)
        columns, _ = self.check(graph, seed_sets(graph, np.random.default_rng(8), 3))
        assert columns == 5 * 6


def dense(vec, n):
    """A vector's sense weights as a node-order column."""
    column = np.zeros(n)
    column[vec.idx] = vec.weights
    return column


def assert_matches_compute_ppr(got, want, seeds):
    """An engine's vector against compute_ppr's: the same rank order and
    sense count, and for a walked set the same weights. The engine keeps a
    composed set's ranks only."""
    assert np.array_equal(got.idx, want.idx)
    assert got.senses == want.senses == len(want.weights)
    if _composes(got.graph, _seed_key(got.graph, seeds)):
        assert got.weights.nbytes == 0
    else:
        assert np.array_equal(got.weights, want.weights)


def walked_columns(monkeypatch) -> list[int]:
    """The seed count of every column a ``_walk`` pass walks from now on."""
    columns: list[int] = []
    walk = grouge.ppr._walk

    def counted(graph, keys, cfg):
        columns.extend(len(key) for key in keys)
        return walk(graph, keys, cfg)

    monkeypatch.setattr(grouge.ppr, "_walk", counted)
    return columns


def linked_seed_sets(graph, rng, sizes=(2, 3, 5)):
    """Seed sets (node indices) of nodes with neighbours: sets that compose."""
    linked = np.flatnonzero(graph.degree)
    return [
        sorted(rng.choice(linked, size=min(k, len(linked)), replace=False).tolist())
        for k in sizes
    ]


class TestComposition:
    """A seed set with more than one seed, none of them isolated, is the
    mean of its seeds' single-sense walk columns; every other seed set is
    walked."""

    def test_composed_vectors_match_both_oracles_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(4, 51))
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2
            ] or [(0, 1)]
            g = load_graph([f"u:{sid(i)} v:{sid(j)}" for i, j in edges]
                           + [f"u:{sid(i)} v:{sid(i)}" for i in range(n)])
            linked = sorted({u for e in edges for u in e})
            size = int(rng.integers(2, len(linked) + 1))
            seeds = sorted(int(i) for i in rng.choice(linked, size=size, replace=False))
            v = compute_ppr(g, [sense(i) for i in seeds])
            by_offset = np.zeros(n)
            for key, w in v.items():
                by_offset[int(key.offset)] = w
            assert np.max(np.abs(by_offset - dense_ppr(n, edges, seeds))) <= 1e-12
            nodes = [g.node_index(sense(i)) for i in seeds]
            assert np.max(np.abs(dense(v, n) - seed_set_reference(g, nodes))) <= 1e-12

    def test_composed_vectors_match_the_walk_on_the_acceptance_world(self, tmp_path):
        path = tmp_path / "relations.txt"
        write_graph(path, 10_000, extra_edges=10_000, seed=202)
        graph = load_graph(path)
        for nodes in linked_seed_sets(graph, np.random.default_rng(9), (2, 3, 5, 8)):
            vec = compute_ppr(graph, [graph.sense_at(i) for i in nodes])
            reference = seed_set_reference(graph, nodes)
            assert np.max(np.abs(dense(vec, graph.node_count) - reference)) <= 1e-12

    @pytest.mark.parametrize("singles_cached", [True, False], ids=["primed", "unprimed"])
    def test_engines_and_compute_ppr_agree_bit_for_bit(self, singles_cached):
        rng = np.random.default_rng(14)
        for g in random_graphs(rng):
            sets = [
                [g.sense_at(i) for i in nodes]
                for nodes in seed_sets(g, rng, 10) + linked_seed_sets(g, rng, (2, 3, 4, 5, 6))
            ]
            expected = [compute_ppr(g, seeds) for seeds in sets]
            for capacity in (grouge.ppr.DEFAULT_CACHE_CAPACITY, 0, 4):
                engine = PprEngine(g, cache_capacity=capacity)
                if singles_cached:
                    engine.prime_senses(s for seeds in sets for s in seeds)
                engine.prime_seed_sets(sets)
                if capacity == 4:  # the batch evicts singles it composes from
                    assert engine.stats().evictions > 0
                for seeds, want in zip(sets, expected):
                    assert_matches_compute_ppr(engine.ppr_for_sense_set(seeds), want, seeds)

    def test_only_isolated_seed_sets_walk_multi_seed_columns(self, monkeypatch):
        g = graph_from_edges([(1, 2), (2, 3), (3, 4)], isolated=[9])
        columns = walked_columns(monkeypatch)
        compute_ppr(g, [sense(1), sense(3)])
        assert columns == [1, 1]
        columns.clear()
        compute_ppr(g, [sense(1), sense(9)])
        assert columns == [2]

        engine = PprEngine(g)
        engine.prime_senses([sense(i) for i in (1, 2, 3, 4, 9)])
        columns.clear()
        engine.prime_seed_sets([[sense(1), sense(3)], [sense(2), sense(3), sense(4)],
                                [sense(2), sense(9)]])
        assert columns == [2]
        assert engine.stats().misses == engine.stats().size == 5 + 3

    def test_tie_graph_rank_differences_are_rounding(self):
        """On ring and star graphs mirror seeds tie exactly in real
        arithmetic, and the exact walk breaks those ties by its own last
        bits. A composed vector whose ranks differ from the walk's differs
        only in such near-ties: listed in the composed order, the walk's
        weights fall by no more than 1e-15 anywhere."""
        rng = np.random.default_rng(15)
        differ = total = 0
        for g in [*ring_graphs(rng), *star_graphs(rng)]:
            for nodes in linked_seed_sets(g, rng, [2, 3, 4, 5] * 10):
                key = tuple(sorted(set(nodes)))
                if len(key) < 2:
                    continue
                composed = compute_ppr(g, [g.sense_at(i) for i in key])
                walked = _walk(g, [key], PprConfig())[0]
                total += 1
                if np.array_equal(composed.idx, walked.idx):
                    continue
                differ += 1
                exact = dense(walked, g.node_count)[composed.idx]
                assert np.all(exact[1:] <= exact[:-1] + 1e-15)
                difference = dense(composed, g.node_count) - dense(walked, g.node_count)
                assert np.max(np.abs(difference)) <= 1e-15
        print(f"\n{differ} of {total} tie-graph seed sets rank differently from the walk")
        assert total > 300


def as_bytes(vectors):
    return [(vec.idx.tobytes(), vec.weights.tobytes()) for vec in vectors]


class TestThreadCounts:
    """Each walk pass is split by columns, and each batch of composed sets
    by set, into one share per usable CPU (``_THREADS``); no bit of a
    vector, a count or a cache file depends on the number of shares. The
    graphs here are small, so every batch of two or more items is split."""

    @pytest.fixture(autouse=True)
    def split_any_batch(self, monkeypatch):
        monkeypatch.setattr(grouge.ppr, "_MIN_SHARE_SIZE", 0)

    def graphs(self):
        rng = np.random.default_rng(21)
        for g, sets in [*((g, []) for g in random_graphs(rng)), ring_with_isolated(rng)]:
            sets = sets + seed_sets(g, rng, 10) + linked_seed_sets(g, rng, (2, 3, 4, 5, 6))
            yield g, [tuple(sorted(set(nodes))) for nodes in sets]

    def test_a_pass_is_one_share_per_thread_and_the_caller_walks_one(self, path_graph,
                                                                    monkeypatch):
        shares = []  # (width, walked on the calling thread) per _run_walk call
        run_walk = grouge.ppr._run_walk
        caller = threading.current_thread()

        def recorded(graph, v0, cfg):
            shares.append((v0.shape[1], threading.current_thread() is caller))
            return run_walk(graph, v0, cfg)

        monkeypatch.setattr(grouge.ppr, "_run_walk", recorded)
        monkeypatch.setattr(grouge.ppr, "_THREADS", 3)
        keys = [(i,) for i in range(5)]
        for width, want in ((5, [(1, False), (2, False), (2, True)]),
                            (2, [(1, False), (1, True)]), (1, [(1, True)])):
            shares.clear()
            _walk(path_graph, keys[:width], PprConfig())
            assert sorted(shares) == want

    def test_one_pool_serves_every_share_count(self, monkeypatch):
        """Splits of any size share one pool of _THREADS - 1 worker threads,
        and the shares' results come back in item order."""
        monkeypatch.setattr(grouge.ppr, "_THREADS", 4)
        for n in (2, 3, 4, 5, 2, 3):
            items = list(range(n))
            assert grouge.ppr._by_share(lambda share: [x * 10 for x in share], items, 1) == [
                x * 10 for x in items
            ]
        workers = [t for t in threading.enumerate() if t.name.startswith("grouge-ppr")]
        assert len(workers) <= 3

    @pytest.mark.parametrize("threads", [2, 3])
    def test_walk_passes_are_bit_identical(self, monkeypatch, threads):
        for g, keys in self.graphs():
            for width in (1, 2, 3, 7, len(keys)):
                vectors = []
                for count in (1, threads):
                    monkeypatch.setattr(grouge.ppr, "_THREADS", count)
                    vectors.append(as_bytes(_walk(g, keys[:width], PprConfig())))
                assert vectors[0] == vectors[1]

    @pytest.mark.parametrize("capacity", [0, 4, grouge.ppr.DEFAULT_CACHE_CAPACITY])
    def test_engine_vectors_stats_and_cache_file_are_identical(self, monkeypatch, tmp_path,
                                                               capacity):
        runs = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(grouge.ppr, "_THREADS", threads)
            run = []
            for n, (g, keys) in enumerate(self.graphs()):
                sets = [[g.sense_at(i) for i in key] for key in keys]
                engine = PprEngine(g, cache_capacity=capacity)
                run.append(as_bytes(engine.prime_seed_sets(sets)))
                run.append(as_bytes(engine.prime_seed_sets(sets[::-1])))
                run.append(as_bytes(compute_ppr(g, seeds) for seeds in sets))
                run.append(engine.stats())
                path = tmp_path / f"{threads}-{n}.npz"
                engine.save_cache(path, {"graph": n})
                run.append(path.read_bytes())
            runs.append(run)
        assert runs[0] == runs[1] == runs[2]


def share_widths(count: int, size: int) -> list[int]:
    """The sorted share widths _by_share gives a batch of count items on a
    graph of size nodes."""
    widths = []
    grouge.ppr._by_share(lambda share: widths.append(len(share)) or list(share),
                         list(range(count)), size)
    return sorted(widths)


class TestShareSize:
    @pytest.mark.parametrize("threads", [2, 3])
    def test_a_batch_splits_only_when_each_share_covers_the_minimum(self, monkeypatch,
                                                                   threads):
        """Batches of two or more items on 10k- and 117k-node graphs split;
        a batch on a graph of fewer nodes than the minimum is one share,
        however many items it holds."""
        monkeypatch.setattr(grouge.ppr, "_THREADS", threads)
        minimum = grouge.ppr._MIN_SHARE_SIZE
        assert minimum == 10_000
        assert share_widths(2, 10_000) == share_widths(2, 117_659) == [1, 1]
        assert len(share_widths(64, minimum)) == threads
        for count in (threads, 64, 256):
            assert share_widths(count, 300) == share_widths(count, minimum - 1)[:1] == [count]

    def test_a_5000_node_batch_of_8_stays_one_share(self, monkeypatch):
        # on 2 CPUs a split 8-column walk pass over 5,000 nodes was slower
        monkeypatch.setattr(grouge.ppr, "_THREADS", 2)
        assert share_widths(8, 5_000) == [8]


class TestEngine:
    def test_cache_returns_identical_vector(self, path_graph):
        engine = PprEngine(path_graph)
        first = engine.ppr_for_sense(sense(2))
        second = engine.ppr_for_sense(sense(2))
        assert first is second
        assert engine.stats().hits == 1

    def test_singleton_set_equals_single_sense(self, path_graph):
        engine = PprEngine(path_graph)
        assert engine.ppr_for_sense_set([sense(2)]) is engine.ppr_for_sense(sense(2))

    def test_seed_order_irrelevant(self, path_graph):
        engine = PprEngine(path_graph)
        a = engine.ppr_for_sense_set([sense(1), sense(4)])
        b = engine.ppr_for_sense_set([sense(4), sense(1)])
        assert a is b

    def test_different_senses_have_different_top_dimension(self, path_graph):
        engine = PprEngine(path_graph)
        top1 = next(iter(engine.ppr_for_sense(sense(1)).items()))[0]
        top5 = next(iter(engine.ppr_for_sense(sense(5)).items()))[0]
        assert top1 != top5
        # dense oracle agrees about both top dimensions
        for seed_node, top in ((0, top1), (4, top5)):
            expected = dense_ppr(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [seed_node])
            assert int(np.argmax(expected)) == int(top.offset) - 1

    def test_primed_batch_bitwise_equals_single_compute(self, path_graph):
        engine = PprEngine(path_graph)
        engine.prime_seed_sets([[sense(1)], [sense(2)], [sense(1), sense(5)]])
        for seeds in ([sense(1), sense(5)], [sense(1)], [sense(2)]):
            primed = engine.ppr_for_sense_set(seeds)
            assert_matches_compute_ppr(primed, compute_ppr(path_graph, seeds), seeds)

    def test_dangling_seed_vector(self):
        g = graph_from_edges([(1, 2)], isolated=[5])
        engine = PprEngine(g)
        v = engine.ppr_for_sense(sense(5))
        assert list(v.items()) == [(sense(5), 1.0)]

    def test_lru_eviction(self, path_graph):
        engine = PprEngine(path_graph, cache_capacity=2)
        for i in (1, 2, 3):
            engine.ppr_for_sense(sense(i))
        stats = engine.stats()
        assert stats.size == 2
        assert stats.evictions == 1

    def test_stats_is_a_snapshot(self, path_graph):
        engine = PprEngine(path_graph, cache_capacity=2)
        first = engine.ppr_for_sense(sense(1))
        before = engine.stats()
        taken = before.as_dict()
        assert taken == dict(enabled=True, hits=0, misses=1, evictions=0, size=1, capacity=2,
                             memory_bytes=first.nbytes())
        for i in (1, 2, 3):  # a hit, then two misses, the second evicting
            engine.ppr_for_sense(sense(i))
        assert before.as_dict() == taken
        after = engine.stats()
        assert (after.hits, after.misses, after.evictions, after.size) == (1, 3, 1, 2)

    def test_memory_counts_rank_tables_and_weights_of_cached_vectors(
        self, tmp_path, path_graph
    ):
        def stored(vectors):
            return sum(vec.ranks.nbytes + vec.weights.nbytes for vec in vectors)

        engine = PprEngine(path_graph, cache_capacity=2)
        first = engine.ppr_for_sense(sense(1))
        assert first.ranks.dtype == np.int32
        assert engine.stats().memory_bytes == stored([first])
        engine.ppr_for_sense(sense(2))
        engine.ppr_for_sense(sense(1))  # most recent again
        third = engine.ppr_for_sense(sense(3))  # evicts the second vector
        assert engine.stats().evictions == 1
        assert engine.stats().memory_bytes == stored([first, third])

        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {})
        fresh = PprEngine(path_graph, cache_capacity=2)
        assert fresh.load_cache(cache_file, {})
        assert fresh.stats().memory_bytes == stored(vec for _, vec in fresh._vectors.items())
        assert fresh.stats().memory_bytes == engine.stats().memory_bytes

    def test_save_and_load_cache_roundtrip(self, tmp_path, path_graph):
        engine = PprEngine(path_graph)
        vec = engine.ppr_for_sense(sense(3))
        meta = {"graph_sha256": "abc", "dict_sha256": "def"}
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, meta)

        fresh = PprEngine(path_graph)
        assert fresh.load_cache(cache_file, meta)
        reloaded = fresh.ppr_for_sense(sense(3))
        assert np.array_equal(reloaded.idx, vec.idx)
        assert np.array_equal(reloaded.weights, vec.weights)
        assert (fresh.stats().hits, fresh.stats().misses) == (1, 0)

        mismatched = PprEngine(path_graph)
        assert not mismatched.load_cache(cache_file, {"graph_sha256": "zzz"})
        assert mismatched.stats().size == 0

    @pytest.mark.parametrize("damage", ["not-a-payload", *CACHE_DAMAGES])
    def test_unreadable_cache_file_raises_cache_file_error(self, tmp_path, path_graph, damage):
        engine = PprEngine(path_graph)
        engine.prime_seed_sets([[sense(3)], [sense(1), sense(5)], [sense(2), sense(4)]])
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {})
        if damage == "not-a-payload":
            cache_file.write_bytes(pickle.dumps([1, 2, 3]))
        else:
            damage_cache_file(cache_file, damage)
        fresh = PprEngine(path_graph)
        with pytest.raises(CacheFileError, match="cannot read cache file"):
            fresh.load_cache(cache_file, {})
        assert fresh.stats().size == 0
        with pytest.raises(CacheFileError, match="cannot read cache file"):
            read_cache_file(cache_file)

    @pytest.mark.parametrize("other", [
        PprConfig(alpha=0.5), PprConfig(iterations=7),
    ], ids=["alpha", "iterations"])
    def test_cache_from_other_walk_settings_refused(self, tmp_path, path_graph, other):
        engine = PprEngine(path_graph)
        engine.ppr_for_sense(sense(3))
        meta = {"graph_sha256": "abc", "dict_sha256": "def"}
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, meta)

        fresh = PprEngine(path_graph, other)
        assert not fresh.load_cache(cache_file, meta)
        assert fresh.stats().size == 0
        assert np.array_equal(
            fresh.ppr_for_sense(sense(3)).weights, compute_ppr(path_graph, [sense(3)], other).weights
        )

    @pytest.mark.parametrize("version", [1, 2], ids=["version-1", "version-2"])
    def test_cache_file_in_the_old_format_refused(self, tmp_path, path_graph, version):
        # Files written while the walk settings had a truncation field were
        # pickles holding a format version and "truncation": None in their
        # meta. A pickle file is refused unread: its planted object never runs.
        marker = tmp_path / "marker"
        vec = compute_ppr(path_graph, [sense(3)])
        meta = {"graph_sha256": "abc", "dict_sha256": "def"}
        cache_file = tmp_path / "cache.npz"
        cache_file.write_bytes(planted_pickle(marker, {
            "version": version,
            "meta": {**meta, "alpha": 0.15, "iterations": 30, "truncation": None},
            "stats": {"enabled": True},
            "entries": [((path_graph.node_index(sense(3)),), vec.idx, vec.weights)],
        }))
        engine = PprEngine(path_graph)
        with pytest.raises(CacheFileError, match="cannot read cache file"):
            engine.load_cache(cache_file, meta)
        assert not marker.exists()
        assert engine.stats().size == 0
        engine.ppr_for_sense(sense(3))
        assert (engine.stats().hits, engine.stats().misses) == (0, 1)

    def test_cache_file_in_command_line_meta_format_loads(self, tmp_path, path_graph):
        # The command line used to put the walk settings into meta itself,
        # in a pickle file; such a file is refused unread. The same meta and
        # vector in an archive load.
        marker = tmp_path / "marker"
        vec = compute_ppr(path_graph, [sense(3)])
        meta = {"graph_sha256": "abc", "dict_sha256": "def"}
        cache_file = tmp_path / "cache.npz"
        cache_file.write_bytes(planted_pickle(marker, {
            "meta": {**meta, "alpha": 0.15, "iterations": 30, "node_order": "sense_id"},
            "stats": {"enabled": True},
            "entries": [((path_graph.node_index(sense(3)),), vec.idx, vec.weights)],
        }))
        with pytest.raises(CacheFileError, match="cannot read cache file"):
            PprEngine(path_graph).load_cache(cache_file, meta)
        with pytest.raises(CacheFileError, match="cannot read cache file"):
            read_cache_file(cache_file)
        assert not marker.exists()

        saving = PprEngine(path_graph)
        saving.ppr_for_sense(sense(3))
        saving.save_cache(cache_file, meta)
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, meta)
        reloaded = engine.ppr_for_sense(sense(3))
        assert np.array_equal(reloaded.idx, vec.idx)
        assert np.array_equal(reloaded.weights, vec.weights)
        assert (engine.stats().hits, engine.stats().misses) == (1, 0)
        assert not PprEngine(path_graph, PprConfig(alpha=0.3)).load_cache(cache_file, meta)

    def test_capacity_zero_priming_returns_vectors_and_keeps_none(self, path_graph, monkeypatch):
        walked = []  # the seed nodes of every walked column
        walk = grouge.ppr._walk

        def recorded_walk(graph, keys, cfg):
            walked.extend(keys)
            return walk(graph, keys, cfg)

        monkeypatch.setattr(grouge.ppr, "_walk", recorded_walk)
        engine = PprEngine(path_graph, cache_capacity=0)
        sets = [[sense(2)], [sense(1), sense(5)], [sense(2)], [sense(5), sense(1)],
                [sense(3), sense(5)]]
        node = {i: path_graph.node_index(sense(i)) for i in (1, 2, 3, 5)}
        for _ in range(2):  # nothing is kept, so the second call walks again
            walked.clear()
            vectors = engine.prime_seed_sets(sets)
            assert sorted(walked) == sorted((node[i],) for i in (2, 1, 5, 3))
            assert len(vectors) == len(sets)
            assert vectors[0] is vectors[2] and vectors[1] is vectors[3]
            for seeds, vec in zip(sets, vectors):
                assert_matches_compute_ppr(vec, compute_ppr(path_graph, seeds), seeds)
        stats = engine.stats()
        assert stats.size == stats.memory_bytes == stats.hits == 0
        assert stats.misses == 2 * 3  # one per distinct set and call

    def test_failed_save_keeps_previous_cache_file(self, tmp_path, path_graph, monkeypatch):
        engine = PprEngine(path_graph)
        engine.ppr_for_sense(sense(3))
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {"graph_sha256": "abc"})
        before = cache_file.read_bytes()
        engine.ppr_for_sense(sense(4))
        write_array = np.lib.format.write_array

        def failing_write(fh, array, *args, **kwargs):
            if array.dtype == np.float64:  # the weights, after the other members
                fh.write(b"partial")
                raise OSError("disk full")
            write_array(fh, array, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing_write)
        with pytest.raises(OSError, match="disk full"):
            engine.save_cache(cache_file, {"graph_sha256": "abc"})
        assert cache_file.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.npz"]


class TestUnchangedCacheFile:
    """``save_cache`` to the path the engine loaded leaves the file as it
    was while the engine holds the same walked vectors and evicted none;
    any other save writes."""

    META = {"graph_sha256": "abc"}

    @staticmethod
    def stamp(path: Path) -> tuple[bytes, int]:
        """The file's bytes, after setting an mtime that any rewrite replaces."""
        os.utime(path, ns=(10**18, 10**18))
        return path.read_bytes(), path.stat().st_mtime_ns

    def saved(self, tmp_path, graph, singles=(1, 2, 3)) -> Path:
        engine = PprEngine(graph)
        engine.prime_senses(sense(i) for i in singles)
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, self.META)
        return cache_file

    def test_load_then_save_with_nothing_new_keeps_bytes_and_mtime(self, tmp_path, path_graph):
        cache_file = self.saved(tmp_path, path_graph)
        before = self.stamp(cache_file)
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, self.META)
        # hits move loaded keys within the LRU order; composed sets are not saved
        engine.prime_seed_sets([[sense(3)], [sense(1)], [sense(1), sense(2)]])
        assert engine.stats().hits == 2
        engine.save_cache(cache_file, self.META)
        assert (cache_file.read_bytes(), cache_file.stat().st_mtime_ns) == before
        engine.save_cache(str(cache_file), self.META)  # the same path as a string
        assert (cache_file.read_bytes(), cache_file.stat().st_mtime_ns) == before

    def test_new_walk_rewrites_the_file(self, tmp_path, path_graph):
        cache_file = self.saved(tmp_path, path_graph)
        before = self.stamp(cache_file)
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, self.META)
        engine.ppr_for_sense(sense(5))
        engine.save_cache(cache_file, self.META)
        assert cache_file.stat().st_mtime_ns != before[1]
        assert len(read_cache_file(cache_file)[1]["sizes"]) == 4

    def test_eviction_rewrites_the_file(self, tmp_path, path_graph):
        cache_file = self.saved(tmp_path, path_graph)
        before = self.stamp(cache_file)
        engine = PprEngine(path_graph, cache_capacity=4)
        assert engine.load_cache(cache_file, self.META)
        engine.ppr_for_sense_set([sense(1), sense(2)])
        engine.prime_senses(sense(i) for i in (1, 2, 3))  # the composed set is now oldest
        engine.ppr_for_sense_set([sense(1), sense(3)])  # and evicted
        assert engine.stats().evictions == 1
        engine.save_cache(cache_file, self.META)
        assert cache_file.stat().st_mtime_ns != before[1]
        assert read_cache_file(cache_file)[0]["stats"]["evictions"] == 1
        # the same walked vectors as before, with the counts of the run that evicted
        assert read_cache_file(cache_file)[1]["keys"].tolist() == [
            path_graph.node_index(sense(i)) for i in (1, 2, 3)
        ]

    def test_eviction_while_loading_rewrites_the_file(self, tmp_path, path_graph):
        cache_file = self.saved(tmp_path, path_graph)
        before = self.stamp(cache_file)
        engine = PprEngine(path_graph, cache_capacity=2)
        assert engine.load_cache(cache_file, self.META)
        engine.save_cache(cache_file, self.META)
        assert cache_file.stat().st_mtime_ns != before[1]
        assert len(read_cache_file(cache_file)[1]["sizes"]) == 2

    def test_save_to_another_path_always_writes(self, tmp_path, path_graph):
        cache_file = self.saved(tmp_path, path_graph)
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, self.META)
        other = tmp_path / "other.npz"
        engine.save_cache(other, self.META)
        assert read_cache_file(other)[1]["keys"].tolist() == (
            read_cache_file(cache_file)[1]["keys"].tolist()
        )
        # an engine that loaded nothing writes too
        before = self.stamp(cache_file)
        PprEngine(path_graph).save_cache(cache_file, self.META)
        assert cache_file.stat().st_mtime_ns != before[1]

    def test_file_is_overwritten_after_a_mismatched_load(self, tmp_path, path_graph):
        cache_file = self.saved(tmp_path, path_graph)
        before = self.stamp(cache_file)
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, self.META)
        assert not engine.load_cache(cache_file, {"graph_sha256": "zzz"})
        engine.save_cache(cache_file, {"graph_sha256": "zzz"})
        assert cache_file.stat().st_mtime_ns != before[1]
        assert read_cache_file(cache_file)[0]["meta"]["graph_sha256"] == "zzz"

    @pytest.mark.parametrize("damage", CACHE_DAMAGES)
    def test_file_is_overwritten_after_a_refused_load(self, tmp_path, path_graph, damage):
        cache_file = self.saved(tmp_path, path_graph)
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, self.META)
        damage_cache_file(cache_file, damage)
        with pytest.raises(CacheFileError):
            engine.load_cache(cache_file, self.META)
        engine.save_cache(cache_file, self.META)
        assert len(read_cache_file(cache_file)[1]["sizes"]) == 3


class TestLineOrder:
    """On a graph whose mirror senses tie, vectors and similarities do not
    depend on how the relation file lists the edges."""

    @staticmethod
    def outputs(lines):
        graph = load_graph(lines)
        engine = PprEngine(graph)
        senses = [SenseId.parse(node_id(i)) for i in range(24)]
        sets = [[senses[i] for i in key] for key in ((0, 12), (3, 9, 15), (1, 23))]
        return (
            [list(engine.ppr_for_sense(s).items()) for s in senses],
            [list(compute_ppr(graph, seeds).items()) for seeds in sets],
            [engine.sense_similarity(a, b) for a, b in combinations(senses, 2)],
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_vectors_and_similarities_are_bit_identical(self, seed):
        lines = symmetric_relation_lines()
        singles, composed, sims = self.outputs(lines)
        assert self.outputs(relist_lines(lines, seed)) == (singles, composed, sims)
        assert len(composed) == 3 and len(sims) == 276


def block_bytes(array: np.ndarray) -> int:
    """Bytes of the memory block an array lives in, following its bases."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.nbytes if array.base is None else memoryview(array.base).nbytes


def held_bytes(vectors) -> int:
    """The bytes of every array the vectors hold; none is a view into a
    larger block."""
    total = 0
    for vec in vectors:
        for name in PprVector.__slots__:
            value = getattr(vec, name)
            if isinstance(value, np.ndarray):
                assert block_bytes(value) == value.nbytes, name
                total += value.nbytes
    return total


class TestRankOnly:
    """An engine keeps a composed vector's rank table and sense count only;
    walked vectors keep their weights."""

    @pytest.fixture
    def engine_and_sets(self, path_graph):
        engine = PprEngine(path_graph)
        sets = [[sense(1)], [sense(1), sense(5)], [sense(2), sense(3), sense(4)]]
        return engine, sets, engine.prime_seed_sets(sets)

    def test_composed_vectors_hold_no_weights(self, engine_and_sets, path_graph):
        _, sets, vectors = engine_and_sets
        for seeds, vec in zip(sets[1:], vectors[1:]):
            want = compute_ppr(path_graph, seeds)
            assert vec.weights.nbytes == 0
            assert block_bytes(vec.weights) == 0  # not a view of the composed column
            assert vec.senses == len(vec) == len(want.weights) == 5
            assert np.array_equal(vec.idx, want.idx)
            assert vec.nbytes() == vec.ranks.nbytes
        assert np.array_equal(vectors[0].weights, compute_ppr(path_graph, sets[0]).weights)

    def test_items_and_top_of_a_rank_only_vector_raise(self, engine_and_sets):
        _, _, vectors = engine_and_sets
        for call in (lambda v: v.items(), lambda v: v.top(3), lambda v: v.top(0)):
            with pytest.raises(ValueError, match="ranks only; compute_ppr gives its weights"):
                call(vectors[1])
        assert len(vectors[0].top(3)) == 3

    def test_memory_bytes_is_what_the_cached_vectors_hold(self, engine_and_sets, tmp_path,
                                                         path_graph):
        engine, sets, _ = engine_and_sets
        assert engine.stats().memory_bytes == held_bytes(vec for _, vec in engine._vectors.items())

        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {})
        reloaded = PprEngine(path_graph)
        assert reloaded.load_cache(cache_file, {})
        cached = reloaded._vectors.items
        assert reloaded.stats().memory_bytes == held_bytes(vec for _, vec in cached())
        reloaded.prime_seed_sets(sets)  # composes the sets the file leaves out
        assert reloaded.stats().memory_bytes == held_bytes(vec for _, vec in cached())
        assert reloaded.stats().memory_bytes == engine.stats().memory_bytes

    def test_cache_file_stores_composed_entries_without_weights(self, engine_and_sets,
                                                               tmp_path, path_graph):
        """The file holds the walked vectors only; a warm engine composes
        the other sets again, from the loaded singles, with the same bits."""
        engine, sets, vectors = engine_and_sets
        engine.prime_seed_sets([[sense(i)] for i in range(1, 6)])  # every single cached
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {})
        _, members = read_cache_file(cache_file)
        assert members["key_sizes"].tolist() == [1] * 5
        assert len(members["weights"]) == len(members["indices"]) == 5 * 5

        warm = PprEngine(path_graph)
        assert warm.load_cache(cache_file, {})
        with mock.patch.object(grouge.ppr, "_walk", wraps=grouge.ppr._walk) as walk:
            reloaded = warm.prime_seed_sets(sets)
        assert walk.call_count == 0
        assert (warm.stats().hits, warm.stats().misses) == (1, 2)
        assert np.array_equal(reloaded[0].weights, vectors[0].weights)
        for got, want in zip(reloaded[1:], vectors[1:]):
            assert got.weights.nbytes == 0 and got.senses == want.senses
            assert np.array_equal(got.ranks, want.ranks)

    def test_singles_walked_to_compose_are_cached_and_saved(self, engine_and_sets, tmp_path,
                                                            path_graph):
        """Every single a call walks is cached, before the requested sets,
        which stay the most recently used; a warm engine that loads the
        saved file primes the same sets without a walk."""
        engine, sets, _ = engine_and_sets
        keys = [key for key, _ in engine._vectors.items()]
        requested = [_seed_key(path_graph, seeds) for seeds in sets]
        assert sorted(keys[:4]) == [_seed_key(path_graph, [sense(i)]) for i in (2, 3, 4, 5)]
        assert keys[4:] == requested
        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {})

        warm = PprEngine(path_graph)
        assert warm.load_cache(cache_file, {})
        with mock.patch.object(grouge.ppr, "_walk", wraps=grouge.ppr._walk) as walk:
            warm.prime_seed_sets(sets)
        assert walk.call_count == 0


class TestWalkMemory:
    def test_a_pass_holds_two_column_arrays_not_three(self):
        """_run_walk drops the seed matrix after the first product, so a
        caller that passes it without keeping it needs two (n, columns)
        float64 arrays at a time; the bits do not change."""
        import tracemalloc

        g = graph_from_edges([(i, i + 1) for i in range(1, 4000)])
        columns = 8

        def seed_matrix():
            v0 = np.zeros((g.node_count, columns))
            v0[np.arange(columns) * 400, np.arange(columns)] = 1.0
            return v0

        tracemalloc.start()
        try:
            got = _run_walk(g, seed_matrix(), PprConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * got.nbytes
        assert np.array_equal(got, walk_reference(g, seed_matrix()))


_ROUND_TRIP_GRAPH = graph_from_edges([(i, i + 1) for i in range(1, 40)])


class TestRankTable:
    @given(st.lists(st.integers(0, 39), unique=True, max_size=40))
    def test_idx_round_trips_through_the_rank_table(self, nodes):
        idx = np.array(nodes, dtype=np.int64)
        vec = PprVector(_ROUND_TRIP_GRAPH, idx, np.linspace(1.0, 0.5, len(nodes)))
        assert vec.idx.dtype == np.int64
        assert np.array_equal(vec.idx, idx)
        assert len(vec.ranks) == max(nodes, default=-1) + 1
        assert np.count_nonzero(vec.ranks) == len(nodes)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"iterations": 0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            PprConfig(**kwargs)

    def test_negative_cache_capacity_rejected(self, path_graph):
        with pytest.raises(ValueError, match="cache_capacity must be >= 0, got -3"):
            PprEngine(path_graph, cache_capacity=-3)
        assert PprEngine(path_graph, cache_capacity=0).stats().enabled is False

    def test_seed_set_dedupes_and_rejects_empty(self, path_graph):
        engine = PprEngine(path_graph)
        deduped = engine.ppr_for_sense_set([sense(1), sense(1), sense(2)])
        assert deduped is engine.ppr_for_sense_set([sense(2), sense(1)])
        assert engine.stats().size == 3  # the set and the two singles composed into it
        with pytest.raises(ValueError, match="empty seed set"):
            engine.ppr_for_sense_set([])


class TestCacheArchive:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_on_random_graphs_with_isolated_nodes(self, seed):
        """A loaded file holds every walked vector with the saved rank
        order, sense count and weight bits, each weight array its own; a
        warm engine composes the other sets without a walk, and every score
        is bit-identical."""
        from grouge.similarity import sim_sem

        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        nodes = range(1, n + 1)
        edges = [(i, j) for i in nodes for j in nodes if i < j and rng.random() < 0.25]
        edges = edges or [(1, 2)]
        linked = sorted({u for e in edges for u in e})
        g = graph_from_edges(edges, isolated=[i for i in nodes if i not in linked])
        sets = [rng.choice(nodes, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
                for _ in range(4)]
        sets.append(rng.choice(linked, size=int(rng.integers(2, min(len(linked), 4) + 1)),
                               replace=False))  # a set that composes
        seeds = [[sense(int(i))] for i in sorted(set(np.concatenate(sets).tolist()))]
        seeds += [[sense(int(i)) for i in nodes_of_set] for nodes_of_set in sets]
        engine = PprEngine(g)
        vectors = engine.prime_seed_sets(seeds)
        saved = dict(engine._vectors.items())

        warm = PprEngine(g)
        with tempfile.TemporaryDirectory() as tmp:
            cache_file = Path(tmp) / "cache.npz"
            engine.save_cache(cache_file, {"seed": seed})
            assert warm.load_cache(cache_file, {"seed": seed})
        loaded = dict(warm._vectors.items())
        assert loaded.keys() == {key for key in saved if not _composes(g, key)}
        for key, vec in loaded.items():
            want = saved[key]
            assert np.array_equal(vec.idx, want.idx) and np.array_equal(vec.ranks, want.ranks)
            assert vec.senses == want.senses
            assert vec.weights.tobytes() == want.weights.tobytes()
            assert block_bytes(vec.weights) == vec.weights.nbytes

        with mock.patch.object(grouge.ppr, "_walk", wraps=grouge.ppr._walk) as walk:
            again = warm.prime_seed_sets(seeds)
        assert walk.call_count == 0
        assert warm.stats().misses == len(saved) - len(loaded)
        for got, want in zip(again, vectors):
            assert np.array_equal(got.ranks, want.ranks) and got.senses == want.senses
            assert got.weights.tobytes() == want.weights.tobytes()
        for i, j in combinations(range(len(seeds)), 2):
            assert sim_sem(again[i], again[j]) == sim_sem(vectors[i], vectors[j])

    def test_an_empty_cache_round_trips(self, tmp_path, path_graph):
        cache_file = tmp_path / "cache.npz"
        PprEngine(path_graph).save_cache(cache_file, {})
        header, members = read_cache_file(cache_file)
        assert header["stats"]["size"] == 0 and all(len(m) == 0 for m in members.values())
        engine = PprEngine(path_graph)
        assert engine.load_cache(cache_file, {}) and engine.stats().size == 0
