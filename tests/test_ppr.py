import numpy as np
import pytest

from grouge import PprConfig, PprEngine, SeedSet, compute_ppr, load_graph

from conftest import graph_from_edges, sense
from oracles import dense_ppr


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
        assert v.weight_of(sense(1)) == pytest.approx(a30, abs=1e-15)
        assert v.weight_of(sense(2)) == pytest.approx(b30, abs=1e-15)

    def test_two_node_fixed_point_at_convergence(self, two_node_graph):
        # 0.15 / (1 - 0.85^2) and its complement; the default 30 iterations
        # sit ~3.5e-3 away on this bipartite graph, so run longer.
        v = compute_ppr(two_node_graph, [sense(1)], PprConfig(iterations=120))
        assert v.weight_of(sense(1)) == pytest.approx(0.15 / (1 - 0.85**2), abs=1e-6)
        assert v.weight_of(sense(2)) == pytest.approx(1 - 0.15 / (1 - 0.85**2), abs=1e-6)

    def test_complete_graph_all_seeds_uniform_every_iteration(self):
        g = graph_from_edges([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        seeds = [sense(i) for i in range(1, 5)]
        for iterations in (1, 3, 30):
            v = compute_ppr(g, seeds, PprConfig(iterations=iterations))
            for s in seeds:
                assert v.weight_of(s) == pytest.approx(0.25, abs=1e-15)

    def test_isolated_seed_keeps_all_mass(self):
        g = graph_from_edges([(1, 2)], isolated=[9])
        v = compute_ppr(g, [sense(9)])
        assert v.weight_of(sense(9)) == 1.0
        assert len(v) == 1

    def test_two_seeds_on_symmetric_pair_uniform(self, two_node_graph):
        v = compute_ppr(two_node_graph, [sense(1), sense(2)])
        assert v.weight_of(sense(1)) == pytest.approx(0.5, abs=1e-12)
        assert v.weight_of(sense(2)) == pytest.approx(0.5, abs=1e-12)

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
            assert v.sense_weight_sum() == pytest.approx(1.0, abs=1e-9)

    def test_restart_floor_on_seeds(self, path_graph):
        seeds = [sense(1), sense(3)]
        for iterations in range(1, 31):
            v = compute_ppr(path_graph, seeds, PprConfig(iterations=iterations))
            for s in seeds:
                assert v.weight_of(s) >= 0.15 / 2

    def test_monotone_locality_on_path(self, path_graph):
        # Mass is non-increasing with distance from the seed's neighbour on.
        # The seed itself ranks below its only neighbour: the neighbour
        # receives the seed's entire outflow (degree-1 column), which the
        # dense oracle confirms, so monotonicity is asserted from distance 1.
        v = compute_ppr(path_graph, [sense(1)])
        weights = [v.weight_of(sense(i)) for i in range(1, 6)]
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

    def test_truncation_keeps_top_k_without_renormalizing(self, path_graph):
        full = compute_ppr(path_graph, [sense(1)])
        cut = compute_ppr(path_graph, [sense(1)], PprConfig(truncation=2))
        assert len(cut) == 2
        assert list(cut.items()) == list(full.items())[:2]
        assert cut.sense_weight_sum() < 1.0


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
        primed = engine.ppr_for_sense_set([sense(1), sense(5)])
        fresh = compute_ppr(path_graph, [sense(1), sense(5)])
        assert np.array_equal(primed.idx, fresh.idx)
        assert np.array_equal(primed.weights, fresh.weights)

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

    def test_memory_follows_rank_tables_built_while_cached(self, path_graph):
        engine = PprEngine(path_graph, cache_capacity=2)
        first = engine.ppr_for_sense(sense(1))
        base = first.idx.nbytes + first.weights.nbytes
        assert engine.stats().memory_bytes == base
        table = first.dense_rank_table()  # built while cached: counted
        assert engine.stats().memory_bytes == base + table.nbytes
        second = engine.ppr_for_sense(sense(2))
        engine.ppr_for_sense(sense(1))  # most recent again
        third = engine.ppr_for_sense(sense(3))  # evicts the second vector
        assert engine.stats().evictions == 1
        second.dense_rank_table()  # built after eviction: not counted
        third.dense_rank_table()
        assert engine.stats().memory_bytes == sum(
            vec.idx.nbytes + vec.weights.nbytes + vec.dense_rank_table().nbytes
            for vec in (first, third)
        )

    def test_save_and_load_cache_roundtrip(self, tmp_path, path_graph):
        engine = PprEngine(path_graph)
        vec = engine.ppr_for_sense(sense(3))
        meta = {"graph_sha256": "abc", "dict_sha256": "def"}
        cache_file = tmp_path / "cache.pkl"
        engine.save_cache(cache_file, meta)

        fresh = PprEngine(path_graph)
        assert fresh.load_cache(cache_file, meta)
        reloaded = fresh.ppr_for_sense(sense(3))
        assert np.array_equal(reloaded.idx, vec.idx)
        assert np.array_equal(reloaded.weights, vec.weights)
        assert fresh.stats().preloaded_hits == 1

        mismatched = PprEngine(path_graph)
        assert not mismatched.load_cache(cache_file, {"graph_sha256": "zzz"})
        assert mismatched.stats().size == 0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"iterations": 0}, {"truncation": 0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            PprConfig(**kwargs)

    def test_seed_set_dedupes_and_rejects_empty(self):
        assert len(SeedSet.of([sense(1), sense(1), sense(2)])) == 2
        with pytest.raises(ValueError):
            SeedSet.of([])
