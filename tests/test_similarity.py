from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grouge import PprConfig, PprEngine, PprVector, compute_ppr, insert_oov, sim_sem

from conftest import graph_from_edges, sense
from oracles import sim_sem_reference, vector_from_weights, weighted_overlap_direct

# Nodes 0..30, so every key the weight maps below draw is a sense.
KEY_GRAPH = graph_from_edges([(i, i + 1) for i in range(30)])


def weight_maps(max_dims: int = 12, min_dims: int = 1):
    keys = st.integers(min_value=0, max_value=30).map(sense)
    weights = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
    return st.dictionaries(keys, weights, min_size=min_dims, max_size=max_dims)


def overlap(w1: dict, w2: dict) -> float:
    return sim_sem(vector_from_weights(KEY_GRAPH, w1), vector_from_weights(KEY_GRAPH, w2))


def empty_vector(graph) -> PprVector:
    return PprVector(graph, np.empty(0, np.int64), np.empty(0, np.float64))


def with_oov(weights: dict, terms: list[str]) -> tuple[PprVector, dict]:
    """A vector from a weight map plus OOV terms, and the weight map the
    direct oracle ranks for it."""
    vec = insert_oov(vector_from_weights(KEY_GRAPH, weights), terms)
    return vec, {**weights, **dict.fromkeys(vec.oov_terms, vec.oov_weight)}


class TestWeightedOverlap:
    def test_identity_is_exactly_one(self):
        w = {sense(1): 0.5, sense(2): 0.3, sense(3): 0.2}
        assert overlap(w, w) == 1.0

    def test_disjoint_supports_zero(self):
        assert overlap({sense(1): 0.7, sense(2): 0.3}, {sense(3): 0.6, sense(4): 0.4}) == 0.0

    def test_hand_case_eight_ninths(self):
        got = overlap({sense(1): 0.6, sense(2): 0.4}, {sense(1): 0.3, sense(2): 0.7})
        assert got == pytest.approx(8.0 / 9.0, abs=1e-12)

    def test_empty_vector_rejected(self):
        v = vector_from_weights(KEY_GRAPH, {sense(1): 1.0})
        with pytest.raises(ValueError, match="empty signature"):
            sim_sem(empty_vector(KEY_GRAPH), v)

    def test_tie_break_by_ascending_key(self):
        v = vector_from_weights(KEY_GRAPH, {sense(2): 0.5, sense(1): 0.5, sense(3): 0.4})
        assert [k for k, _ in v.items()] == [sense(1), sense(2), sense(3)]

    @settings(max_examples=300, deadline=None)
    @given(weight_maps(), weight_maps())
    def test_matches_direct_oracle(self, w1, w2):
        got = overlap(w1, w2)
        assert got == pytest.approx(weighted_overlap_direct(w1, w2), abs=1e-12)
        assert 0.0 <= got <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(weight_maps(), weight_maps())
    def test_symmetry_exact(self, w1, w2):
        assert overlap(w1, w2) == overlap(w2, w1)

    @settings(max_examples=200, deadline=None)
    @given(weight_maps(), weight_maps(), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, w1, w2, factor):
        scaled = overlap({k: w * factor for k, w in w1.items()}, w2)
        assert scaled == overlap(w1, w2)


class TestSimSem:
    def test_identical_vectors_one(self, path_graph):
        v = compute_ppr(path_graph, [sense(2)])
        assert sim_sem(v, v) == 1.0

    def test_disconnected_components_zero(self):
        g = graph_from_edges([(1, 2), (3, 4)])
        a = compute_ppr(g, [sense(1)])
        b = compute_ppr(g, [sense(3)])
        assert sim_sem(a, b) == 0.0

    def test_fast_path_matches_ranked_projection(self, path_graph):
        # A vector rebuilt from its own items() ranks the same way.
        a = compute_ppr(path_graph, [sense(1)])
        b = compute_ppr(path_graph, [sense(4)])
        rebuilt_a = vector_from_weights(path_graph, dict(a.items()))
        rebuilt_b = vector_from_weights(path_graph, dict(b.items()))
        assert sim_sem(a, b) == sim_sem(rebuilt_a, rebuilt_b)

    def test_fast_path_matches_direct_oracle(self, path_graph):
        a = compute_ppr(path_graph, [sense(1)])
        b = compute_ppr(path_graph, [sense(4), sense(5)])
        wa = {k.canonical: w for k, w in a.items()}
        wb = {k.canonical: w for k, w in b.items()}
        assert sim_sem(a, b) == pytest.approx(weighted_overlap_direct(wa, wb), abs=1e-12)

    def test_empty_signature_rejected(self, path_graph):
        full = compute_ppr(path_graph, [sense(1)])
        with pytest.raises(ValueError, match="empty signature"):
            sim_sem(empty_vector(path_graph), full)

    def test_vectors_of_different_graphs_rejected(self, path_graph):
        other = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
        with pytest.raises(ValueError, match="different graphs"):
            sim_sem(compute_ppr(path_graph, [sense(1)]), compute_ppr(other, [sense(1)]))

    def test_score_independent_of_terms_met_before(self):
        # The order in which a process first meets OOV terms must not reach
        # a score: summing this pair's shared terms in first-seen order
        # moves its last bit.
        edges = [(i, i + 1) for i in range(1, 12)] + [(12, 1), (3, 9), (5, 11)]

        def target(graph):
            a = insert_oov(compute_ppr(graph, [sense(1)]), ["t0", "t1", "t2"])
            b = insert_oov(compute_ppr(graph, [sense(4)]), ["t0", "t1", "t2", "t3"])
            return a, b

        expected = sim_sem(*target(graph_from_edges(edges)))
        seasoned = graph_from_edges(edges)
        base = compute_ppr(seasoned, [sense(1)])
        for term in ("t3", "t2", "t1", "t0"):
            sim_sem(insert_oov(base, [term]), base)
        assert sim_sem(*target(seasoned)) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        weight_maps(min_dims=0),
        weight_maps(min_dims=0),
        st.lists(st.sampled_from(["ab", "cd", "ef", "gh", "ij", "kl"]), max_size=5),
        st.lists(st.sampled_from(["ab", "cd", "ef", "gh", "ij", "kl"]), max_size=5),
    )
    def test_oov_on_both_sides_matches_direct_oracle(self, w1, w2, terms1, terms2):
        (va, wa), (vb, wb) = with_oov(w1, terms1), with_oov(w2, terms2)
        assume(va and vb)
        got = sim_sem(va, vb)
        assert got == pytest.approx(weighted_overlap_direct(wa, wb), abs=1e-12)
        assert got == sim_sem(vb, va)
        same, _ = with_oov(w1, terms1)
        assert sim_sem(va, same) == 1.0


    def test_ranks_equal_at_the_first_entry_and_different_later(self):
        a = vector_from_weights(KEY_GRAPH, {sense(0): 0.5, sense(1): 0.3, sense(2): 0.2})
        b = vector_from_weights(KEY_GRAPH, {sense(0): 0.5, sense(2): 0.3, sense(1): 0.2})
        assert a.ranks[0] == b.ranks[0] == 1 and a.ranks[1] != b.ranks[1]
        got = sim_sem(a, b)
        assert got < 1.0
        assert got == sim_sem_reference(a, b)
        assert got == pytest.approx((1 / 2 + 1 / 5 + 1 / 5) / (1 / 2 + 1 / 4 + 1 / 6), abs=1e-15)

    def test_identical_tables_that_start_absent_score_one(self):
        w = {sense(1): 0.5, sense(2): 0.3}
        a, b = vector_from_weights(KEY_GRAPH, w), vector_from_weights(KEY_GRAPH, dict(w))
        assert a.ranks[0] == b.ranks[0] == 0
        assert sim_sem(a, b) == 1.0
        assert sim_sem(insert_oov(a, ["q"]), insert_oov(b, ["q"])) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["ab", "cd", "ef"]), max_size=3),
        st.lists(st.sampled_from(["ab", "cd", "ef"]), max_size=3),
    )
    def test_rank_only_engine_vectors_score_as_compute_ppr_vectors(self, seed, terms_a,
                                                                   terms_b):
        """An engine keeps a composed set's ranks only; every score it
        enters is the score of compute_ppr's weighted vector, bit for bit."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        nodes = range(1, n + 1)
        edges = [(i, j) for i in nodes for j in nodes if i < j and rng.random() < 0.25]
        edges = edges or [(1, 2)]
        linked = sorted({u for e in edges for u in e})
        g = graph_from_edges(edges, isolated=[i for i in nodes if i not in linked])
        sets = [rng.choice(nodes, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
                for _ in range(3)]
        sets.append(rng.choice(linked, size=int(rng.integers(2, min(len(linked), 4) + 1)),
                               replace=False))  # a set that composes
        seeds = [[sense(int(i)) for i in nodes_of_set] for nodes_of_set in sets]
        ranked = PprEngine(g).prime_seed_sets(seeds)
        weighted = [compute_ppr(g, s) for s in seeds]
        assert ranked[-1].weights.nbytes == 0 < len(weighted[-1].weights)
        for i, j in combinations_with_replacement(range(len(seeds)), 2):
            want = sim_sem(insert_oov(weighted[i], terms_a), insert_oov(weighted[j], terms_b))
            assert sim_sem(insert_oov(ranked[i], terms_a), insert_oov(ranked[j], terms_b)) == want
            assert sim_sem(insert_oov(ranked[i], terms_a), insert_oov(weighted[j], terms_b)) == want


class TestSimSemReference:
    """sim_sem against a copy of its masked predecessor, bit for bit, and
    against the direct rank overlap within 1e-12."""

    # A 12-node ring with chords, so every vector reaches every node, and
    # a 5-node path: on their union a vector covers one component only.
    GRAPH = graph_from_edges(
        [(i, i % 12 + 1) for i in range(1, 13)] + [(1, 7), (4, 10)]
        + [(i, i + 1) for i in range(20, 24)]
    )
    TERMS = ([], ["ab"], ["ab", "cd"], ["cd", "ef", "gh"])

    def vectors(self):
        out = []
        # short walks reach part of the graph, so the vectors share some
        # senses and not others
        for cfg in (PprConfig(), PprConfig(iterations=1), PprConfig(iterations=2)):
            for seeds in ([1], [4], [1, 7], [20], [22, 23]):
                base = compute_ppr(self.GRAPH, [sense(i) for i in seeds], cfg)
                out += [insert_oov(base, terms) for terms in self.TERMS]
        return out

    def test_bits_match_reference_and_direct_oracle(self):
        vectors = self.vectors()
        full = [v for v in vectors if len(v.idx) == 12 or len(v.idx) == 5]
        assert full and len(full) < len(vectors)  # full and partial support
        ones = 0
        for a in vectors:
            wa = {str(k): w for k, w in a.items()}
            for b in vectors:
                got = sim_sem(a, b)
                assert got.hex() == sim_sem_reference(a, b).hex()
                wb = {str(k): w for k, w in b.items()}
                assert got == pytest.approx(weighted_overlap_direct(wa, wb), abs=1e-12)
                ones += got == 1.0
        assert ones >= len(vectors)  # the identical-structure exit

    def test_oov_on_one_side_only(self):
        a = insert_oov(compute_ppr(self.GRAPH, [sense(1)]), ["ab", "cd"])
        b = compute_ppr(self.GRAPH, [sense(4)])
        for x, y in ((a, b), (b, a)):
            assert sim_sem(x, y).hex() == sim_sem_reference(x, y).hex()


class TestInsertOov:
    def test_empty_terms_is_identity(self, path_graph):
        v = compute_ppr(path_graph, [sense(1)])
        assert insert_oov(v, []) is v

    def test_oov_takes_top_rank_in_both_vectors(self, path_graph):
        a = insert_oov(compute_ppr(path_graph, [sense(1)]), ["tac2011"])
        b = insert_oov(compute_ppr(path_graph, [sense(5)]), ["tac2011"])
        assert next(iter(a.items()))[0] == "tac2011"
        assert next(iter(b.items()))[0] == "tac2011"

    def test_shared_single_oov_token_scores_one(self, path_graph):
        a = insert_oov(empty_vector(path_graph), ["zzz"])
        b = insert_oov(empty_vector(path_graph), ["zzz"])
        assert sim_sem(a, b) == 1.0

    def test_oov_weight_strictly_above_max(self, path_graph):
        v = compute_ppr(path_graph, [sense(1)])
        out = insert_oov(v, ["q"])
        assert out.oov_weight > max(w for _, w in v.items())

    def test_terms_sorted_and_case_folded(self, path_graph):
        v = compute_ppr(path_graph, [sense(1)])
        out = insert_oov(v, ["Beta", "alpha", "beta"])
        assert out.oov_terms == ("alpha", "beta")
        assert [k for k, _ in out.top(2)] == ["alpha", "beta"]

    def test_sense_ranks_shift_below_oov(self, path_graph):
        v = compute_ppr(path_graph, [sense(1)])
        top_sense = next(iter(v.items()))[0]
        out = insert_oov(v, ["x1", "x2"])
        assert [k for k, _ in out.top(3)] == ["x1", "x2", top_sense]


    def test_shares_the_base_arrays_and_adds_no_cache_bytes(self, path_graph):
        engine = PprEngine(path_graph)
        base = engine.ppr_for_sense(sense(1))
        stored = engine.stats().memory_bytes
        out = insert_oov(base, ["q"])
        assert out.ranks is base.ranks
        assert out.weights is base.weights
        assert base.oov_terms == ()
        assert engine.stats().memory_bytes == stored


class TestEngineSenseSimilarity:
    def test_cached_pair_similarity_symmetric(self, path_graph):
        engine = PprEngine(path_graph)
        ab = engine.sense_similarity(sense(1), sense(4))
        ba = engine.sense_similarity(sense(4), sense(1))
        assert ab == ba
        direct = sim_sem(engine.ppr_for_sense(sense(1)), engine.ppr_for_sense(sense(4)))
        assert ab == direct

    def test_unknown_sense_named(self, path_graph):
        engine = PprEngine(path_graph)
        for a, b in ((sense(1), sense(9)), (sense(9), sense(1))):
            with pytest.raises(ValueError, match="00000009-n is not in the graph"):
                engine.sense_similarity(a, b)
