import numpy as np
import pytest

from grouge import (
    PprEngine,
    WordType,
    align_disambiguate,
    build_word_types,
    disambiguate_pair,
    load_graph,
    tokenize,
)
from grouge.disambiguation import SimilarityTable

from conftest import dictionary_from, graph_from_edges, ring_graphs, sense, star_graphs
from oracles import align_loop, brute_force_align, dense_ppr, weighted_overlap_direct


def word(stem: str, *senses):
    return WordType(stem=stem, senses=tuple(senses))


def outcomes(assignment) -> list[tuple]:
    """(sense, support bits) per entry."""
    return [(e.sense, e.support.hex()) for e in assignment]


def loop_outcomes(item, context, engine) -> list[tuple]:
    return [(s, float(support).hex()) for s, support in align_loop(item, context, engine)]


class TestAlignDisambiguate:
    def test_component_alignment_picks_connected_sense(self):
        # two 2-node components; the polysemous word has one sense in each,
        # the context word lives in component 1
        g = graph_from_edges([(1, 2), (3, 4)])
        engine = PprEngine(g)
        poly = word("poly", sense(1), sense(3))
        ctx = word("ctx", sense(2))
        assignment = align_disambiguate([poly], [ctx], engine)
        assert assignment[0].sense == sense(1)
        assert assignment[0].support > 0.0

    def test_monosemous_word_keeps_its_only_sense(self):
        g = graph_from_edges([(1, 2), (3, 4)])
        engine = PprEngine(g)
        mono = word("mono", sense(4))
        ctx = word("ctx", sense(1))
        assignment = align_disambiguate([mono], [ctx], engine)
        assert assignment[0].sense == sense(4)

    def test_no_context_senses_falls_back_to_rank_one(self):
        g = graph_from_edges([(1, 2), (3, 4)])
        engine = PprEngine(g)
        poly = word("poly", sense(3), sense(1))
        oov_ctx = word("xyz")
        assignment = align_disambiguate([poly], [oov_ctx], engine)
        assert assignment[0].sense == sense(3)
        assert assignment[0].support == 0.0

    def test_oov_words_marked(self):
        g = graph_from_edges([(1, 2)])
        engine = PprEngine(g)
        assignment = align_disambiguate([word("xyz")], [word("ctx", sense(1))], engine)
        assert assignment[0].sense is None
        assert tuple(e.word.stem for e in assignment if e.sense is None) == ("xyz",)

    def test_every_word_receives_exactly_one_outcome(self):
        g = graph_from_edges([(1, 2), (2, 3)])
        engine = PprEngine(g)
        items = [word("a", sense(1)), word("b"), word("c", sense(2), sense(3))]
        assignment = align_disambiguate(items, [word("ctx", sense(2))], engine)
        assert len(assignment) == len(items)
        for entry in assignment:
            assert (entry.sense is None) == entry.word.is_oov

    def test_assigned_sense_is_from_dictionary_list(self):
        g = graph_from_edges([(1, 2), (2, 3), (3, 4)])
        engine = PprEngine(g)
        items = [word("a", sense(1), sense(4))]
        assignment = align_disambiguate(items, [word("ctx", sense(2))], engine)
        assert assignment[0].sense in items[0].senses

    def test_empty_item_rejected(self):
        g = graph_from_edges([(1, 2)])
        with pytest.raises(ValueError):
            align_disambiguate([], [word("ctx", sense(1))], PprEngine(g))

    def test_deterministic_across_runs(self):
        g = graph_from_edges([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        items = [word("a", sense(1), sense(3)), word("b", sense(2), sense(5))]
        ctx = [word("c", sense(4)), word("d", sense(2))]
        results = [
            align_disambiguate(items, ctx, PprEngine(g)) for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]


class TestDisambiguatePair:
    def test_identical_texts_identical_assignments(self):
        g = graph_from_edges([(1, 2), (2, 3)])
        engine = PprEngine(g)
        words = [word("a", sense(1), sense(3)), word("b", sense(2))]
        left, right = disambiguate_pair(words, list(words), SimilarityTable(words, words, engine))
        assert left == right

    def test_all_oov_peer_forces_rank_one_fallback(self):
        g = graph_from_edges([(1, 2), (3, 4)])
        engine = PprEngine(g)
        model = [word("a", sense(3), sense(1))]
        peer = [word("x"), word("y")]
        model_assignment, peer_assignment = disambiguate_pair(
            model, peer, SimilarityTable(model, peer, engine)
        )
        assert model_assignment[0].sense == sense(3)
        assert model_assignment[0].support == 0.0
        assert tuple(e.sense for e in peer_assignment if e.sense is not None) == ()
        assert tuple(e.word.stem for e in peer_assignment if e.sense is None) == ("x", "y")

    def test_build_word_types_surface_first_then_stem(self):
        g = graph_from_edges([(1, 2), (3, 4)])
        # "strolled" is listed under its surface; "walked" only under its stem
        d = dictionary_from(g, {"strolled": [1], "walk": [3]})
        text = tokenize("Strolled walked jumped")
        types = build_word_types(text, d)
        by_stem = {w.stem: w for w in types}
        assert by_stem["stroll"].senses == (sense(1),)
        assert by_stem["walk"].senses == (sense(3),)
        assert by_stem["jump"].is_oov


class TestBruteForceOracle:
    def _random_case(self, rng):
        n = int(rng.integers(4, 21))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.25
        ]
        if not edges:
            edges = [(0, 1)]
        lines = [f"u:{i:08d}-n v:{j:08d}-n" for i, j in edges]
        lines += [f"u:{i:08d}-n v:{i:08d}-n" for i in range(n)]
        graph = load_graph(lines)

        def random_words(count, tag):
            words = []
            for w in range(count):
                k = int(rng.integers(0, 4))
                ids = rng.choice(n, size=k, replace=False).tolist() if k else []
                words.append(word(f"{tag}{w}", *[sense(i) for i in ids]))
            return words

        item = random_words(int(rng.integers(1, 7)), "i")
        context = random_words(int(rng.integers(0, 7)), "c")
        return n, edges, graph, item, context

    def test_matches_exhaustive_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n, edges, graph, item, context = self._random_case(rng)
            engine = PprEngine(graph)

            def oracle_sim(a, b):
                va = dense_ppr(n, edges, [int(a.offset)])
                vb = dense_ppr(n, edges, [int(b.offset)])
                wa = {f"{i:08d}-n": v for i, v in enumerate(va) if v > 0}
                wb = {f"{i:08d}-n": v for i, v in enumerate(vb) if v > 0}
                return weighted_overlap_direct(wa, wb)

            got = align_disambiguate(item, context, engine)
            expected = brute_force_align(item, context, oracle_sim)
            for entry, (w, score_map) in zip(got, expected):
                assert entry.word == w
                if score_map is None:  # OOV
                    assert entry.sense is None
                    assert entry.support == 0.0
                elif not score_map:  # context had no senses: rank-1 fallback
                    assert entry.sense == w.senses[0]
                    assert entry.support == 0.0
                else:
                    best = max(score_map.values())
                    assert entry.support == pytest.approx(best, abs=1e-9)
                    # the chosen sense is one of the brute-force maxima
                    assert score_map[entry.sense] == pytest.approx(best, abs=1e-9)


class TestAssignmentOracle:
    """Assignments read from a similarity table against the per-cell loop
    (``oracles.align_loop``): same sense and same support bits, on graphs
    whose mirror senses tie."""

    @staticmethod
    def neighbours(graph, i: int) -> list[int]:
        adj = graph.transition
        return adj.indices[adj.indptr[i] : adj.indptr[i + 1]].tolist()

    def cases(self, graph, rng, count):
        """(item, context) pairs: a word whose senses mirror each other
        around a context sense, random words, OOV words, senses on both
        sides, and contexts with no senses."""
        n, at = graph.node_count, graph.sense_at

        def random_words(k, tag):
            draws = [rng.choice(n, int(rng.integers(0, 4)), replace=False) for _ in range(k)]
            return [word(f"{tag}{w}", *[at(int(i)) for i in d]) for w, d in enumerate(draws)]

        for case in range(count):
            hub = int(rng.integers(n))
            mirror = self.neighbours(graph, hub)
            rng.shuffle(mirror)
            item = [word("mirror", *[at(i) for i in mirror[:3]])]
            item += random_words(int(rng.integers(0, 4)), "i") + [word("oov")]
            if case % 5 == 4:
                context = [word("x"), word("y")]  # no context senses
            else:
                context = [word("hub", at(hub))] + random_words(int(rng.integers(0, 4)), "c")
                context.append(word("both", *item[-2].senses))  # senses on both sides
            yield item, context

    def check(self, graphs, rng):
        ties = 0
        for graph in graphs:
            for item, context in self.cases(graph, rng, 12):
                loop_engine = PprEngine(graph)
                expected_item = loop_outcomes(item, context, loop_engine)
                expected_context = loop_outcomes(context, item, loop_engine)
                assert outcomes(align_disambiguate(item, context, PprEngine(graph))) == expected_item
                model, peer = disambiguate_pair(
                    item, context, SimilarityTable(item, context, PprEngine(graph))
                )
                assert outcomes(model) == expected_item
                assert outcomes(peer) == expected_context
                context_senses = [s for w in context for s in w.senses]
                for w in item:
                    if len(w.senses) > 1 and context_senses:
                        best = [max(loop_engine.sense_similarity(s, c) for c in context_senses)
                                for s in w.senses]
                        ties += best.count(max(best)) > 1
        return ties

    def test_ring_graphs(self):
        rng = np.random.default_rng(11)
        assert self.check(ring_graphs(rng), rng) >= 30

    def test_star_graphs(self):
        rng = np.random.default_rng(12)
        assert self.check(star_graphs(rng), rng) >= 15

    def test_empty_item_rejected_by_pair(self):
        g = graph_from_edges([(1, 2)])
        with pytest.raises(ValueError):
            item = [word("a", sense(1))]
            disambiguate_pair(item, [], SimilarityTable(item, [], PprEngine(g)))
