import numpy as np
import pytest

from grouge import (
    BOS_MARKER,
    GrougeConfig,
    NGram,
    NGramMultiset,
    PprEngine,
    grouge_score,
    load_dictionary,
    load_graph,
    score_batch,
    sim_sem,
    tokenize,
)
from grouge.cli import system_means
from grouge.rouge import grams_for
from grouge.scorer import PairScorer, variant_family, variant_is_semantic

from conftest import dictionary_from, graph_from_edges, sense
from oracles import consumed_matches, recall_oracle
from synth import build_synthetic_eval


@pytest.fixture
def setting():
    """Ring graph; w0/w1 are adjacent-sense near-synonyms, syn0/syn1 share
    one sense, poly0 is polysemous, x* tokens are OOV."""
    edges = [(i, (i % 10) + 1) for i in range(1, 11)] + [(1, 5), (2, 8)]
    graph = graph_from_edges(edges)
    dictionary = dictionary_from(graph, {
        "w0": [1], "w1": [2], "w2": [6], "w3": [7], "w4": [9],
        "syn0": [5], "syn1": [5],
        "poly0": [3, 8],
    })
    return graph, dictionary, PprEngine(graph)


def cfg_for(variant="g1", beta=0.5):
    return GrougeConfig(variant=variant, beta=beta)


class TestSignatures:
    def test_single_monosemous_peer_equals_sense_vector(self, setting):
        graph, dictionary, engine = setting
        sig = PairScorer(tokenize("w1"), tokenize("w0"), engine, dictionary).peer_signature
        assert sig is engine.ppr_for_sense(sense(1))

    def test_all_oov_peer_has_exactly_oov_dimensions(self, setting):
        graph, dictionary, engine = setting
        sig = PairScorer(tokenize("w0"), tokenize("xq1 xq2"), engine, dictionary).peer_signature
        assert len(sig) == 2
        assert sig.oov_terms == ("xq1", "xq2")

    def test_empty_peer_short_circuits_to_none(self, setting):
        graph, dictionary, engine = setting
        assert PairScorer(tokenize("w0"), tokenize(""), engine, dictionary).peer_signature is None

    def test_identical_texts_same_signature_in_both_roles(self, setting):
        graph, dictionary, engine = setting
        text = "w0 w1 poly0"
        a = PairScorer(tokenize(text), tokenize(text), engine, dictionary).peer_signature
        b = PairScorer(tokenize(text), tokenize(text), engine, dictionary).peer_signature
        assert np.array_equal(a.idx, b.idx)
        assert np.array_equal(a.weights, b.weights)
        assert a.oov_terms == b.oov_terms

    def test_unigram_signature_is_cached_sense_vector(self, setting):
        graph, dictionary, engine = setting
        pair = PairScorer(tokenize("w0 w1"), tokenize("w2"), engine, dictionary)
        sig = pair.gram_signature(NGram(("w0",)))
        assert sig is engine.ppr_for_sense(sense(1))
        assert sig.oov_terms == ()

    def test_bigram_with_oov_term(self, setting):
        graph, dictionary, engine = setting
        pair = PairScorer(tokenize("w0 xranq"), tokenize("w2"), engine, dictionary)
        sig = pair.gram_signature(NGram(("w0", "xranq")))
        assert sig.oov_terms == ("xranq",)
        assert set(sig.idx.tolist()) == set(engine.ppr_for_sense(sense(1)).idx.tolist())

    def test_repeated_gram_computed_once(self, setting):
        graph, dictionary, engine = setting
        pair = PairScorer(tokenize("w0 w1 w0"), tokenize("w2"), engine, dictionary)
        first = pair.gram_signature(NGram(("w0",)))
        second = pair.gram_signature(NGram(("w0",)))
        assert first is second

    def test_all_oov_gram_yields_pure_oov_vector(self, setting):
        graph, dictionary, engine = setting
        pair = PairScorer(tokenize("xa1 xb2"), tokenize("w2"), engine, dictionary)
        sig = pair.gram_signature(NGram(("xa1", "xb2")))
        assert len(sig.idx) == 0
        assert sig.oov_terms == ("xa1", "xb2")

    def test_skip_gram_uses_endpoint_terms_and_marker_pairs_use_real_term(self, setting):
        graph, dictionary, engine = setting
        pair = PairScorer(tokenize("w0 w1 w2"), tokenize("w3"), engine, dictionary)
        skip = pair.gram_signature(NGram(("w0", "w2"), kind="skip"))
        assert set(skip.idx.tolist()) == set(
            engine.ppr_for_sense_set([sense(1), sense(6)]).idx.tolist()
        )
        marker = pair.gram_signature(NGram((BOS_MARKER, "w1"), kind="unigram-of-su"))
        assert marker is engine.ppr_for_sense(sense(2))


def one_occurrence(gram: NGram) -> NGramMultiset:
    return NGramMultiset([gram])


class TestSimLs:
    """PairScorer.parts over a single model occurrence is that occurrence's
    blend of clipped match and overlap."""

    def test_beta_one_equals_count_match(self, setting):
        graph, dictionary, engine = setting
        peer = tokenize("w0 w2")
        pair = PairScorer(tokenize("w0 w1"), peer, engine, dictionary)
        peer_grams = grams_for(peer, "1")
        assert pair.parts(one_occurrence(NGram(("w0",))), peer_grams).blend(1.0) == 1.0
        assert pair.parts(one_occurrence(NGram(("w1",))), peer_grams).blend(1.0) == 0.0

    def test_beta_zero_equals_sim_sem(self, setting):
        graph, dictionary, engine = setting
        peer = tokenize("w0 w2")
        pair = PairScorer(tokenize("w0 w1"), peer, engine, dictionary)
        peer_grams = grams_for(peer, "1")
        gram = NGram(("w1",))
        expected = sim_sem(pair.gram_signature(gram), pair.peer_signature)
        assert pair.parts(one_occurrence(gram), peer_grams).blend(0.0) == expected

    def test_exact_match_with_identical_signature_scores_one(self, setting):
        graph, dictionary, engine = setting
        peer = tokenize("w0")
        pair = PairScorer(tokenize("w0"), peer, engine, dictionary)
        peer_grams = grams_for(peer, "1")
        assert pair.parts(one_occurrence(NGram(("w0",))), peer_grams).blend(0.5) == 1.0


class TestGrougeScore:
    MODELS = ["w0 w2 poly0 xshare", "w1 w3 w0. syn0 w2"]
    PEERS = ["w1 w2 xshare", "w4 syn1 poly0", "xan1 xan2", ""]

    def _texts(self):
        models = [tokenize(t) for t in self.MODELS]
        peers = [tokenize(t) for t in self.PEERS]
        return models, peers

    def test_beta_one_reduces_to_rouge_everywhere(self, setting):
        graph, dictionary, engine = setting
        models, peers = self._texts()
        for peer in peers:
            for family in ("1", "2", "su4"):
                blended = grouge_score(
                    peer, models, cfg_for("g" + family, beta=1.0), engine, dictionary
                )
                expected = recall_oracle(
                    peer.sentences, [m.sentences for m in models], family, BOS_MARKER
                )
                assert blended == pytest.approx(expected, abs=1e-12)
                assert grouge_score(peer, models, cfg_for("r" + family)) == expected

    def test_identical_peer_scores_one_when_grams_share_text_seeds(self, setting):
        # both tokens map to the same single sense, so every gram vector
        # equals the whole-text vector and the blend is 1 at any beta
        graph, dictionary, engine = setting
        text = tokenize("syn0 syn1")
        for beta in (0.0, 0.5, 1.0):
            for variant in ("g1", "g2", "gsu4"):
                assert grouge_score(
                    text, [text], cfg_for(variant, beta), engine, dictionary
                ) == pytest.approx(1.0, abs=0)

    def test_identical_peer_beta_one_scores_one_for_any_text(self, setting):
        graph, dictionary, engine = setting
        text = tokenize("w0 w1 poly0 xz9")
        for variant in ("g1", "g2", "gsu4"):
            assert grouge_score(
                text, [text], cfg_for(variant, 1.0), engine, dictionary
            ) == 1.0

    def test_bounds_and_semantic_floor(self, setting):
        graph, dictionary, engine = setting
        models, peers = self._texts()
        for peer in peers:
            for variant in ("g1", "g2", "gsu4"):
                lexical = grouge_score(peer, models, cfg_for(variant, 1.0), engine, dictionary)
                for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    score = grouge_score(peer, models, cfg_for(variant, beta), engine, dictionary)
                    assert 0.0 <= score <= 1.0
                half = grouge_score(peer, models, cfg_for(variant, 0.5), engine, dictionary)
                assert half >= 0.5 * lexical

    def test_affine_in_beta(self, setting):
        graph, dictionary, engine = setting
        models, peers = self._texts()
        for peer in peers:
            for variant in ("g1", "g2", "gsu4"):
                s0 = grouge_score(peer, models, cfg_for(variant, 0.0), engine, dictionary)
                s5 = grouge_score(peer, models, cfg_for(variant, 0.5), engine, dictionary)
                s1 = grouge_score(peer, models, cfg_for(variant, 1.0), engine, dictionary)
                assert s5 == pytest.approx((s0 + s1) / 2.0, abs=1e-12)

    def test_paraphrase_scores_above_lexical_baseline(self, setting):
        # w0 and w1 sit on adjacent graph nodes: a paraphrased peer gets
        # semantic credit that pure recall misses
        graph, dictionary, engine = setting
        model = tokenize("w0 w2")
        peer = tokenize("w1 w2")
        lexical = recall_oracle(peer.sentences, [model.sentences], "1", BOS_MARKER)
        blended = grouge_score(peer, [model], cfg_for("g1", 0.5), engine, dictionary)
        assert blended > lexical

    def test_requires_models(self, setting):
        graph, dictionary, engine = setting
        with pytest.raises(ValueError):
            grouge_score(tokenize("w0"), [], cfg_for(), engine, dictionary)

    def test_oov_disabled_drops_oov_credit(self, setting):
        graph, dictionary, engine = setting
        model = tokenize("xshare w0")
        peer = tokenize("xshare w1")
        with_oov = grouge_score(peer, [model], cfg_for("g1", 0.0), engine, dictionary)
        without = grouge_score(
            peer, [model],
            GrougeConfig(variant="g1", beta=0.0, oov_enabled=False),
            engine, dictionary,
        )
        assert with_oov > without

    def test_parts_sum_matches_per_occurrence_sim_ls(self, setting):
        # per model occurrence: beta * (occurrence-consuming match) +
        # (1 - beta) * overlap, averaged over all model occurrences
        graph, dictionary, engine = setting
        models, peers = self._texts()
        peer = peers[0]
        beta = 0.5
        total = 0.0
        denom = 0.0
        peer_occurrences = [g for g, c in grams_for(peer, "1").items() for _ in range(c)]
        for model in models:
            pair = PairScorer(model, peer, engine, dictionary)
            occurrences = [g for g, c in grams_for(model, "1").items() for _ in range(c)]
            matched = consumed_matches(occurrences, peer_occurrences)
            for gram, match in zip(occurrences, matched):
                total += beta * match + (1.0 - beta) * pair.gram_overlap(gram)
                denom += 1
        direct = grouge_score(peer, models, cfg_for("g1", beta), engine, dictionary)
        assert direct == pytest.approx(total / denom, abs=1e-12)


class TestVariantNames:
    def test_families(self):
        assert variant_family("g1") == "1"
        assert variant_family("rsu4") == "su4"
        assert variant_is_semantic("gsu4")
        assert not variant_is_semantic("r2")
        with pytest.raises(ValueError):
            variant_family("g3")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrougeConfig(beta=1.5)
        with pytest.raises(ValueError):
            GrougeConfig(variant="x1")


class TestScoreBatch:
    def _write_corpus(self, base, setting):
        peers = base / "peers"
        models = base / "models"
        peers.mkdir()
        models.mkdir()
        (models / "t1.M0.txt").write_text("syn0 syn1\n")
        (peers / "t1.A.txt").write_text("syn0 syn1\n")
        (peers / "t1.B.txt").write_text("w0 w4\n")
        return peers, models

    def test_identical_peer_reports_one(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("g1", "r1"))
        assert report.score("t1", "A", "g1") == 1.0
        assert report.score("t1", "A", "r1") == 1.0
        assert 0.0 <= report.score("t1", "B", "g1") <= 1.0

    def test_missing_peer_scored_zero_and_flagged(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (models / "t2.M0.txt").write_text("w0 w1\n")
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("r1",))
        assert report.score("t2", "A", "r1") == 0.0
        assert any("missing" in note for note in report.flagged)
        # every system covers every topic
        assert len(report.rows) == 2 * 2

    def test_topic_without_models_skipped_and_flagged(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (peers / "t9.A.txt").write_text("w0\n")
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("r1",))
        assert ("t9", "A", "r1") not in report.rows
        assert any("t9" in note for note in report.flagged)

    def test_unreadable_peer_is_error_entry_and_batch_continues(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (peers / "t1.C.txt").write_bytes(b"\xff\xfe\xff invalid")
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("r1",))
        assert len(report.errors) == 1
        assert report.score("t1", "C", "r1") == 0.0
        assert report.score("t1", "A", "r1") == 1.0

    def test_malformed_filename_is_error_entry(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (peers / "bad.txt").write_text("w0\n")
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("r1",))
        assert any("bad.txt" in e for e in report.errors)

    def test_rerun_is_byte_identical(self, tmp_path, setting):
        graph, dictionary, _ = setting
        peers, models = self._write_corpus(tmp_path, setting)
        outputs = []
        for _ in range(2):
            engine = PprEngine(graph)
            report = score_batch(peers, models, cfg_for(), engine, dictionary)
            outputs.append(report.to_csv_bytes())
        assert outputs[0] == outputs[1]

    def test_cache_memory_counts_rank_tables_of_cached_vectors(self, tmp_path, setting):
        graph, dictionary, _ = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (models / "t2.M0.txt").write_text("w1 w3 poly0\n")
        (peers / "t2.A.txt").write_text("w1 w2\n")
        (peers / "t2.B.txt").write_text("poly0 w3\n")
        engine = PprEngine(graph, cache_capacity=4)
        score_batch(peers, models, cfg_for(), engine, dictionary)
        stats = engine.stats()
        assert stats.evictions > 0
        cached = [vec for _, vec in engine._cache.items()]
        tables = [vec._dense.nbytes for vec in cached if vec._dense is not None]
        assert tables
        assert stats.memory_bytes == sum(
            vec.idx.nbytes + vec.weights.nbytes for vec in cached
        ) + sum(tables)

    def test_capacity_zero_writes_the_same_bytes(self, tmp_path):
        world = build_synthetic_eval(
            tmp_path, n_nodes=300, n_words=40, n_systems=3, n_models=2, seed=5
        )
        graph = load_graph(world["graph"])
        dictionary = load_dictionary(world["dict"], graph)
        outputs = []
        for engine in (PprEngine(graph), PprEngine(graph, cache_capacity=0)):
            report = score_batch(world["peers"], world["models"], cfg_for(), engine,
                                 dictionary, variants=("g1", "g2"))
            outputs.append(report.to_csv_bytes())
        assert engine.stats().size == 0
        assert outputs[0] == outputs[1]

    def test_csv_shape_and_precision(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("g1", "r1"))
        out = tmp_path / "report.csv"
        report.write_csv(out)
        lines = out.read_text().splitlines()
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["report.csv"]
        assert lines[0] == "topic,system,variant,score"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("t1,A,g1,")

    def test_system_means_cover_full_topic_set(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (models / "t2.M0.txt").write_text("w0\n")
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("r1",))
        means = system_means(report.rows)["r1"]
        assert set(means) == {"A", "B"}
        expected_a = (report.score("t1", "A", "r1") + report.score("t2", "A", "r1")) / 2
        assert means["A"] == expected_a

    def test_debug_lines_collected(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("g1",), collect_debug=True)
        tabbed = [l for l in report.debug_lines if "\t" in l]
        assert tabbed
        assert all(len(line.split("\t")) == 3 for line in tabbed)

    def test_debug_header_opens_every_model_pair(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        (models / "t1.M1.txt").write_text("w0 w1\n")
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("g1",), collect_debug=True)
        headers = [l for l in report.debug_lines if l.startswith("# topic=")]
        assert headers == ["# topic=t1 system=A"] * 2 + ["# topic=t1 system=B"] * 2
        sides = [l for l in report.debug_lines if l.startswith("# side=")]
        assert len(sides) == 2 * len(headers)
