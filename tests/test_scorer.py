from collections import Counter

import numpy as np
import pytest

import grouge.scorer

from grouge import (
    BOS_MARKER,
    GrougeConfig,
    PprEngine,
    grouge_score,
    load_dictionary,
    load_graph,
    score_batch,
    sim_sem,
    tokenize,
)
from grouge.cli import _system_table
from grouge.ppr import DEFAULT_CACHE_CAPACITY
from grouge.rouge import content_terms, grams_for
from grouge.disambiguation import SimilarityTable, build_word_types, disambiguate_pair
from grouge.scorer import (
    ScoreParts,
    TopicModels,
    _signature,
    parts_by_family,
    variant_family,
    variant_is_semantic,
    variant_score,
)

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


def cfg_for(beta=0.5):
    return GrougeConfig(beta=beta)


def content(vec):
    """A signature's rank table and OOV terms: equal for equal vectors."""
    return vec.ranks.tobytes(), vec.oov_terms


def signature_of(engine, seeds, oov=()):
    """The signature the plan builds for a key: the engine's vector of the
    seed set, or none without seeds, plus the OOV dimensions."""
    vec = engine.ppr_for_sense_set(seeds) if seeds else None
    return _signature(engine.graph, vec, frozenset(oov))


class Plan:
    """parts_by_family run for one peer, with every ``_signature`` key it
    builds and every ``sim_sem`` call it makes recorded. A key's seed set is
    the one whose batch vector the signature was built from."""

    def __init__(self, monkeypatch, engine, dictionary, peer, models, families=("1",), **kwargs):
        self.built: list = []  # (key, signature) per _signature call
        self.overlaps: list = []  # (gram signature, peer signature) per sim_sem call
        prime_seed_sets = engine.prime_seed_sets
        seeds_of = {id(None): frozenset()}  # id of a batch vector -> its seed set

        def recording_prime(seed_sets):
            seed_sets = [frozenset(seeds) for seeds in seed_sets]
            vectors = prime_seed_sets(seed_sets)
            seeds_of.update((id(vec), seeds) for seeds, vec in zip(seed_sets, vectors))
            return vectors

        def recording_signature(graph, vec, oov):
            sig = _signature(graph, vec, oov)
            self.built.append(((seeds_of[id(vec)], oov), sig))
            return sig

        def recording_sim_sem(a, b):
            self.overlaps.append((a, b))
            return sim_sem(a, b)

        monkeypatch.setattr(engine, "prime_seed_sets", recording_prime)
        monkeypatch.setattr(grouge.scorer, "_signature", recording_signature)
        monkeypatch.setattr(grouge.scorer, "sim_sem", recording_sim_sem)
        topic = TopicModels([tokenize(m) for m in models], families, dictionary)
        self.parts = parts_by_family(tokenize(peer), topic, engine, dictionary, **kwargs)

    def signature(self, seeds=(), oov=()):
        [vec] = [vec for key, vec in self.built if key == (frozenset(seeds), frozenset(oov))]
        return vec

    def peer_signatures(self):
        return {id(b): b for _, b in self.overlaps}


def key_of(*senses):
    return frozenset(sense(n) for n in senses)


class TestSignatures:
    """What ``_signature`` builds, and which signatures the per-peer plan
    of ``parts_by_family`` builds and compares."""

    def test_single_monosemous_peer_equals_sense_vector(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        plan = Plan(monkeypatch, engine, dictionary, "w0", ["w1"])
        assert list(plan.peer_signatures().values()) == [engine.ppr_for_sense(sense(1))]
        assert plan.signature(key_of(1)) is engine.ppr_for_sense(sense(1))

    def test_all_oov_peer_has_exactly_oov_dimensions(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        plan = Plan(monkeypatch, engine, dictionary, "xq1 xq2", ["w0"])
        [sig] = plan.peer_signatures().values()
        assert len(sig) == 2
        assert sig.oov_terms == ("xq1", "xq2")
        assert sig is plan.signature((), ("xq1", "xq2"))

    def test_empty_peer_short_circuits_to_none(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        assert _signature(graph, None, frozenset()) is None
        plan = Plan(monkeypatch, engine, dictionary, "", ["w0"])
        assert plan.built == [] and plan.overlaps == []
        assert plan.parts["1"] == ScoreParts(0.0, 0.0, 1.0)

    def test_identical_texts_same_signature_in_both_roles(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        text = "w0 w1 poly0"
        first = Plan(monkeypatch, engine, dictionary, text, [text])
        second = Plan(monkeypatch, PprEngine(graph), dictionary, text, [text])
        [a], [b] = first.peer_signatures().values(), second.peer_signatures().values()
        assert np.array_equal(a.idx, b.idx)
        assert np.array_equal(a.weights, b.weights)
        assert a.oov_terms == b.oov_terms

    def test_unigram_signature_is_cached_sense_vector(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        sig = signature_of(engine, key_of(1))
        assert sig is engine.ppr_for_sense(sense(1))
        assert sig.oov_terms == ()
        plan = Plan(monkeypatch, engine, dictionary, "w2", ["w0 w1"])
        assert plan.signature(key_of(1)) is engine.ppr_for_sense(sense(1))

    def test_bigram_with_oov_term(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        sig = signature_of(engine, key_of(1), {"xranq"})
        assert sig.oov_terms == ("xranq",)
        assert set(sig.idx.tolist()) == set(engine.ppr_for_sense(sense(1)).idx.tolist())
        plan = Plan(monkeypatch, engine, dictionary, "w2", ["w0 xranq"], families=("2",))
        assert content(plan.signature(key_of(1), ("xranq",))) == content(sig)

    def test_repeated_gram_computed_once(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        plan = Plan(monkeypatch, engine, dictionary, "w2", ["w0 w1 w0"])
        keys = [key for key, _ in plan.built]
        assert sorted(keys, key=repr) == sorted(
            [(key_of(1), frozenset()), (key_of(2), frozenset()), (key_of(6), frozenset())],
            key=repr,
        )
        assert len(plan.overlaps) == 2  # w0 and w1 against the peer
        assert plan.parts["1"].total == 3.0

    def test_gram_key_computed_once_per_gram(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        model, peer = tokenize("w0 w1 xq1 w0. w2 poly0 w1"), tokenize("w2 w3 poly0")
        families = ("1", "2", "su4")
        grams = {family: grams_for(model, family) for family in families}
        calls = []

        def counted(gram):
            calls.append(gram)
            return content_terms(gram)

        monkeypatch.setattr(grouge.scorer, "content_terms", counted)
        parts_by_family(peer, TopicModels([model], families, dictionary), engine, dictionary)
        distinct = {gram for family in families for gram in grams[family]}
        assert sorted(calls, key=repr) == sorted(distinct, key=repr)

    def test_grams_with_one_seed_key_share_a_signature(self, setting, monkeypatch):
        # the unigram w0 and the marker pair (<s>, w0) have one seed set
        graph, dictionary, engine = setting
        model = tokenize("w0 w1")
        assert (BOS_MARKER, "w0") in grams_for(model, "su4")
        plan = Plan(monkeypatch, engine, dictionary, "w2", ["w0 w1"], families=("1", "su4"))
        keys = [key for key, _ in plan.built]
        assert keys.count((key_of(1), frozenset())) == 1
        unigram = plan.signature(key_of(1))
        assert sum(g is unigram for g, _ in plan.overlaps) == 1

    def test_all_oov_gram_yields_pure_oov_vector(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        sig = signature_of(engine, (), {"xb2", "xa1"})
        assert len(sig.idx) == 0
        assert sig.oov_terms == ("xa1", "xb2")
        plan = Plan(monkeypatch, engine, dictionary, "w2", ["xa1 xb2"], families=("2",))
        assert content(plan.signature((), ("xa1", "xb2"))) == content(sig)

    def test_skip_gram_uses_endpoint_terms_and_marker_pairs_use_real_term(
        self, setting, monkeypatch
    ):
        graph, dictionary, engine = setting
        plan = Plan(monkeypatch, engine, dictionary, "w3", ["w0 w1 w2"], families=("su4",))
        skip = plan.signature(key_of(1, 6))  # the skip-bigram (w0, w2)
        assert set(skip.idx.tolist()) == set(
            engine.ppr_for_sense_set([sense(1), sense(6)]).idx.tolist()
        )
        assert plan.signature(key_of(2)) is engine.ppr_for_sense(sense(2))  # (<s>, w1)

    def test_oov_disabled_keys_drop_oov_terms(self, setting, monkeypatch):
        graph, dictionary, engine = setting
        plan = Plan(monkeypatch, engine, dictionary, "xq1 w2", ["w0 xq1"],
                    families=("1", "2"), oov_enabled=False)
        assert all(oov == frozenset() for (_, oov), _ in plan.built)
        # the gram xq1 has no seeds and no OOV dimension: it is compared with nothing
        assert plan.signature() is None
        assert len(plan.overlaps) == 1  # w0 and the bigram (w0, xq1) share one key


class TestOverlapPlan:
    def test_each_distinct_overlap_computed_once_per_peer(self, setting, monkeypatch):
        """Two models, each with a skip-bigram in both orders: every
        distinct (gram seed set, OOV set, peer signature) is compared once."""
        graph, dictionary, engine = setting
        families = ("1", "2", "su4")
        peer_text = "w1 w3 xz. w0 poly0"
        model_texts = ["w0 w2 w1. w1 w3 w0", "w1 xz w0. w0 w4 w1 w2"]
        peer, models = tokenize(peer_text), [tokenize(m) for m in model_texts]
        for model in models:
            skips = grams_for(model, "su4")
            assert ("w0", "w1") in skips and ("w1", "w0") in skips

        expected = set()
        peer_words = build_word_types(peer, dictionary)
        for model in models:
            model_words = build_word_types(model, dictionary)
            model_side, peer_side = disambiguate_pair(
                model_words, peer_words, SimilarityTable(model_words, peer_words, engine)
            )
            peer_sig = signature_of(
                engine,
                frozenset(e.sense for e in peer_side if e.sense is not None),
                {e.word.stem for e in peer_side if e.sense is None},
            )
            sense_of = {e.word.stem: e.sense for e in model_side}
            for family in families:
                for gram in grams_for(model, family):
                    terms = content_terms(gram)
                    seeds = frozenset(sense_of[t] for t in terms if sense_of[t] is not None)
                    oov = frozenset(t for t in terms if sense_of[t] is None)
                    expected.add((content(signature_of(engine, seeds, oov)), content(peer_sig)))

        plan = Plan(monkeypatch, engine, dictionary, peer_text, model_texts, families)
        calls = Counter((content(a), content(b)) for a, b in plan.overlaps)
        assert calls == Counter(expected)
        assert len(plan.built) == len({key for key, _ in plan.built})


def single_gram_parts(peer, model, gram, engine, dictionary) -> ScoreParts:
    """Unigram parts of one occurrence of gram of model against peer, both
    texts disambiguated in full."""
    with pytest.MonkeyPatch.context() as patch:  # the model's unigrams: gram, once
        patch.setattr(grouge.scorer, "grams_for", lambda text, family: Counter([gram]))
        topic = TopicModels([model], ("1",), dictionary)
    return parts_by_family(peer, topic, engine, dictionary)["1"]


class TestSimLs:
    """parts_by_family over a single model occurrence is that occurrence's
    blend of clipped match and overlap."""

    def test_beta_one_equals_count_match(self, setting):
        graph, dictionary, engine = setting
        peer, model = tokenize("w0 w2"), tokenize("w0 w1")
        assert single_gram_parts(peer, model, ("w0",), engine, dictionary).blend(1.0) == 1.0
        assert single_gram_parts(peer, model, ("w1",), engine, dictionary).blend(1.0) == 0.0

    def test_beta_zero_equals_sim_sem(self, setting):
        graph, dictionary, engine = setting
        peer, model = tokenize("w0 w2"), tokenize("w0 w1")
        expected = sim_sem(
            signature_of(engine, key_of(2)),  # w1
            signature_of(engine, key_of(1, 6)),  # the peer: w0 and w2
        )
        parts = single_gram_parts(peer, model, ("w1",), engine, dictionary)
        assert parts.blend(0.0) == expected

    def test_exact_match_with_identical_signature_scores_one(self, setting):
        graph, dictionary, engine = setting
        text = tokenize("w0")
        assert single_gram_parts(text, text, ("w0",), engine, dictionary).blend(0.5) == 1.0


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
                    peer, models, "g" + family, cfg_for(1.0), engine, dictionary
                )
                expected = recall_oracle(
                    peer.sentences, [m.sentences for m in models], family, BOS_MARKER
                )
                assert blended == pytest.approx(expected, abs=1e-12)
                assert grouge_score(peer, models, "r" + family) == expected

    def test_identical_peer_scores_one_when_grams_share_text_seeds(self, setting):
        # both tokens map to the same single sense, so every gram vector
        # equals the whole-text vector and the blend is 1 at any beta
        graph, dictionary, engine = setting
        text = tokenize("syn0 syn1")
        for beta in (0.0, 0.5, 1.0):
            for variant in ("g1", "g2", "gsu4"):
                assert grouge_score(
                    text, [text], variant, cfg_for(beta), engine, dictionary
                ) == pytest.approx(1.0, abs=0)

    def test_identical_peer_beta_one_scores_one_for_any_text(self, setting):
        graph, dictionary, engine = setting
        text = tokenize("w0 w1 poly0 xz9")
        for variant in ("g1", "g2", "gsu4"):
            assert grouge_score(
                text, [text], variant, cfg_for(1.0), engine, dictionary
            ) == 1.0

    def test_bounds_and_semantic_floor(self, setting):
        graph, dictionary, engine = setting
        models, peers = self._texts()
        for peer in peers:
            for variant in ("g1", "g2", "gsu4"):
                lexical = grouge_score(peer, models, variant, cfg_for(1.0), engine, dictionary)
                for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                    score = grouge_score(peer, models, variant, cfg_for(beta), engine, dictionary)
                    assert 0.0 <= score <= 1.0
                half = grouge_score(peer, models, variant, cfg_for(0.5), engine, dictionary)
                assert half >= 0.5 * lexical

    def test_affine_in_beta(self, setting):
        graph, dictionary, engine = setting
        models, peers = self._texts()
        for peer in peers:
            for variant in ("g1", "g2", "gsu4"):
                s0 = grouge_score(peer, models, variant, cfg_for(0.0), engine, dictionary)
                s5 = grouge_score(peer, models, variant, cfg_for(0.5), engine, dictionary)
                s1 = grouge_score(peer, models, variant, cfg_for(1.0), engine, dictionary)
                assert s5 == pytest.approx((s0 + s1) / 2.0, abs=1e-12)

    def test_paraphrase_scores_above_lexical_baseline(self, setting):
        # w0 and w1 sit on adjacent graph nodes: a paraphrased peer gets
        # semantic credit that pure recall misses
        graph, dictionary, engine = setting
        model = tokenize("w0 w2")
        peer = tokenize("w1 w2")
        lexical = recall_oracle(peer.sentences, [model.sentences], "1", BOS_MARKER)
        blended = grouge_score(peer, [model], "g1", cfg_for(0.5), engine, dictionary)
        assert blended > lexical

    def test_requires_models(self, setting):
        graph, dictionary, engine = setting
        with pytest.raises(ValueError):
            grouge_score(tokenize("w0"), [], "g1", cfg_for(), engine, dictionary)

    def test_oov_disabled_drops_oov_credit(self, setting):
        graph, dictionary, engine = setting
        model = tokenize("xshare w0")
        peer = tokenize("xshare w1")
        with_oov = grouge_score(peer, [model], "g1", cfg_for(0.0), engine, dictionary)
        without = grouge_score(
            peer, [model],
            "g1", GrougeConfig(beta=0.0, oov_enabled=False),
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
            occurrences = [g for g, c in grams_for(model, "1").items() for _ in range(c)]
            matched = consumed_matches(occurrences, peer_occurrences)
            for gram, match in zip(occurrences, matched):
                overlap = single_gram_parts(peer, model, gram, engine, dictionary).semantic
                total += beta * match + (1.0 - beta) * overlap
                denom += 1
        direct = grouge_score(peer, models, "g1", cfg_for(beta), engine, dictionary)
        assert direct == pytest.approx(total / denom, abs=1e-12)


class TestVariantNames:
    def test_families(self):
        assert variant_family("g1") == "1"
        assert variant_family("rsu4") == "su4"
        assert variant_is_semantic("gsu4")
        assert not variant_is_semantic("r2")
        with pytest.raises(ValueError):
            variant_family("g3")

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
    def test_variant_score_blend_rule(self, beta):
        family = ScoreParts(lexical=3.0, semantic=5.5, total=8.0)
        for variant in ("g1", "g2", "gsu4"):
            assert variant_score(variant, family, beta) == (family, family.blend(beta))
        for variant in ("r1", "r2", "rsu4"):  # recall: beta 1 and no semantic part
            parts, score = variant_score(variant, family, beta)
            assert parts == ScoreParts(3.0, 0.0, 8.0)
            assert score == 3.0 / 8.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrougeConfig(beta=1.5)
        with pytest.raises(ValueError, match="unknown variant"):
            grouge_score(tokenize("w0"), [tokenize("w0")], "x1")


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

    def test_every_failure_case_flagged_and_logged_in_order(self, tmp_path, setting):
        graph, dictionary, engine = setting
        peers, models = self._write_corpus(tmp_path, setting)
        undecodable = b"\xff\xfe\xff invalid"
        (peers / "bad.txt").write_text("w0\n")
        (models / "odd.txt").write_text("w0\n")
        (peers / "t9.A.txt").write_text("w0\n")  # a topic without models
        (peers / "t3.A.txt").write_text("w0\n")  # a topic whose models are all unreadable
        (models / "t3.M0.txt").write_bytes(undecodable)
        (models / "t3.M1.txt").write_bytes(undecodable)
        (peers / "t2.A.txt").write_text("w0 w1\n")  # one unreadable model; B and C missing
        (models / "t2.M0.txt").write_text("w0 w1\n")
        (models / "t2.M1.txt").write_bytes(undecodable)
        (peers / "t1.C.txt").write_bytes(undecodable)
        report = score_batch(peers, models, cfg_for(), engine, dictionary,
                             variants=("g1", "r1"))
        decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert report.flagged == [
            "topic t9: no model summaries, skipped",
            "topic t3: all model summaries unreadable, skipped",
            "t2.B: peer summary missing, scored 0",
            "t2.C: peer summary missing, scored 0",
        ]
        assert report.errors == [
            f"{peers / 'bad.txt'}: expected <topic>.<id>.txt, skipped",
            f"{models / 'odd.txt'}: expected <topic>.<id>.txt, skipped",
            f"{models / 't2.M1.txt'}: {decode}",
            f"{models / 't3.M0.txt'}: {decode}",
            f"{models / 't3.M1.txt'}: {decode}",
            f"{peers / 't1.C.txt'}: {decode}",
        ]
        assert sorted({key[:2] for key in report.rows}) == [
            ("t1", "A"), ("t1", "B"), ("t1", "C"), ("t2", "A"), ("t2", "B"), ("t2", "C"),
        ]
        assert report.score("t2", "A", "r1") == 1.0  # scored against its readable model

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
        def stored(engine):
            return sum(vec.ranks.nbytes + vec.weights.nbytes for _, vec in engine._vectors.items())

        engine = PprEngine(graph, cache_capacity=4)
        score_batch(peers, models, cfg_for(), engine, dictionary)
        assert engine.stats().evictions > 0
        assert engine.stats().memory_bytes == stored(engine)

        cache_file = tmp_path / "cache.npz"
        engine.save_cache(cache_file, {})
        reloaded = PprEngine(graph, cache_capacity=4)
        assert reloaded.load_cache(cache_file, {})
        # the file holds the walked vectors, the ones that keep weights
        walked = sum(vec.nbytes() for _, vec in engine._vectors.items() if len(vec.weights))
        assert reloaded.stats().memory_bytes == stored(reloaded) == walked > 0
        score_batch(peers, models, cfg_for(), reloaded, dictionary)
        assert reloaded.stats().memory_bytes == stored(reloaded)

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

    def test_cache_capacity_changes_no_part(self, tmp_path, monkeypatch):
        """The cache decides only which vectors outlive a peer: once a peer
        builds its first signature, it asks the engine for no vector."""
        world = build_synthetic_eval(
            tmp_path, n_nodes=300, n_words=40, n_systems=3, n_models=2, seed=5
        )
        graph = load_graph(world["graph"])
        dictionary = load_dictionary(world["dict"], graph)
        building = []  # non-empty from a peer's first signature to its end
        plan, prime_seed_sets = grouge.scorer.parts_by_family, PprEngine.prime_seed_sets

        def guarded_plan(*args, **kwargs):
            building.clear()
            return plan(*args, **kwargs)

        def guarded_signature(*args):
            building.append(args)
            return _signature(*args)

        def guarded_prime(engine, seed_sets):
            assert not building, "a signature reached the engine"
            return prime_seed_sets(engine, seed_sets)

        monkeypatch.setattr(grouge.scorer, "parts_by_family", guarded_plan)
        monkeypatch.setattr(grouge.scorer, "_signature", guarded_signature)
        monkeypatch.setattr(PprEngine, "prime_seed_sets", guarded_prime)
        parts = {}
        for capacity in (DEFAULT_CACHE_CAPACITY, 0, 4):
            engine = PprEngine(graph, cache_capacity=capacity)
            parts[capacity] = score_batch(
                world["peers"], world["models"], cfg_for(), engine, dictionary,
                variants=("g1", "g2", "gsu4"),
            ).parts
        assert engine.stats().evictions > 0
        assert parts[0] == parts[4] == parts[DEFAULT_CACHE_CAPACITY]
        assert any(p.semantic for p in parts[0].values())
        assert building

    @pytest.mark.parametrize("n_systems", [2, 5])
    def test_topic_models_built_once_per_topic(self, tmp_path, monkeypatch, n_systems):
        """One ``TopicModels`` per topic, whatever its systems: word types are
        built once per model per topic and once per peer, and the same parts
        come out as when every peer builds its topic's models again."""
        world = build_synthetic_eval(
            tmp_path, n_nodes=300, n_words=40, n_systems=n_systems, n_models=2, seed=5,
            topics=("d1001", "d1002"),
        )
        graph = load_graph(world["graph"])
        dictionary = load_dictionary(world["dict"], graph)
        builds, word_types = [], []

        class CountedTopic(TopicModels):
            def __init__(self, texts, *args):
                builds.append(len(texts))
                super().__init__(texts, *args)

        def counted_word_types(text, dictionary):
            word_types.append(text)
            return build_word_types(text, dictionary)

        def score():
            builds.clear()
            word_types.clear()
            return score_batch(world["peers"], world["models"], cfg_for(), PprEngine(graph),
                               dictionary, variants=("g1", "g2", "rsu4")).parts

        monkeypatch.setattr(grouge.scorer, "TopicModels", CountedTopic)
        monkeypatch.setattr(grouge.scorer, "build_word_types", counted_word_types)
        per_peer = grouge.scorer.parts_by_family
        with monkeypatch.context() as patch:  # builds the topic's models again per peer
            patch.setattr(grouge.scorer, "parts_by_family", lambda peer, topic, *args, **kwargs:
                          per_peer(peer, CountedTopic(topic.texts, topic.families, dictionary),
                                   *args, **kwargs))
            expected = score()
        assert builds == [2] * (2 * (1 + n_systems))  # per topic, then again per peer
        parts = score()
        assert builds == [2, 2]
        assert len(word_types) == 2 * (2 + n_systems)  # the models per topic, then each peer
        assert parts == expected

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
        table = _system_table(report.rows, ["A", "B"], {"human": np.array([1.0, 2.0])})
        assert table.systems == ["A", "B"]
        expected_a = (report.score("t1", "A", "r1") + report.score("t2", "A", "r1")) / 2
        assert table.auto["r1"][0] == expected_a

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
