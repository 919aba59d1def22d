from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grouge import (
    BOS_MARKER,
    GrougeConfig,
    extract_ngrams,
    extract_su4,
    grouge_score,
    tokenize,
)
from grouge.rouge import GramIndex, grams_for

from oracles import clipped_match_total, consumed_matches, recall_oracle, su4_pairs


def text_of(*sentences: str):
    return tokenize("\n".join(sentences), stemming=False)


def recall(peer, models, family: str) -> float:
    """Lexical recall: the r* variant of grouge_score, without an engine."""
    return grouge_score(peer, models, GrougeConfig(variant="r" + family))


token_lists = st.lists(st.sampled_from("abcdef"), min_size=0, max_size=12)
# one to six models of three terms, so grams repeat within and across
# models; peers also draw "d", a term no model has
model_token_lists = st.lists(
    st.lists(st.sampled_from("abc"), max_size=12), min_size=1, max_size=6
)
peer_tokens = st.lists(st.sampled_from("abcd"), max_size=12)


def family_grams(tokens: list[str], family: str) -> list[tuple[str, ...]]:
    """Every gram occurrence of a one-sentence token list, enumerated directly."""
    if family == "1":
        return [(t,) for t in tokens]
    if family == "2":
        return list(zip(tokens, tokens[1:]))
    return su4_pairs(tokens, BOS_MARKER)


def matches(model, peer) -> int:
    """Clipped matches of one model's gram counts with a peer's."""
    (count,) = GramIndex([model]).matches(peer).tolist()
    return count


class TestExtractNgrams:
    def test_unigram_multiset(self):
        ms = extract_ngrams(text_of("a b a"), 1)
        assert ms[("a",)] == 2
        assert ms[("b",)] == 1
        assert ms.total() == 3

    def test_bigrams(self):
        ms = extract_ngrams(text_of("a b c"), 2)
        assert ms[("a", "b")] == 1
        assert ms[("b", "c")] == 1
        assert ms.total() == 2

    def test_sentence_shorter_than_n_contributes_nothing(self):
        ms = extract_ngrams(text_of("a"), 2)
        assert ms.total() == 0

    def test_ngrams_do_not_cross_sentence_boundaries(self):
        ms = extract_ngrams(text_of("a b", "c d"), 2)
        assert ("b", "c") not in ms

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            extract_ngrams(text_of("a"), 0)


class TestExtractSu4:
    def test_three_token_sentence(self):
        ms = extract_su4(text_of("a b c"))
        skip = {("a", "b"), ("a", "c"), ("b", "c")}
        unigram = {(BOS_MARKER, t) for t in "abc"}
        assert set(ms) == skip | unigram
        assert ms.total() == 6

    def test_single_token_sentence(self):
        ms = extract_su4(text_of("a"))
        assert list(ms) == [(BOS_MARKER, "a")]

    def test_gap_bound_excludes_distant_pairs(self):
        ms = extract_su4(text_of("a b c d e f"))
        assert ("a", "f") not in ms
        assert ("a", "e") in ms

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=5, max_value=30))
    def test_count_formula_for_long_sentences(self, length):
        tokens = [f"t{i}" for i in range(length)]
        ms = extract_su4(text_of(" ".join(tokens)))
        assert ms.total() == length + (4 * length - 10)

    @settings(max_examples=100, deadline=None)
    @given(token_lists)
    def test_matches_enumeration_oracle(self, tokens):
        if not tokens:
            return
        ms = extract_su4(text_of(" ".join(tokens)))
        expected = su4_pairs(tokens, BOS_MARKER)
        got = list(ms.elements())
        assert sorted(got) == sorted(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(token_lists, min_size=1, max_size=4))
    def test_gram_order_matches_per_sentence_enumeration(self, sentences):
        """The Counter keeps first-seen order, which the g* sums iterate."""
        ms = extract_su4(text_of(*(" ".join(s) for s in sentences)))
        expected = Counter(g for s in sentences for g in su4_pairs(s, BOS_MARKER))
        assert list(ms.items()) == list(expected.items())


class TestCountMatch:
    def test_consumption_clips_to_peer_count(self):
        model = extract_ngrams(text_of("the the"), 1)
        peer = extract_ngrams(text_of("the cat"), 1)
        assert consumed_matches(["the", "the"], ["the", "cat"]) == [1, 0]
        assert matches(model, peer) == 1

    def test_absent_gram_is_zero(self):
        peer = extract_ngrams(text_of("the cat"), 1)
        assert matches(extract_ngrams(text_of("dog"), 1), peer) == 0

    def test_hand_count_total(self):
        model = extract_ngrams(text_of("the cat sat"), 1)
        peer = extract_ngrams(text_of("the cat ran"), 1)
        assert matches(model, peer) == 2

    @settings(max_examples=200, deadline=None)
    @given(token_lists, token_lists)
    def test_clipping_matches_multiset_intersection_oracle(self, m_tokens, p_tokens):
        model_text = text_of(" ".join(m_tokens) or "placeholder")
        peer_text = text_of(" ".join(p_tokens) or "other")
        model = extract_ngrams(model_text, 1)
        peer = extract_ngrams(peer_text, 1)
        clipped = matches(model, peer)
        assert clipped == sum(consumed_matches(model_text.tokens, peer_text.tokens))
        assert clipped == clipped_match_total(model_text.tokens, peer_text.tokens)
        su4 = matches(extract_su4(model_text), extract_su4(peer_text))
        assert su4 == clipped_match_total(
            su4_pairs(model_text.tokens, BOS_MARKER), su4_pairs(peer_text.tokens, BOS_MARKER)
        )

    @settings(max_examples=200, deadline=None)
    @given(model_token_lists, peer_tokens)
    # an empty model, two models with the same text, and a peer gram no model has
    @example([list("abca"), [], list("bab"), list("abca")], list("abdcab"))
    @example([list("ab"), list("ba")], [])  # an empty peer
    def test_matches_oracle_on_gram_lists(self, models, peer):
        """Each column of a topic's index holds its model's clipped matches,
        in every gram family."""
        for family in ("1", "2", "su4"):
            index = GramIndex([grams_for(text_of(" ".join(m)), family) for m in models])
            got = index.matches(grams_for(text_of(" ".join(peer)), family))
            assert got.tolist() == [
                clipped_match_total(family_grams(m, family), family_grams(peer, family))
                for m in models
            ]
            assert index.totals.tolist() == [len(family_grams(m, family)) for m in models]


class TestRougeScore:
    def test_identical_texts_score_one(self):
        text = text_of("the cat sat on the mat")
        for variant in ("1", "2", "su4"):
            assert recall(text, [text], variant) == 1.0

    def test_hand_case_two_thirds(self):
        peer = text_of("the cat ran")
        model = text_of("the cat sat")
        assert recall(peer, [model], "1") == pytest.approx(2 / 3, abs=0)

    def test_empty_peer_scores_zero(self):
        assert recall(text_of(""), [text_of("the cat")], "1") == 0.0

    def test_requires_models(self):
        with pytest.raises(ValueError):
            recall(text_of("a"), [], "1")

    def test_semantic_variant_requires_engine_and_dictionary(self):
        with pytest.raises(ValueError):
            grouge_score(text_of("a"), [text_of("a")], GrougeConfig(variant="g1"))

    def test_superset_peer_scores_one(self):
        models = [text_of("a a b"), text_of("c d")]
        peer = text_of("a a b", "c d", "e f g")
        for variant in ("1", "2", "su4"):
            assert recall(peer, models, variant) == 1.0

    def test_multi_model_double_summation(self):
        peer = text_of("a b")
        models = [text_of("a b"), text_of("c d")]
        # 2 + 0 unigram matches over 2 + 2 model unigrams
        assert recall(peer, models, "1") == pytest.approx(0.5, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(token_lists, token_lists, token_lists)
    def test_adding_peer_sentence_never_decreases_recall(self, m, p, extra):
        model = text_of(" ".join(m) or "placeholder")
        peer_small = text_of(" ".join(p))
        peer_big = text_of(" ".join(p), " ".join(extra))
        for variant in ("1", "2", "su4"):
            assert recall(peer_big, [model], variant) >= recall(
                peer_small, [model], variant
            )

    @settings(max_examples=100, deadline=None)
    @given(token_lists, token_lists, token_lists)
    def test_matches_recall_oracle(self, m1, m2, p):
        models = [text_of(" ".join(m1) or "placeholder"), text_of(" ".join(m2))]
        peer = text_of(" ".join(p))
        for variant in ("1", "2", "su4"):
            expected = recall_oracle(
                peer.sentences, [m.sentences for m in models], variant, BOS_MARKER
            )
            assert recall(peer, models, variant) == expected

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            grams_for(text_of("a"), "3")
