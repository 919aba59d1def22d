import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import grouge.text
from grouge import SummaryText, porter, stem, stopwords, tokenize
from oracles import porter_reference

# Full-chain expectations hand-derived from the published 1980 rule set:
# the per-step example words plus the two classic multi-step chains. Words
# like "agreed" or "conditional" continue past their illustrative step, so
# the frozen value is the end-to-end result, not the per-step one.
FROZEN_STEMS = {
    # step 1a
    "caresses": "caress", "ponies": "poni", "ties": "ti",
    "caress": "caress", "cats": "cat",
    # step 1b and its cleanup
    "feed": "feed", "agreed": "agre", "plastered": "plaster", "bled": "bled",
    "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi", "sky": "sky", "city": "citi", "they": "thei",
    # step 2
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "operator": "oper", "feudalism": "feudal", "decisiveness": "decis",
    "hopefulness": "hope", "callousness": "callous", "formaliti": "formal",
    "sensitiviti": "sensit", "sensibiliti": "sensibl",
    # step 3
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good",
    # step 4
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
    "defensible": "defens", "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
    "homologou": "homolog", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "effective": "effect", "bowdlerize": "bowdler",
    # no logi rule in the classic definition
    "homologi": "homologi",
    # step 5
    "probate": "probat", "rate": "rate", "cease": "ceas",
    "controll": "control", "roll": "roll",
    # multi-step chains
    "generalizations": "gener", "oscillators": "oscil",
    "university": "univers", "universal": "univers",
    # everyday forms
    "walking": "walk", "walked": "walk", "runs": "run", "running": "run",
    "strolled": "stroll", "policemen": "policemen", "the": "the",
    "explore": "explor", "exploration": "explor",
}

# Every suffix a rule tests: the rule tables of steps 2-4, step 1a's, and
# those of steps 1b, 1c and 5 with the endings their cleanup checks.
RULE_SUFFIXES = sorted(
    {suffix for group in (oracles._STEP2, oracles._STEP3, oracles._STEP4) for suffix, _, _ in group}
    | {"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "l", "ll"}
)
# Prefix letters: every vowel, y, consonants that end a *d or *o check
# (l, s, z; w, x, y) or an ion stem (s, t), and letters that are
# consonants though they look like vowels (upper case, non-ASCII).
PREFIX_LETTERS = "aeiouybcdlmnrstwxzAYé"
# Free strings: ASCII letters and digits, upper case, and non-ASCII letters.
FREE_ALPHABET = string.ascii_letters + string.digits + "éüñßÿ"


def rule_directed_word(rng: random.Random) -> str:
    prefix = rng.choices(PREFIX_LETTERS, k=rng.randint(0, 5))
    return "".join(prefix + rng.choices(RULE_SUFFIXES, k=rng.randint(1, 3)))


class TestPorterStemmer:
    @pytest.mark.parametrize("word,expected", sorted(FROZEN_STEMS.items()))
    def test_frozen_reference_pairs(self, word, expected):
        assert stem(word) == expected

    @settings(deadline=None)
    @given(st.one_of(
        st.text(FREE_ALPHABET, max_size=14),
        st.builds(
            lambda prefix, suffixes: prefix + "".join(suffixes),
            st.text(PREFIX_LETTERS, max_size=5),
            st.lists(st.sampled_from(RULE_SUFFIXES), min_size=1, max_size=3),
        ),
    ))
    def test_matches_the_reference_stemmer(self, word):
        assert stem(word) == porter_reference(word)

    def test_matches_the_reference_on_a_seeded_sweep(self):
        rng = random.Random(24)
        words = [rule_directed_word(rng) for _ in range(50_000)]
        assert [stem(w) for w in words] == [porter_reference(w) for w in words]

    def test_short_tokens_unchanged(self):
        for token in ("a", "as", "is", "by", "i"):
            assert stem(token) == token

    def test_idempotent_on_summary_corpus(self):
        corpus = (
            "They strolled around the city. Several policemen terminated "
            "officers in corruption probes. It is raining heavily and pouring. "
            "The soldiers were killed while walking."
        )
        for token in tokenize(corpus).tokens:
            assert stem(token) == token


class TestTokenize:
    def test_basic_sentence(self):
        text = tokenize("They strolled around the city.", stemming=False)
        assert text.tokens == ["they", "strolled", "around", "the", "city"]

    def test_stemmed_tokens(self):
        text = tokenize("They strolled around the city.")
        assert text.tokens == ["thei", "stroll", "around", "the", "citi"]

    def test_line_breaks_split_sentences(self):
        text = tokenize("It is raining heavily.\nIt is pouring.")
        assert len(text.sentences) == 2

    def test_punctuation_with_whitespace_splits(self):
        text = tokenize("It rained! It poured? It stopped.")
        assert len(text.sentences) == 3

    def test_empty_input(self):
        text = tokenize("")
        assert text.tokens == []
        assert text.sentences == ()

    def test_tokens_are_alnum_runs_case_folded(self):
        text = tokenize("Well-known U.S. firms (AB-12) rose 3.5%!", stemming=False)
        assert text.tokens == ["well", "known", "u", "s", "firms", "ab", "12", "rose", "3", "5"]

    def test_stopwords_kept_by_default(self):
        text = tokenize("the cat sat on the mat")
        assert "the" in text.tokens

    def test_stopword_removal_flag(self):
        text = tokenize("the cat sat on the mat", remove_stopwords=True)
        assert "the" not in text.tokens
        assert "cat" in text.tokens

    def test_stopword_list_loaded(self):
        words = stopwords()
        assert {"the", "is", "and", "of"} <= words
        assert all(w == w.lower() for w in words)

    def test_word_types_first_seen_surface(self):
        text = tokenize("Strolled strolling walked.")
        types = dict(text.word_types())
        assert types["stroll"] == "strolled"
        assert types["walk"] == "walked"

    def test_surfaces_align_with_tokens(self):
        text = tokenize("Cats walked. Dogs running.")
        assert [len(s) for s in text.sentences] == [len(s) for s in text.surfaces]
        assert text.surfaces[0] == ("cats", "walked")
        assert text.sentences[0] == ("cat", "walk")


# words from a few letters, so the same token recurs and comes from the memo
raw_texts = st.text(alphabet="aeisnglyt .!?\n", max_size=200)


class TestStemMemo:
    @settings(max_examples=100, deadline=None)
    @given(raw_texts, st.booleans())
    def test_same_text_as_stemming_directly(self, raw, remove_stopwords):
        plain = tokenize(raw, stemming=False, remove_stopwords=remove_stopwords)
        direct = SummaryText(
            sentences=tuple(tuple(map(porter.stem, sent)) for sent in plain.surfaces),
            surfaces=plain.surfaces,
        )
        for _ in range(2):  # the second pass reads every stem from the memo
            assert tokenize(raw, remove_stopwords=remove_stopwords) == direct

    def test_memo_is_bounded(self):
        maxsize = grouge.text._memo_stem.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16

    def test_stem_is_the_porter_stemmer(self):
        assert stem is porter.stem
