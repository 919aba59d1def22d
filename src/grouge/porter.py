"""Classic Porter stemmer (the original 1980 rule set).

A word is read as [C](VC)^m[V] through its consonant/vowel pattern, one
``c`` or ``v`` per character: a, e, i, o and u are vowels, a y is a vowel
after a consonant, and every other character is a consonant. m counts the
``vc`` pairs, *v* is a ``v`` anywhere, and *d and *o are read from the
pattern's tail. Within each rule group the longest matching suffix selects
the single candidate rule; if that rule's condition fails, no shorter
suffix in the group is tried. Words of one or two letters are returned
unchanged.
"""

from __future__ import annotations


def _pattern(word: str) -> str:
    """One c or v per character of word."""
    cv = prev = ""
    for ch in word:
        prev = "v" if ch in "aeiou" or (ch == "y" and prev == "c") else "c"
        cv += prev
    return cv


def _measure(stem: str) -> int:
    return _pattern(stem).count("vc")


def _ends_cvc(word: str, cv: str) -> bool:
    """*o: ends consonant-vowel-consonant, final consonant not w, x, or y."""
    return cv.endswith("cvc") and word[-1] not in "wxy"


_Rule = tuple[str, str, int | None]  # (suffix, replacement, min_m)


def _group(rules: list[_Rule]) -> tuple[tuple[str, ...], list[_Rule]]:
    """A rule group: its suffixes, for a quick test, and its rules longest
    suffix first. A rule applies when m(stem) > min_m, or always when
    min_m is None."""
    return tuple(suffix for suffix, _, _ in rules), sorted(rules, key=lambda rule: -len(rule[0]))


_STEP1A = _group([
    ("sses", "ss", None), ("ies", "i", None), ("ss", "ss", None), ("s", "", None),
])

_STEP2 = _group([
    ("ational", "ate", 0), ("tional", "tion", 0), ("enci", "ence", 0),
    ("anci", "ance", 0), ("izer", "ize", 0), ("abli", "able", 0),
    ("alli", "al", 0), ("entli", "ent", 0), ("eli", "e", 0),
    ("ousli", "ous", 0), ("ization", "ize", 0), ("ation", "ate", 0),
    ("ator", "ate", 0), ("alism", "al", 0), ("iveness", "ive", 0),
    ("fulness", "ful", 0), ("ousness", "ous", 0), ("aliti", "al", 0),
    ("iviti", "ive", 0), ("biliti", "ble", 0),
])

_STEP3 = _group([
    ("icate", "ic", 0), ("ative", "", 0), ("alize", "al", 0),
    ("iciti", "ic", 0), ("ical", "ic", 0), ("ful", "", 0), ("ness", "", 0),
])

# ion also needs a stem ending in s or t: (*S or *T) ION
_STEP4 = _group([
    ("al", "", 1), ("ance", "", 1), ("ence", "", 1), ("er", "", 1),
    ("ic", "", 1), ("able", "", 1), ("ible", "", 1), ("ant", "", 1),
    ("ement", "", 1), ("ment", "", 1), ("ent", "", 1), ("ion", "", 1),
    ("ou", "", 1), ("ism", "", 1), ("ate", "", 1), ("iti", "", 1),
    ("ous", "", 1), ("ive", "", 1), ("ize", "", 1),
])


def _apply_group(word: str, group: tuple[tuple[str, ...], list[_Rule]]) -> str:
    """Longest matching suffix wins; its condition then gates the rewrite."""
    suffixes, rules = group
    if not word.endswith(suffixes):
        return word
    for suffix, replacement, min_m in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if min_m is not None and _measure(stem) <= min_m:
                return word
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem + replacement
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix) and "v" in _pattern(word[: -len(suffix)]):
            word = word[: -len(suffix)]
            break
    else:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    cv = _pattern(word)
    if cv.endswith("c") and word[-2:] == word[-1] * 2:  # *d
        return word if word[-1] in "lsz" else word[:-1]
    if cv.count("vc") == 1 and _ends_cvc(word, cv):
        return word + "e"
    return word


def stem(token: str) -> str:
    """Stem a lowercase token; tokens shorter than 3 letters pass through."""
    if len(token) <= 2:
        return token
    word = _step1b(_apply_group(token, _STEP1A))
    if word.endswith("y") and "v" in _pattern(word[:-1]):  # step 1c
        word = word[:-1] + "i"
    for group in (_STEP2, _STEP3, _STEP4):
        word = _apply_group(word, group)
    if word.endswith("e"):  # step 5a
        cv = _pattern(word[:-1])
        m = cv.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], cv)):
            word = word[:-1]
    if word.endswith("ll") and _measure(word) > 1:  # step 5b
        word = word[:-1]
    return word
