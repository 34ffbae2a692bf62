"""Porter's suffix-stripping stemmer (the classic 1980 rule set).

Only lowercase ASCII words are stemmed; anything else (placeholders,
punctuation, digits) passes through unchanged. Within each step the longest
matching suffix is the only rule considered, per the original definition.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of VC blocks in the [C](VC)^m[V] decomposition."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _longest_rule(word: str, rules, suffixes: tuple[str, ...], min_measure: int) -> str:
    """Apply the longest-suffix rule whose measure condition holds.
    ``suffixes`` are the rules' suffixes: one ``endswith`` on all of them
    passes most words through before the per-rule loop."""
    if not word.endswith(suffixes):
        return word
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


_STEP2 = [
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("biliti", "ble"),
    ("tional", "tion"), ("entli", "ent"), ("ousli", "ous"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"), ("iviti", "ive"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
    ("alli", "al"), ("ator", "ate"), ("eli", "e"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    ("ement", ""), ("ance", ""), ("ence", ""), ("able", ""), ("ible", ""),
    ("ment", ""), ("ant", ""), ("ent", ""), ("ism", ""), ("ate", ""),
    ("iti", ""), ("ous", ""), ("ive", ""), ("ize", ""),
    ("al", ""), ("er", ""), ("ic", ""), ("ou", ""),
]

_STEP2_SUFFIXES, _STEP3_SUFFIXES, _STEP4_SUFFIXES = (
    tuple(suffix for suffix, _ in rules) for rules in (_STEP2, _STEP3, _STEP4))


def stem(word: str) -> str:
    if len(word) <= 2 or not word.isascii() or not word.isalpha():
        return word
    w = word

    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif not w.endswith("ss") and w.endswith("s"):
        w = w[:-1]

    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        fired = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            fired = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            fired = True
        if fired:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    w = _longest_rule(w, _STEP2, _STEP2_SUFFIXES, 0)
    w = _longest_rule(w, _STEP3, _STEP3_SUFFIXES, 0)

    # step 4 ("ion" needs a preceding s or t)
    if w.endswith("ion"):
        stem_part = w[:-3]
        if stem_part.endswith(("s", "t")) and _measure(stem_part) > 1:
            w = stem_part
    else:
        w = _longest_rule(w, _STEP4, _STEP4_SUFFIXES, 1)

    # step 5a
    if w.endswith("e"):
        m = _measure(w[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1])):
            w = w[:-1]

    # step 5b
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]

    return w
