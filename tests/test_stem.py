import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vwpstory import stem as stem_module
from vwpstory.stem import stem

# classic input/output pairs for the 1980 rule set
CANONICAL = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", CANONICAL)
def test_canonical_pairs(word, expected):
    assert stem(word) == expected


def test_short_and_non_alpha_pass_through():
    assert stem("is") == "is"
    assert stem("a") == "a"
    assert stem("[male0]") == "[male0]"
    assert stem("42") == "42"
    assert stem(".") == "."


def test_idempotent_on_common_stems():
    for w in ("run", "walk", "talk", "jump", "stori"):
        assert stem(stem(w)) == stem(w)


def loop_longest_rule(word, rules, min_measure):
    """The step rule as a plain loop over every suffix."""
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem_part = word[: len(word) - len(suffix)]
            if stem_module._measure(stem_part) > min_measure:
                return stem_part + replacement
            return word
    return word


STEPS = [(stem_module._STEP2, stem_module._STEP2_SUFFIXES, 0),
         (stem_module._STEP3, stem_module._STEP3_SUFFIXES, 0),
         (stem_module._STEP4, stem_module._STEP4_SUFFIXES, 1)]
# lowercase words, half of them ending in some step's suffix
words_st = st.one_of(
    st.text("abcdefghijklmnopqrstuvwxyz", max_size=10),
    st.tuples(st.text("abcdefghijklmnopqrstuvwxyz", max_size=6),
              st.sampled_from([suffix for rules, _, _ in STEPS for suffix, _ in rules]))
    .map("".join))


@given(words_st)
@settings(max_examples=300, deadline=None)
@example("relational")
@example("ational")
def test_suffix_reject_matches_rule_loop(word):
    for rules, suffixes, min_measure in STEPS:
        assert stem_module._longest_rule(word, rules, suffixes, min_measure) \
            == loop_longest_rule(word, rules, min_measure)
