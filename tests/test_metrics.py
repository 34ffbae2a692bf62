import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vwpstory import metrics
from vwpstory.errors import DataError
from vwpstory.metrics import (
    CIDER_MAX_N,
    CIDER_SCALE,
    METEOR_EXHAUSTIVE_LIMIT,
    METRIC_NAMES,
    _SEARCH_NODE_BUDGET,
    EvalPair,
    MeteorAlignment,
    _candidates,
    _count_chunks,
    _greedy_alignment,
    _lcs_length,
    _min_chunk_alignment,
    _stage_sizes,
    _stem_table,
    aggregate_runs,
    bleu_corpus,
    cider,
    compute_metrics,
    load_eval_pairs,
    meteor,
    meteor_alignment,
    meteor_totals,
    report_text,
    rouge_l,
)
from vwpstory.stem import stem

tokens_st = st.lists(st.sampled_from(["the", "cat", "sat", "dog", "ran", "a"]),
                     min_size=1, max_size=8)
# words whose stems collide, so the stem stage has work to do
inflected_st = st.lists(st.sampled_from(["walk", "walks", "walked", "walking", "run",
                                         "runs", "running", "cat", "cats", "the"]),
                        max_size=12)

# sentences over four words, so empty hypotheses, ones shorter than four
# tokens, single references and repeated n-grams are all common
small_tokens_st = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=9)
eval_pairs_st = st.lists(st.builds(EvalPair, small_tokens_st,
                                   st.lists(small_tokens_st, min_size=1, max_size=3)),
                         min_size=2, max_size=12)
metric_names_st = st.lists(st.sampled_from(METRIC_NAMES), min_size=1,
                           max_size=len(METRIC_NAMES), unique=True)

# a duplicate-heavy pair on which the exhaustive chunk search runs out of nodes
BUDGET_HYP = "a c c a b c b c c a c a b b c a a c b c".split()
BUDGET_REF = "c b b c a a c a c b c a c a a c a b a b".split()


def pair(hyp, *refs):
    return EvalPair(hypothesis=list(hyp), references=[list(r) for r in refs])


EDGE_PAIRS = [
    pair([], ["a", "b"]),
    pair(["a"], ["a", "a", "b"]),
    pair(["a", "b", "a", "b", "a"], ["a", "b", "a"], ["b", "a", "b", "a"]),
    pair(["c", "d", "c"], ["c", "d"], ["d", "c", "d", "c", "d"], []),
    pair(["a", "b", "c", "d", "a", "b", "c"], ["a", "b", "c", "d", "a"]),
]


# --- slow oracles for the fast paths in metrics ---------------------------------

def dp_lcs_length(a, b):
    """Textbook O(|a|·|b|) LCS table."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def double_loop_candidates(hyp, ref):
    """Every (hyp, ref) position pair, stemming each word where it is used."""
    ref_stems = [stem(w) for w in ref]
    hyp_stems = [stem(w) for w in hyp]
    candidates = []
    for i, word in enumerate(hyp):
        cands = []
        for j, rword in enumerate(ref):
            if word == rword:
                cands.append((j, True))
            elif hyp_stems[i] == ref_stems[j]:
                cands.append((j, False))
        candidates.append(cands)
    return candidates


def quadratic_greedy(hyp, candidates, m_exact, m_stem):
    """In-order greedy that rescans the chosen pairs at every position."""
    used = set()
    chosen = []
    for want_exact, budget in ((True, m_exact), (False, m_stem)):
        taken = 0
        last_j = None
        for i in range(len(hyp)):
            if taken >= budget or any(p[0] == i for p in chosen):
                continue
            options = [j for j, is_exact in candidates[i]
                       if is_exact == want_exact and j not in used]
            if not options:
                continue
            j = last_j + 1 if last_j is not None and last_j + 1 in options else options[0]
            used.add(j)
            chosen.append((i, j))
            last_j = j
            taken += 1
    return chosen


def counter_stage_sizes(hyp, ref, stems):
    """Stage sizes from six Counter operations."""
    h_counts, r_counts = Counter(hyp), Counter(ref)
    exact = sum((h_counts & r_counts).values())
    resid_h = Counter(stems[w] for w in (h_counts - r_counts).elements())
    resid_r = Counter(stems[w] for w in (r_counts - h_counts).elements())
    stemmed = sum((resid_h & resid_r).values())
    return exact, stemmed


def unpruned_min_chunk_alignment(hyp, ref, stems):
    """Branch-and-bound chunk search with no incumbent and no lower bound
    beyond the chunks so far; it falls back to the greedy count when it
    finds no alignment within the node budget."""
    m_exact, m_stem = counter_stage_sizes(hyp, ref, stems)
    m_total = m_exact + m_stem
    if m_total == 0:
        return MeteorAlignment(0, 0, len(hyp), len(ref))
    candidates = _candidates(hyp, ref, stems)

    if m_total > METEOR_EXHAUSTIVE_LIMIT:
        chosen = _greedy_alignment(candidates, m_exact, m_stem)
        return MeteorAlignment(m_total, _count_chunks(chosen), len(hyp), len(ref), "greedy")

    best = {"chunks": m_total + 1}
    nodes = {"n": 0}
    n_hyp = len(hyp)

    def search(i, used, n_matched, n_exact, last_i, last_j, chunks):
        if chunks >= best["chunks"]:
            return
        nodes["n"] += 1
        if nodes["n"] > _SEARCH_NODE_BUDGET:
            return
        remaining = n_hyp - i
        if n_matched + remaining < m_total or n_exact + remaining < m_exact:
            return
        if i == n_hyp:
            if n_matched == m_total and n_exact == m_exact:
                best["chunks"] = chunks
            return
        ordered = candidates[i]
        if last_i == i - 1:
            # try continuing the current run first; finds tight alignments early
            ordered = sorted(ordered, key=lambda cj: cj[0] != last_j + 1)
        for j, is_exact in ordered:
            if used & (1 << j):
                continue
            if is_exact and n_exact == m_exact:
                continue
            if not is_exact and (n_matched - n_exact) == m_stem:
                continue
            extends = last_i == i - 1 and j == last_j + 1
            search(i + 1, used | (1 << j), n_matched + 1, n_exact + int(is_exact),
                   i, j, chunks + (0 if extends else 1))
        search(i + 1, used, n_matched, n_exact, last_i, last_j, chunks)

    search(0, 0, 0, 0, -2, -2, 0)
    kind = "budget" if nodes["n"] > _SEARCH_NODE_BUDGET else "exhaustive"
    if best["chunks"] > m_total:
        chosen = _greedy_alignment(candidates, m_exact, m_stem)
        return MeteorAlignment(m_total, _count_chunks(chosen), len(hyp), len(ref), kind)
    return MeteorAlignment(m_total, best["chunks"], len(hyp), len(ref), kind)


def brute_force_alignment(hyp, ref, stems):
    """(matches, chunks) over every one-to-one matching of same-stem
    positions: the most exact pairs, then the most pairs, then the fewest
    chunks. Exponential; for pairs of a few tokens."""
    best = None

    def walk(i, used, chosen, n_exact):
        nonlocal best
        if i == len(hyp):
            key = (-n_exact, -len(chosen), _count_chunks(chosen))
            best = key if best is None or key < best else best
            return
        walk(i + 1, used, chosen, n_exact)
        for j, word in enumerate(ref):
            if j not in used and stems[word] == stems[hyp[i]]:
                walk(i + 1, used | {j}, chosen + [(i, j)], n_exact + (word == hyp[i]))

    walk(0, frozenset(), [], 0)
    return -best[1], best[2]


def greedy_chunks(hyp, ref, stems):
    m_exact, m_stem = _stage_sizes(hyp, ref, stems)
    return _count_chunks(_greedy_alignment(_candidates(hyp, ref, stems), m_exact, m_stem))


def search_result(align):
    return align.matches, align.chunks, align.search


def ngrams(tokens, n):
    return Counter(zip(*(tokens[k:] for k in range(n))))


def loop_bleu_corpus(pairs, max_order=4):
    """Corpus BLEU one order at a time, recounting every sentence per order
    and clipping with ``Counter |=``."""
    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for p in pairs:
        c = len(p.hypothesis)
        hyp_len += c
        ref_len += min((len(r) for r in p.references), key=lambda rl: (abs(rl - c), rl))
        for n in range(1, max_order + 1):
            hyp_counts = ngrams(p.hypothesis, n)
            if not hyp_counts:
                continue
            clip = Counter()
            for ref in p.references:
                clip |= ngrams(ref, n)
            matches[n - 1] += sum(min(count, clip[gram]) for gram, count in hyp_counts.items())
            totals[n - 1] += sum(hyp_counts.values())
    log_sum = 0.0
    for n in range(max_order):
        if totals[n] == 0 or matches[n] == 0:
            return 0.0
        log_sum += math.log(matches[n] / totals[n])
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    if hyp_len == 0:
        return 0.0
    return bp * math.exp(log_sum / max_order)


def loop_cider(pairs, max_n=CIDER_MAX_N):
    """CIDEr with the order loop outside the pair loop: every order recounts
    every sentence and computes each IDF where it is used."""
    n_images = len(pairs)
    doc_freq = [Counter() for _ in range(max_n)]
    for p in pairs:
        for n in range(1, max_n + 1):
            grams = set()
            for ref in p.references:
                grams.update(ngrams(ref, n))
            doc_freq[n - 1].update(grams)

    def tf_idf(tokens, n):
        vec = {}
        for gram, count in ngrams(tokens, n).items():
            idf = max(0.0, math.log(n_images / (1.0 + doc_freq[n - 1][gram])))
            if idf > 0.0:
                vec[gram] = count * idf
        return vec

    def cosine(u, v):
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return sum(x * v[g] for g, x in u.items() if g in v) / (nu * nv)

    per_order = []
    for n in range(1, max_n + 1):
        order_scores = []
        for p in pairs:
            hyp_vec = tf_idf(p.hypothesis, n)
            sims = [cosine(hyp_vec, tf_idf(ref, n)) for ref in p.references]
            order_scores.append(sum(sims) / len(sims))
        per_order.append(sum(order_scores) / len(order_scores))
    return CIDER_SCALE * sum(per_order) / max_n


def pseudo_words(rng, count):
    syllables = [c + v for c in "bdfklmnprstvz" for v in "aeiou"]
    return sorted({"".join(rng.choice(syllables) for _ in range(rng.randint(1, 3)))
                   for _ in range(count)})


def variant(rng, lemmas, base):
    """A noisy inflected copy of ``base``: a quarter of the words replaced and
    every word given a random inflection."""
    out = []
    for word in base:
        if rng.random() < 0.25:
            word = rng.choice(lemmas)
        out.append(word + rng.choice(("", "", "s", "ed", "ing")))
    return out


def golden_pairs():
    """Twelve short pairs (exhaustive chunk search), three long ones (greedy)
    and the node-budget pair, all from one fixed seed."""
    rng = random.Random(20261018)
    lemmas = pseudo_words(rng, 120)
    pairs = []
    for length, count in ((15, 12), (150, 3)):
        for _ in range(count):
            base = [rng.choice(lemmas) for _ in range(rng.randint(length - 3, length + 3))]
            pairs.append(pair(variant(rng, lemmas, base),
                              *(variant(rng, lemmas, base) for _ in range(3))))
    pairs.append(pair(BUDGET_HYP, BUDGET_REF))
    return pairs


def benchmark_shaped_pairs(seed, count):
    """Short pairs shaped like the evaluate benchmark's: 12..18 distinct
    words drawn from a Zipf vocabulary, four references, each side with a
    quarter of its words replaced and 30 % of them inflected."""
    rng = random.Random(seed)
    lemmas = pseudo_words(rng, 600)
    weights = [1.0 / rank for rank in range(1, len(lemmas) + 1)]

    def noisy(base):
        return [(rng.choices(lemmas, weights)[0] if rng.random() < 0.25 else word)
                + (rng.choice(("", "", "s", "ed", "ing")) if rng.random() < 0.3 else "")
                for word in base]

    pairs = []
    for _ in range(count):
        base = []
        length = rng.randint(12, 18)
        while len(base) < length:
            word = rng.choices(lemmas, weights)[0]
            if word not in base:
                base.append(word)
        pairs.append(pair(noisy(base), *(noisy(base) for _ in range(4))))
    return pairs


class TestBleu:
    def test_identity_all_orders(self):
        p = pair("the cat sat on the mat".split(), "the cat sat on the mat".split())
        for n in range(1, 5):
            assert bleu_corpus([p], max_order=n) == pytest.approx(1.0, abs=1e-12)

    def test_clipped_precision_hand_computed(self):
        # hyp "the the the the" vs ref "the cat": clipped 1/4, BP=1 since c=4 > r=2
        p = pair(["the"] * 4, ["the", "cat"])
        assert bleu_corpus([p], max_order=1) == pytest.approx(0.25, abs=1e-12)

    def test_disjoint_vocabulary(self):
        p = pair(["aa", "bb"], ["cc", "dd"])
        assert bleu_corpus([p], max_order=1) == 0.0

    def test_brevity_penalty(self):
        # hyp len 2, ref len 4 -> BP = e^{1 - 4/2}; unigram precision 1
        p = pair(["a", "b"], ["a", "b", "c", "d"])
        assert bleu_corpus([p], max_order=1) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_zero_precision_at_any_order_zeroes_cumulative(self):
        p = pair(["a", "b"], ["a", "c"])  # no bigram overlap
        assert bleu_corpus([p], max_order=1) > 0.0
        assert bleu_corpus([p], max_order=2) == 0.0

    def test_empty_corpus_errors(self):
        with pytest.raises(DataError):
            bleu_corpus([])

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_errors(self, order):
        with pytest.raises(DataError, match="max_order must be at least 1"):
            bleu_corpus([pair(["a"], ["a"])], max_order=order)

    def test_reference_order_invariance(self):
        refs = (["the", "cat"], ["a", "dog", "ran"])
        a = bleu_corpus([pair(["the", "dog"], *refs)], 2)
        b = bleu_corpus([pair(["the", "dog"], *reversed(refs))], 2)
        assert a == b

    @given(tokens_st, tokens_st)
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_deletion_monotonicity(self, hyp, ref):
        score = bleu_corpus([pair(hyp, ref)], 1)
        assert 0.0 <= score <= 1.0
        # deleting a fully-matched token (count within the clip) never helps
        hc, rc = Counter(hyp), Counter(ref)
        matched = [t for t in hc if 0 < hc[t] <= rc.get(t, 0)]
        if matched:
            shorter = list(hyp)
            shorter.remove(sorted(matched)[0])
            assert bleu_corpus([pair(shorter, ref)], 1) <= score + 1e-12


class TestMeteor:
    def test_identity_three_tokens(self):
        p = pair(["the", "cat", "sat"], ["the", "cat", "sat"])
        expected = 1.0 * (1.0 - 0.5 * (1.0 / 3.0) ** 3)
        assert meteor([p]) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.9814815, abs=1e-7)

    def test_swapped_order_two_chunks(self):
        p = pair(["the", "cat"], ["cat", "the"])
        # m=2, chunks=2, P=R=1 -> F=1, penalty=0.5 -> 0.5
        assert meteor([p]) == pytest.approx(0.5, abs=1e-9)

    def test_no_overlap(self):
        assert meteor([pair(["aa"], ["bb"])]) == 0.0

    def test_stem_stage_matches(self):
        align = meteor_alignment(pair(["running"], ["runs"]))
        assert align.matches == 1

    def test_exact_preferred_over_stem(self):
        # 'walk' pairs exactly; 'walking'~'walked' only through stems
        align = meteor_alignment(pair(["walk", "walking"], ["walk", "walked"]))
        assert align.matches == 2

    def test_chunk_minimization(self):
        # "a b c" vs "a b c" with duplicate distractors must find 1 chunk
        align = meteor_alignment(pair(["a", "b", "c"], ["a", "b", "c"]))
        assert align.chunks == 1

    def test_min_chunks_with_duplicates(self):
        # hyp "the cat the" / ref "the cat the": identity -> one chunk
        align = meteor_alignment(pair(["the", "cat", "the"], ["the", "cat", "the"]))
        assert align.matches == 3
        assert align.chunks == 1

    def test_corpus_aggregation_before_formula(self):
        pairs = [pair(["a", "b"], ["a", "b"]), pair(["c", "d"], ["c", "d"])]
        # pooled: m=4, chunks=2, hyp=ref=4 -> F=1, penalty=0.5*(2/4)^3
        expected = 1.0 - 0.5 * 0.125
        assert meteor(pairs) == pytest.approx(expected, abs=1e-12)

    def test_self_score_below_one(self):
        toks = "a story about a cat".split()
        assert 0.0 < meteor([pair(toks, toks)]) < 1.0

    def test_best_reference_selected(self):
        p = pair(["the", "cat"], ["dog"], ["the", "cat"])
        assert meteor([p]) == pytest.approx(1.0 - 0.5 * (1 / 2) ** 3, abs=1e-12)

    @given(tokens_st, tokens_st)
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, hyp, ref):
        assert 0.0 <= meteor([pair(hyp, ref)]) <= 1.0

    def test_greedy_path_for_long_matches(self):
        toks = [f"w{i}" for i in range(25)]
        align = meteor_alignment(pair(toks, toks))
        assert align.matches == 25
        assert align.chunks == 1

    def test_reference_order_invariance(self):
        refs = (["the", "cat", "sat"], ["a", "dog"])
        assert meteor([pair(["the", "cat"], *refs)]) == \
            meteor([pair(["the", "cat"], *reversed(refs))])

    def test_search_exhaustive(self):
        align = meteor_alignment(pair(["the", "cat", "sat"], ["sat", "the", "cat"]))
        assert (align.matches, align.chunks, align.search) == (3, 2, "exhaustive")

    def test_search_greedy_above_limit(self):
        toks = [f"w{i}" for i in range(METEOR_EXHAUSTIVE_LIMIT + 1)]
        assert meteor_alignment(pair(toks, toks)).search == "greedy"

    def test_search_budget(self):
        align = meteor_alignment(pair(BUDGET_HYP, BUDGET_REF))
        assert align.matches <= METEOR_EXHAUSTIVE_LIMIT
        assert align.search == "budget"
        assert (align.matches, align.chunks) == (18, 11)

    def test_standalone_alignment_builds_its_own_stems(self):
        p = pair(["walking", "cats"], ["cat", "walked"])
        assert meteor_alignment(p) == meteor_alignment(p, _stem_table([p]))
        assert meteor_alignment(p).matches == 2

    @given(inflected_st, inflected_st)
    @settings(max_examples=80, deadline=None)
    def test_candidates_match_double_loop(self, hyp, ref):
        stems = _stem_table([pair(hyp, ref)])
        assert _candidates(hyp, ref, stems) == double_loop_candidates(hyp, ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_path_matches_quadratic_greedy(self, seed):
        rng = random.Random(seed)
        lemmas = pseudo_words(rng, 40)
        base = [rng.choice(lemmas) for _ in range(rng.randint(40, 120))]
        hyp, ref = variant(rng, lemmas, base), variant(rng, lemmas, base)
        stems = _stem_table([pair(hyp, ref)])
        m_exact, m_stem = _stage_sizes(hyp, ref, stems)
        assert m_exact + m_stem > METEOR_EXHAUSTIVE_LIMIT and m_exact and m_stem
        chosen = quadratic_greedy(hyp, double_loop_candidates(hyp, ref), m_exact, m_stem)
        align = _min_chunk_alignment(hyp, ref, stems)
        assert align.search == "greedy"
        assert (align.matches, align.chunks) == (len(chosen), _count_chunks(chosen))

    @given(inflected_st, inflected_st)
    @settings(max_examples=150, deadline=None)
    def test_stage_sizes_match_counter_form(self, hyp, ref):
        stems = _stem_table([pair(hyp, ref)])
        assert _stage_sizes(hyp, ref, stems) == counter_stage_sizes(hyp, ref, stems)

    @given(inflected_st, inflected_st)
    @settings(max_examples=150, deadline=None)
    @example(BUDGET_HYP[:12], BUDGET_REF[:12])
    def test_pruned_search_matches_unpruned_search(self, hyp, ref):
        stems = _stem_table([pair(hyp, ref)])
        align = _min_chunk_alignment(hyp, ref, stems)
        oracle = unpruned_min_chunk_alignment(hyp, ref, stems)
        if oracle.search == "exhaustive":
            assert search_result(align) == search_result(oracle)
        assert align.chunks <= greedy_chunks(hyp, ref, stems)

    @pytest.mark.parametrize("source", ["golden", "benchmark-shaped"])
    def test_pruned_search_matches_unpruned_search_on_fixed_pairs(self, source):
        pairs = golden_pairs() if source == "golden" else benchmark_shaped_pairs(13, 40)
        stems = _stem_table(pairs)
        compared = 0
        for p in pairs:
            for ref in p.references:
                align = _min_chunk_alignment(p.hypothesis, ref, stems)
                oracle = unpruned_min_chunk_alignment(p.hypothesis, ref, stems)
                assert align.chunks <= greedy_chunks(p.hypothesis, ref, stems)
                if oracle.search == "exhaustive":
                    assert search_result(align) == search_result(oracle)
                    compared += 1
        assert compared >= (12 * 3 if source == "golden" else 160)

    @given(st.lists(st.sampled_from(["walk", "walks", "walked", "cat", "cats", "the"]),
                    max_size=7),
           st.lists(st.sampled_from(["walk", "walks", "walked", "cat", "cats", "the"]),
                    max_size=7))
    @settings(max_examples=150, deadline=None)
    @example(["the", "cat", "the", "cat", "the"], ["cat", "the", "cat", "the", "cat"])
    @example(["walks", "cat", "walk"], ["walk", "cats", "walked"])
    def test_min_chunks_match_brute_force(self, hyp, ref):
        stems = _stem_table([pair(hyp, ref)])
        align = _min_chunk_alignment(hyp, ref, stems)
        assert align.search == "exhaustive"
        assert (align.matches, align.chunks) == brute_force_alignment(hyp, ref, stems)
        assert align.chunks <= greedy_chunks(hyp, ref, stems)

    def test_meteor_totals_count_segments_by_search_kind(self):
        pairs = golden_pairs()
        total, kinds = meteor_totals(pairs)
        assert kinds == {"exhaustive": 12, "greedy": 3, "budget": 1}
        assert total.score() == meteor(pairs)
        stems = _stem_table(pairs)
        segments = [meteor_alignment(p, stems) for p in pairs]
        assert (total.matches, total.chunks) == (sum(a.matches for a in segments),
                                                 sum(a.chunks for a in segments))


class TestRougeL:
    def test_identity(self):
        toks = "a b c".split()
        assert rouge_l([pair(toks, toks)]) == pytest.approx(1.0, abs=1e-12)

    def test_formula_evaluation(self):
        # L=3, R=1, P=0.75 -> F = (1+1.44)*0.75 / (1 + 1.44*0.75)
        p = pair(["a", "b", "c", "d"], ["a", "c", "d"])
        expected = (1 + 1.44) * 1.0 * 0.75 / (1.0 + 1.44 * 0.75)
        assert rouge_l([p]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.879807692, abs=1e-9)

    def test_disjoint(self):
        assert rouge_l([pair(["aa"], ["bb"])]) == 0.0

    def test_corpus_mean(self):
        pairs = [pair(["a"], ["a"]), pair(["b"], ["zz"])]
        assert rouge_l(pairs) == pytest.approx(0.5, abs=1e-12)

    @given(tokens_st, tokens_st)
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_reference_invariance(self, hyp, ref):
        score = rouge_l([pair(hyp, ref)])
        assert 0.0 <= score <= 1.0
        assert rouge_l([pair(hyp, ref, ["zz"])]) == rouge_l([pair(hyp, ["zz"], ref)])

    @given(st.sampled_from(["a", "ab", "abcdef"]).flatmap(
        lambda alphabet: st.tuples(*[st.lists(st.sampled_from(alphabet), max_size=260)] * 2)))
    @settings(max_examples=60, deadline=None)
    def test_lcs_matches_dp_oracle(self, lists):
        a, b = lists
        assert _lcs_length(a, b) == dp_lcs_length(a, b)

    @pytest.mark.parametrize("alphabet", ["a", "ab", "abcdefghijklmnopqrstuvwxyz"])
    def test_lcs_matches_dp_oracle_across_word_sizes(self, alphabet):
        rng = random.Random(len(alphabet))
        lengths = (0, 1, 63, 64, 65, 128, 201, 257)
        for n_a in lengths:
            for n_b in lengths:
                a = [rng.choice(alphabet) for _ in range(n_a)]
                b = [rng.choice(alphabet) for _ in range(n_b)]
                assert _lcs_length(a, b) == dp_lcs_length(a, b), (n_a, n_b)


def brute_force_cider(pairs, max_n=4):
    """Independent TF-IDF cosine computation, no shared code with cider()."""
    n_images = len(pairs)
    total = 0.0
    for n in range(1, max_n + 1):
        df = {}
        for p in pairs:
            seen = set()
            for ref in p.references:
                for i in range(len(ref) - n + 1):
                    seen.add(tuple(ref[i:i + n]))
            for g in seen:
                df[g] = df.get(g, 0) + 1

        def vec(tokens):
            counts = {}
            for i in range(len(tokens) - n + 1):
                g = tuple(tokens[i:i + n])
                counts[g] = counts.get(g, 0) + 1
            return {g: c * max(0.0, math.log(n_images / (1.0 + df.get(g, 0))))
                    for g, c in counts.items()}

        def cos(u, v):
            nu = math.sqrt(sum(x * x for x in u.values()))
            nv = math.sqrt(sum(x * x for x in v.values()))
            if nu == 0 or nv == 0:
                return 0.0
            return sum(u[g] * v.get(g, 0.0) for g in u) / (nu * nv)

        order_total = 0.0
        for p in pairs:
            hv = vec(p.hypothesis)
            order_total += sum(cos(hv, vec(r)) for r in p.references) / len(p.references)
        total += order_total / n_images
    return 10.0 * total / max_n


class TestCider:
    def test_identity_with_unique_ngrams(self):
        pairs = [pair([f"u{i}", f"v{i}", f"w{i}", f"x{i}"],
                      [f"u{i}", f"v{i}", f"w{i}", f"x{i}"]) for i in range(4)]
        assert cider(pairs) == pytest.approx(10.0, abs=1e-9)

    def test_zero_overlap(self):
        pairs = [pair(["aa", "bb", "cc", "dd"], ["ee", "ff", "gg", "hh"]),
                 pair(["ii", "jj", "kk", "ll"], ["mm", "nn", "oo", "pp"])]
        assert cider(pairs) == 0.0

    def test_matches_brute_force(self):
        pairs = [
            pair("the cat sat on the mat".split(),
                 "a cat sat on a mat".split(), "the cat lay on the mat".split()),
            pair("a dog ran far away".split(), "the dog ran away".split()),
        ]
        assert cider(pairs) == pytest.approx(brute_force_cider(pairs), abs=1e-9)

    def test_matches_brute_force_random(self):
        import random
        rng = random.Random(5)
        vocab = ["the", "cat", "dog", "sat", "ran", "mat", "on", "a"]
        pairs = []
        for _ in range(6):
            hyp = [rng.choice(vocab) for _ in range(rng.randint(3, 9))]
            refs = [[rng.choice(vocab) for _ in range(rng.randint(3, 9))]
                    for _ in range(rng.randint(1, 3))]
            pairs.append(pair(hyp, *refs))
        assert cider(pairs) == pytest.approx(brute_force_cider(pairs), abs=1e-9)

    def test_small_corpus_errors(self):
        with pytest.raises(DataError):
            cider([pair(["a"], ["a"])])

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_order_below_one_errors(self, max_n):
        with pytest.raises(DataError, match="max_n must be at least 1"):
            cider([pair(["a"], ["a"]), pair(["b"], ["b"])], max_n=max_n)

    def test_reference_order_invariance(self):
        refs = (["the", "cat", "sat"], ["a", "dog", "ran"])
        pairs_a = [pair(["the", "dog"], *refs), pair(["x", "y"], ["x", "y"])]
        pairs_b = [pair(["the", "dog"], *reversed(refs)), pair(["x", "y"], ["x", "y"])]
        assert cider(pairs_a) == pytest.approx(cider(pairs_b), abs=1e-12)

    def test_bounds(self):
        pairs = [pair(["a", "b"], ["a", "c"]), pair(["d"], ["d"])]
        assert 0.0 <= cider(pairs) <= 10.0


class TestAggregateRuns:
    def test_constant_scores(self):
        report = aggregate_runs({"sys": {"METEOR": [1.0, 1.0, 1.0]}}, reference="sys")
        stat = report.systems["sys"]["METEOR"]
        assert (stat.mean, stat.std) == (1.0, 0.0)

    def test_two_sigma_band(self):
        report = aggregate_runs(
            {"ours": {"METEOR": [0.3303, 0.3303, 0.3303]},
             "base": {"METEOR": [0.3185 - 0.005, 0.3185, 0.3185 + 0.005]}},
            reference="base")
        # |33.03-31.85| = 1.18 >= 2 * (std 0.5 scaled) -> '*'
        assert report.systems["ours"]["METEOR"].band == "*"

    def test_reference_has_no_band(self):
        report = aggregate_runs({"a": {"B-1": [0.5, 0.6]}}, reference="a")
        assert report.systems["a"]["B-1"].band == ""

    def test_zero_variance_flag(self):
        report = aggregate_runs(
            {"ours": {"B-1": [0.7]}, "base": {"B-1": [0.5]}}, reference="base")
        stat = report.systems["ours"]["B-1"]
        assert stat.band == "**" and stat.zero_variance_flag

    def test_equal_means_zero_variance_no_band(self):
        report = aggregate_runs(
            {"ours": {"B-1": [0.5]}, "base": {"B-1": [0.5]}}, reference="base")
        assert report.systems["ours"]["B-1"].band == ""

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"), "0.5", None])
    def test_score_must_be_a_finite_number(self, value):
        with pytest.raises(DataError, match=f"ours/B-1: per-seed score {value!r} "
                                            "is not a finite number"):
            aggregate_runs({"base": {"B-1": [0.5]}, "ours": {"B-1": [0.5, value]}},
                           reference="base")

    def test_single_seed_std_zero(self):
        report = aggregate_runs({"s": {"METEOR": [0.4]}}, reference="s")
        assert report.systems["s"]["METEOR"].std == 0.0

    def test_report_text_scale(self):
        report = aggregate_runs(
            {"s": {"B-1": [1.0], "CIDEr": [10.0]}}, reference="s")
        text = report_text(report)
        assert "100.00" in text  # B-1 shown on the x100 scale
        assert "10.00" in text   # CIDEr shown on its own 0..10 scale


class TestLoadEvalPairs:
    def test_strings_and_token_lists(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            '{"id": 0, "hypothesis": "The cat sat.", "references": ["the cat sat", ["a", 2]]}\n'
            "\n"
            '{"hypothesis": ["x", 3], "references": ["x 3"]}\n')
        pairs = load_eval_pairs(path)
        assert [p.hypothesis for p in pairs] == [["the", "cat", "sat", "."], ["x", "3"]]
        assert [p.references for p in pairs] == [[["the", "cat", "sat"], ["a", "2"]],
                                                 [["x", "3"]]]

    @pytest.mark.parametrize("line, message", [
        ('{"hypothesis": "a b", "references": "a b"}', "references must be a list, got str"),
        ('{"hypothesis": 5, "references": ["a"]}', "hypothesis must be a string or a list"),
        ('{"hypothesis": "a", "references": ["a", 7]}', "a reference must be a string or a list"),
        ('{"hypothesis": null, "references": ["a"]}', "hypothesis must be a string or a list"),
        ('["a"]', "not a JSON object"),
        ('"a b"', "not a JSON object"),
        ('{"hypothesis": "a"}', "missing 'references'"),
        ('{"hypothesis": "a",', "bad eval pair"),
        ('{"hypothesis": [null, {"a": 1}], "references": [[null, {"a": 1}]]}',
         r"hypothesis holds null; tokens must be strings or numbers"),
        ('{"hypothesis": ["a", true], "references": ["a"]}', "hypothesis holds true/false"),
        ('{"hypothesis": "a", "references": [["a", false]]}', "a reference holds true/false"),
        ('{"hypothesis": "a", "references": [["a", {"b": 1}]]}', "a reference holds an object"),
        ('{"hypothesis": [["a"]], "references": ["a"]}', "hypothesis holds an array"),
    ])
    def test_malformed_line_is_data_error_with_its_line(self, tmp_path, line, message):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"hypothesis": "ok", "references": ["ok"]}\n' + line + "\n")
        with pytest.raises(DataError, match=f"pairs.jsonl:2: .*{message}"):
            load_eval_pairs(path)


class TestSuite:
    def test_compute_metrics_identity(self):
        # 3+ images so every unique n-gram keeps a positive idf
        toks = "a man walks his dog down the road".split()
        pairs = [pair(toks, toks),
                 pair(["x", "y", "z", "q"], ["x", "y", "z", "q"]),
                 pair(["u", "v", "w", "s"], ["u", "v", "w", "s"])]
        values = compute_metrics(pairs)
        for name in ("B-1", "B-2", "B-3", "B-4", "ROUGE-L"):
            assert values[name] == pytest.approx(1.0, abs=1e-9)
        assert values["METEOR"] < 1.0
        assert values["CIDEr"] == pytest.approx(10.0, abs=1e-9)

    def test_unknown_metric(self):
        with pytest.raises(DataError):
            compute_metrics([pair(["a"], ["a"]), pair(["b"], ["b"])], ["SPICE"])

    @pytest.mark.parametrize("names", [["B-0"], ["B-x"], ["B-5"], ["B-1", "SPICE"], []])
    def test_names_outside_metric_names_error(self, names):
        with pytest.raises(DataError, match="unknown metric"):
            compute_metrics([pair(["a"], ["a"]), pair(["b"], ["b"])], names)

    def test_bad_name_errors_before_any_metric_runs(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a metric ran before the names were checked")

        for name in ("_ngram_stats", "meteor", "rouge_l"):
            monkeypatch.setattr(metrics, name, fail)
        with pytest.raises(DataError, match="unknown metric 'B-0'"):
            compute_metrics([pair(["a"], ["a"]), pair(["b"], ["b"])],
                            ["METEOR", "ROUGE-L", "B-1", "CIDEr", "B-0"])

    def test_none_means_every_metric(self):
        values = compute_metrics([pair(["a"], ["a"]), pair(["b"], ["b"])], None)
        assert list(values) == METRIC_NAMES

    def test_one_pair_leaves_cider_out_unless_it_is_alone(self):
        one = [pair(["a", "b"], ["a", "b"])]
        for names in (None, ["B-1", "CIDEr"], ["CIDEr", "METEOR", "CIDEr"]):
            values = compute_metrics(one, names)
            assert list(values) == [n for n in names or METRIC_NAMES if n != "CIDEr"]
        for names in (["CIDEr"], ["CIDEr", "CIDEr"]):
            with pytest.raises(DataError, match="cider: needs a corpus of at least 2 pairs"):
                compute_metrics(one, names)

    @settings(max_examples=150, deadline=None)
    @given(eval_pairs_st, metric_names_st)
    @example(EDGE_PAIRS, ["CIDEr", "B-2"])
    @example(EDGE_PAIRS, ["B-4"])
    @example(EDGE_PAIRS, ["METEOR"])
    @example(EDGE_PAIRS, METRIC_NAMES)
    def test_one_pass_matches_loop_oracles(self, pairs, names):
        values = compute_metrics(pairs, names)
        assert list(values) == names
        for name in names:
            if name.startswith("B-"):
                assert values[name].hex() == loop_bleu_corpus(pairs, int(name[2:])).hex(), name
            elif name == "CIDEr":
                assert values[name].hex() == loop_cider(pairs).hex()

    @settings(max_examples=100, deadline=None)
    @given(eval_pairs_st, st.integers(1, 6))
    @example(EDGE_PAIRS, 4)
    def test_bleu_corpus_and_cider_match_loop_oracles(self, pairs, order):
        assert bleu_corpus(pairs, order).hex() == loop_bleu_corpus(pairs, order).hex()
        assert cider(pairs, order).hex() == loop_cider(pairs, order).hex()

    def test_golden_pairs_match_loop_oracles(self):
        pairs = golden_pairs()
        values = compute_metrics(pairs, ["B-1", "B-2", "B-3", "B-4", "CIDEr"])
        for order in range(1, 5):
            assert values[f"B-{order}"].hex() == loop_bleu_corpus(pairs, order).hex()
        assert values["CIDEr"].hex() == loop_cider(pairs).hex()


class TestGolden:
    # float.hex of every metric on golden_pairs(), pinned from the textbook
    # LCS table and the double-loop, per-use-stemming METEOR; a faster metric
    # must reproduce them bit for bit
    EXPECTED = {
        "B-1": "0x1.2c2a35ef95b11p-1",
        "B-2": "0x1.f04414dce4a42p-3",
        "B-3": "0x1.d5b4f76637a62p-4",
        "B-4": "0x1.fd03ea012e37cp-5",
        "METEOR": "0x1.18c0838d847dfp-1",
        "ROUGE-L": "0x1.0ce7f424e7f43p-2",
        "CIDEr": "0x1.e40adafd568fap-1",
    }

    def test_golden_values_bit_exact(self):
        pairs = golden_pairs()
        values = compute_metrics(pairs)
        assert {name: v.hex() for name, v in values.items()} == self.EXPECTED

    def test_golden_pairs_cover_every_path(self):
        pairs = golden_pairs()
        stems = _stem_table(pairs)
        kinds = {meteor_alignment(p, stems).search for p in pairs}
        assert kinds == {"exhaustive", "greedy", "budget"}
        assert any(_stage_sizes(p.hypothesis, p.references[0], stems)[1] for p in pairs)
        assert max(len(p.hypothesis) for p in pairs) > 128
