"""Reference-based text metrics, implemented from scratch.

BLEU-1..4 (corpus-level, clipped, cumulative geometric mean, no smoothing),
METEOR in the original two-stage exact+stem formulation, ROUGE-L with
beta = 1.2, and plain CIDEr over 1..4-grams scaled by 10. All scores are
computed on token lists in [0, 1] (CIDEr in [0, 10]); reports multiply the
unit-interval metrics by 100.

BLEU and CIDEr count n-grams in one numpy pass over integer arrays; METEOR
and ROUGE-L score pair by pair in Python. Everything runs in the calling
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import json_list, read_jsonl, token_list, tokenize
from .errors import DataError
from .stem import stem

METEOR_GAMMA = 0.5
METEOR_BETA_EXP = 3
ROUGE_BETA = 1.2
CIDER_MAX_N = 4
CIDER_SCALE = 10.0
METEOR_EXHAUSTIVE_LIMIT = 20  # above this many matches, chunking goes greedy
_SEARCH_NODE_BUDGET = 200_000  # hard stop for degenerate duplicate-heavy pairs

METRIC_NAMES = ["B-1", "B-2", "B-3", "B-4", "METEOR", "ROUGE-L", "CIDEr"]
REPORT_SCALE = {name: (1.0 if name == "CIDEr" else 100.0) for name in METRIC_NAMES}


@dataclass
class EvalPair:
    hypothesis: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise DataError("EvalPair needs at least one reference")


# --- n-gram statistics shared by BLEU and CIDEr -----------------------------

@dataclass
class _NgramTotals:
    """BLEU's clipped matches and totals per order and its summed lengths,
    and CIDEr (``None`` when not asked for)."""

    matches: list[int]
    totals: list[int]
    hyp_len: int
    ref_len: int
    cider: float | None


def _ngram_pass(pairs: list[EvalPair], max_n: int, cider_n: int = 0) -> _NgramTotals:
    """Count every sentence's 1..max_n-grams once, as integer arrays, and
    reduce them to BLEU's totals and, over orders 1..cider_n, to CIDEr.

    The tokens are interned to ids 0..V-1 once. The key of a gram of order n
    is the rank of its first n - 1 tokens among the order n - 1 keys, times
    V, plus its last id, so all sentences' grams of one order are ranked
    together. Every key stays below tokens × V ≤ tokens², and every sentence
    × gram cell below sentences × tokens, far inside int64. Per order, one
    ``np.unique`` gives each sentence's distinct grams with their counts,
    put in order of first occurrence, and the arrays live for that order
    only.

    A hypothesis gram is clipped at its highest count in any one reference;
    the reference length is the one closest to the hypothesis, the shorter
    on ties. CIDEr's document for IDF is a pair's references. Its norms and
    hypothesis-reference dot products are sequential ``np.bincount`` sums
    over each sentence's grams in order of first occurrence (the
    hypothesis's, for a dot product), and the means over pairs are Python
    sums, so CIDEr equals a left-to-right loop over dicts bit for bit.
    """
    if not pairs:
        raise DataError("bleu_corpus: empty corpus")
    hyp_len = ref_len = 0
    for pair in pairs:
        c = len(pair.hypothesis)
        hyp_len += c
        ref_len += min((len(r) for r in pair.references),
                       key=lambda rl: (abs(rl - c), rl))
    sentences = [s for pair in pairs for s in (pair.hypothesis, *pair.references)]
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    n_refs = np.array([len(pair.references) for pair in pairs], dtype=np.int64)
    pair_of = np.repeat(np.arange(len(pairs)), n_refs + 1)  # per sentence
    hyp_sent = np.cumsum(n_refs + 1) - n_refs - 1  # each pair's hypothesis sentence
    is_hyp = np.zeros(len(sentences), dtype=bool)
    is_hyp[hyp_sent] = True
    ref_sent = np.flatnonzero(~is_hyp)
    tokens = list(chain.from_iterable(sentences))
    vocab = {w: i for i, w in enumerate(dict.fromkeys(tokens))}
    ids = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    sent_of = np.repeat(np.arange(len(sentences)), lengths)  # per token
    end_of = np.repeat(np.cumsum(lengths), lengths)  # per token: its sentence's end
    # the IDF of a gram depends only on its document frequency 0..len(pairs)
    idf_of = np.array([max(0.0, math.log(len(pairs) / (1.0 + df)))
                       for df in range(len(pairs) + 1)])

    matches: list[int] = []
    totals: list[int] = []
    per_order: list[float] = []
    start = np.arange(len(ids))  # where each gram of the current order starts
    rank = np.zeros(len(ids), dtype=np.int64)  # of its first n - 1 tokens
    for n in range(1, max_n + 1):
        keep = start + n <= end_of[start]
        start = start[keep]
        grams, rank = np.unique(rank[keep] * len(vocab) + ids[start + n - 1],
                                return_inverse=True)
        sent = sent_of[start]
        _, first, count = np.unique(sent * len(grams) + rank,
                                    return_index=True, return_counts=True)
        by_first = np.argsort(first)  # sentence by sentence, grams by first occurrence
        first, count = first[by_first], count[by_first]
        e_sent, e_gram = sent[first], rank[first]  # one entry per sentence and gram
        e_hyp = is_hyp[e_sent]
        # one cell per pair and gram
        cells, cell = np.unique(pair_of[e_sent] * len(grams) + e_gram, return_inverse=True)
        clip = np.zeros(len(cells), dtype=np.int64)
        np.maximum.at(clip, cell[~e_hyp], count[~e_hyp])
        hyp_count = np.zeros(len(cells), dtype=np.int64)
        hyp_count[cell[e_hyp]] = count[e_hyp]
        matches.append(int(np.minimum(hyp_count, clip).sum()))
        totals.append(int(hyp_count.sum()))
        if n > cider_n:
            continue
        # document frequency: the pairs whose references hold the gram
        df = np.bincount(cells[clip > 0] % len(grams), minlength=len(grams))
        x = count * idf_of[df[e_gram]]
        norm = np.sqrt(np.bincount(e_sent, weights=x * x, minlength=len(sentences)))
        hyp_entry = np.full(len(cells), -1)
        hyp_entry[cell[e_hyp]] = np.flatnonzero(e_hyp)
        shared = np.flatnonzero(~e_hyp & (hyp_entry[cell] >= 0))
        h = hyp_entry[cell[shared]]
        # each reference's shared grams in the hypothesis's order
        in_hyp_order = np.argsort(e_sent[shared] * len(e_sent) + h)
        shared, h = shared[in_hyp_order], h[in_hyp_order]
        dot = np.bincount(e_sent[shared], weights=x[h] * x[shared], minlength=len(sentences))
        nu, nv = norm[hyp_sent[pair_of[ref_sent]]], norm[ref_sent]
        cosine = np.zeros(len(ref_sent))
        np.divide(dot[ref_sent], nu * nv, out=cosine, where=(nu != 0.0) & (nv != 0.0))
        mean_cosine = np.bincount(pair_of[ref_sent], weights=cosine, minlength=len(pairs)) / n_refs
        per_order.append(sum(mean_cosine.tolist()) / len(pairs))
    cider_value = CIDER_SCALE * sum(per_order) / cider_n if cider_n else None
    return _NgramTotals(matches, totals, hyp_len, ref_len, cider_value)


# --- BLEU -------------------------------------------------------------------

def _bleu(stats: _NgramTotals, max_order: int) -> float:
    log_sum = 0.0
    for n in range(max_order):
        if stats.totals[n] == 0 or stats.matches[n] == 0:
            return 0.0
        log_sum += math.log(stats.matches[n] / stats.totals[n])
    hyp_len, ref_len = stats.hyp_len, stats.ref_len
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    if hyp_len == 0:
        return 0.0
    return bp * math.exp(log_sum / max_order)


def bleu_corpus(pairs: list[EvalPair], max_order: int = 4) -> float:
    """Cumulative corpus BLEU: geometric mean of clipped precisions 1..max_order
    times the brevity penalty (closest-reference length, shorter on ties)."""
    if max_order < 1:
        raise DataError(f"bleu_corpus: max_order must be at least 1, got {max_order}")
    return _bleu(_ngram_pass(pairs, max_order), max_order)


# --- METEOR -----------------------------------------------------------------

@dataclass
class MeteorAlignment:
    """METEOR counts of one alignment, or pooled over a corpus. ``search``
    says how the chunk count was found: "exhaustive" (a finished search, so
    the count is minimal), "greedy" (more than METEOR_EXHAUSTIVE_LIMIT
    matches) or "budget" (the search ran out of nodes, so the count may not
    be minimal)."""

    matches: int
    chunks: int
    hyp_len: int
    ref_len: int
    search: str = "exhaustive"

    def score(self) -> float:
        if self.matches == 0 or self.hyp_len == 0 or self.ref_len == 0:
            return 0.0
        p = self.matches / self.hyp_len
        r = self.matches / self.ref_len
        f_mean = 10.0 * p * r / (r + 9.0 * p)
        penalty = METEOR_GAMMA * (self.chunks / self.matches) ** METEOR_BETA_EXP
        return f_mean * (1.0 - penalty)


def _stem_table(pairs: list[EvalPair]) -> dict[str, str]:
    """The stem of every distinct word in the pairs, one stemmer call each."""
    words = {w for pair in pairs for tokens in (pair.hypothesis, *pair.references)
             for w in tokens}
    return {w: stem(w) for w in words}


def _stage_sizes(hyp: list[str], ref: list[str], stems: dict[str, str]) -> tuple[int, int]:
    """Sizes of the exact-stage and residual stem-stage maximum matchings."""
    surplus: dict[str, int] = {}  # hypothesis count minus reference count, per word
    for w in hyp:
        surplus[w] = surplus.get(w, 0) + 1
    exact = 0
    for w in ref:
        n = surplus.get(w, 0)
        if n > 0:
            exact += 1
        surplus[w] = n - 1
    resid_h: dict[str, int] = {}
    resid_r: dict[str, int] = {}
    for w, n in surplus.items():
        if n > 0:
            resid_h[stems[w]] = resid_h.get(stems[w], 0) + n
        elif n < 0:
            resid_r[stems[w]] = resid_r.get(stems[w], 0) - n
    stemmed = sum(min(n, resid_r.get(s, 0)) for s, n in resid_h.items())
    return exact, stemmed


def _candidates(hyp: list[str], ref: list[str],
                stems: dict[str, str]) -> list[list[tuple[int, bool]]]:
    """For each hypothesis position, the reference positions with the same
    stem in increasing order, each flagged True when the words are equal."""
    by_stem: dict[str, list[int]] = {}
    for j, word in enumerate(ref):
        by_stem.setdefault(stems[word], []).append(j)
    return [[(j, ref[j] == word) for j in by_stem.get(stems[word], ())] for word in hyp]


def _count_chunks(pairs: list[tuple[int, int]]) -> int:
    chunks, prev = 0, None
    for i, j in sorted(pairs):
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def _greedy_alignment(candidates, m_exact, m_stem) -> list[tuple[int, int]]:
    """In-order assignment, exact pairs first, preferring run continuations."""
    used: set[int] = set()
    matched: set[int] = set()
    chosen: list[tuple[int, int]] = []
    for want_exact, budget in ((True, m_exact), (False, m_stem)):
        taken = 0
        last_j = None
        for i, cands in enumerate(candidates):
            if taken >= budget or i in matched:
                continue
            options = [j for j, is_exact in cands
                       if is_exact == want_exact and j not in used]
            if not options:
                continue
            j = last_j + 1 if last_j is not None and last_j + 1 in options else options[0]
            used.add(j)
            matched.add(i)
            chosen.append((i, j))
            last_j = j
            taken += 1
    return chosen


def _min_chunk_alignment(hyp: list[str], ref: list[str],
                         stems: dict[str, str]) -> MeteorAlignment:
    """Stage-maximal matching with the fewest chunks.

    ``stems`` maps every word of both sides to its stem. Candidate pairs are
    the reference positions sharing a hypothesis word's stem, exact ones
    flagged. The in-order greedy assignment always reaches the stage-maximal
    counts, so its chunk count bounds the minimum from above; above
    METEOR_EXHAUSTIVE_LIMIT matches it is the result. Otherwise a
    branch-and-bound search looks for strictly fewer chunks. It cuts a node
    when its chunks plus a lower bound on the chunks still to come reach the
    best count so far. Each match still needed opens a chunk unless it
    extends a run, and a run can extend into position p + 1 only where some
    candidate j of p has j + 1 among the candidates of p + 1 (``links``
    counts those p), or at the current position when the current run's next
    reference position is a free candidate there; the first new match opens
    a chunk unless it is that continuation. The search stops after
    _SEARCH_NODE_BUDGET nodes against degenerate duplicate-heavy inputs and
    keeps the best count found so far. ``search`` on the result records
    which of the three happened.
    """
    m_exact, m_stem = _stage_sizes(hyp, ref, stems)
    m_total = m_exact + m_stem
    if m_total == 0:
        return MeteorAlignment(0, 0, len(hyp), len(ref))
    candidates = _candidates(hyp, ref, stems)
    greedy_chunks = _count_chunks(_greedy_alignment(candidates, m_exact, m_stem))
    if m_total > METEOR_EXHAUSTIVE_LIMIT:
        return MeteorAlignment(m_total, greedy_chunks, len(hyp), len(ref), "greedy")

    n_hyp = len(hyp)
    masks = [sum(1 << j for j, _ in cands) for cands in candidates]
    # links[i]: positions p >= i with a candidate j whose j + 1 is a candidate of p + 1
    links = [0] * n_hyp
    for p in range(n_hyp - 2, -1, -1):
        links[p] = links[p + 1] + bool((masks[p] << 1) & masks[p + 1])
    best = greedy_chunks
    nodes = 0

    def search(i, used, n_matched, n_exact, last_i, last_j, chunks):
        nonlocal best, nodes
        if chunks >= best:
            return
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            return
        remaining = n_hyp - i
        if n_matched + remaining < m_total or n_exact + remaining < m_exact:
            return
        if i == n_hyp:
            if n_matched == m_total and n_exact == m_exact:
                best = chunks
            return
        need = m_total - n_matched
        cont = last_i == i - 1 and (masks[i] & ~used) >> (last_j + 1) & 1
        if need and chunks + max(need - links[i] - cont, 0 if cont else 1) >= best:
            return
        ordered = candidates[i]
        if cont:
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
    kind = "budget" if nodes > _SEARCH_NODE_BUDGET else "exhaustive"
    return MeteorAlignment(m_total, best, len(hyp), len(ref), kind)


def meteor_alignment(pair: EvalPair, stems: dict[str, str] | None = None) -> MeteorAlignment:
    """Best-reference alignment for one pair (highest segment score wins).
    ``stems`` must cover every word of the pair; by default it is built here."""
    if stems is None:
        stems = _stem_table([pair])
    best: MeteorAlignment | None = None
    for ref in pair.references:
        cand = _min_chunk_alignment(pair.hypothesis, ref, stems)
        if best is None or cand.score() > best.score():
            best = cand
    return best


def meteor_totals(pairs: list[EvalPair]) -> tuple[MeteorAlignment, dict[str, int]]:
    """The pairs' best-reference alignments pooled into one MeteorAlignment
    (m, chunks and lengths summed), and how many pairs had their chunk count
    found by each ``search`` kind. The pool's own ``search`` field keeps its
    default; the counts are what say how its segments were found."""
    if not pairs:
        raise DataError("meteor: empty corpus")
    stems = _stem_table(pairs)
    total = MeteorAlignment(0, 0, 0, 0)
    kinds = {"exhaustive": 0, "greedy": 0, "budget": 0}
    for pair in pairs:
        seg = meteor_alignment(pair, stems)
        total.matches += seg.matches
        total.chunks += seg.chunks
        total.hyp_len += seg.hyp_len
        total.ref_len += seg.ref_len
        kinds[seg.search] += 1
    return total, kinds


def meteor(pairs: list[EvalPair]) -> float:
    """Corpus METEOR: m, chunks, and lengths are pooled before the final
    F-mean/penalty formula."""
    return meteor_totals(pairs)[0].score()


# --- ROUGE-L ----------------------------------------------------------------

def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix, 1986). After each token of
    ``a``, bit j of ``v`` is clear where the DP row steps up at position j of
    ``b``, so the LCS is the number of clear bits."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(pairs: list[EvalPair]) -> float:
    """Mean over pairs of the best-reference LCS F-score (beta ROUGE_BETA)."""
    if not pairs:
        raise DataError("rouge_l: empty corpus")
    beta2 = ROUGE_BETA * ROUGE_BETA
    scores = []
    for pair in pairs:
        best = 0.0
        for ref in pair.references:
            lcs = _lcs_length(pair.hypothesis, ref)
            if lcs == 0 or not pair.hypothesis or not ref:
                continue
            r = lcs / len(ref)
            p = lcs / len(pair.hypothesis)
            best = max(best, (1 + beta2) * r * p / (r + beta2 * p))
        scores.append(best)
    return sum(scores) / len(scores)


# --- CIDEr ------------------------------------------------------------------

def _check_cider_corpus(pairs: list[EvalPair]) -> None:
    if len(pairs) < 2:
        raise DataError("cider: needs a corpus of at least 2 pairs for IDF")


def cider(pairs: list[EvalPair], max_n: int = CIDER_MAX_N) -> float:
    """Plain consensus metric: TF-IDF n-gram cosine, averaged over orders
    and pairs, scaled by 10. IDF counts images whose references contain the
    n-gram: log(|corpus| / (1 + df)), clamped at zero."""
    _check_cider_corpus(pairs)
    if max_n < 1:
        raise DataError(f"cider: max_n must be at least 1, got {max_n}")
    return _ngram_pass(pairs, max_n, max_n).cider


# --- suite + multi-seed aggregation ------------------------------------------

def _ngram_scores(pairs: list[EvalPair], names: list[str]) -> dict[str, float]:
    """B-k and CIDEr from one shared n-gram pass."""
    if not names:
        return {}
    orders = [int(name[2:]) for name in names if name.startswith("B-")]
    cider_n = CIDER_MAX_N if "CIDEr" in names else 0
    totals = _ngram_pass(pairs, max(orders + [cider_n]), cider_n)
    return {name: totals.cider if name == "CIDEr" else _bleu(totals, int(name[2:]))
            for name in names}


def compute_metrics(pairs: list[EvalPair], names: list[str] | None = None) -> dict[str, float]:
    """All requested metrics on their internal scales, in the order first
    named, each computed once; ``None`` asks for every name in METRIC_NAMES.
    BLEU and CIDEr share one n-gram pass, which runs first; METEOR and
    ROUGE-L then score the pairs one by one, in the order named.

    CIDEr's IDF needs at least two pairs: on fewer, CIDEr is left out of the
    result when other metrics are requested, and asked for alone it raises.
    """
    if names is None:
        names = METRIC_NAMES
    unknown = [name for name in names if name not in METRIC_NAMES]
    if unknown or not names:
        what = repr(unknown[0]) if unknown else "list []"
        raise DataError(f"unknown metric {what}; expected names from {', '.join(METRIC_NAMES)}")
    names = list(dict.fromkeys(names))
    others = [name for name in names if name != "CIDEr"]
    if len(pairs) < 2 and others:
        names = others
    if "CIDEr" in names:
        _check_cider_corpus(pairs)
    aligned = {"METEOR": meteor, "ROUGE-L": rouge_l}  # scored pair by pair
    scores = _ngram_scores(pairs, [name for name in names if name not in aligned])
    scores.update({name: aligned[name](pairs) for name in names if name in aligned})
    return {name: scores[name] for name in names}


@dataclass
class MetricStat:
    mean: float
    std: float
    band: str = ""
    zero_variance_flag: bool = False


@dataclass
class MetricReport:
    reference: str
    systems: dict[str, dict[str, MetricStat]] = field(default_factory=dict)


def _band(delta: float, ref_std: float) -> tuple[str, bool]:
    if ref_std == 0.0:
        return ("**", True) if delta > 0.0 else ("", False)
    ratio = delta / ref_std
    if ratio >= 3.0:
        return "**", False
    if ratio >= 2.0:
        return "*", False
    if ratio >= 1.0:
        return "+", False
    return "", False


def mean_std(values: list[float]) -> tuple[float, float]:
    """Population mean and standard deviation of per-seed scores."""
    mean = sum(values) / len(values)
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def aggregate_runs(scores: dict[str, dict[str, list[float]]],
                   reference: str) -> MetricReport:
    """Mean/std over seeds per system, with distance bands vs the reference
    system: +, *, ** for at least 1, 2, 3 reference standard deviations."""
    if reference not in scores:
        raise DataError(f"reference system {reference!r} not among scores")
    for system, metrics in scores.items():
        for metric, values in metrics.items():
            if not values:
                raise DataError(f"{system}/{metric}: no per-seed scores")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    raise DataError(f"{system}/{metric}: per-seed score {value!r} "
                                    "is not a finite number")
    stats = {system: {metric: mean_std(values) for metric, values in metrics.items()}
             for system, metrics in scores.items()}
    report = MetricReport(reference=reference)
    for system, metrics in stats.items():
        report.systems[system] = {}
        for metric, (mean, std) in metrics.items():
            if system == reference or metric not in stats[reference]:
                band, flag = "", False
            else:
                ref_mean, ref_std = stats[reference][metric]
                band, flag = _band(abs(mean - ref_mean), ref_std)
            report.systems[system][metric] = MetricStat(mean, std, band, flag)
    return report


def _display_order(name: str) -> tuple[int, str]:
    """Sort key: METRIC_NAMES in their order, then any other name by name."""
    return (METRIC_NAMES.index(name) if name in METRIC_NAMES else len(METRIC_NAMES), name)


def report_text(report: MetricReport) -> str:
    metric_names = sorted({m for stats in report.systems.values() for m in stats},
                          key=_display_order)
    width = max([len(s) for s in report.systems] + [len("system")])
    header = "system".ljust(width) + "".join(f"  {m:>14}" for m in metric_names)
    lines = [header, "-" * len(header)]
    for system in sorted(report.systems):
        row = system.ljust(width)
        for metric in metric_names:
            stat = report.systems[system].get(metric)
            if stat is None:
                row += f"  {'-':>14}"
                continue
            scale = REPORT_SCALE.get(metric, 1.0)
            cell = f"{stat.mean * scale:.2f}±{stat.std * scale:.2f}{stat.band}"
            row += f"  {cell:>14}"
        lines.append(row)
    lines.append(f"reference system: {report.reference} "
                 "(+/*/** = at least 1/2/3 reference std deviations away)")
    return "\n".join(lines) + "\n"


def scores_text(values: dict[str, float]) -> str:
    lines = []
    for name in sorted(values, key=_display_order):
        scale = REPORT_SCALE.get(name, 1.0)
        lines.append(f"{name:>8}  {values[name] * scale:8.2f}")
    return "\n".join(lines) + "\n"


def load_eval_pairs(path) -> list[EvalPair]:
    """JSON Lines of {id, hypothesis, references}: the hypothesis a string or
    a token list, the references a list of strings or token lists (see
    ``corpus.token_list`` for what a token list may hold)."""
    def as_tokens(value, what: str) -> list[str]:
        if isinstance(value, str):
            return tokenize(value)
        if isinstance(value, list):
            return token_list(value, what)
        raise DataError(f"{what} must be a string or a list, got {type(value).__name__}")

    def pair(payload: dict) -> EvalPair:
        references = json_list(payload["references"], "references")
        return EvalPair(hypothesis=as_tokens(payload["hypothesis"], "hypothesis"),
                        references=[as_tokens(r, "a reference") for r in references])
    return read_jsonl(path, pair, "eval pair")
