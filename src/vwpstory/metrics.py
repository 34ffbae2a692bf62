"""Reference-based text metrics, implemented from scratch.

BLEU-1..4 (corpus-level, clipped, cumulative geometric mean, no smoothing),
METEOR in the original two-stage exact+stem formulation, ROUGE-L with
beta = 1.2, and plain CIDEr over 1..4-grams scaled by 10. All scores are
computed on token lists in [0, 1] (CIDEr in [0, 10]); reports multiply the
unit-interval metrics by 100.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field

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

def _ngram_counts(tokens: list[str], max_n: int) -> list[Counter]:
    """Counts of the 1..max_n-grams of ``tokens``, one Counter per order, each
    gram keyed in order of first occurrence (CIDEr's float sums run in that
    order)."""
    return [Counter(zip(*(tokens[k:] for k in range(n)))) for n in range(1, max_n + 1)]


@dataclass
class _NgramStats:
    """BLEU's clipped matches and totals per order, its summed lengths, and
    (when asked for) CIDEr's document frequency of every reference n-gram."""

    matches: list[int]
    totals: list[int]
    hyp_len: int
    ref_len: int
    doc_freq: list[Counter] | None


def _ngram_stats(pairs: list[EvalPair], max_n: int, doc_freq: bool = False) -> _NgramStats:
    """One pass over the pairs that counts each sentence's 1..max_n-grams once
    and holds only the current pair's counts. A hypothesis gram is clipped at
    its highest count in any one reference; the reference length is the one
    closest to the hypothesis, the shorter on ties; the union of a pair's
    reference grams is its document for CIDEr."""
    if not pairs:
        raise DataError("bleu_corpus: empty corpus")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    df = [Counter() for _ in range(max_n)] if doc_freq else None
    for pair in pairs:
        c = len(pair.hypothesis)
        hyp_len += c
        ref_len += min((len(r) for r in pair.references),
                       key=lambda rl: (abs(rl - c), rl))
        hyp_counts = _ngram_counts(pair.hypothesis, max_n)
        ref_counts = [_ngram_counts(ref, max_n) for ref in pair.references]
        for n in range(max_n):
            clip = dict(ref_counts[0][n])
            for counts in ref_counts[1:]:
                for gram, count in counts[n].items():
                    if count > clip.get(gram, 0):
                        clip[gram] = count
            if df is not None:
                df[n].update(clip.keys())
            hyp = hyp_counts[n]
            if hyp:
                matches[n] += sum(min(count, clip.get(gram, 0)) for gram, count in hyp.items())
                totals[n] += sum(hyp.values())
    return _NgramStats(matches, totals, hyp_len, ref_len, df)


# --- BLEU -------------------------------------------------------------------

def _bleu(stats: _NgramStats, max_order: int) -> float:
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
    return _bleu(_ngram_stats(pairs, max_order), max_order)


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

def _norm(u: dict) -> float:
    return math.sqrt(sum(x * x for x in u.values()))


def _cosine(u: dict, nu: float, v: dict) -> float:
    """Cosine of ``u`` (norm ``nu``) and ``v``."""
    nv = _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def _check_cider_corpus(pairs: list[EvalPair]) -> None:
    if len(pairs) < 2:
        raise DataError("cider: needs a corpus of at least 2 pairs for IDF")


def _cider(pairs: list[EvalPair], doc_freq: list[Counter]) -> float:
    """Score every order of one pair at a time, recounting its n-grams, and
    average each order's scores in pair order."""
    max_n = len(doc_freq)
    n_images = len(pairs)
    # the IDF of a gram depends only on its document frequency 0..n_images
    idf_of = [max(0.0, math.log(n_images / (1.0 + df))) for df in range(n_images + 1)]

    def tf_idf(counts: Counter, df: Counter) -> dict:
        return {gram: count * idf for gram, count in counts.items()
                if (idf := idf_of[df.get(gram, 0)]) > 0.0}

    order_scores: list[list[float]] = [[] for _ in range(max_n)]
    for pair in pairs:
        hyp_counts = _ngram_counts(pair.hypothesis, max_n)
        ref_counts = [_ngram_counts(ref, max_n) for ref in pair.references]
        for n, df in enumerate(doc_freq):
            hyp_vec = tf_idf(hyp_counts[n], df)
            nu = _norm(hyp_vec)
            sims = [_cosine(hyp_vec, nu, tf_idf(counts[n], df)) for counts in ref_counts]
            order_scores[n].append(sum(sims) / len(sims))
    per_order = [sum(scores) / len(scores) for scores in order_scores]
    return CIDER_SCALE * sum(per_order) / max_n


def cider(pairs: list[EvalPair], max_n: int = CIDER_MAX_N) -> float:
    """Plain consensus metric: TF-IDF n-gram cosine, averaged over orders
    and pairs, scaled by 10. IDF counts images whose references contain the
    n-gram: log(|corpus| / (1 + df)), clamped at zero."""
    _check_cider_corpus(pairs)
    if max_n < 1:
        raise DataError(f"cider: max_n must be at least 1, got {max_n}")
    return _cider(pairs, _ngram_stats(pairs, max_n, doc_freq=True).doc_freq)


# --- suite + multi-seed aggregation ------------------------------------------

# Below this many tokens (hypotheses and references together) both metric
# families run in the caller: a fork + pipe round trip costs about what a
# worker saves on a corpus this size (measured in the README's design notes).
WORKER_MIN_TOKENS = 2000
_ALIGNED = ("METEOR", "ROUGE-L")  # scored pair by pair, no n-gram statistics


def _aligned_scores(pairs: list[EvalPair], names: list[str]) -> dict[str, float]:
    return {name: meteor(pairs) if name == "METEOR" else rouge_l(pairs) for name in names}


def _ngram_scores(pairs: list[EvalPair], names: list[str]) -> dict[str, float]:
    """B-k and CIDEr from one shared n-gram pass."""
    if not names:
        return {}
    orders = [int(name[2:]) for name in names if name.startswith("B-")]
    with_cider = "CIDEr" in names
    stats = _ngram_stats(pairs, max(orders + [CIDER_MAX_N] if with_cider else orders),
                         doc_freq=with_cider)
    return {name: _cider(pairs, stats.doc_freq) if name == "CIDEr" else _bleu(stats, int(name[2:]))
            for name in names}


def _worker_pays(pairs: list[EvalPair]) -> bool:
    """Whether a forked worker can run beside the caller, safely and faster."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    if len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return False
    tokens = sum(len(pair.hypothesis) + sum(map(len, pair.references)) for pair in pairs)
    return tokens >= WORKER_MIN_TOKENS


def _beside_worker(here, there):
    """``here()`` in the caller while a forked child runs ``there()``;
    returns both results. The child leaves only through ``os._exit`` and
    sends its result or its exception back pickled; the exception is raised
    here with its type and message. If ``here`` fails, KeyboardInterrupt
    included, the child is killed. Either way it is reaped before return."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: run both here
        os.close(read_fd)
        os.close(write_fd)
        return here(), there()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, there())
            except BaseException as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            mine = here()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not data:  # the child died, or its exception does not pickle
        raise RuntimeError("metrics worker ended without a result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return mine, theirs


def compute_metrics(pairs: list[EvalPair], names: list[str] | None = None) -> dict[str, float]:
    """All requested metrics on their internal scales, in the order first
    named, each computed once; ``None`` asks for every name in METRIC_NAMES.
    BLEU and CIDEr share one n-gram pass.

    When METEOR or ROUGE-L is asked for beside a B-k or CIDEr, the corpus
    has at least WORKER_MIN_TOKENS tokens, this process may use 2 or more
    CPUs and runs no other thread, a forked worker scores METEOR and
    ROUGE-L while the caller runs the n-gram pass. Each value comes from
    the same function on the same pairs as in the serial path, so it is the
    same bit for bit.

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
    aligned = [name for name in names if name in _ALIGNED]
    counted = [name for name in names if name not in _ALIGNED]
    if aligned and counted and _worker_pays(pairs):
        scores, theirs = _beside_worker(lambda: _ngram_scores(pairs, counted),
                                        lambda: _aligned_scores(pairs, aligned))
        scores.update(theirs)
    else:
        scores = _ngram_scores(pairs, counted)
        scores.update(_aligned_scores(pairs, aligned))
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
