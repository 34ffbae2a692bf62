"""Reference-based text metrics, implemented from scratch.

BLEU-1..4 (corpus-level, clipped, cumulative geometric mean, no smoothing),
METEOR in the original two-stage exact+stem formulation, ROUGE-L with
beta = 1.2, and plain CIDEr over 1..4-grams scaled by 10. All scores are
computed on token lists in [0, 1] (CIDEr in [0, 10]); reports multiply the
unit-interval metrics by 100.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

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


# --- BLEU -------------------------------------------------------------------

def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


def bleu_corpus(pairs: list[EvalPair], max_order: int = 4) -> float:
    """Cumulative corpus BLEU: geometric mean of clipped precisions 1..max_order
    times the brevity penalty (closest-reference length, shorter on ties)."""
    if not pairs:
        raise DataError("bleu_corpus: empty corpus")
    matches = [0] * max_order
    totals = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for pair in pairs:
        c = len(pair.hypothesis)
        hyp_len += c
        ref_len += min((len(r) for r in pair.references),
                       key=lambda rl: (abs(rl - c), rl))
        for n in range(1, max_order + 1):
            hyp_counts = _ngrams(pair.hypothesis, n)
            if not hyp_counts:
                continue
            clip = Counter()
            for ref in pair.references:
                clip |= _ngrams(ref, n)
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
    h_counts, r_counts = Counter(hyp), Counter(ref)
    exact = sum((h_counts & r_counts).values())
    resid_h = Counter(stems[w] for w in (h_counts - r_counts).elements())
    resid_r = Counter(stems[w] for w in (r_counts - h_counts).elements())
    stemmed = sum((resid_h & resid_r).values())
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
    flagged. With at most METEOR_EXHAUSTIVE_LIMIT matches a branch-and-bound
    search finds the minimum chunk count; it stops after _SEARCH_NODE_BUDGET
    nodes against degenerate duplicate-heavy inputs and keeps the best count
    found so far, or the greedy count if it found none. Above the limit the
    in-order greedy assignment is used. ``search`` on the result records
    which of the three happened.
    """
    m_exact, m_stem = _stage_sizes(hyp, ref, stems)
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


def meteor(pairs: list[EvalPair]) -> float:
    """Corpus METEOR: m, chunks, and lengths are pooled before the final
    F-mean/penalty formula."""
    if not pairs:
        raise DataError("meteor: empty corpus")
    stems = _stem_table(pairs)
    total = MeteorAlignment(0, 0, 0, 0)
    for pair in pairs:
        seg = meteor_alignment(pair, stems)
        total.matches += seg.matches
        total.chunks += seg.chunks
        total.hyp_len += seg.hyp_len
        total.ref_len += seg.ref_len
    return total.score()


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


def rouge_l(pairs: list[EvalPair], beta: float = ROUGE_BETA) -> float:
    """Mean over pairs of the best-reference LCS F-score."""
    if not pairs:
        raise DataError("rouge_l: empty corpus")
    beta2 = beta * beta
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

def _cosine(u: dict, v: dict) -> float:
    nu = math.sqrt(sum(x * x for x in u.values()))
    nv = math.sqrt(sum(x * x for x in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def cider(pairs: list[EvalPair], max_n: int = CIDER_MAX_N) -> float:
    """Plain consensus metric: TF-IDF n-gram cosine, averaged over orders
    and pairs, scaled by 10. IDF counts images whose references contain the
    n-gram: log(|corpus| / (1 + df)), clamped at zero."""
    if len(pairs) < 2:
        raise DataError("cider: needs a corpus of at least 2 pairs for IDF")
    n_images = len(pairs)
    doc_freq: list[Counter] = [Counter() for _ in range(max_n)]
    for pair in pairs:
        for n in range(1, max_n + 1):
            grams = set()
            for ref in pair.references:
                grams.update(_ngrams(ref, n))
            doc_freq[n - 1].update(grams)

    def tf_idf(tokens: list[str], n: int) -> dict:
        counts = _ngrams(tokens, n)
        vec = {}
        for gram, count in counts.items():
            idf = max(0.0, math.log(n_images / (1.0 + doc_freq[n - 1][gram])))
            if idf > 0.0:
                vec[gram] = count * idf
        return vec

    per_order = []
    for n in range(1, max_n + 1):
        order_scores = []
        for pair in pairs:
            hyp_vec = tf_idf(pair.hypothesis, n)
            sims = [_cosine(hyp_vec, tf_idf(ref, n)) for ref in pair.references]
            order_scores.append(sum(sims) / len(sims))
        per_order.append(sum(order_scores) / len(order_scores))
    return CIDER_SCALE * sum(per_order) / max_n


# --- suite + multi-seed aggregation ------------------------------------------

def compute_metrics(pairs: list[EvalPair], names: list[str] | None = None) -> dict[str, float]:
    """All requested metrics on their internal scales."""
    names = names or METRIC_NAMES
    out: dict[str, float] = {}
    for name in names:
        if name.startswith("B-"):
            out[name] = bleu_corpus(pairs, max_order=int(name[2:]))
        elif name == "METEOR":
            out[name] = meteor(pairs)
        elif name == "ROUGE-L":
            out[name] = rouge_l(pairs)
        elif name == "CIDEr":
            out[name] = cider(pairs)
        else:
            raise DataError(f"unknown metric {name!r}")
    return out


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

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "systems": {
                system: {
                    metric: {
                        "mean": stat.mean, "std": stat.std, "band": stat.band,
                        "zero_variance_flag": stat.zero_variance_flag,
                    }
                    for metric, stat in metrics.items()
                }
                for system, metrics in self.systems.items()
            },
        }


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


def report_text(report: MetricReport) -> str:
    metric_names = sorted({m for stats in report.systems.values() for m in stats},
                          key=lambda m: (METRIC_NAMES.index(m) if m in METRIC_NAMES else 99, m))
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
    for name in sorted(values, key=lambda m: (METRIC_NAMES.index(m) if m in METRIC_NAMES else 99, m)):
        scale = REPORT_SCALE.get(name, 1.0)
        lines.append(f"{name:>8}  {values[name] * scale:8.2f}")
    return "\n".join(lines) + "\n"


def load_eval_pairs(path) -> list[EvalPair]:
    """JSON Lines of {id, hypothesis, references}; token lists or strings."""
    from .corpus import tokenize

    def as_tokens(value):
        return tokenize(value) if isinstance(value, str) else [str(t) for t in value]

    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                pairs.append(EvalPair(
                    hypothesis=as_tokens(payload["hypothesis"]),
                    references=[as_tokens(r) for r in payload["references"]],
                ))
            except (KeyError, json.JSONDecodeError) as exc:
                raise DataError(f"{path}:{lineno}: bad eval pair ({exc})") from exc
    if not pairs:
        raise DataError(f"{path}: no eval pairs")
    return pairs
