"""Corpus-level coherence, diversity, groundedness, and review planning.

Inputs are annotated stories: surface tokens, SRL events (predicate lemmas
plus argument token sets), an optional sentences-by-entities role grid, and
groundedness labels. One story per JSON line; see ``load_annotated``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from itertools import combinations

from .corpus import json_list, placeholder_kind, read_jsonl, string_list, text_field, token_list
from .errors import DataError

ROLES = ("S", "O", "X", "-")
GROUNDEDNESS_KINDS = ("event", "argument")
GROUNDEDNESS_LABELS = ("Grounded", "Inferred", "Hallucinated")
ARG_ROLES = ("arg0", "arg1", "arg2", "arg-loc")
JACCARD_ROLES = ("predicates", "characters", "arguments") + ARG_ROLES
PREDICATE_NGRAM_ORDERS = (1, 2, 3)


@dataclass
class EntityRoleGrid:
    """Sentences-by-entities grid of grammatical roles (S/O/X/-)."""
    entities: list[str]
    rows: list[list[str]]

    def __post_init__(self):
        width = len(self.entities)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise DataError(f"entity grid row {i} has {len(row)} cells, expected {width}")
            for cell in row:
                if cell not in ROLES:
                    raise DataError(f"entity grid cell {cell!r} not in {ROLES}")


@dataclass
class EntityGridModel:
    """Generative role-transition model: p(role | previous h roles)."""
    history: int
    alpha: float
    counts: dict[tuple[str, ...], Counter] = field(default_factory=dict)

    def prob(self, context: tuple[str, ...], role: str) -> float:
        if role not in ROLES:
            raise DataError(f"unknown role {role!r}")
        ctx = self.counts.get(tuple(context), None)
        total = sum(ctx.values()) if ctx else 0
        count = ctx[role] if ctx else 0
        return (count + self.alpha) / (total + len(ROLES) * self.alpha)


def _column_contexts(column: list[str], history: int):
    padded = ["-"] * history + list(column)
    for i in range(len(column)):
        yield tuple(padded[i:i + history]), column[i]


def train_entity_grid(grids: list[EntityRoleGrid], history: int = 2,
                      alpha: float = 0.1) -> EntityGridModel:
    """Accumulate (context -> next role) counts per entity column, with
    start padding '-', under add-alpha smoothing."""
    if not grids:
        raise DataError("train_entity_grid: empty corpus")
    if history < 0:
        raise DataError("history must be non-negative")
    if alpha <= 0:
        raise DataError("smoothing alpha must be positive")
    model = EntityGridModel(history=history, alpha=alpha)
    for grid in grids:
        for col in range(len(grid.entities)):
            column = [row[col] for row in grid.rows]
            for context, role in _column_contexts(column, history):
                model.counts.setdefault(context, Counter())[role] += 1
    return model


@dataclass
class CoherenceScore:
    ll: float
    avg_ll: float
    cells: int


def score_coherence(model: EntityGridModel, grid: EntityRoleGrid) -> CoherenceScore:
    """Log-likelihood of the grid's role transitions, and per-cell average."""
    ll = 0.0
    cells = 0
    for col in range(len(grid.entities)):
        column = [row[col] for row in grid.rows]
        for context, role in _column_contexts(column, model.history):
            ll += math.log(model.prob(context, role))
            cells += 1
    return CoherenceScore(ll=ll, avg_ll=ll / cells if cells else 0.0, cells=cells)


# --- SRL-based similarity and diversity --------------------------------------

@dataclass
class SRLStory:
    """Per-story event structure: ordered predicate lemmas plus token sets
    for characters and each argument role."""
    predicates: list[str]
    args: dict[str, set[str]] = field(default_factory=dict)
    characters: set[str] = field(default_factory=set)

    def role_set(self, role: str) -> set[str]:
        if role == "predicates":
            return set(self.predicates)
        if role == "characters":
            return set(self.characters)
        if role == "arguments":
            out: set[str] = set()
            for r in ARG_ROLES:
                out |= self.args.get(r, set())
            return out
        return set(self.args.get(role, set()))


def jaccard(a: set, b: set) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


@dataclass
class JaccardReport:
    per_role: dict[str, float]
    sequences_used: int
    sequences_skipped: int


def jaccard_similarity(groups: dict[str, list[SRLStory]]) -> JaccardReport:
    """Mean over sequences of the mean pairwise Jaccard for each role.

    Sequences with fewer than two stories are skipped but counted.
    """
    sums = {role: 0.0 for role in JACCARD_ROLES}
    used = 0
    skipped = 0
    for _, stories in sorted(groups.items()):
        if len(stories) < 2:
            skipped += 1
            continue
        used += 1
        for role in JACCARD_ROLES:
            pair_scores = [jaccard(a.role_set(role), b.role_set(role))
                           for a, b in combinations(stories, 2)]
            sums[role] += sum(pair_scores) / len(pair_scores)
    per_role = {role: (sums[role] / used if used else 0.0) for role in JACCARD_ROLES}
    return JaccardReport(per_role=per_role, sequences_used=used, sequences_skipped=skipped)


@dataclass
class DiversityReport:
    vocab_size: int
    unique_verbs: int
    verb_vocab_ratio: float
    verb_token_ratio: float
    diverse_verb_ratio: float
    top_verbs: list[str]


def event_diversity(stories: list[SRLStory], token_streams: list[list[str]]) -> DiversityReport:
    """Verb/vocabulary counts plus the share of verb occurrences outside the
    top 5 most frequent lemmas (rank-5 ties broken lexicographically)."""
    vocab: set[str] = set()
    total_tokens = 0
    for tokens in token_streams:
        vocab.update(tokens)
        total_tokens += len(tokens)
    verb_counts: Counter[str] = Counter()
    for story in stories:
        verb_counts.update(story.predicates)
    total_verbs = sum(verb_counts.values())
    top5 = [lemma for lemma, _ in
            sorted(verb_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]]
    diverse = sum(count for lemma, count in verb_counts.items() if lemma not in top5)
    return DiversityReport(
        vocab_size=len(vocab),
        unique_verbs=len(verb_counts),
        verb_vocab_ratio=len(verb_counts) / len(vocab) if vocab else 0.0,
        verb_token_ratio=len(verb_counts) / total_tokens if total_tokens else 0.0,
        diverse_verb_ratio=diverse / total_verbs if total_verbs else 0.0,
        top_verbs=top5,
    )


def predicate_ngram_diversity(stories: list[SRLStory]) -> dict[int, float]:
    """unique:total ratio of predicate n-grams for each of PREDICATE_NGRAM_ORDERS;
    n-grams never cross stories."""
    if not stories:
        raise DataError("predicate_ngram_diversity: empty corpus")
    out: dict[int, float] = {}
    for n in PREDICATE_NGRAM_ORDERS:
        seen: set[tuple[str, ...]] = set()
        total = 0
        for story in stories:
            preds = story.predicates
            for i in range(len(preds) - n + 1):
                seen.add(tuple(preds[i:i + n]))
                total += 1
        out[n] = len(seen) / total if total else 0.0
    return out


# --- groundedness -------------------------------------------------------------

@dataclass
class GroundednessAnnotation:
    kind: str
    label: str

    def __post_init__(self):
        if self.kind not in GROUNDEDNESS_KINDS:
            raise DataError(f"groundedness kind {self.kind!r} not in {GROUNDEDNESS_KINDS}")
        if self.label == "Hallucianted":  # historical misspelling, accepted on ingest
            self.label = "Hallucinated"
        if self.label not in GROUNDEDNESS_LABELS:
            raise DataError(f"groundedness label {self.label!r} not in {GROUNDEDNESS_LABELS}")


def round_half_up_percent(count: int, total: int) -> float:
    """count/total as a percentage, half-up to one decimal, exact in Decimal."""
    if total == 0:
        return 0.0
    pct = Decimal(count) * Decimal(100) / Decimal(total)
    return float(pct.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def groundedness_table(annotations: list[GroundednessAnnotation]) -> dict:
    """Counts and 1-decimal percentages per (kind, label); kinds with no
    annotations are omitted so no division ever happens on empty input."""
    table: dict[str, dict] = {}
    for kind in GROUNDEDNESS_KINDS:
        of_kind = [a for a in annotations if a.kind == kind]
        if not of_kind:
            continue
        counts = Counter(a.label for a in of_kind)
        total = len(of_kind)
        table[kind] = {
            "total": total,
            "counts": {label: counts.get(label, 0) for label in GROUNDEDNESS_LABELS},
            "percentages": {label: round_half_up_percent(counts.get(label, 0), total)
                            for label in GROUNDEDNESS_LABELS},
        }
    return table


# --- data-collection planning --------------------------------------------------

@dataclass
class WorkerStats:
    worker_id: str
    acceptance_rate: float
    avg_quality: float
    accepted: int
    n_w: int

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise DataError(f"acceptance rate {self.acceptance_rate} outside [0, 1]")
        if not 1.0 <= self.avg_quality <= 5.0:
            raise DataError(f"average quality {self.avg_quality} outside [1, 5]")
        if self.accepted < 0 or self.n_w < 0:
            raise DataError("accepted and n_w must be non-negative")


def plan_review_sample(stats: WorkerStats, cap_at_written: bool = True) -> int:
    """Stories to review for one worker this batch: 10 below 10 stories,
    ceil(10 * log10(n_w)) from there.

    By default the result never exceeds what the worker actually wrote;
    pass cap_at_written=False for the raw branch formula.
    """
    n_w = stats.n_w
    s = 10 if n_w < 10 else math.ceil(10.0 * math.log10(n_w))
    return min(s, n_w) if cap_at_written else s


def qualify(stats: WorkerStats) -> bool:
    """Acceptance at least 90%, quality strictly above 3.1, at least 5 accepted."""
    return (stats.acceptance_rate >= 0.90
            and stats.avg_quality > 3.1
            and stats.accepted >= 5)


# --- corpus statistics ----------------------------------------------------------

@dataclass
class AnnotatedStory:
    sequence_id: str
    tokens: list[str]
    srl: SRLStory
    entity_grid: EntityRoleGrid | None = None
    groundedness: list[GroundednessAnnotation] = field(default_factory=list)
    n_images: int | None = None


def _derive_characters(tokens: list[str]) -> set[str]:
    # anonymized corpora carry characters as [maleK]/[femaleK] placeholders
    return {t for t in tokens if placeholder_kind(t) in ("male", "female")}


def corpus_stats(stories: list[AnnotatedStory]) -> dict:
    """Table-style dataset summary: text count, images-per-text range, and
    mean tokens/events/characters per text."""
    if not stories:
        raise DataError("corpus_stats: empty corpus")
    n = len(stories)
    image_counts = [s.n_images for s in stories if s.n_images is not None]
    return {
        "texts": n,
        "images_per_text": [min(image_counts), max(image_counts)] if image_counts else None,
        "tokens_per_text": sum(len(s.tokens) for s in stories) / n,
        "events_per_text": sum(len(s.srl.predicates) for s in stories) / n,
        "characters_per_text": sum(len(s.srl.characters) for s in stories) / n,
    }


# --- JSON Lines ingest -----------------------------------------------------------

def annotated_from_dict(payload: dict) -> AnnotatedStory:
    srl_events = payload.get("srl") or []
    predicates = [text_field(ev["predicate"], "predicate") for ev in srl_events]
    args: dict[str, set[str]] = {role: set() for role in ARG_ROLES}
    for ev in srl_events:
        for role, toks in (ev.get("args") or {}).items():
            if role == "characters":
                continue
            if role not in ARG_ROLES:
                raise DataError(f"unknown SRL role {role!r}")
            args[role].update(string_list(toks, f"SRL argument {role!r}"))
    tokens = payload.get("tokens")
    tokens = [] if tokens is None else token_list(tokens, "tokens")
    if "characters" in payload:
        characters = set(string_list(payload["characters"], "characters"))
    else:
        characters = _derive_characters(tokens)
    grid = None
    if payload.get("entity_grid"):
        rows = json_list(payload["entity_grid"]["rows"], "entity grid rows")
        grid = EntityRoleGrid(entities=string_list(payload["entity_grid"]["entities"],
                                                   "entity grid entities"),
                              rows=[string_list(r, "an entity grid row") for r in rows])
    annotations = [GroundednessAnnotation(kind=g["kind"], label=g["label"])
                   for g in payload.get("groundedness") or []]
    return AnnotatedStory(
        sequence_id=str(payload["sequence_id"]),
        tokens=tokens,
        srl=SRLStory(predicates=predicates, args=args, characters=characters),
        entity_grid=grid,
        groundedness=annotations,
        n_images=payload.get("n_images"),
    )


def load_annotated(path) -> list[AnnotatedStory]:
    return read_jsonl(path, annotated_from_dict, "annotated story")


def group_by_sequence(stories: list[AnnotatedStory]) -> dict[str, list[SRLStory]]:
    groups: dict[str, list[SRLStory]] = {}
    for story in stories:
        groups.setdefault(story.sequence_id, []).append(story.srl)
    return groups
