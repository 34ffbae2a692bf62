"""Greedy and nucleus decoding, plus realization of placeholder text.

``generate_batch`` owns the decoding loop, and ``generate`` is its
one-record case. Records are grouped by conditioning-prefix width and
decoded in slices of 16: a slice's prefixes and [BOS] are forwarded once
into a per-layer KV cache, then every step forwards one position per
unfinished story, without building an autograd graph. Each token is the
argmax of its story's last logits or a nucleus draw from their softmax with
the story's own generator; a story that picks [EOS] leaves the step batch.
A batched forward's logits may differ from a one-record forward's in the
last bits (within 1e-12), so a story's ids are those of decoding its record
alone unless a pick hinges on such a difference.
Realization swaps [maleK]/[femaleK]/[location] placeholders for sampled
names, consistently within a story, and re-attaches punctuation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS, EOS, PAD, SENT, UNK, Vocabulary, placeholder_kind, string_list
from .errors import ConfigError, NumericError, ResourceError
from .model import (
    EVAL_SLICE,
    KVCache,
    StoryGenModel,
    assemble_batch,
    assemble_input,
    forward_logits,
    text_step,
)
from .numerics import no_grad, softmax_rows

NO_SPACE_BEFORE = {".", ",", "!", "?", ";", ":", "'", ")", "]", "%", "…"}
NO_SPACE_AFTER = {"(", "[", "'"}


@dataclass
class DecodingConfig:
    mode: str = "greedy"  # greedy | nucleus
    p: float = 1.0        # nucleus mass threshold
    max_new_tokens: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("greedy", "nucleus"):
            raise ConfigError(f"unknown decoding mode {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"nucleus p must be in (0, 1], got {self.p}")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be positive")


def nucleus_sample(dist: np.ndarray, p: float, rng: np.random.Generator) -> int:
    """Sample from the smallest descending-probability prefix with mass >= p,
    renormalized. Sorting ties break toward the lower token id."""
    dist = np.asarray(dist, dtype=np.float64)
    if not 0.0 < p <= 1.0:
        raise NumericError(f"nucleus p must be in (0, 1], got {p}")
    if dist.ndim != 1 or not np.isfinite(dist).all() or (dist < 0).any():
        raise NumericError("nucleus_sample: distribution must be 1-D, finite, non-negative")
    if abs(float(dist.sum()) - 1.0) > 1e-9:
        raise NumericError(f"nucleus_sample: probabilities sum to {dist.sum()!r}, not 1")
    order = np.argsort(-dist, kind="stable")
    cumulative = np.cumsum(dist[order])
    cut = int(np.searchsorted(cumulative, p - 1e-15)) + 1
    support = order[:cut]
    weights = dist[support]
    weights = weights / weights.sum()
    # the first token whose running mass exceeds u; np.cumsum adds left to
    # right, so this is the same draw as walking the support token by token
    pick = int(np.searchsorted(np.cumsum(weights), rng.random(), side="right"))
    return int(support[min(pick, cut - 1)])


@dataclass
class GeneratedStory:
    sequence_id: str
    seed: int
    token_ids: list[int]
    tokens: list[str]
    text: str

    def to_dict(self) -> dict:
        return {"sequence_id": self.sequence_id, "seed": self.seed,
                "tokens": self.tokens, "text": self.text}


def generate(model: StoryGenModel, seq, vocab: Vocabulary,
             config: DecodingConfig) -> GeneratedStory:
    """Continue from the conditioning prefix + [BOS] until [EOS] or budget:
    the one-record ``generate_batch``."""
    return generate_batch(model, [seq], vocab, config)[0]


def generate_batch(model: StoryGenModel, seqs: list, vocab: Vocabulary,
                   config: DecodingConfig) -> list[GeneratedStory]:
    """One story per record, each continued from its conditioning prefix +
    [BOS] until [EOS] or budget, in the order of ``seqs``.

    Each record's conditioning (stacked features, entity rows, flattened
    grid) is assembled once, so its grid is computed once. Records with the
    same prefix width decode together, in slices of ``EVAL_SLICE`` (see
    ``_decode_slice``). Greedy picks the argmax (ties to the lowest id);
    nucleus samples from the softmax with a generator seeded with the config
    seed for each record, so a record's story does not depend on the others.
    """
    budget = min(config.max_new_tokens, model.config.t_max - 1)
    layouts = [assemble_input(seq, [], model.config, vocab.bos_id) for seq in seqs]
    by_width: dict[int, list[int]] = {}
    for index, layout in enumerate(layouts):
        by_width.setdefault(layout.width, []).append(index)
    stories: list = [None] * len(seqs)
    for group in by_width.values():
        for start in range(0, len(group), EVAL_SLICE):
            members = group[start:start + EVAL_SLICE]
            decoded = _decode_slice(model, [layouts[i] for i in members], vocab, config, budget)
            for index, ids in zip(members, decoded):
                tokens = vocab.decode(ids)
                stories[index] = GeneratedStory(sequence_id=seqs[index].id, seed=config.seed,
                                                token_ids=ids, tokens=tokens,
                                                text=detokenize(tokens))
    return stories


def _decode_slice(model: StoryGenModel, layouts: list, vocab: Vocabulary,
                  config: DecodingConfig, budget: int) -> list[list[int]]:
    """The ids decoded from prefixes of one width, as one step batch.

    The prefixes and [BOS] are forwarded once into a KV cache; each later
    step forwards one position per unfinished story, the token it picked
    last. A story that picks [EOS] leaves the step batch and the cache.
    """
    stories: list[list[int]] = [[] for _ in layouts]
    active = stories  # the story of each cache row
    rngs = [np.random.default_rng(config.seed) for _ in layouts] \
        if config.mode == "nucleus" else None
    cache = KVCache(model.config, batch=len(layouts))
    batch = assemble_batch(layouts)
    with no_grad():
        for _ in range(budget):
            logits = forward_logits(model, batch, cache=cache).data
            last = logits.reshape(len(active), -1, logits.shape[-1])[:, -1]
            if rngs is None:
                picks = last.argmax(axis=1).tolist()
            else:
                picks = [nucleus_sample(dist, config.p, rng)
                         for dist, rng in zip(softmax_rows(last), rngs)]
            if vocab.eos_id in picks:
                live = [row for row, token in enumerate(picks) if token != vocab.eos_id]
                if not live:
                    break
                cache.keep(live)
                active = [active[row] for row in live]
                picks = [picks[row] for row in live]
                if rngs is not None:
                    rngs = [rngs[row] for row in live]
            for story, token in zip(active, picks):
                story.append(token)
            batch = text_step(picks, cache.length)
    return stories


def detokenize(tokens: list[str]) -> str:
    """Join tokens, re-attaching punctuation; [sent] becomes a paragraph break."""
    out: list[str] = []
    glue_next = False
    for token in tokens:
        if token in (PAD, BOS, EOS):
            continue
        if token == SENT:
            out.append("\n\n")
            glue_next = True
            continue
        word = "unk" if token == UNK else token
        if out and not glue_next and word not in NO_SPACE_BEFORE:
            out.append(" ")
        out.append(word)
        glue_next = word in NO_SPACE_AFTER
    return "".join(out)


@dataclass
class NamePools:
    male: list[str] = field(default_factory=list)
    female: list[str] = field(default_factory=list)
    location: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, payload: dict) -> "NamePools":
        return cls(male=string_list(payload.get("male", []), "male names"),
                   female=string_list(payload.get("female", []), "female names"),
                   location=string_list(payload.get("location", []), "location names"))


def realize(tokens: list[str], names: NamePools, rng: np.random.Generator) -> str:
    """Swap placeholders for sampled names (consistent per placeholder,
    without replacement per pool) and detokenize for display."""
    pools = {"male": list(names.male), "female": list(names.female),
             "location": list(names.location)}
    assigned: dict[str, str] = {}
    realized: list[str] = []
    for token in tokens:
        kind = placeholder_kind(token)
        if kind is None:
            realized.append(token)
            continue
        if token not in assigned:
            pool = pools[kind]
            if not pool:
                raise ResourceError(f"no {kind} names left for placeholder {token}")
            pick = int(rng.integers(len(pool)))
            assigned[token] = pool.pop(pick)
        realized.append(assigned[token])
    return detokenize(realized)


def save_generated(stories: list[GeneratedStory], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for story in stories:
            fh.write(json.dumps(story.to_dict(), sort_keys=True) + "\n")
