"""Greedy and nucleus decoding, plus realization of placeholder text.

``generate`` owns its decoding loop. It builds a sequence's conditioning
once, forwards it with [BOS] once into a per-layer KV cache, then forwards
one position per picked token, without building an autograd graph. Each
token is the argmax of the last logits or a nucleus draw from their
softmax. Realization swaps [maleK]/[femaleK]/[location] placeholders for
sampled names, consistently within a story, and re-attaches punctuation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS, EOS, PAD, SENT, UNK, Vocabulary
from .errors import ConfigError, NumericError, ResourceError
from .model import KVCache, StoryGenModel, assemble_input, forward_logits, text_step
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
    """Continue from the conditioning prefix + [BOS] until [EOS] or budget.

    The conditioning (stacked features, entity rows, flattened grid) is
    assembled once per call, so the grid is computed once. The prefix and
    [BOS] are forwarded once into a KV cache; each later step forwards only
    the token picked last. Greedy picks the argmax (ties to the lowest id);
    nucleus samples from the softmax with the config seed.
    """
    rng = np.random.default_rng(config.seed)
    budget = min(config.max_new_tokens, model.config.t_max - 1)
    cache = KVCache(model.config)
    layout = assemble_input(seq, [], model.config, vocab.bos_id)
    ids: list[int] = []
    with no_grad():
        for _ in range(budget):
            logits = forward_logits(model, layout, cache=cache).data[-1]
            if config.mode == "greedy":
                token = int(np.argmax(logits))
            else:
                token = nucleus_sample(softmax_rows(logits), config.p, rng)
            if token == vocab.eos_id:
                break
            ids.append(token)
            layout = text_step(token, cache.length)
    tokens = vocab.decode(ids)
    return GeneratedStory(sequence_id=seq.id, seed=config.seed, token_ids=ids,
                          tokens=tokens, text=detokenize(tokens))


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
        return cls(male=list(payload.get("male", [])),
                   female=list(payload.get("female", [])),
                   location=list(payload.get("location", [])))


def _placeholder_kind(token: str) -> str | None:
    if token == "[location]":
        return "location"
    if token.startswith("[male") and token.endswith("]"):
        return "male"
    if token.startswith("[female") and token.endswith("]"):
        return "female"
    return None


def realize(tokens: list[str], names: NamePools, rng: np.random.Generator) -> str:
    """Swap placeholders for sampled names (consistent per placeholder,
    without replacement per pool) and detokenize for display."""
    pools = {"male": list(names.male), "female": list(names.female),
             "location": list(names.location)}
    assigned: dict[str, str] = {}
    realized: list[str] = []
    for token in tokens:
        kind = _placeholder_kind(token)
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
