"""Greedy and nucleus decoding, plus realization of placeholder text.

``generate_batch`` owns the decoding loop, and ``generate`` is its
one-record case. Records are grouped by conditioning-prefix width and
decoded in slices of 16: a slice's prefixes and [BOS], built by one
``assemble_input`` call on its records with empty stories, are forwarded
once into a per-layer KV cache, then every step forwards one position per
unfinished story, without building an autograd graph. A cached forward
returns only each story's last logits row: the prefix forward caches the
keys and values of every prefix row, but runs its last layer's queries and
everything after them on the last row alone. Each token is the argmax of
its story's last logits or a nucleus draw from their softmax with the
story's own generator; a story that picks [EOS] leaves the step batch.
A batched forward's logits may differ from a one-record forward's in the
last bits (within 1e-12), so a story's ids are those of decoding its record
alone unless a pick hinges on such a difference. A story that ends on [EOS]
records the stop reason "eos", one that uses up its budget "budget".

One cached step is the float work its logits need: per story, the
embeddings of its one new row; per layer a layer norm, the query, key and
value rows, attention of that query over the story's cached keys (a step's
one row hides no key, so its mask is zeros), the output projection and the
MLP; then the final layer norm, the output projection, a softmax of the
last logits and one pick. At the ``generate`` benchmark's shape (d_model
128, 2 layers, 1 120 ids, one BLAS thread, a 2-vCPU Xeon VM) a 200-token
nucleus story takes about 660 µs per token: 545 in ``forward_logits``, 77
in ``nucleus_sample`` and 14 in the softmax.

Realization swaps [maleK]/[femaleK]/[location] placeholders for sampled
names, consistently within a story, and re-attaches punctuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BOS, EOS, PAD, SENT, UNK, Vocabulary, placeholder_kind, string_list
from .errors import DataError, NumericError, UsageError
from .model import (
    EVAL_SLICE,
    BatchLayout,
    KVCache,
    StoryGenModel,
    assemble_input,
    forward_logits,
    prefix_width,
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
            raise UsageError(f"unknown decoding mode {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise UsageError(f"nucleus p must be in (0, 1], got {self.p}")
        if self.max_new_tokens < 1:
            raise UsageError("max_new_tokens must be positive")


def nucleus_sample(dist: np.ndarray, p: float, rng: np.random.Generator) -> int:
    """Sample from the smallest descending-probability prefix with mass >= p,
    renormalized. Sorting ties break toward the lower token id."""
    dist = np.asarray(dist, dtype=np.float64)
    if not 0.0 < p <= 1.0:
        raise NumericError(f"nucleus p must be in (0, 1], got {p}")
    if dist.ndim != 1 or not dist.size:
        raise NumericError("nucleus_sample: distribution must be 1-D and non-empty")
    # the minimum is NaN if any entry is; once it is non-negative, an infinity
    # makes the sum infinite
    if not dist.min() >= 0.0:
        raise NumericError("nucleus_sample: distribution must be finite and non-negative")
    total = float(dist.sum())
    if abs(total - 1.0) > 1e-9:
        raise NumericError(f"nucleus_sample: probabilities sum to {total!r}, not 1")
    # numpy's default sort orders ties arbitrarily, but the sorted values, and
    # so the cut, do not depend on it; only ties within the first cut + 1 can
    # change which ids form the support, and then the stable sort decides
    order = np.argsort(-dist)
    ranked = dist[order]
    # a sorted cumsum that ends below p - 1e-15 keeps every id
    cut = min(int(np.cumsum(ranked).searchsorted(p - 1e-15)) + 1, dist.size)
    head = ranked[:cut + 1]
    if (head[1:] == head[:-1]).any():
        order = np.argsort(-dist, kind="stable")
    weights = ranked[:cut]
    weights = weights / weights.sum()
    # the first token whose running mass exceeds u; np.cumsum adds left to
    # right, so this is the same draw as walking the support token by token
    pick = int(np.cumsum(weights).searchsorted(rng.random(), side="right"))
    return int(order[min(pick, cut - 1)])


@dataclass
class GeneratedStory:
    sequence_id: str
    seed: int
    token_ids: list[int]
    tokens: list[str]
    text: str
    stop: str  # "eos" when the story picked [EOS], "budget" when it ran out of tokens

    def to_dict(self) -> dict:
        return {"sequence_id": self.sequence_id, "seed": self.seed,
                "tokens": self.tokens, "text": self.text, "stop": self.stop}


def generate(model: StoryGenModel, seq, vocab: Vocabulary,
             config: DecodingConfig) -> GeneratedStory:
    """Continue from the conditioning prefix + [BOS] until [EOS] or budget:
    the one-record ``generate_batch``."""
    return generate_batch(model, [seq], vocab, config)[0]


def generate_batch(model: StoryGenModel, seqs: list, vocab: Vocabulary,
                   config: DecodingConfig) -> list[GeneratedStory]:
    """One story per record, each continued from its conditioning prefix +
    [BOS] until [EOS] or budget, in the order of ``seqs``.

    Records with the same ``prefix_width`` decode together, in slices of
    ``EVAL_SLICE``: one ``assemble_input`` call builds a slice's prefixes,
    so each record's grid is computed once (see ``_decode_slice``). Greedy
    picks the argmax (ties to the lowest id); nucleus samples from the
    softmax with a generator seeded with the config seed for each record, so
    a record's story does not depend on the others.
    """
    budget = min(config.max_new_tokens, model.config.t_max - 1)
    by_width: dict[int, list[int]] = {}
    for index, seq in enumerate(seqs):
        by_width.setdefault(prefix_width(seq, model.config), []).append(index)
    slices = [group[start:start + EVAL_SLICE] for group in by_width.values()
              for start in range(0, len(group), EVAL_SLICE)]
    # every slice's prefixes are built, so every record is checked, before any decodes
    prefixes = [assemble_input([(seqs[i], []) for i in members], model.config, vocab.bos_id)
                for members in slices]
    stories: list = [None] * len(seqs)
    for members, batch in zip(slices, prefixes):
        decoded, stops = _decode_slice(model, batch, vocab, config, budget)
        for index, ids, stop in zip(members, decoded, stops):
            tokens = vocab.decode(ids)
            stories[index] = GeneratedStory(sequence_id=seqs[index].id, seed=config.seed,
                                            token_ids=ids, tokens=tokens,
                                            text=detokenize(tokens), stop=stop)
    return stories


def _decode_slice(model: StoryGenModel, batch: BatchLayout, vocab: Vocabulary,
                  config: DecodingConfig,
                  budget: int) -> tuple[list[list[int]], list[str]]:
    """The ids decoded from a batch of prefixes of one width, as one step
    batch, and why each story stopped.

    The prefixes and [BOS] are forwarded once into a KV cache sized for the
    positions the slice can fill; each later step forwards one position per
    unfinished story, the token it picked last. Each forward returns one
    logits row per story in the step batch. A story that picks [EOS] leaves
    the step batch and the cache with the stop reason "eos"; the stories
    still in it when the loop ends ran out of budget.
    """
    n = batch.lengths.size
    stories: list[list[int]] = [[] for _ in range(n)]
    stops = ["budget"] * n
    active = list(range(n))  # the story of each cache row
    rngs = [np.random.default_rng(config.seed) for _ in range(n)] \
        if config.mode == "nucleus" else None
    # the prefix and at most budget - 1 one-row steps
    cache = KVCache(model.config, batch=n, positions=batch.width + budget - 1)
    with no_grad():
        for _ in range(budget):
            last = forward_logits(model, batch, cache=cache).data
            if rngs is None:
                picks = last.argmax(axis=1).tolist()
            else:
                picks = [nucleus_sample(dist, config.p, rng)
                         for dist, rng in zip(softmax_rows(last), rngs)]
            if vocab.eos_id in picks:
                live = []
                for row, token in enumerate(picks):
                    if token == vocab.eos_id:
                        stops[active[row]] = "eos"
                    else:
                        live.append(row)
                if not live:
                    break
                cache.keep(live)
                active = [active[row] for row in live]
                picks = [picks[row] for row in live]
                if rngs is not None:
                    rngs = [rngs[row] for row in live]
            for story, token in zip(active, picks):
                stories[story].append(token)
            batch = text_step(picks, cache.length)
    return stories, stops


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


def name_pools(payload: dict) -> dict[str, list[str]]:
    """The male, female and location name lists of a names file, as
    ``vwp prepare`` writes them: each must hold strings only, and a missing
    list is empty."""
    return {kind: string_list(payload.get(kind, []), f"{kind} names")
            for kind in ("male", "female", "location")}


def realize(tokens: list[str], names: dict[str, list[str]], rng: np.random.Generator) -> str:
    """Swap placeholders for sampled names from the ``name_pools`` lists
    (consistent per placeholder, without replacement per pool) and
    detokenize for display."""
    pools = {kind: list(pool) for kind, pool in names.items()}
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
                raise DataError(f"no {kind} names left for placeholder {token}")
            pick = int(rng.integers(len(pool)))
            assigned[token] = pool.pop(pick)
        realized.append(assigned[token])
    return detokenize(realized)
