"""The three workloads, one per user step: fit, generate, evaluate.

Each workload has a ``setup`` that builds its inputs from the seed (timed as
``setup_s``) and an ``op`` that makes the public calls the CLI makes on them
and returns what it measured, with the checks on its outputs. The runner sets
up afresh before every operation, in a directory it owns, so repeated
operations also compare independently built inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from pace import Stopwatch
from vwpstory import analytics, corpus, decoding, metrics, model, synth, training


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class OpResult:
    items: int            # examples, tokens or pairs the operation produced
    watch: Stopwatch      # timed the production of ``items``
    latency_s: list[float]
    latency_watch: Stopwatch  # timed the group of ``latency_s`` intervals
    attempted: int        # public calls made
    key: str              # operations with one key must give one fingerprint
    fingerprint: str
    checks: list[tuple[bool, str]] = field(default_factory=list)


def check(results: list[OpResult]) -> None:
    """Every per-operation check holds and repeated operations agree."""
    seen: dict[str, str] = {}
    for res in results:
        for ok, message in res.checks:
            require(ok, message)
        first = seen.setdefault(res.key, res.fingerprint)
        require(first == res.fingerprint, f"output of {res.key} differs between repeats")
    require(len(results) > len(seen), "no operation was repeated, so determinism is unchecked")


class Workload:
    min_ops = 2   # enough for one repeat
    kernel = "python"  # the pace.py kernel whose slowdowns the operation follows
    check = staticmethod(check)


# --- fit ------------------------------------------------------------------------

FIT_SEQUENCES = 560
FIT_VAL = 60
FIT_EPOCHS = 1
METEOR_FLOOR = 0.25  # validation METEOR after one epoch is about 0.4 on the planted corpus


class Fit(Workload):
    """``training.fit`` on the planted grid corpus at the acceptance-test shape."""

    name, rate_name, latency_name = "fit", "fit_examples_per_s", "fit_call_ms"

    def setup(self, seed: int, workdir: Path):
        path = workdir / "corpus.jsonl"
        corpus.save_dataset(synth.synthetic_grid_corpus(FIT_SEQUENCES, seed=seed), path)
        prepared = corpus.prepare_records(corpus.load_dataset(path), seed=seed,
                                          val_count=FIT_VAL)
        model_cfg = model.ModelConfig(
            vocab_size=len(prepared.vocab), feat_dim=8, d_model=64, n_layers=1,
            n_heads=4, d_ff=128, t_max=64, n_max=5, m_max=5, o_max=2,
            feature_set=("global", "char"), grid_mode="char", dropout=0.0, seed=seed)
        train_cfg = training.TrainConfig(
            epochs=FIT_EPOCHS, batch_size=16, lr=2e-3, seeds=(seed,),
            checkpoint_dir=workdir / "checkpoints",
            val_decoding=decoding.DecodingConfig(mode="nucleus", p=0.9,
                                                 max_new_tokens=64, seed=seed))
        return {"prepared": prepared, "model_cfg": model_cfg, "train_cfg": train_cfg}

    def op(self, ctx, index: int) -> OpResult:
        prepared = ctx["prepared"]
        with Stopwatch(self.kernel) as watch:
            result = training.fit(ctx["train_cfg"], prepared.splits, ctx["model_cfg"],
                                  prepared.vocab)
        run = result.runlogs[0]
        checkpoint = Path(run.best_checkpoint).read_bytes()
        examples = sum(1 for rec in prepared.splits["train"] for s in rec.stories if s.tokens)
        return OpResult(
            items=examples * FIT_EPOCHS, watch=watch, latency_s=[watch.seconds], latency_watch=watch,
            attempted=FIT_EPOCHS, key="fit",
            fingerprint=digest([run.train_loss, run.val_meteor, run.best_epoch,
                                hashlib.sha256(checkpoint).hexdigest()]),
            checks=[
                (all(math.isfinite(x) for x in run.train_loss), "non-finite training loss"),
                (max(run.val_meteor) > METEOR_FLOOR,
                 f"best validation METEOR {max(run.val_meteor):.3f} <= {METEOR_FLOOR}"),
            ])


# --- generate ---------------------------------------------------------------------

GEN_RECORDS = 36
GEN_STORY_RECORDS = 2     # stories cycle over these, so from the third op on each repeats one
GEN_NEW_TOKENS = 200
GEN_IMAGES, GEN_CHARS, GEN_FEAT = 10, 5, 512


def _lemmas(rng: np.random.Generator, n: int) -> list[str]:
    """Pronounceable lowercase pseudo-words (the stemmer only touches a-z)."""
    consonants, vowels = "bdfgklmnprstvz", "aeiou"
    words: dict[str, None] = {}
    while len(words) < n:
        lengths = rng.integers(1, 4, size=n)
        cons = rng.integers(len(consonants), size=(n, 4))
        vows = rng.integers(len(vowels), size=(n, 3))
        for k in range(n):
            syllables = "".join(consonants[cons[k, s]] + vowels[vows[k, s]]
                                for s in range(lengths[k]))
            words[syllables + consonants[cons[k, 3]]] = None
    return sorted(words)[:n]


def _zipf(n: int, exponent: float = 1.0) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _frame_record(rng, index: int, words: list[str], probs) -> corpus.ImageSequenceRecord:
    images = [corpus.ImageRecord(f"g{index}-im{a}", rng.normal(size=GEN_FEAT))
              for a in range(GEN_IMAGES)]
    characters = [corpus.CharacterRecord(
        char_id=f"g{index}-c{b}", gender="male" if b % 2 == 0 else "female",
        instances=[corpus.CharacterInstance(int(rng.integers(GEN_IMAGES)), (0, 0, 8, 8),
                                            float(rng.random()))],
        representative_feat=rng.normal(size=GEN_FEAT)) for b in range(GEN_CHARS)]
    stories = [corpus.StoryRecord(raw_text="\n".join(
        " ".join(words[i] for i in rng.choice(len(words), size=10, p=probs)) + "."
        for _ in range(GEN_IMAGES))) for _ in range(2)]
    return corpus.ImageSequenceRecord(f"g{index}", images, characters, [], stories)


class Generate(Workload):
    """Nucleus decoding of 200-token stories with the ``vwp train`` default
    model on full-frame sequences, plus a 1-token call on every record."""

    name, rate_name, latency_name = "generate", "decode_tokens_per_s", "first_token_ms"

    min_ops = 3
    # decoding is mostly numpy on 128-wide blocks: on the host this was written
    # on it slows about 0.6 times as much (in log) as the python kernel
    kernel = "numpy"

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        words = _lemmas(rng, 1500)
        probs = _zipf(len(words))
        path = workdir / "frames.jsonl"
        corpus.save_dataset([_frame_record(rng, i, words, probs) for i in range(GEN_RECORDS)], path)
        prepared = corpus.prepare_records(corpus.load_dataset(path), seed=seed)
        vocab = prepared.vocab
        built = model.build_model(model.ModelConfig(
            vocab_size=len(vocab), feat_dim=GEN_FEAT, feature_set=("global", "char"),
            grid_mode="char", seed=seed))
        # [EOS] can never be sampled, so every story spends the whole budget
        built.store["out.b"].data[vocab.eos_id] = -1e9
        ckpt = workdir / "model.ckpt"
        model.save_checkpoint(built, ckpt)
        loaded = model.load_checkpoint(ckpt)
        model.save_checkpoint(loaded, workdir / "resaved.ckpt")
        return {"model": loaded, "vocab": vocab, "records": prepared.splits["train"], "seed": seed,
                "ckpt_stable": ckpt.read_bytes() == (workdir / "resaved.ckpt").read_bytes()}

    @staticmethod
    def _config(ctx, record_index: int, new_tokens: int) -> decoding.DecodingConfig:
        return decoding.DecodingConfig(mode="nucleus", p=0.9, max_new_tokens=new_tokens,
                                       seed=ctx["seed"] * 1000 + record_index)

    def op(self, ctx, index: int) -> OpResult:
        model_, vocab, records = ctx["model"], ctx["vocab"], ctx["records"]
        firsts, latency = [], []
        with Stopwatch(self.kernel) as all_firsts:
            for r, rec in enumerate(records):
                with Stopwatch(self.kernel) as watch:
                    story = decoding.generate(model_, rec, vocab, self._config(ctx, r, 1))
                firsts.append(story.token_ids)
                latency.append(watch.seconds)
        r = index % GEN_STORY_RECORDS
        with Stopwatch(self.kernel) as watch:
            story = decoding.generate(model_, records[r], vocab,
                                      self._config(ctx, r, GEN_NEW_TOKENS))
        ids = story.token_ids
        return OpResult(
            items=len(ids), watch=watch, latency_s=latency, latency_watch=all_firsts,
            attempted=len(records) + 1, key=f"record{r}", fingerprint=digest([firsts, ids]),
            checks=[
                (len(ids) == GEN_NEW_TOKENS, f"story has {len(ids)} ids, not {GEN_NEW_TOKENS}"),
                (all(0 <= t < len(vocab) for t in ids), "story id outside the vocabulary"),
                (all(len(f) == 1 for f in firsts), "a 1-token call did not return 1 id"),
                (ids[:1] == firsts[r], "story and 1-token call disagree on the first token"),
                (ctx["ckpt_stable"], "checkpoint save -> load -> save changed the bytes"),
            ])


# --- evaluate ---------------------------------------------------------------------

EVAL_SHORT_PAIRS = 150   # hypotheses of 12..18 tokens: exhaustive METEOR chunk search
EVAL_LONG_PAIRS = 24     # about 150 tokens: greedy METEOR chunking
EVAL_REFS = 4
INFLECTIONS = ("", "", "s", "ed", "ing")


def _pairs(rng, words: list[str], probs, count: int, low: int, high: int) -> list[dict]:
    def variant(base: list[str]) -> list[str]:
        n = len(base)
        replace = rng.random(n) < 0.25
        substitutes = rng.choice(len(words), size=n, p=probs)
        inflect = rng.random(n) < 0.3
        suffixes = rng.integers(len(INFLECTIONS), size=n)
        return [(words[substitutes[i]] if replace[i] else word)
                + (INFLECTIONS[suffixes[i]] if inflect[i] else "")
                for i, word in enumerate(base)]

    pairs = []
    for k in range(count):
        length = int(rng.integers(low, high + 1))
        base = [words[i] for i in rng.choice(len(words), size=length, p=probs, replace=False)]
        pairs.append({"id": k, "hypothesis": variant(base),
                      "references": [variant(base) for _ in range(EVAL_REFS)]})
    return pairs


def _write_jsonl(rows: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _exact_matches(pair: dict) -> int:
    hyp = Counter(pair["hypothesis"])
    return min(sum((hyp & Counter(ref)).values()) for ref in pair["references"])


class Evaluate(Workload):
    """The metric suite on two pair files, then the analytics pass."""

    name, rate_name, latency_name = "evaluate", "eval_pairs_per_s", "eval_pass_ms"

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        words = _lemmas(rng, 3000)
        probs = _zipf(len(words))
        short = _pairs(rng, words, probs, EVAL_SHORT_PAIRS, 12, 18)
        long = _pairs(rng, words, probs, EVAL_LONG_PAIRS, 135, 165)
        # more than 20 exact matches already forces the greedy path
        require(all(_exact_matches(p) > metrics.METEOR_EXHAUSTIVE_LIMIT for p in long),
                "a long pair has too few matches for the greedy METEOR path")
        _write_jsonl(short, workdir / "short.jsonl")
        _write_jsonl(long, workdir / "long.jsonl")
        n_sequences = (EVAL_SHORT_PAIRS + EVAL_LONG_PAIRS) // 2  # two stories each
        corpus.save_dataset(synth.fixture_dataset(n_sequences, seed=seed),
                            workdir / "fixture.jsonl")
        records = corpus.load_dataset(workdir / "fixture.jsonl")
        synth.write_annotations(synth.fixture_annotations(records, seed=seed),
                                workdir / "annotations.jsonl")
        return {"dir": workdir}

    def op(self, ctx, index: int) -> OpResult:
        scores, n_pairs = {}, 0
        with Stopwatch(self.kernel) as watch:
            for population in ("short", "long"):
                pairs = metrics.load_eval_pairs(ctx["dir"] / f"{population}.jsonl")
                n_pairs += len(pairs)
                scores[population] = metrics.compute_metrics(pairs, list(metrics.METRIC_NAMES))
            stories = analytics.load_annotated(ctx["dir"] / "annotations.jsonl")
            grids = [s.entity_grid for s in stories if s.entity_grid is not None]
            grid_model = analytics.train_entity_grid(grids)
            coherence = [analytics.score_coherence(grid_model, g).avg_ll for g in grids]
            jaccard = analytics.jaccard_similarity(analytics.group_by_sequence(stories))
            diversity = analytics.event_diversity([s.srl for s in stories],
                                                  [s.tokens for s in stories])
            stats = analytics.corpus_stats(stories)
        values = [v for population in scores.values() for v in population.values()]
        ratios = list(jaccard.per_role.values()) + [
            diversity.verb_vocab_ratio, diversity.verb_token_ratio, diversity.diverse_verb_ratio]
        n_metrics = sum(len(s) for s in scores.values())
        return OpResult(
            items=n_pairs, watch=watch, latency_s=[watch.seconds], latency_watch=watch,
            attempted=2 + n_metrics + 6, key="pass",
            fingerprint=digest([scores, coherence, jaccard.per_role, vars(diversity), stats]),
            checks=[
                (all(math.isfinite(v) for v in values), "non-finite metric value"),
                (all(0.0 <= v <= 1.0 for p in scores.values()
                     for k, v in p.items() if k != "CIDEr"),
                 "a unit-interval metric is outside [0, 1]"),
                (all(0.0 <= p["CIDEr"] <= metrics.CIDER_SCALE for p in scores.values()),
                 "CIDEr outside [0, 10]"),
                (all(s["METEOR"] > 0.0 for s in scores.values()), "METEOR found no matches"),
                (all(c <= 0.0 for c in coherence), "coherence log-likelihood above 0"),
                (all(0.0 <= r <= 1.0 for r in ratios), "analytics ratio outside [0, 1]"),
                (stats["texts"] == len(stories), "corpus_stats miscounts texts"),
            ])


WORKLOADS = {w.name: w for w in (Fit(), Generate(), Evaluate())}
