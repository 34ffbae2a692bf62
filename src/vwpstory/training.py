"""Maximum-likelihood training with epoch-level METEOR model selection.

One optimizer step per mini-batch of sequences: one forward pass over the
batch right-padded to its longest sequence (built by ``assemble_input``
straight from the records and stories), one backward pass of the mean
of the per-example losses, gradients clipped at a global norm of 1.0, then
Adam. Each seed is one ``train_run``: after every epoch the model decodes
the validation split with seeded nucleus sampling, and ``select_best`` keeps
the epoch with the highest METEOR (earliest on ties); without a validation
split the last epoch is kept. Runs are seeded end to end: the same config
and seed reproduce the same best checkpoint bit for bit.

The first ``train_epoch`` in a process raises glibc malloc's trim and mmap
thresholds (``MALLOC_TRIM_THRESHOLD``, ``MALLOC_MMAP_THRESHOLD``), so the
memory one step frees serves the next instead of going back to the kernel
and being faulted in again. It changes no float operation; off glibc, where
there is no ``mallopt``, it does nothing. Decoding and scoring never call it
and keep the allocator's defaults.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .corpus import BOS, EOS, PAD, SENT, ImageSequenceRecord, Vocabulary, story_surface_tokens
from .decoding import (
    DecodingConfig,
    generate,  # unused here: perfbench/tracing.py binds training.generate
    generate_batch,
)
from .errors import DataError, NumericError, UsageError
from .metrics import EvalPair
from .model import (
    EVAL_SLICE,
    ModelConfig,
    StoryGenModel,
    assemble_input,
    build_model,
    forward_logits,
    save_checkpoint,
    story_loss,  # unused here: perfbench/tracing.py binds training.story_loss
    story_losses,
)
from .numerics import adam_step, clip_global_norm, cross_entropy_masked, no_grad

log = logging.getLogger("vwpstory.training")

CONTROL_TOKENS = {PAD, BOS, EOS, SENT}

# the optimizer's fixed settings; Adam's betas and eps are numerics constants
CLIP_NORM = 1.0

# glibc malloc gives freed memory back to the kernel once the free top of the
# heap exceeds the trim threshold, and maps and unmaps each chunk over the
# mmap threshold (set to its 64-bit maximum); every training step frees its
# activations (about 3 MiB at d_model 64, batch 16) and the next step would
# fault them in again
MALLOC_TRIM_THRESHOLD = 256 << 20
MALLOC_MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
_malloc_thresholds_set = False


def keep_freed_memory() -> None:
    """Set the malloc thresholds above, once per process; a no-op where the
    C library has no ``mallopt``."""
    global _malloc_thresholds_set
    if _malloc_thresholds_set:
        return
    _malloc_thresholds_set = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no process handle (Windows), no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 8
    lr: float = 1e-3
    seeds: tuple[int, ...] = (0, 1, 2)
    val_decoding: DecodingConfig = field(
        default_factory=lambda: DecodingConfig(mode="nucleus", p=0.9,
                                               max_new_tokens=64, seed=9999))
    test_decoding: DecodingConfig = field(
        default_factory=lambda: DecodingConfig(mode="greedy", max_new_tokens=64))
    checkpoint_dir: str | Path | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError("epochs must be at least 1")
        if self.batch_size < 1:
            raise UsageError("batch_size must be at least 1")
        if not self.seeds:
            raise UsageError("seeds must be nonempty")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise UsageError(f"lr must be finite and non-negative, not {self.lr}")


@dataclass
class RunLog:
    seed: int
    train_loss: list[float] = field(default_factory=list)
    val_meteor: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    best_checkpoint: str | None = None
    selection: str = "meteor"  # "last" when there is no validation split


def metric_tokens(surface_tokens: list[str]) -> list[str]:
    """Tokens as scored by the metrics: control/separator tokens dropped."""
    return [t for t in surface_tokens if t not in CONTROL_TOKENS]


def training_examples(records: list[ImageSequenceRecord],
                      eos_id: int) -> list[tuple[ImageSequenceRecord, list[int]]]:
    """Every story with tokens, as (record, its tokens then [EOS]). Records
    with none are a DataError: there is nothing to train on or score."""
    examples = [(rec, story.tokens + [eos_id])
                for rec in records for story in rec.stories if story.tokens]
    if not examples:
        raise DataError("training_examples: no story has tokens")
    return examples


def train_epoch(model: StoryGenModel, records: list[ImageSequenceRecord],
                vocab: Vocabulary, config: TrainConfig, seed: int,
                epoch: int = 0) -> float:
    """One full pass: seed-deterministic shuffling and dropout; returns the
    mean story loss over all examples.

    A diverging step is refused as a NumericError that names its epoch and
    batch: a non-finite loss also names its sequence, and a refusal from
    the step's forward, backward, clip or Adam update is re-raised with the
    epoch and batch in front. numpy's overflow warnings are silenced over
    the epoch, since those refusals report what they flag."""
    keep_freed_memory()
    examples = training_examples(records, vocab.eos_id)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(len(examples))
    store = model.store
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(order), config.batch_size):
            where = f"epoch {epoch}, batch {start // config.batch_size}"
            batch = [examples[idx] for idx in order[start:start + config.batch_size]]
            try:
                store.zero_grad()
                losses = story_losses(model, batch, bos_id=vocab.bos_id, rng=rng)
                values = losses.data.tolist()
                if all(map(math.isfinite, values)):
                    losses.backward(np.full(len(batch), 1.0 / len(batch)))
                    clip_global_norm(store, CLIP_NORM)
                    adam_step(store, lr=config.lr)
            except NumericError as exc:
                raise NumericError(f"{where}: {exc}") from exc
            for (rec, _), value in zip(batch, values):
                if not math.isfinite(value):
                    raise NumericError(f"{where}, sequence {rec.id}: non-finite loss")
                total += value
    return total / len(examples)


def select_best(val_scores: list[float]) -> int:
    """1-based epoch with the highest validation METEOR; earliest on ties."""
    if not val_scores:
        raise DataError("select_best: no scored epochs")
    best = max(range(len(val_scores)), key=lambda i: (val_scores[i], -i))
    return best + 1


def references(rec: ImageSequenceRecord) -> list[list[str]]:
    """What a story generated for ``rec`` is scored against: the metric
    tokens of each of its stories' text, leaving out stories with none. The
    text, not the token ids, so a word outside the vocabulary stays itself
    and a generated [UNK] never matches it."""
    refs = [metric_tokens(story_surface_tokens(story.raw_text)) for story in rec.stories]
    return [ref for ref in refs if ref]


def scored_records(records: list[ImageSequenceRecord]
                   ) -> list[tuple[ImageSequenceRecord, list[list[str]]]]:
    """Every record with references, with its references: what
    ``eval_pairs`` scores. Records with none at all are a DataError."""
    scored = [(rec, refs) for rec in records if (refs := references(rec))]
    if not scored:
        raise DataError("no evaluable sequences (no reference stories)")
    return scored


def eval_pairs(model: StoryGenModel, records: list[ImageSequenceRecord],
               vocab: Vocabulary, decoding: DecodingConfig) -> list[EvalPair]:
    """A decoded story and its references for every record with references."""
    scored = scored_records(records)
    stories = generate_batch(model, [rec for rec, _ in scored], vocab, decoding)
    return [EvalPair(hypothesis=metric_tokens(hyp.tokens), references=refs)
            for hyp, (_, refs) in zip(stories, scored)]


def validate_meteor(model: StoryGenModel, records: list[ImageSequenceRecord],
                    vocab: Vocabulary, decoding: DecodingConfig) -> float:
    return metrics_mod.meteor(eval_pairs(model, records, vocab, decoding))


@dataclass
class FitResult:
    runlogs: list[RunLog]
    test_scores: dict[str, list[float]]
    aggregate: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "runlogs": [asdict(r) for r in self.runlogs],
            "test_scores": self.test_scores,
            "aggregate": {k: {"mean": m, "std": s} for k, (m, s) in self.aggregate.items()},
        }


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


def train_run(config: TrainConfig, splits: dict[str, list[ImageSequenceRecord]],
              model_config: ModelConfig, vocab: Vocabulary,
              seed: int) -> tuple[StoryGenModel, RunLog]:
    """One seed's run: build its model, train ``config.epochs`` epochs on
    the train split, and keep the epoch ``select_best`` names by validation
    METEOR (the last epoch when there is no validation split). The model
    returned holds the kept epoch's weights; with a ``checkpoint_dir`` they
    are also written to ``seed<seed>-best.ckpt`` there."""
    model = build_model(replace(model_config, seed=seed))
    validate = bool(splits.get("val"))
    run = RunLog(seed=seed, selection="meteor" if validate else "last")
    ckpt_path = None
    if config.checkpoint_dir:
        ckpt_path = Path(config.checkpoint_dir) / f"seed{seed}-best.ckpt"
        ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    kept_params: np.ndarray | None = None  # None when the kept epoch is the final one
    for epoch in range(1, config.epochs + 1):
        loss = train_epoch(model, splits["train"], vocab, config,
                           seed=_epoch_seed(seed, epoch), epoch=epoch)
        run.train_loss.append(loss)
        score = validate_meteor(model, splits["val"], vocab, config.val_decoding) \
            if validate else 0.0
        run.val_meteor.append(score)
        log.info("seed %d epoch %d: train loss %.4f, val METEOR %.4f",
                 seed, epoch, loss, score)
        if epoch == (select_best(run.val_meteor) if validate else config.epochs):
            run.best_epoch = epoch
            kept_params = model.store.flat.copy() if epoch < config.epochs else None
            if ckpt_path:
                save_checkpoint(model, ckpt_path)
                run.best_checkpoint = str(ckpt_path)
    if kept_params is not None:
        model.store.flat[:] = kept_params
    return model, run


def fit(config: TrainConfig, splits: dict[str, list[ImageSequenceRecord]],
        model_config: ModelConfig, vocab: Vocabulary) -> FitResult:
    """One ``train_run`` per seed, then the kept weights scored on the test
    split with greedy decoding. Per-metric mean/std aggregates the seeds.
    A validation or test split that cannot be scored is refused before any
    seed trains."""
    for split in ("val", "test"):
        if splits.get(split):
            scored_records(splits[split])
    runlogs: list[RunLog] = []
    test_scores: dict[str, list[float]] = {}
    for seed in config.seeds:
        model, run = train_run(config, splits, model_config, vocab, seed)
        runlogs.append(run)
        if splits.get("test"):
            scores = metrics_mod.compute_metrics(
                eval_pairs(model, splits["test"], vocab, config.test_decoding))
            for metric, value in scores.items():
                test_scores.setdefault(metric, []).append(value)
    aggregate = {metric: metrics_mod.mean_std(values) for metric, values in test_scores.items()}
    return FitResult(runlogs=runlogs, test_scores=test_scores, aggregate=aggregate)


def held_out_scores(model: StoryGenModel, records: list[ImageSequenceRecord],
                    vocab: Vocabulary, target_ids: set[int]) -> tuple[float, float]:
    """Mean eval-mode story loss over every story in the records, and the
    teacher-forced argmax accuracy on the loss rows whose target id is in
    ``target_ids``: both read from one forward pass per slice of
    ``EVAL_SLICE`` stories, each with [EOS] appended."""
    examples = training_examples(records, vocab.eos_id)
    total = 0.0
    hits = count = 0
    for start in range(0, len(examples), EVAL_SLICE):
        batch = assemble_input(examples[start:start + EVAL_SLICE], model.config, vocab.bos_id)
        with no_grad():
            logits = forward_logits(model, batch)
            losses = cross_entropy_masked(logits, batch.targets, batch.loss_weights)
        for value in losses.data.tolist():
            total += value
        rows = np.flatnonzero(batch.targets >= 0)
        rows = rows[np.isin(batch.targets[rows], list(target_ids))]
        count += rows.size
        hits += int((logits.data[rows].argmax(axis=1) == batch.targets[rows]).sum())
    if count == 0:
        raise DataError("held_out_scores: no loss row's target is in target_ids")
    return total / len(examples), hits / count


# --- planted-task comparison experiment ---------------------------------------

GRID_BATCH_SIZE = 16
GRID_CORPUS_SEED = 0
# each variant's name, as its row's key prefix, and its model's grid_mode
GRID_VARIANTS = {"grid": "char", "baseline": "none"}


@dataclass
class GridComparisonResult:
    per_seed: list[dict]
    grid_wins: int
    min_grid_accuracy: float


def run_grid_comparison(*, n_sequences: int = 560, val_count: int = 60,
                        seeds: tuple[int, ...] = (0, 1, 2),
                        epochs: int = 14) -> GridComparisonResult:
    """Train every ``GRID_VARIANTS`` model identically on the planted corpus
    whose section words encode per-image character presence, and score each
    with ``held_out_scores``: held-out loss, and accuracy on the
    grid-determined tokens. One row per seed."""
    from .synth import FEAT_DIM, pattern_token_ids, synthetic_grid_corpus
    from .corpus import prepare_records

    records = synthetic_grid_corpus(n_sequences, seed=GRID_CORPUS_SEED)
    prepared = prepare_records(records, seed=GRID_CORPUS_SEED, val_count=val_count,
                               test_count=0)
    vocab, val = prepared.vocab, prepared.splits["val"]
    training_examples(val, vocab.eos_id)  # refused before any variant trains
    pattern_ids = pattern_token_ids(vocab)
    base = dict(vocab_size=len(vocab), feat_dim=FEAT_DIM, d_model=64, n_layers=1, n_heads=4,
                d_ff=128, t_max=24, n_max=5, m_max=5, o_max=2, dropout=0.0,
                feature_set=("global", "char"))
    config = TrainConfig(epochs=epochs, batch_size=GRID_BATCH_SIZE, lr=2e-3, seeds=seeds)
    train_only = {"train": prepared.splits["train"]}

    per_seed = []
    for seed in seeds:
        row = {"seed": seed}
        for name, grid_mode in GRID_VARIANTS.items():
            model, _ = train_run(config, train_only, ModelConfig(grid_mode=grid_mode, **base),
                                 vocab, seed)
            row[f"{name}_loss"], row[f"{name}_accuracy"] = held_out_scores(
                model, val, vocab, pattern_ids)
        log.info("grid comparison seed %d: loss %.4f vs %.4f, accuracy %.3f vs %.3f (grid vs "
                 "baseline)", seed, row["grid_loss"], row["baseline_loss"],
                 row["grid_accuracy"], row["baseline_accuracy"])
        per_seed.append(row)
    return GridComparisonResult(
        per_seed=per_seed,
        grid_wins=sum(row["grid_loss"] < row["baseline_loss"] for row in per_seed),
        min_grid_accuracy=min(row["grid_accuracy"] for row in per_seed))
