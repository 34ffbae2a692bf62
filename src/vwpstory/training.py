"""Maximum-likelihood training with epoch-level METEOR model selection.

One optimizer step per mini-batch of sequences: one forward pass over the
batch right-padded to its longest sequence, one backward pass of the mean
of the per-example losses, gradients clipped at a global norm of 1.0, then
Adam. After every epoch the model decodes the validation split with seeded
nucleus sampling and the epoch with the highest METEOR wins (earliest on
ties); without a validation split the last epoch is kept. Runs are seeded
end to end: the same config and seed reproduce the same best checkpoint bit
for bit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .corpus import BOS, EOS, PAD, SENT, ImageSequenceRecord, Vocabulary
from .decoding import (
    DecodingConfig,
    generate,  # unused here: perfbench/tracing.py binds training.generate
    generate_batch,
)
from .errors import ConfigError, DataError, TrainingError
from .metrics import EvalPair
from .model import (
    EVAL_SLICE,
    ModelConfig,
    StoryGenModel,
    assemble_batch,
    assemble_input,
    build_model,
    forward_logits,
    save_checkpoint,
    story_loss,  # unused here: perfbench/tracing.py binds training.story_loss
    story_losses,
)
from .numerics import adam_step, clip_global_norm, no_grad

log = logging.getLogger("vwpstory.training")

CONTROL_TOKENS = {PAD, BOS, EOS, SENT}

# the optimizer's fixed settings; Adam's betas and eps are adam_step's defaults
CLIP_NORM = 1.0


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
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and non-negative, not {self.lr}")


@dataclass
class RunLog:
    seed: int
    train_loss: list[float] = field(default_factory=list)
    val_meteor: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    best_checkpoint: str | None = None
    selection: str = "meteor"  # "last" when there is no validation split

    def to_dict(self) -> dict:
        return {"seed": self.seed, "train_loss": self.train_loss,
                "val_meteor": self.val_meteor, "best_epoch": self.best_epoch,
                "best_checkpoint": self.best_checkpoint, "selection": self.selection}


def metric_tokens(surface_tokens: list[str]) -> list[str]:
    """Tokens as scored by the metrics: control/separator tokens dropped."""
    return [t for t in surface_tokens if t not in CONTROL_TOKENS]


def training_examples(records: list[ImageSequenceRecord]) -> list[tuple[ImageSequenceRecord, list[int]]]:
    examples = []
    for rec in records:
        for story in rec.stories:
            if story.tokens:
                examples.append((rec, list(story.tokens)))
    return examples


def train_epoch(model: StoryGenModel, records: list[ImageSequenceRecord],
                vocab: Vocabulary, config: TrainConfig, seed: int,
                epoch: int = 0) -> float:
    """One full pass: seed-deterministic shuffling and dropout; returns the
    mean story loss over all examples."""
    examples = training_examples(records)
    if not examples:
        raise DataError("train_epoch: no training examples with tokens")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(len(examples))
    store = model.store
    total = 0.0
    for start in range(0, len(order), config.batch_size):
        batch = [examples[idx] for idx in order[start:start + config.batch_size]]
        store.zero_grad()
        losses = story_losses(model, [(rec, tokens + [vocab.eos_id]) for rec, tokens in batch],
                              bos_id=vocab.bos_id, training=True, rng=rng)
        for (rec, _), value in zip(batch, losses.data.tolist()):
            if not math.isfinite(value):
                raise TrainingError(
                    f"epoch {epoch}, batch {start // config.batch_size}, "
                    f"sequence {rec.id}: non-finite loss")
            total += value
        losses.backward(np.full(len(batch), 1.0 / len(batch)))
        clip_global_norm(store, CLIP_NORM)
        adam_step(store, lr=config.lr)
    return total / len(examples)


def select_best(val_scores: list[float]) -> int:
    """1-based epoch with the highest validation METEOR; earliest on ties."""
    if not val_scores:
        raise DataError("select_best: no scored epochs")
    best = max(range(len(val_scores)), key=lambda i: (val_scores[i], -i))
    return best + 1


def eval_pairs(model: StoryGenModel, records: list[ImageSequenceRecord],
               vocab: Vocabulary, decoding: DecodingConfig) -> list[EvalPair]:
    """A decoded story and its references for every record with references."""
    scored, references = [], []
    for rec in records:
        refs = [metric_tokens(vocab.decode(story.tokens)) for story in rec.stories if story.tokens]
        if refs:
            scored.append(rec)
            references.append(refs)
    if not scored:
        raise DataError("no evaluable sequences (no reference stories)")
    return [EvalPair(hypothesis=metric_tokens(hyp.tokens), references=refs)
            for hyp, refs in zip(generate_batch(model, scored, vocab, decoding), references)]


def validate_meteor(model: StoryGenModel, records: list[ImageSequenceRecord],
                    vocab: Vocabulary, decoding: DecodingConfig) -> float:
    return metrics_mod.meteor(eval_pairs(model, records, vocab, decoding))


def evaluate_model(model: StoryGenModel, records: list[ImageSequenceRecord],
                   vocab: Vocabulary, decoding: DecodingConfig) -> dict[str, float]:
    """Every metric on the records' decoded stories (see ``compute_metrics``
    for CIDEr on a single record)."""
    return metrics_mod.compute_metrics(eval_pairs(model, records, vocab, decoding))


@dataclass
class FitResult:
    runlogs: list[RunLog]
    test_scores: dict[str, list[float]]
    aggregate: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "runlogs": [r.to_dict() for r in self.runlogs],
            "test_scores": self.test_scores,
            "aggregate": {k: {"mean": m, "std": s} for k, (m, s) in self.aggregate.items()},
        }


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


def fit(config: TrainConfig, splits: dict[str, list[ImageSequenceRecord]],
        model_config: ModelConfig, vocab: Vocabulary) -> FitResult:
    """Train once per seed, select the best epoch by validation METEOR (the
    last epoch when there is no validation split), then score the selected
    weights on the test split with greedy decoding. Per-metric mean/std
    aggregates the seeds."""
    ckpt_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    validate = bool(splits.get("val"))
    runlogs: list[RunLog] = []
    test_scores: dict[str, list[float]] = {}
    for seed in config.seeds:
        model = build_model(replace(model_config, seed=seed))
        run = RunLog(seed=seed, selection="meteor" if validate else "last")
        best_meteor = -1.0
        best_params: np.ndarray | None = None
        ckpt_path = ckpt_dir / f"seed{seed}-best.ckpt" if ckpt_dir else None
        for epoch in range(1, config.epochs + 1):
            loss = train_epoch(model, splits["train"], vocab, config,
                               seed=_epoch_seed(seed, epoch), epoch=epoch)
            run.train_loss.append(loss)
            score = validate_meteor(model, splits["val"], vocab, config.val_decoding) \
                if validate else 0.0
            run.val_meteor.append(score)
            log.info("seed %d epoch %d: train loss %.4f, val METEOR %.4f",
                     seed, epoch, loss, score)
            keep = score > best_meteor if validate else epoch == config.epochs
            if keep:
                best_meteor = score
                run.best_epoch = epoch
                best_params = model.store.flat.copy()
                if ckpt_path:
                    save_checkpoint(model, ckpt_path)
                    run.best_checkpoint = str(ckpt_path)
        if validate and run.best_epoch != select_best(run.val_meteor):
            raise TrainingError(
                f"seed {seed}: kept epoch {run.best_epoch}, but validation METEOR "
                f"{run.val_meteor} selects epoch {select_best(run.val_meteor)}")
        if best_params is not None:
            model.store.flat[:] = best_params
        runlogs.append(run)
        if splits.get("test"):
            scores = evaluate_model(model, splits["test"], vocab, config.test_decoding)
            for metric, value in scores.items():
                test_scores.setdefault(metric, []).append(value)
    aggregate = {metric: metrics_mod.mean_std(values) for metric, values in test_scores.items()}
    return FitResult(runlogs=runlogs, test_scores=test_scores, aggregate=aggregate)


def _eval_slices(records: list[ImageSequenceRecord], vocab: Vocabulary) -> list[list]:
    """Every story with [EOS] appended, in slices of ``EVAL_SLICE`` examples."""
    examples = [(rec, tokens + [vocab.eos_id]) for rec, tokens in training_examples(records)]
    return [examples[i:i + EVAL_SLICE] for i in range(0, len(examples), EVAL_SLICE)]


def held_out_loss(model: StoryGenModel, records: list[ImageSequenceRecord],
                  vocab: Vocabulary) -> float:
    """Mean eval-mode story loss over all stories in the records."""
    slices = _eval_slices(records, vocab)
    if not slices:
        raise DataError("held_out_loss: no examples")
    total = 0.0
    with no_grad():
        for examples in slices:
            for value in story_losses(model, examples, bos_id=vocab.bos_id).data.tolist():
                total += value
    return total / sum(len(examples) for examples in slices)


def next_token_accuracy(model: StoryGenModel, records: list[ImageSequenceRecord],
                        vocab: Vocabulary,
                        target_ids: set[int] | None = None) -> float:
    """Teacher-forced argmax accuracy over story positions, optionally
    restricted to positions whose target id is in ``target_ids``."""
    hits = 0
    count = 0
    for examples in _eval_slices(records, vocab):
        batch = assemble_batch([assemble_input(rec, tokens, model.config, vocab.bos_id)
                                for rec, tokens in examples])
        with no_grad():
            logits = forward_logits(model, batch).data
        rows = np.flatnonzero(batch.loss_mask)
        if target_ids is not None:
            rows = rows[np.isin(batch.targets[rows], list(target_ids))]
        count += rows.size
        hits += int((logits[rows].argmax(axis=1) == batch.targets[rows]).sum())
    if count == 0:
        raise DataError("next_token_accuracy: no qualifying positions")
    return hits / count


def save_runlogs(result: FitResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- planted-task comparison experiment ---------------------------------------

GRID_BATCH_SIZE = 16
GRID_CORPUS_SEED = 0


@dataclass
class GridComparisonResult:
    per_seed: list[dict]
    grid_wins: int
    min_grid_accuracy: float

    def to_dict(self) -> dict:
        return {"per_seed": self.per_seed, "grid_wins": self.grid_wins,
                "min_grid_accuracy": self.min_grid_accuracy}


def run_grid_comparison(*, n_sequences: int = 560, val_count: int = 60,
                        seeds: tuple[int, ...] = (0, 1, 2), epochs: int = 14,
                        lr: float = 2e-3, d_model: int = 64, n_layers: int = 1,
                        n_heads: int = 4) -> GridComparisonResult:
    """Train grid-conditioned and no-grid variants identically on the
    planted corpus whose section words encode per-image character presence,
    and compare held-out loss plus accuracy on the grid-determined tokens."""
    from .synth import pattern_token_ids, synthetic_grid_corpus
    from .corpus import prepare_records

    records = synthetic_grid_corpus(n_sequences, seed=GRID_CORPUS_SEED)
    prepared = prepare_records(records, seed=GRID_CORPUS_SEED, val_count=val_count,
                               test_count=0)
    vocab = prepared.vocab
    pattern_ids = pattern_token_ids(vocab)
    base = dict(vocab_size=len(vocab), feat_dim=8, d_model=d_model,
                n_layers=n_layers, n_heads=n_heads, d_ff=2 * d_model, t_max=24,
                n_max=5, m_max=5, o_max=2, dropout=0.0)
    config = TrainConfig(epochs=epochs, batch_size=GRID_BATCH_SIZE, lr=lr, seeds=seeds)

    def train_variant(grid_mode: str, seed: int) -> StoryGenModel:
        cfg = ModelConfig(feature_set=("global", "char"), grid_mode=grid_mode,
                          seed=seed, **base)
        model = build_model(cfg)
        for epoch in range(1, epochs + 1):
            train_epoch(model, prepared.splits["train"], vocab, config,
                        seed=_epoch_seed(seed, epoch), epoch=epoch)
        return model

    per_seed = []
    wins = 0
    min_acc = 1.0
    for seed in seeds:
        grid_model = train_variant("char", seed)
        plain_model = train_variant("none", seed)
        grid_loss = held_out_loss(grid_model, prepared.splits["val"], vocab)
        plain_loss = held_out_loss(plain_model, prepared.splits["val"], vocab)
        accuracy = next_token_accuracy(grid_model, prepared.splits["val"], vocab,
                                       pattern_ids)
        wins += int(grid_loss < plain_loss)
        min_acc = min(min_acc, accuracy)
        log.info("grid comparison seed %d: grid %.4f vs none %.4f, accuracy %.3f",
                 seed, grid_loss, plain_loss, accuracy)
        per_seed.append({"seed": seed, "grid_loss": grid_loss,
                         "baseline_loss": plain_loss, "grid_accuracy": accuracy})
    return GridComparisonResult(per_seed=per_seed, grid_wins=wins,
                                min_grid_accuracy=min_acc)
