import hashlib
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwpstory import training
from vwpstory.corpus import prepare_records
from vwpstory.decoding import DecodingConfig, generate_batch
from vwpstory.errors import DataError, NumericError, UsageError
from vwpstory.model import (
    EVAL_SLICE,
    ModelConfig,
    assemble_input,
    build_model,
    forward_logits,
    load_checkpoint,
    story_loss,
)
from vwpstory.numerics import no_grad
from vwpstory.synth import fixture_dataset, pattern_token_ids, synthetic_grid_corpus
from vwpstory.training import (
    TrainConfig,
    fit,
    held_out_scores,
    metric_tokens,
    run_grid_comparison,
    select_best,
    train_epoch,
)


def tiny_prepared(n=12, seed=0, val=2, test=2):
    records = synthetic_grid_corpus(n, seed=seed)
    return prepare_records(records, seed=seed, val_count=val, test_count=test)


def tiny_model_config(vocab_size, **kwargs):
    base = dict(vocab_size=vocab_size, feat_dim=8, d_model=16, n_layers=1,
                n_heads=2, d_ff=32, t_max=24, n_max=5, m_max=5, o_max=2,
                feature_set=("global", "char"), grid_mode="char", dropout=0.0,
                seed=0)
    base.update(kwargs)
    return ModelConfig(**base)


def count_train_epochs(monkeypatch) -> list:
    """Patch ``training.train_epoch`` to log each call; returns the log."""
    calls, real = [], training.train_epoch

    def counting(*args, **kwargs):
        calls.append(kwargs.get("epoch"))
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "train_epoch", counting)
    return calls


def tiny_train_config(**kwargs):
    base = dict(epochs=2, batch_size=4, lr=5e-3, seeds=(0,),
                val_decoding=DecodingConfig(mode="nucleus", p=0.9,
                                            max_new_tokens=12, seed=777),
                test_decoding=DecodingConfig(mode="greedy", max_new_tokens=12))
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainEpoch:
    def test_overfit_single_example(self):
        prepared = tiny_prepared(n=3, val=0, test=0)
        one = prepared.splits["train"][:1]
        model = build_model(tiny_model_config(len(prepared.vocab)))
        cfg = tiny_train_config(lr=1e-2, batch_size=1)
        loss = None
        for epoch in range(1, 201):
            loss = train_epoch(model, one, prepared.vocab, cfg, seed=epoch, epoch=epoch)
        assert loss < 0.05

    def test_same_seed_identical_trajectory(self):
        prepared = tiny_prepared()
        cfg = tiny_train_config()

        def run():
            model = build_model(tiny_model_config(len(prepared.vocab)))
            return [train_epoch(model, prepared.splits["train"], prepared.vocab,
                                cfg, seed=5, epoch=e) for e in range(3)]

        assert run() == run()

    def test_zero_lr_freezes_parameters(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        before = {n: model.store[n].data.copy() for n in model.store.params}
        cfg = tiny_train_config(lr=0.0)
        losses = [train_epoch(model, prepared.splits["train"], prepared.vocab,
                              cfg, seed=3, epoch=e) for e in range(2)]
        for name in model.store.params:
            np.testing.assert_array_equal(model.store[name].data, before[name])
        assert losses[0] == pytest.approx(losses[1])

    def test_divergence_raises_with_context(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        model.store["out.w"].data[:] = 1e308  # force an overflow downstream
        # the overflow warns nothing (warnings are errors here), and the
        # refusal names where it happened and chains the op's own
        with pytest.raises(NumericError, match=r"^epoch 1, batch 0: forward_logits: ") as info:
            train_epoch(model, prepared.splits["train"], prepared.vocab,
                        tiny_train_config(), seed=0, epoch=1)
        assert isinstance(info.value.__cause__, NumericError)
        assert str(info.value) == f"epoch 1, batch 0: {info.value.__cause__}"

    def test_overflowing_gradient_norm_is_refused_at_its_batch(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        # a finite loss whose gradients' squares overflow: clipping by the
        # infinite norm would zero the step without a word
        model.store["out.w"].data[:] = 1e200
        with pytest.raises(NumericError,
                           match=r"^epoch 2, batch 0: clip_global_norm: gradient norm is inf$"):
            train_epoch(model, prepared.splits["train"], prepared.vocab,
                        tiny_train_config(), seed=0, epoch=2)

    def test_one_forward_and_one_backward_per_batch(self, monkeypatch):
        from vwpstory import numerics as nm
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        sizes, walks = [], []
        real_losses, real_backward = training.story_losses, nm.Tensor.backward

        def counting_losses(model_, examples, *args, **kwargs):
            sizes.append(len(examples))
            return real_losses(model_, examples, *args, **kwargs)

        def counting_backward(tensor, *args, **kwargs):
            walks.append(tensor.shape)
            return real_backward(tensor, *args, **kwargs)

        monkeypatch.setattr(training, "story_losses", counting_losses)
        monkeypatch.setattr(nm.Tensor, "backward", counting_backward)
        n = len(training.training_examples(prepared.splits["train"], prepared.vocab.eos_id))
        train_epoch(model, prepared.splits["train"], prepared.vocab,
                    tiny_train_config(batch_size=4), seed=1)
        assert sum(sizes) == n and sizes == [4] * (n // 4) + ([n % 4] if n % 4 else [])
        assert walks == [(size,) for size in sizes]

    def test_epoch_loss_is_mean_of_per_example_losses(self):
        prepared = tiny_prepared()
        vocab = prepared.vocab
        model = build_model(tiny_model_config(len(vocab)))
        records = prepared.splits["train"]
        # the same weights, eval mode
        want, _ = held_out_scores(model, records, vocab, set(range(len(vocab))))
        got = train_epoch(model, records, vocab, tiny_train_config(lr=0.0), seed=2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_non_finite_loss_names_the_sequence(self, monkeypatch):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        real_losses = training.story_losses
        seen = []

        def poisoned(model_, examples, *args, **kwargs):
            losses = real_losses(model_, examples, *args, **kwargs)
            losses.data[1] = np.nan
            seen.append(examples[1][0].id)
            return losses

        monkeypatch.setattr(training, "story_losses", poisoned)
        with pytest.raises(NumericError, match="non-finite loss") as info:
            train_epoch(model, prepared.splits["train"], prepared.vocab,
                        tiny_train_config(), seed=0, epoch=7)
        assert f"epoch 7, batch 0, sequence {seen[0]}: non-finite loss" in str(info.value)

    def test_empty_train_set_errors(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        with pytest.raises(DataError):
            train_epoch(model, [], prepared.vocab, tiny_train_config(), seed=0)


    @pytest.mark.parametrize("features", [("global", "obj"), ("global", "char")])
    def test_batches_without_entity_rows_train(self, features):
        # the planted corpus has no objects; drop its characters too
        prepared = tiny_prepared()
        records = prepared.splits["train"]
        for rec in records:
            assert not rec.objects
            rec.characters = []
        model = build_model(tiny_model_config(len(prepared.vocab), feature_set=features,
                                              grid_mode=features[1]))
        entity = model.store["enc_entity.w"].data.copy()
        loss = train_epoch(model, records, prepared.vocab, tiny_train_config(), seed=0)
        assert math.isfinite(loss) and model.store.step > 0
        # a zero gradient leaves Adam's moments, and so the encoder, at rest
        assert model.store["enc_entity.w"].grad.tobytes() == bytes(entity.nbytes)
        assert model.store["enc_entity.w"].data.tobytes() == entity.tobytes()

    def test_hot_loops_build_no_per_example_layouts(self, monkeypatch):
        """Every batch, scoring slice and decode slice is one ``assemble_input``
        call that holds all of its sequences."""
        from vwpstory import decoding, model as model_mod
        prepared = tiny_prepared(n=40)
        model = build_model(tiny_model_config(len(prepared.vocab)))
        records, vocab = prepared.splits["train"], prepared.vocab
        for rec in records[::4]:  # a second prefix width
            rec.characters = rec.characters[:-1]
        n_examples = len(training.training_examples(records, vocab.eos_id))
        widths = [assemble_input([(rec, [])], model.config, vocab.bos_id).width
                  for rec in records]
        real, sizes = model_mod.assemble_input, []

        def counting(examples, *args, **kwargs):
            sizes.append(len(examples))
            return real(examples, *args, **kwargs)

        for module in (model_mod, training, decoding):
            monkeypatch.setattr(module, "assemble_input", counting)

        def batch_sizes(n, size):
            return [min(size, n - start) for start in range(0, n, size)]

        train_epoch(model, records, vocab, tiny_train_config(), seed=0)
        assert sizes == batch_sizes(n_examples, 4)
        sizes.clear()
        held_out_scores(model, records, vocab, set(range(len(vocab))))
        assert sizes == batch_sizes(n_examples, EVAL_SLICE)
        sizes.clear()
        generate_batch(model, records, vocab, DecodingConfig(max_new_tokens=2))
        groups = [widths.count(width) for width in dict.fromkeys(widths)]
        assert len(groups) > 1 and max(groups) > EVAL_SLICE  # the data cut slices
        assert sizes == [n for group in groups for n in batch_sizes(group, EVAL_SLICE)]


ROOT = Path(__file__).resolve().parents[1]

# three epochs of 4 steps at the planted run's shape in a fresh process; with
# "off" the malloc thresholds are never set. Prints the losses, the minor page
# faults of each epoch and the step count, and saves the checkpoint.
STEPS_SCRIPT = """
import json
import resource
import sys

from vwpstory import training
from vwpstory.corpus import prepare_records
from vwpstory.model import ModelConfig, build_model, save_checkpoint
from vwpstory.synth import synthetic_grid_corpus

if sys.argv[1] == "off":
    training.keep_freed_memory = lambda: None
prepared = prepare_records(synthetic_grid_corpus(64, seed=0), seed=0, val_count=0,
                           test_count=0)
vocab = prepared.vocab
model = build_model(ModelConfig(
    vocab_size=len(vocab), feat_dim=8, d_model=64, n_layers=1, n_heads=4, d_ff=128,
    t_max=24, n_max=5, m_max=5, o_max=2, feature_set=("global", "char"),
    grid_mode="char", dropout=0.1, seed=1))
config = training.TrainConfig(epochs=1, batch_size=16, lr=2e-3, seeds=(1,))
losses, faults = [], []
for epoch in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    losses.append(training.train_epoch(model, prepared.splits["train"], vocab, config,
                                       seed=epoch).hex())
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
save_checkpoint(model, sys.argv[2])
print(json.dumps({"losses": losses, "faults": faults, "steps": model.store.step}))
"""

# imports the package, decodes and scores, then trains one epoch; prints
# whether the malloc thresholds were set after each stage
SCOPE_SCRIPT = """
import json

import vwpstory.cli
from vwpstory import training
from vwpstory.corpus import prepare_records
from vwpstory.decoding import DecodingConfig, generate_batch
from vwpstory.metrics import EvalPair, compute_metrics
from vwpstory.model import ModelConfig, build_model
from vwpstory.synth import synthetic_grid_corpus

calls = []
real = training.keep_freed_memory
training.keep_freed_memory = lambda: calls.append(1) or real()
seen = {"import": training._malloc_thresholds_set}
prepared = prepare_records(synthetic_grid_corpus(12, seed=0), seed=0, val_count=2,
                           test_count=2)
vocab = prepared.vocab
model = build_model(ModelConfig(
    vocab_size=len(vocab), feat_dim=8, d_model=16, n_layers=1, n_heads=2, d_ff=32,
    t_max=24, n_max=5, m_max=5, o_max=2, feature_set=("global", "char"),
    grid_mode="char", dropout=0.0, seed=0))
generate_batch(model, prepared.splits["val"], vocab,
               DecodingConfig(mode="nucleus", p=0.9, max_new_tokens=8, seed=1))
seen["generate_batch"] = training._malloc_thresholds_set
words = [f"w{i % 37}" for i in range(1200)]
compute_metrics([EvalPair(hypothesis=words, references=[words[::-1]])] * 2)
seen["compute_metrics"] = training._malloc_thresholds_set
seen["calls_before_training"] = len(calls)
training.train_epoch(model, prepared.splits["train"], vocab,
                     training.TrainConfig(epochs=1, batch_size=4, seeds=(0,)), seed=0)
seen["train_epoch"] = training._malloc_thresholds_set
print(json.dumps(seen))
"""


def run_fresh(*args) -> dict:
    """Run ``python -c *args`` in a new process importing this checkout's src/;
    return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                         cwd=ROOT, env=env, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def fresh_steps(tmp_path_factory):
    """``STEPS_SCRIPT``'s output and checkpoint bytes per mode, run once each."""
    runs = {}

    def run(mode):
        if mode not in runs:
            path = tmp_path_factory.mktemp(mode) / "model.ckpt"
            runs[mode] = run_fresh(STEPS_SCRIPT, mode, str(path)), path.read_bytes()
        return runs[mode]

    return run


class TestMallocThresholds:
    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="mallopt's thresholds are glibc's")
    def test_steps_after_a_warm_up_fault_in_no_pages(self, fresh_steps):
        # glibc's defaults hand each step's freed activations back to the
        # kernel: about a thousand minor faults a step at this shape
        result, _ = fresh_steps("on")
        later_steps = result["steps"] * 2 // 3
        assert sum(result["faults"][1:]) < 10 * later_steps, result["faults"]

    def test_thresholds_change_no_bit(self, fresh_steps):
        # training is bit for bit the same with and without the thresholds
        (on, on_ckpt), (off, off_ckpt) = fresh_steps("on"), fresh_steps("off")
        assert on["losses"] == off["losses"] and on["steps"] == off["steps"] == 12
        assert on_ckpt == off_ckpt

    def test_without_mallopt_training_runs_unchanged(self, monkeypatch):
        prepared = tiny_prepared()

        def losses():
            model = build_model(tiny_model_config(len(prepared.vocab)))
            return [train_epoch(model, prepared.splits["train"], prepared.vocab,
                                tiny_train_config(), seed=seed).hex() for seed in (0, 1)]

        want = losses()
        lookups = []
        monkeypatch.setattr(training, "_malloc_thresholds_set", False)
        monkeypatch.setattr(training.ctypes, "CDLL",
                            lambda name: lookups.append(name) or types.SimpleNamespace())
        assert losses() == want
        assert lookups == [None] and training._malloc_thresholds_set

    def test_only_training_sets_them(self):
        seen = run_fresh(SCOPE_SCRIPT)
        assert seen == {"import": False, "generate_batch": False, "compute_metrics": False,
                        "calls_before_training": 0, "train_epoch": True}


class TestSelectBest:
    def test_argmax(self):
        assert select_best([0.30, 0.33, 0.31]) == 2

    def test_tie_earliest(self):
        assert select_best([0.2, 0.2]) == 1

    def test_single(self):
        assert select_best([0.4]) == 1

    def test_empty_errors(self):
        with pytest.raises(DataError):
            select_best([])

    # coarse score grid: differences stay far above one ulp after the
    # affine transform, so float rounding cannot collapse distinct scores
    @given(st.lists(st.integers(0, 64).map(lambda k: k / 64), min_size=1, max_size=8),
           st.floats(0.1, 5.0), st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_positive_monotone_transform(self, scores, a, b):
        transformed = [a * s + b for s in scores]
        assert select_best(scores) == select_best(transformed)


class TestMetricTokens:
    def test_drops_control_tokens(self):
        toks = ["[BOS]", "a", "[sent]", "b", "[EOS]", "[PAD]"]
        assert metric_tokens(toks) == ["a", "b"]

    def test_keeps_placeholders(self):
        assert metric_tokens(["[male0]", "ran"]) == ["[male0]", "ran"]


class TestFit:
    def test_three_seeds_aggregate(self, tmp_path):
        prepared = tiny_prepared()
        cfg = tiny_train_config(seeds=(1, 2, 3), checkpoint_dir=tmp_path)
        result = fit(cfg, prepared.splits, tiny_model_config(len(prepared.vocab)),
                     prepared.vocab)
        assert len(result.runlogs) == 3
        assert all(len(r.train_loss) == 2 for r in result.runlogs)
        for metric, (mean, std) in result.aggregate.items():
            assert std >= 0.0
            values = result.test_scores[metric]
            assert mean == pytest.approx(sum(values) / len(values))

    def test_single_seed_std_zero(self):
        prepared = tiny_prepared()
        result = fit(tiny_train_config(seeds=(4,)), prepared.splits,
                     tiny_model_config(len(prepared.vocab)), prepared.vocab)
        assert all(std == 0.0 for _, std in result.aggregate.values())

    def test_one_epoch_best_is_one(self):
        prepared = tiny_prepared()
        result = fit(tiny_train_config(epochs=1), prepared.splits,
                     tiny_model_config(len(prepared.vocab)), prepared.vocab)
        assert result.runlogs[0].best_epoch == 1

    def test_best_epoch_matches_select_best(self, tmp_path):
        prepared = tiny_prepared()
        cfg = tiny_train_config(epochs=3, checkpoint_dir=tmp_path)
        result = fit(cfg, prepared.splits, tiny_model_config(len(prepared.vocab)),
                     prepared.vocab)
        run = result.runlogs[0]
        assert run.best_epoch == select_best(run.val_meteor)
        assert run.best_checkpoint is not None
        assert run.selection == "meteor"

    def test_without_validation_keeps_last_epoch(self, tmp_path):
        prepared = tiny_prepared(val=0)
        model_cfg = tiny_model_config(len(prepared.vocab))
        cfg = tiny_train_config(epochs=3, checkpoint_dir=tmp_path)
        run = fit(cfg, prepared.splits, model_cfg, prepared.vocab).runlogs[0]
        assert run.best_epoch == 3
        assert run.selection == "last"

        replay = build_model(replace(model_cfg, seed=0))
        snapshots = []
        for epoch in range(1, 4):
            train_epoch(replay, prepared.splits["train"], prepared.vocab, cfg,
                        seed=training._epoch_seed(0, epoch), epoch=epoch)
            snapshots.append({n: replay.store[n].data.copy() for n in replay.store.params})
        saved = load_checkpoint(run.best_checkpoint)
        for name in replay.store.params:
            assert saved.store[name].data.tobytes() == snapshots[2][name].tobytes()
        assert any(not np.array_equal(snapshots[0][n], snapshots[2][n])
                   for n in replay.store.params)

    def test_bitwise_identical_best_checkpoints(self, tmp_path):
        prepared = tiny_prepared()
        blobs = []
        for sub in ("a", "b"):
            cfg = tiny_train_config(checkpoint_dir=tmp_path / sub)
            fit(cfg, prepared.splits, tiny_model_config(len(prepared.vocab)),
                prepared.vocab)
            blobs.append((tmp_path / sub / "seed0-best.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_a_split_without_references_is_refused_before_training(self, monkeypatch, split):
        prepared = tiny_prepared()
        epochs = count_train_epochs(monkeypatch)
        unscorable = [replace(rec, stories=[]) for rec in prepared.splits[split]]
        with pytest.raises(DataError, match=r"no evaluable sequences \(no reference stories\)"):
            fit(tiny_train_config(epochs=3), {**prepared.splits, split: unscorable},
                tiny_model_config(len(prepared.vocab)), prepared.vocab)
        assert epochs == []

    def test_pinned_training_bits(self, tmp_path):
        # recorded from a seeded run: any change to a training kernel's
        # float operations or their order moves these bits
        prepared = tiny_prepared()
        cfg = tiny_train_config(seeds=(1,), checkpoint_dir=tmp_path)
        run = fit(cfg, prepared.splits, tiny_model_config(len(prepared.vocab), dropout=0.1),
                  prepared.vocab).runlogs[0]
        digest = hashlib.sha256(Path(run.best_checkpoint).read_bytes()).hexdigest()
        assert digest == "5e2766f150989b63fb9cad5a8663ca799ff6082f0d1896378be6dd89ace068d4"
        assert [x.hex() for x in run.train_loss] == ["0x1.73cb6b2f7f3b4p+1",
                                                     "0x1.5640c6bbfea58p+1"]
        assert [x.hex() for x in run.val_meteor] == ["0x0.0p+0", "0x1.a1f58d0fac687p-5"]


class TestEvalHelpers:
    def test_held_out_loss_positive(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        every_id = set(range(len(prepared.vocab)))
        loss, _ = held_out_scores(model, prepared.splits["val"], prepared.vocab, every_id)
        assert loss > 0.0

    def test_next_token_accuracy_bounds(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        every_id = set(range(len(prepared.vocab)))
        _, acc = held_out_scores(model, prepared.splits["val"], prepared.vocab, every_id)
        assert 0.0 <= acc <= 1.0

    def test_accuracy_filter(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        patt = pattern_token_ids(prepared.vocab)
        _, acc = held_out_scores(model, prepared.splits["val"], prepared.vocab, patt)
        assert 0.0 <= acc <= 1.0
        with pytest.raises(DataError):
            held_out_scores(model, prepared.splits["val"], prepared.vocab, {-42})

    def test_no_examples_is_a_data_error(self):
        prepared = tiny_prepared()
        model = build_model(tiny_model_config(len(prepared.vocab)))
        with pytest.raises(DataError, match="training_examples: no story has tokens"):
            held_out_scores(model, [], prepared.vocab, set(range(len(prepared.vocab))))


@pytest.fixture(scope="module")
def mixed_eval_set():
    """A briefly trained model and 40 fixture stories cut to 1..18 tokens: the
    slices of held-out scoring pad every story but the longest, and the last
    slice is partial."""
    prepared = prepare_records(fixture_dataset(20, seed=7), seed=0)
    records, vocab = prepared.splits["train"], prepared.vocab
    for i, story in enumerate(s for rec in records for s in rec.stories):
        story.tokens = story.tokens[:1 + (7 * i) % 18]
    model = build_model(tiny_model_config(
        len(vocab), feature_set=("global", "char", "obj"), grid_mode="entity"))
    for epoch in range(1, 4):
        train_epoch(model, records, vocab, tiny_train_config(lr=1e-2), seed=epoch)
    return model, records, vocab


def per_example_accuracy(model, records, vocab, target_ids=None):
    """Reference accuracy: one forward per story, scored position by position."""
    hits = count = 0
    for rec, tokens in training.training_examples(records, vocab.eos_id):
        layout = assemble_input([(rec, tokens)], model.config, vocab.bos_id)
        with no_grad():
            predictions = forward_logits(model, layout).data.argmax(axis=1)
        for pos in np.flatnonzero(layout.targets >= 0):
            target = layout.targets[pos]
            if target_ids is None or target in target_ids:
                count += 1
                hits += int(predictions[pos] == target)
    return hits / count


class TestBatchedEvaluation:
    def test_eval_set_is_mixed(self, mixed_eval_set):
        _, records, vocab = mixed_eval_set
        examples = training.training_examples(records, vocab.eos_id)
        assert len(examples) % EVAL_SLICE != 0
        assert len({len(tokens) for _, tokens in examples}) == 18

    def test_held_out_loss_is_mean_of_story_losses(self, mixed_eval_set):
        model, records, vocab = mixed_eval_set
        with no_grad():
            losses = [story_loss(model, rec, tokens, vocab.bos_id).item()
                      for rec, tokens in training.training_examples(records, vocab.eos_id)]
        loss, _ = held_out_scores(model, records, vocab, set(range(len(vocab))))
        assert abs(loss - sum(losses) / len(losses)) < 1e-12

    def test_next_token_accuracy_matches_per_example(self, mixed_eval_set):
        model, records, vocab = mixed_eval_set
        want = per_example_accuracy(model, records, vocab)
        assert 0.2 < want < 1.0  # trained far enough that a wrong row would show
        assert held_out_scores(model, records, vocab, set(range(len(vocab))))[1] == want

    def test_filtered_accuracy_matches_per_example(self, mixed_eval_set):
        model, records, vocab = mixed_eval_set
        for target_ids in ({vocab.eos_id}, set(range(0, len(vocab), 2)),
                           set(range(1, len(vocab), 3))):
            want = per_example_accuracy(model, records, vocab, target_ids)
            assert held_out_scores(model, records, vocab, target_ids)[1] == want


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -1), ("epochs", 0), ("seeds", ()),
    ])
    def test_degenerate_loop_is_config_error(self, field, value):
        with pytest.raises(UsageError, match=f"{field} must be"):
            tiny_train_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", -1.0), ("lr", math.nan), ("lr", math.inf),
    ])
    def test_bad_optimizer_setting_is_config_error(self, field, value):
        with pytest.raises(UsageError, match=field):
            tiny_train_config(**{field: value})

    def test_zero_lr_is_valid(self):
        tiny_train_config(lr=0.0)


class TestGridComparisonSmoke:
    @pytest.fixture(scope="class")
    def result(self):
        return run_grid_comparison(n_sequences=40, val_count=8, seeds=(0,), epochs=2)

    def test_small_scale_run_shapes(self, result):
        assert len(result.per_seed) == 1
        row = result.per_seed[0]
        assert set(row) == {"seed", "grid_loss", "baseline_loss", "grid_accuracy",
                            "baseline_accuracy"}
        assert 0 <= result.min_grid_accuracy <= 1
        assert result.grid_wins in (0, 1)

    def test_values_match_an_explicit_training_loop(self, result):
        """Each variant trains through ``train_run``; the reference is the
        explicit loop of ``build_model`` and one ``train_epoch`` per epoch."""
        seed, epochs = 0, 2
        prepared = prepare_records(
            synthetic_grid_corpus(40, seed=training.GRID_CORPUS_SEED),
            seed=training.GRID_CORPUS_SEED, val_count=8, test_count=0)
        vocab, val = prepared.vocab, prepared.splits["val"]
        config = TrainConfig(epochs=epochs, batch_size=training.GRID_BATCH_SIZE, lr=2e-3,
                             seeds=(seed,))
        models = {}
        for grid_mode in ("char", "none"):
            models[grid_mode] = build_model(ModelConfig(
                vocab_size=len(vocab), feat_dim=8, d_model=64, n_layers=1, n_heads=4,
                d_ff=128, t_max=24, n_max=5, m_max=5, o_max=2, dropout=0.0,
                feature_set=("global", "char"), grid_mode=grid_mode, seed=seed))
            for epoch in range(1, epochs + 1):
                train_epoch(models[grid_mode], prepared.splits["train"], vocab, config,
                            seed=training._epoch_seed(seed, epoch), epoch=epoch)
        pattern_ids = pattern_token_ids(vocab)
        grid_loss, grid_accuracy = held_out_scores(models["char"], val, vocab, pattern_ids)
        baseline_loss, baseline_accuracy = held_out_scores(models["none"], val, vocab,
                                                           pattern_ids)
        want = (grid_loss, baseline_loss, grid_accuracy, baseline_accuracy)
        row = result.per_seed[0]
        got = (row["grid_loss"], row["baseline_loss"], row["grid_accuracy"],
               row["baseline_accuracy"])
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_an_empty_validation_split_is_refused_before_training(self, monkeypatch):
        epochs = count_train_epochs(monkeypatch)
        with pytest.raises(DataError, match="training_examples: no story has tokens"):
            run_grid_comparison(n_sequences=40, val_count=0, seeds=(0,), epochs=2)
        assert epochs == []

    def test_one_forward_per_validation_slice_per_variant(self, monkeypatch):
        from vwpstory import decoding, model as model_mod
        real, slices = model_mod.forward_logits, []

        def spy(model, batch, *args, rng=None, **kwargs):
            if rng is None:
                slices.append(batch.lengths.size)
            return real(model, batch, *args, rng=rng, **kwargs)

        for module in (model_mod, training, decoding):
            monkeypatch.setattr(module, "forward_logits", spy)
        run_grid_comparison(n_sequences=60, val_count=20, seeds=(0,), epochs=1)
        # 20 planted records of one story each: two slices per variant
        assert slices == [EVAL_SLICE, 20 - EVAL_SLICE] * len(training.GRID_VARIANTS)


class TestGridExperimentScript:
    @pytest.fixture
    def script(self):
        spec = importlib.util.spec_from_file_location(
            "run_grid_experiment", ROOT / "scripts" / "run_grid_experiment.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    @pytest.mark.parametrize("wins, accuracy, code",
                             [(3, 0.85, 1), (3, 0.90, 0), (3, 0.95, 0), (2, 0.95, 1)])
    def test_exit_code_is_the_acceptance_gate(self, script, monkeypatch, capsys, wins, accuracy,
                                             code):
        rows = [{"seed": seed, "grid_loss": 1.0, "baseline_loss": 2.0, "grid_accuracy": accuracy,
                 "baseline_accuracy": 0.5} for seed in (0, 1, 2)]
        result = training.GridComparisonResult(per_seed=rows, grid_wins=wins,
                                               min_grid_accuracy=accuracy)
        monkeypatch.setattr(script, "run_grid_comparison", lambda **kwargs: result)
        monkeypatch.setattr(sys, "argv", ["run_grid_experiment.py"])
        assert script.main() == code
        out = capsys.readouterr().out
        assert f"grid wins {wins}/3 seeds" in out
        assert out.splitlines()[0].endswith("baseline accuracy")
        assert all(line.endswith(" 0.500") for line in out.splitlines()[1:4])

    def test_only_the_flags_given_are_passed_on(self, script, monkeypatch, capsys):
        calls = []
        result = training.GridComparisonResult(per_seed=[], grid_wins=0, min_grid_accuracy=0.0)
        monkeypatch.setattr(script, "run_grid_comparison",
                            lambda **kwargs: calls.append(kwargs) or result)
        for argv, want in [([], {}), (["--sequences", "40", "--seeds", "0,2", "--epochs", "3"],
                                      {"n_sequences": 40, "seeds": (0, 2), "epochs": 3})]:
            monkeypatch.setattr(sys, "argv", ["run_grid_experiment.py", *argv])
            script.main()
            assert calls.pop() == want

    @pytest.mark.parametrize("flag", ["--lr", "--d-model", "--n-layers", "--n-heads"])
    def test_the_model_shape_is_fixed(self, script, monkeypatch, capsys, flag):
        monkeypatch.setattr(script, "run_grid_comparison", lambda **kwargs: pytest.fail())
        monkeypatch.setattr(sys, "argv", ["run_grid_experiment.py", flag, "2"])
        assert script.main() == 1
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @staticmethod
    def run_script(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_grid_experiment.py"), *args],
            capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("seeds", ["-1", "0,-2", "0,x"])
    def test_a_bad_seed_is_a_usage_error(self, seeds):
        proc = self.run_script(f"--seeds={seeds}")
        assert proc.returncode == 1, proc.stderr
        assert "--seeds" in proc.stderr and "non-negative integer" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["--epochs", "0"], "usage error: epochs must be at least 1"),
        (["--seeds="], "usage error: seeds must be nonempty"),
    ])
    def test_a_degenerate_config_is_a_usage_error(self, argv, message):
        proc = self.run_script(*argv)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    def test_json_reports_time_faults_and_peak_rss(self, script, monkeypatch, capsys):
        result = training.GridComparisonResult(per_seed=[], grid_wins=0, min_grid_accuracy=0.0)
        monkeypatch.setattr(script, "run_grid_comparison", lambda **kwargs: result)
        monkeypatch.setattr(sys, "argv", ["run_grid_experiment.py", "--json"])
        script.main()
        payload = json.loads(capsys.readouterr().out)
        figures = ("elapsed_seconds", "minor_faults", "system_seconds", "peak_rss_mb")
        assert all(payload[name] >= 0 for name in figures)
        # this process holds at least the interpreter and numpy
        assert payload["peak_rss_mb"] > 10
