"""The benchmark's tracer patches names in vwpstory from the outside
(``perfbench/tracing.py``). These tests hold the program to every name the
tracer binds, so deleting or renaming one fails here rather than in a
``--trace 1`` run. The tracer file is read and executed, never changed."""

import importlib
import math
import types
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULE_NAMES = ("analytics", "corpus", "decoding", "metrics", "model", "numerics", "training")


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING_PATH)
    exec(compile(TRACING_PATH.read_text(), str(TRACING_PATH), "exec"), module.__dict__)
    return module


tracing = _load_tracing()
MODULES = {name: importlib.import_module(f"vwpstory.{name}") for name in MODULE_NAMES}


@pytest.mark.parametrize("module_name, attr, metric", tracing.SPAN_TARGETS)
def test_every_span_target_resolves(module_name, attr, metric):
    owner = tracing._resolve(MODULES, module_name)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{attr} ({metric})"


def test_stem_counter_binding_resolves():
    assert callable(getattr(MODULES["metrics"], "stem", None))


def _bindings() -> dict:
    bound = {(module_name, attr): getattr(tracing._resolve(MODULES, module_name), attr)
             for module_name, attr, _ in tracing.SPAN_TARGETS}
    bound[("metrics", "stem")] = MODULES["metrics"].stem
    bound[("numerics.Tensor", "__init__")] = MODULES["numerics"].Tensor.__init__
    return bound


def test_installed_patches_every_binding_and_restores_them_on_exit():
    before = _bindings()
    with tracing.Tracer().installed(MODULES):
        during = _bindings()
        assert all(during[key] is not original for key, original in before.items())
    assert all(_bindings()[key] is original for key, original in before.items())
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed(MODULES):
            raise RuntimeError("the block fails")
    assert all(_bindings()[key] is original for key, original in before.items())


def test_observers_read_the_call_arguments_they_assume(tmp_path):
    """The observers read positional arguments: ``grid_for_mode``'s record id,
    ``generate``'s config, ``train_epoch``'s records, ``save_checkpoint``'s
    path and ``forward_logits``'s layout. One traced pass over each observed
    call must count them all and leave every layer metric finite."""
    from vwpstory.synth import synthetic_grid_corpus

    corpus, decoding, metrics, model, training = (
        MODULES[name] for name in ("corpus", "decoding", "metrics", "model", "training"))
    prepared = corpus.prepare_records(synthetic_grid_corpus(8, seed=1), seed=1, val_count=2)
    vocab, train = prepared.vocab, prepared.splits["train"]
    config = model.ModelConfig(vocab_size=len(vocab), feat_dim=8, d_model=8, n_layers=1,
                               n_heads=2, t_max=64, n_max=5, m_max=5, o_max=2,
                               feature_set=("global", "char"), grid_mode="char", dropout=0.0,
                               seed=1)
    tracer = tracing.Tracer()
    with tracer.installed(MODULES), tracer.operation(0):
        built = model.build_model(config)
        training.train_epoch(built, train, vocab, training.TrainConfig(batch_size=4), 1)
        decoding.generate(built, train[0], vocab, decoding.DecodingConfig(max_new_tokens=3))
        model.save_checkpoint(built, tmp_path / "tiny.ckpt")
        model.load_checkpoint(tmp_path / "tiny.ckpt")
        metrics.meteor([metrics.EvalPair(hypothesis=["a", "dog"], references=[["a", "cat"]])])

    calls, counts = tracer.calls["ops"], tracer.counts["ops"]
    for name in ("chargrid.grid_for_mode", "model.assemble_input", "model.forward_logits",
                 "training.train_epoch", "decoding.generate", "model.save_checkpoint",
                 "model.load_checkpoint", "metrics.meteor"):
        assert calls[name] > 0, name
    for name in ("numerics.matmul.gflop", "model.forward_logits.positions",
                 "model.save_checkpoint.bytes", "training.examples"):
        assert counts[name] > 0, name
    assert counts["decoding.stop_eos"] + counts["decoding.stop_budget"] == 1
    assert set() < tracer.grid_records[0] <= {rec.id for rec in train}
    assert tracer.meteor_pairs == 1
    values = tracer.layer_metrics(1, 1.0)
    assert values["chargrid.grids_per_record"] > 0
    assert all(math.isfinite(value) for value in values.values())
