import math
import mmap
import re
import tracemalloc
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from vwpstory import model as model_mod
from vwpstory import numerics as nm
from vwpstory.chargrid import entity_columns, flatten_pad, grid_for_mode
from vwpstory.cli import main
from vwpstory.corpus import (
    CharacterInstance,
    CharacterRecord,
    ImageRecord,
    ImageSequenceRecord,
    ObjectRecord,
)
from vwpstory.errors import ConfigError, DataError, StateError
from vwpstory.model import (
    FEATURES,
    GRID_MODES,
    BatchLayout,
    KVCache,
    ModelConfig,
    assemble_input,
    build_model,
    forward_logits,
    load_checkpoint,
    save_checkpoint,
    story_loss,
    story_losses,
    text_step,
)

BOS = 1
D = 4


def make_seq(n_images=5, n_chars=2, n_objs=0, seed=0, seq_id="s", dim=D):
    rng = np.random.default_rng(seed)
    images = [ImageRecord(image_id=f"{seq_id}-im{a}", global_feat=rng.normal(size=dim))
              for a in range(n_images)]
    chars = [
        CharacterRecord(
            char_id=f"{seq_id}-c{b}", gender="unknown",
            instances=[CharacterInstance(image_index=0, bbox=(0, 0, 2, 2), sharpness=1.0)],
            representative_feat=rng.normal(size=dim))
        for b in range(n_chars)
    ]
    objs = [ObjectRecord(object_id=f"{seq_id}-o{k}", feat=rng.normal(size=dim))
            for k in range(n_objs)]
    return ImageSequenceRecord(id=seq_id, images=images, characters=chars, objects=objs)


def tiny_config(**kwargs):
    base = dict(vocab_size=16, feat_dim=D, d_model=8, n_layers=1, n_heads=2,
                d_ff=16, t_max=16, n_max=5, m_max=3, o_max=2,
                feature_set=("global", "char"), grid_mode="char",
                dropout=0.0, seed=0)
    base.update(kwargs)
    return ModelConfig(**base)


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=9)

    def test_zero_heads_is_config_error(self):
        # positivity is checked before d_model % n_heads can divide by zero
        with pytest.raises(ConfigError, match="n_heads must be positive"):
            tiny_config(n_heads=0)

    def test_grid_mode_requires_features(self):
        with pytest.raises(ConfigError):
            tiny_config(feature_set=("global",), grid_mode="char")
        with pytest.raises(ConfigError):
            tiny_config(feature_set=("global", "char"), grid_mode="entity")

    def test_global_mandatory(self):
        with pytest.raises(ConfigError):
            tiny_config(feature_set=("char",), grid_mode="none")

    def test_canonical_round_trip(self):
        cfg = tiny_config(dropout=0.1)
        again = ModelConfig.from_canonical_text(cfg.canonical_text())
        assert again == cfg


class TestBuildModel:
    def test_seed_determinism(self):
        a = build_model(tiny_config())
        b = build_model(tiny_config())
        for name in a.store.params:
            np.testing.assert_array_equal(a.store[name].data, b.store[name].data)

    def test_different_seed_differs(self):
        a = build_model(tiny_config(seed=0))
        b = build_model(tiny_config(seed=1))
        assert not np.array_equal(a.store["tok_emb"].data, b.store["tok_emb"].data)

    def test_no_grid_encoder_without_grid(self):
        model = build_model(tiny_config(grid_mode="none"))
        assert "enc_grid.w" not in model.store.params
        assert "enc_grid.b" not in model.store.params

    def test_parameter_count_closed_form(self):
        cfg = tiny_config(vocab_size=16, d_model=8, n_layers=1, n_heads=1, d_ff=32)
        d, dff, v, feat = 8, 32, 16, D
        n_pos = cfg.n_max + cfg.m_max + cfg.o_max + 2 + cfg.t_max
        expected = (
            (feat * d + d)                  # global encoder
            + (feat * d + d)                # entity encoder (char features present)
            + (cfg.n_max * cfg.m_max * d + d)  # grid encoder
            + v * d + n_pos * d + 4 * d     # token/position/segment embeddings
            + 2 * d                          # ln1
            + 4 * (d * d + d)               # attention projections
            + 2 * d                          # ln2
            + (d * dff + dff) + (dff * d + d)  # mlp
            + 2 * d                          # final layer norm
            + (d * v + v)                   # output projection
        )
        model = build_model(cfg)
        assert model.store.flat.size == expected

    def test_parameters_are_views_of_the_flat_buffer(self):
        model = build_model(tiny_config())
        store = model.store
        assert list(store.params) == [name for name, _, _ in model_mod._param_spec(model.config)]
        assert all(np.shares_memory(p.data, store.flat) for p in store.params.values())
        np.testing.assert_array_equal(
            np.concatenate([p.data.ravel() for p in store.params.values()]), store.flat)
        assert store.m is None and store.v is None  # no moments until the first step

    def test_shared_parameters_identical_across_variants(self):
        grid = build_model(tiny_config(grid_mode="char", seed=3))
        plain = build_model(tiny_config(grid_mode="none", seed=3))
        assert set(plain.store.params) < set(grid.store.params)
        for name in plain.store.params:
            np.testing.assert_array_equal(plain.store[name].data, grid.store[name].data)


class TestAssembleInput:
    def test_layout_arithmetic(self):
        cfg = tiny_config(n_max=5, m_max=3)
        seq = make_seq(n_images=5, n_chars=3)
        layout = assemble_input([(seq, list(range(2, 9)))], cfg, bos_id=BOS)
        assert layout.length == 5 + 3 + 1 + 1 + 7
        assert layout.length - layout.token_ids.size == 9
        assert layout.loss_mask.sum() == 7

    def test_no_grid_position_when_off(self):
        cfg = tiny_config(grid_mode="none")
        seq = make_seq(n_images=5, n_chars=2)
        layout = assemble_input([(seq, [2, 3])], cfg, bos_id=BOS)
        assert layout.grid_vecs is None
        assert layout.length == 5 + 2 + 1 + 2

    @pytest.mark.parametrize("features", [("global",), ("global", "char"), ("global", "obj"),
                                          ("global", "char", "obj")])
    def test_entity_rows_are_the_entity_columns(self, features):
        seq = make_seq(n_images=3, n_chars=2, n_objs=2, seed=4)
        layout = assemble_input([(seq, [2, 3])],
                                tiny_config(feature_set=features, grid_mode="none"), bos_id=BOS)
        feats = entity_columns(seq, features)[1]
        if not feats:
            assert layout.entity_feats is None
        else:
            np.testing.assert_array_equal(layout.entity_feats, np.stack(feats))

    def test_empty_story_has_no_loss_positions(self):
        cfg = tiny_config()
        layout = assemble_input([(make_seq(), [])], cfg, bos_id=BOS)
        assert layout.loss_mask.sum() == 0
        with pytest.raises(DataError):
            story_loss(build_model(cfg), make_seq(), [], bos_id=BOS)

    @pytest.mark.parametrize("wide", ["images", "characters"])
    def test_feature_width_must_match_feat_dim(self, wide):
        seq = make_seq(n_chars=2)
        if wide == "images":
            for im in seq.images:
                im.global_feat = np.ones(D + 2)
        else:
            for ch in seq.characters:
                ch.representative_feat = np.ones(D + 2)
        with pytest.raises(DataError, match=f"features are {D + 2} wide"):
            assemble_input([(seq, [2, 3])], tiny_config(), bos_id=BOS)

    def test_story_too_long(self):
        cfg = tiny_config(t_max=4)
        with pytest.raises(DataError):
            assemble_input([(make_seq(), [2] * 5)], cfg, bos_id=BOS)

    def test_mask_targets_shifted(self):
        cfg = tiny_config()
        story = [4, 5, 6]
        layout = assemble_input([(make_seq(), story)], cfg, bos_id=BOS)
        start = layout.length - layout.token_ids.size
        assert list(layout.targets[start:start + 3]) == story
        assert layout.targets[start + 3] == -1  # last story token predicts nothing


class TestForward:
    def test_causality(self):
        cfg = tiny_config()
        model = build_model(cfg)
        seq = make_seq()
        a = forward_logits(model, assemble_input([(seq, [2, 3, 4, 5])], cfg, BOS))
        b = forward_logits(model, assemble_input([(seq, [2, 3, 9, 5])], cfg, BOS))
        boundary = a.shape[0] - 2  # position of the perturbed token
        np.testing.assert_array_equal(a.data[:boundary], b.data[:boundary])
        assert not np.array_equal(a.data[boundary:], b.data[boundary:])

    def test_rows_softmax_to_one(self):
        cfg = tiny_config()
        model = build_model(cfg)
        logits = forward_logits(model, assemble_input([(make_seq(), [2, 3])], cfg, BOS))
        probs = nm.softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_straightline_recomputation(self):
        cfg = tiny_config(n_layers=2)
        model = build_model(cfg)
        layout = assemble_input([(make_seq(n_objs=0), [2, 3, 4])], cfg, BOS)
        got = forward_logits(model, layout).data
        want = straightline_forward(model, layout)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_uniform_logit_model_loss_is_log_vocab(self):
        cfg = tiny_config()
        model = build_model(cfg)
        model.store["out.w"].data[:] = 0.0
        model.store["out.b"].data[:] = 0.0
        loss = story_loss(model, make_seq(), [2, 3, 4], bos_id=BOS)
        assert loss.item() == pytest.approx(math.log(16), abs=1e-12)

    def test_loss_equals_manual_composition(self):
        cfg = tiny_config()
        model = build_model(cfg)
        seq = make_seq()
        story = [2, 3, 4, 5]
        layout = assemble_input([(seq, story)], cfg, BOS)
        manual = nm.cross_entropy_masked(forward_logits(model, layout),
                                         layout.targets, layout.loss_mask)
        assert story_loss(model, seq, story, bos_id=BOS).item() == manual.item()

    def test_loss_ignores_metadata(self):
        cfg = tiny_config()
        model = build_model(cfg)
        seq = make_seq()
        base = story_loss(model, seq, [2, 3], bos_id=BOS).item()
        renamed = make_seq()
        for ch in renamed.characters:
            ch.char_id = "renamed-" + ch.char_id
            ch.gender = "female"
        assert story_loss(model, renamed, [2, 3], bos_id=BOS).item() == base

    def test_pad_region_invariance(self):
        # absent cells pad to zero, so an undersized grid and an explicit
        # zero-filled full frame produce the same loss; a nonzero pad cell
        # must break that (the invariance holds only for zero pads)
        import dataclasses
        cfg = tiny_config()
        model = build_model(cfg)
        seq = make_seq(n_images=4, n_chars=2)
        layout = assemble_input([(seq, [2, 3])], cfg, BOS)
        full_frame = layout.grid_vecs[0].reshape(cfg.n_max, cfg.m_max)
        explicit = dataclasses.replace(layout, grid_vecs=full_frame.reshape(1, -1).copy())
        base = nm.cross_entropy_masked(forward_logits(model, layout),
                                       layout.targets, layout.loss_mask).item()
        same = nm.cross_entropy_masked(forward_logits(model, explicit),
                                       explicit.targets, explicit.loss_mask).item()
        assert same == base
        poked = dataclasses.replace(layout, grid_vecs=layout.grid_vecs.copy())
        poked.grid_vecs[0][-1] = 3.7  # a pad cell: 4 images x 2 chars leaves the tail unused
        changed = nm.cross_entropy_masked(forward_logits(model, poked),
                                          poked.targets, poked.loss_mask).item()
        assert changed != base

    def test_pre_grid_positions_identical_across_variants(self):
        # causal attention: positions before the grid slot can never see it,
        # so the grid and no-grid variants agree there bit for bit
        grid_model = build_model(tiny_config(grid_mode="char", seed=5))
        plain_model = build_model(tiny_config(grid_mode="none", seed=5))
        seq = make_seq()
        grid_logits = forward_logits(
            grid_model, assemble_input([(seq, [2, 3])], grid_model.config, BOS))
        plain_logits = forward_logits(
            plain_model, assemble_input([(seq, [2, 3])], plain_model.config, BOS))
        cut = len(seq.images) + len(seq.characters)
        np.testing.assert_array_equal(grid_logits.data[:cut], plain_logits.data[:cut])

    def test_object_tokens(self):
        cfg = tiny_config(feature_set=("global", "char", "obj"), grid_mode="entity",
                          m_max=3)
        model = build_model(cfg)
        seq = make_seq(n_chars=2, n_objs=1)
        layout = assemble_input([(seq, [2])], cfg, BOS)
        assert layout.entity_feats.shape == (3, D)
        logits = forward_logits(model, layout)
        assert logits.shape == (layout.length, 16)

    def test_dropout_training_deterministic_given_rng(self):
        cfg = tiny_config(dropout=0.2)
        model = build_model(cfg)
        seq = make_seq()
        a = story_loss(model, seq, [2, 3], bos_id=BOS, training=True,
                       rng=np.random.default_rng(11)).item()
        b = story_loss(model, seq, [2, 3], bos_id=BOS, training=True,
                       rng=np.random.default_rng(11)).item()
        assert a == b


class TestKVCache:
    @pytest.mark.parametrize("variant", [
        dict(feature_set=("global",), grid_mode="none"),
        dict(feature_set=("global", "char", "obj"), grid_mode="entity", n_layers=2),
        dict(feature_set=("global", "obj"), grid_mode="obj"),
    ])
    def test_incremental_rows_match_full_forward(self, variant):
        model = build_model(tiny_config(**variant))
        seq = make_seq(n_images=4, n_chars=2, n_objs=1, seed=5)
        story = [3, 7, 2, 9, 4]
        full = forward_logits(model, assemble_input([(seq, story)], model.config, BOS)).data

        cache = KVCache(model.config)
        prefix = assemble_input([(seq, [])], model.config, BOS)
        rows = [forward_logits(model, prefix, cache=cache).data]
        for tok in story:
            rows.append(forward_logits(model, text_step(tok, cache.length), cache=cache).data)
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0, atol=1e-12)
        # the prefix pass is the uncached forward on the same layout
        assert rows[0].tobytes() == forward_logits(model, prefix).data.tobytes()
        assert cache.length == full.shape[0]

    @pytest.mark.parametrize("batch", [1, 16])
    def test_extend_hands_back_views_of_the_cache(self, batch):
        model = build_model(tiny_config())
        d = model.config.d_model
        cache = KVCache(model.config, batch=batch)
        rng = np.random.default_rng(batch)
        for step, rows in enumerate((3, 1)):
            k, v = (nm.Tensor(rng.normal(size=(batch * rows, d))) for _ in range(2))
            keys, values = cache.extend(0, k, v)
            cache.length += rows
            assert keys.shape == values.shape == (batch, cache.length, d)
            assert np.shares_memory(keys, cache.keys) and np.shares_memory(values, cache.values)
            assert (keys[:, -rows:].reshape(-1, d) == k.data).all()
            assert (values[:, -rows:].reshape(-1, d) == v.data).all()

    def test_text_step_is_a_one_row_batch(self):
        step = text_step(7, 12)
        assert isinstance(step, BatchLayout)
        assert step.lengths.tolist() == [1] and step.width == 1 and step.rows is None
        assert (step.token_ids.tolist(), step.positions.tolist(),
                step.segments.tolist()) == ([7], [12], [model_mod.SEG_TEXT])
        assert step.image_feats is None and step.targets is None

    def test_rejects_training_and_misplaced_positions(self):
        model = build_model(tiny_config())
        seq = make_seq()
        cache = KVCache(model.config)
        prefix = assemble_input([(seq, [])], model.config, BOS)
        with pytest.raises(StateError):
            forward_logits(model, prefix, training=True, cache=cache)
        forward_logits(model, prefix, cache=cache)
        with pytest.raises(StateError):
            forward_logits(model, text_step(3, cache.length + 1), cache=cache)
        assert cache.length == prefix.length


def mixed_batch():
    """Sequences with different image, character and object counts and story
    lengths, so the batch pads every one but the longest."""
    shapes = [(5, 2, 1, 6), (2, 0, 0, 1), (4, 3, 1, 3), (3, 1, 0, 9)]
    return [(make_seq(n_images=a, n_chars=c, n_objs=o, seed=i, seq_id=f"s{i}"),
             [2 + (i + j) % 13 for j in range(n)])
            for i, (a, c, o, n) in enumerate(shapes)]


BATCH_VARIANTS = [
    dict(feature_set=("global", "char", "obj"), grid_mode="entity", n_layers=2, n_heads=4,
         m_max=5),
    dict(feature_set=("global",), grid_mode="none"),
]


def reference_input(seq, story, config, bos_id=BOS):
    """Per-sequence reference layout: images ++ characters/objects ++ grid?
    ++ [BOS] ++ story, each field built for this one sequence, with a loss
    on every story-prediction row. The frame and width checks are the
    builder's own, so this takes only records it accepts."""
    image_rows, entity_rows = model_mod._conditioning_rows(seq, story, config)
    n_img = len(image_rows)
    image_feats = np.stack(image_rows)
    entity_feats = np.stack(entity_rows) if entity_rows else None

    grid_vecs = None
    if config.grid_mode != "none":
        grid = grid_for_mode(seq, config.grid_mode, config.n_max, config.m_max)
        grid_vecs = flatten_pad(grid, config.n_max, config.m_max)[None, :]

    n_entity = len(entity_rows)
    n_grid = 0 if grid_vecs is None else 1
    prefix_len = n_img + n_entity + n_grid
    length = prefix_len + 1 + len(story)

    segments = np.concatenate([
        np.full(n_img, model_mod.SEG_IMAGE),
        np.full(n_entity, model_mod.SEG_CHAR),
        np.full(n_grid, model_mod.SEG_GRID),
        np.full(1 + len(story), model_mod.SEG_TEXT),
    ]).astype(np.intp)
    positions = np.arange(length, dtype=np.intp)
    token_ids = np.array([bos_id] + list(story), dtype=np.intp)

    # [BOS] and earlier story tokens predict the next one
    story_rows = slice(prefix_len, prefix_len + len(story))
    targets = np.full(length, -1, dtype=np.intp)
    targets[story_rows] = story
    loss_mask = np.zeros(length, dtype=bool)
    loss_mask[story_rows] = True
    return BatchLayout(lengths=np.array([length], dtype=np.intp), width=length,
                       token_ids=token_ids, positions=positions, segments=segments,
                       image_feats=image_feats, entity_feats=entity_feats,
                       grid_vecs=grid_vecs, targets=targets, loss_mask=loss_mask)


def loop_assemble_batch(examples, config):
    """Reference stacking: right-pad each example's ``reference_input``
    layout and fill its padded row range in turn, advancing every block's
    start in the stack sequence by sequence."""
    layouts = [reference_input(seq, tokens, config) for seq, tokens in examples]
    lengths = np.array([lay.length for lay in layouts], dtype=np.intp)
    width = int(lengths.max())
    total = len(layouts) * width

    def stacked(blocks):
        blocks = [blk for blk in blocks if blk is not None]
        return np.concatenate(blocks) if blocks else None

    want = dict(lengths=lengths, image_feats=stacked(lay.image_feats for lay in layouts),
                entity_feats=stacked(lay.entity_feats for lay in layouts),
                grid_vecs=stacked(lay.grid_vecs for lay in layouts),
                token_ids=np.concatenate([lay.token_ids for lay in layouts]))
    starts = np.cumsum([0] + [0 if want[name] is None else want[name].shape[0]
                              for name in ("image_feats", "entity_feats", "grid_vecs")])
    want.update(rows=np.zeros(total, dtype=np.intp), positions=np.zeros(total, dtype=np.intp),
                segments=np.zeros(total, dtype=np.intp),
                targets=np.full(total, -1, dtype=np.intp),
                loss_mask=np.zeros(total, dtype=bool),
                loss_weights=np.zeros((len(layouts), total)))
    for b, lay in enumerate(layouts):
        lo, hi = b * width, b * width + lay.length
        counts = [lay.image_feats.shape[0],
                  0 if lay.entity_feats is None else lay.entity_feats.shape[0],
                  0 if lay.grid_vecs is None else 1, lay.token_ids.shape[0]]
        want["rows"][lo:hi] = np.concatenate([np.arange(start, start + n)
                                              for start, n in zip(starts, counts)])
        starts += counts
        for name in ("positions", "segments", "targets", "loss_mask"):
            want[name][lo:hi] = getattr(lay, name)
        loss_rows = lo + np.flatnonzero(lay.loss_mask)
        want["loss_weights"][b, loss_rows] = 1.0 / max(loss_rows.size, 1)
    if len(layouts) == 1:
        want["rows"] = None  # a lone sequence's stack is already in padded order
    return want


def assert_matches_loop(examples, config):
    """``assemble_input`` of the examples equals ``loop_assemble_batch``
    field for field: dtype, shape and bytes."""
    batch = assemble_input(examples, config, BOS)
    want = loop_assemble_batch(examples, config)
    assert type(batch.width) is int and batch.width == want["lengths"].max()
    assert set(want) == {f.name for f in fields(BatchLayout)} - {"width"}
    for name, value in want.items():
        got = getattr(batch, name)
        if value is None:
            assert got is None, name
        else:
            assert (got.dtype, got.shape, got.tobytes()) == \
                (value.dtype, value.shape, value.tobytes()), name
    return batch


class TestBatch:
    @pytest.mark.parametrize("variant", BATCH_VARIANTS)
    def test_real_rows_match_single_forward(self, variant):
        model = build_model(tiny_config(**variant))
        layouts = [assemble_input([(seq, story)], model.config, BOS)
                   for seq, story in mixed_batch()]
        batch = assemble_input(mixed_batch(), model.config, BOS)
        assert batch.width == max(lay.length for lay in layouts)
        assert batch.length == sum(lay.length for lay in layouts)
        logits = forward_logits(model, batch).data
        assert logits.shape == (len(layouts) * batch.width, 16)
        for b, lay in enumerate(layouts):
            rows = logits[b * batch.width:b * batch.width + lay.length]
            np.testing.assert_allclose(rows, forward_logits(model, lay).data, rtol=0, atol=1e-12)
            pads = slice(b * batch.width + lay.length, (b + 1) * batch.width)
            assert not batch.loss_mask[pads].any() and not batch.loss_weights[:, pads].any()

    @pytest.mark.parametrize("variant", BATCH_VARIANTS)
    def test_matches_per_sequence_loop(self, variant):
        assert_matches_loop(mixed_batch(), tiny_config(**variant))

    def test_matches_per_sequence_loop_without_grid_or_entities(self):
        cfg = tiny_config(feature_set=("global", "char", "obj"), grid_mode="none")
        examples = [(make_seq(n_images=a, n_chars=0, n_objs=0, seed=i, seq_id=f"p{i}"),
                     [2 + i] * n) for i, (a, n) in enumerate([(5, 3), (2, 7), (4, 1)])]
        batch = assert_matches_loop(examples, cfg)
        assert batch.entity_feats is None and batch.grid_vecs is None

    @pytest.mark.parametrize("variant", BATCH_VARIANTS)
    def test_losses_and_gradients_match_per_example(self, variant):
        model = build_model(tiny_config(**variant))
        examples = mixed_batch()
        losses = story_losses(model, examples, BOS)
        singles = [story_loss(model, seq, story, bos_id=BOS).item() for seq, story in examples]
        np.testing.assert_allclose(losses.data, singles, rtol=0, atol=1e-12)
        assert losses.data.mean() == pytest.approx(np.mean(singles), abs=1e-12)

        model.store.zero_grad()
        losses.backward(np.full(len(examples), 1.0 / len(examples)))
        batched = {name: model.store[name].grad.copy() for name in model.store.params}
        model.store.zero_grad()
        for seq, story in examples:
            story_loss(model, seq, story, bos_id=BOS).backward(np.asarray(1.0 / len(examples)))
        for name in model.store.params:
            np.testing.assert_allclose(batched[name], model.store[name].grad, rtol=0, atol=1e-10)

    def test_tiny_batched_model_grad_check(self):
        model = build_model(tiny_config(d_model=4, n_heads=2, d_ff=4, vocab_size=6,
                                        n_layers=2, t_max=4, m_max=2, o_max=1,
                                        feature_set=("global", "char", "obj"),
                                        grid_mode="entity"))
        examples = [(make_seq(n_images=2, n_chars=1, n_objs=1, seed=1, seq_id="a"), [2, 3, 4]),
                    (make_seq(n_images=1, n_chars=2, n_objs=0, seed=2, seq_id="b"), [5])]
        batch = assemble_input(examples, model.config, BOS)
        mean_weights = batch.loss_weights.mean(axis=0)

        def batch_mean(store):
            return nm.cross_entropy_masked(forward_logits(model, batch), batch.targets,
                                           batch.loss_mask, mean_weights)

        assert nm.grad_check(batch_mean, model.store, epsilon=1e-5) < 1e-4

    def test_dropout_batch_reproducible(self):
        model = build_model(tiny_config(dropout=0.3))
        examples = mixed_batch()[:3]

        def run():
            return story_losses(model, examples, BOS, training=True,
                                rng=np.random.default_rng(5)).data.tobytes()

        assert run() == run()

    def test_empty_story_rejected(self):
        model = build_model(tiny_config())
        with pytest.raises(DataError):
            story_losses(model, [(make_seq(), [2]), (make_seq(seq_id="e"), [])], BOS)
        with pytest.raises(DataError):
            assemble_input([], model.config, BOS)

    def test_no_grad_logits_bit_identical(self):
        model = build_model(tiny_config(n_layers=2))
        batch = assemble_input(mixed_batch(), model.config, BOS)
        with_graph = forward_logits(model, batch)
        with nm.no_grad():
            without = forward_logits(model, batch)
        assert with_graph._node is not None and without._node is None
        assert without.data.tobytes() == with_graph.data.tobytes()


def valid_feature_grid_pairs():
    """Every (feature set, grid mode) pair that ModelConfig accepts."""
    entities = FEATURES[1:]
    pairs = []
    for features in [("global", *kinds) for r in range(len(entities) + 1)
                     for kinds in combinations(entities, r)]:
        for mode in GRID_MODES:
            try:
                tiny_config(feature_set=features, grid_mode=mode)
            except ConfigError:
                continue
            pairs.append((features, mode))
    return pairs


def layout_batches():
    """Batches for the ``assemble_input`` oracle: a mix of 1..n_max images,
    records with no characters or no objects, stories from one token up and
    repeated grid shapes; two records without any entity; decode prefixes
    (empty stories), with and without entities, alone and mixed with
    stories; and each record alone."""
    shapes = [(1, 0, 0, 1), (5, 3, 2, 6), (2, 0, 1, 3), (3, 2, 0, 9), (4, 1, 1, 2),
              (5, 3, 2, 2), (3, 2, 0, 4)]
    examples = [(make_seq(n_images=a, n_chars=c, n_objs=o, seed=i, seq_id=f"m{i}"),
                 [2 + (3 * i + j) % 14 for j in range(n)])
                for i, (a, c, o, n) in enumerate(shapes)]
    bare = [(make_seq(n_images=a, n_chars=0, seed=9 + a, seq_id=f"b{a}"), [5] * a)
            for a in (2, 4)]
    prefixes = [(seq, []) for seq, _ in examples[:4] + bare]
    bare_prefixes = [(seq, []) for seq, _ in bare]
    return ([examples, bare, prefixes, bare_prefixes, prefixes[:3] + examples[3:]]
            + [[example] for example in examples + prefixes[:1]])


class TestBatchLayout:
    @pytest.mark.parametrize("features, grid_mode", valid_feature_grid_pairs())
    def test_every_field_equals_the_per_sequence_reference(self, features, grid_mode):
        config = tiny_config(feature_set=features, grid_mode=grid_mode, m_max=5)
        for examples in layout_batches():
            assert_matches_loop(examples, config)

    def test_valid_pairs_cover_each_grid_mode(self):
        pairs = valid_feature_grid_pairs()
        assert len(pairs) == 9 and {mode for _, mode in pairs} == set(GRID_MODES)

    def test_prefix_width_is_the_decode_prefix_length(self):
        for features, grid_mode in valid_feature_grid_pairs():
            config = tiny_config(feature_set=features, grid_mode=grid_mode, m_max=5)
            for seq, _ in layout_batches()[0]:
                prefix = assemble_input([(seq, [])], config, BOS)
                assert model_mod.prefix_width(seq, config) == prefix.width

    @pytest.mark.parametrize("shape, features, story, message", [
        (dict(n_images=6), ("global",), [2, 3], "6 images exceed n_max 5"),
        (dict(n_chars=4), ("global", "char"), [2, 3], "4 characters exceed m_max 3"),
        (dict(n_objs=3), ("global", "obj"), [2, 3], "3 objects exceed o_max 2"),
        (dict(dim=D + 2), ("global",), [2, 3], f"features are {D + 2} wide"),
        ({}, ("global",), [], "empty story has no loss positions"),
        ({}, ("global",), [2] * 17, "story length 17 exceeds t_max 16"),
    ])
    def test_data_errors_name_the_sequence(self, shape, features, story, message):
        config = tiny_config(feature_set=features, grid_mode="none")
        bad = make_seq(**shape, seq_id="bad")
        examples = [(make_seq(n_chars=1, seq_id="good"), [2, 3]), (bad, story)]
        if story:
            with pytest.raises(DataError, match=f"sequence bad: {message}"):
                assemble_input(examples, config, BOS)
        else:
            # an empty story is a decode prefix; only its loss is undefined
            prefix = assemble_input(examples, config, BOS)
            assert prefix.lengths[1] == len(bad.images) + 1
            assert not prefix.loss_weights[1].any()
            with pytest.raises(DataError, match=f"sequence bad: {message}"):
                story_losses(build_model(config), examples, BOS)

    @pytest.mark.parametrize("grid_mode, n_chars", [("obj", 0), ("entity", 2)])
    def test_grid_column_overflow_names_the_sequence(self, grid_mode, n_chars):
        # every count is within its own capacity, but the grid's columns are not
        config = tiny_config(feature_set=("global", "char", "obj"), grid_mode=grid_mode,
                             m_max=3, o_max=5)
        bad = make_seq(n_chars=n_chars, n_objs=4 - n_chars, seq_id="bad")
        for story in ([2, 3], []):
            with pytest.raises(DataError, match="sequence bad: 4 grid columns exceed m_max 3"):
                assemble_input([(make_seq(n_chars=1, seq_id="good"), [2, 3]), (bad, story)],
                               config, BOS)

    def test_no_examples(self):
        with pytest.raises(DataError):
            assemble_input([], tiny_config(), BOS)


class TestGradCheck:
    def test_tiny_two_layer_grid_model_grad_check(self):
        cfg = ModelConfig(vocab_size=8, feat_dim=3, d_model=4, n_layers=2,
                          n_heads=1, d_ff=8, t_max=6, n_max=3, m_max=2, o_max=1,
                          feature_set=("global", "char"), grid_mode="char",
                          dropout=0.0, seed=1)
        model = build_model(cfg)
        rng = np.random.default_rng(2)
        images = [ImageRecord(image_id=f"im{a}", global_feat=rng.normal(size=3))
                  for a in range(3)]
        chars = [CharacterRecord(
            char_id="c0", gender="unknown",
            instances=[CharacterInstance(0, (0, 0, 1, 1), 1.0)],
            representative_feat=rng.normal(size=3))]
        seq = ImageSequenceRecord(id="g", images=images, characters=chars)

        err = nm.grad_check(
            lambda store: story_loss(model, seq, [2, 3, 4], bos_id=BOS),
            model.store, epsilon=1e-5)
        assert err < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(tiny_config(dropout=0.1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.config == model.config
        for name in model.store.params:
            assert again.store[name].data.tobytes() == model.store[name].data.tobytes()
            assert np.shares_memory(again.store[name].data, again.store.flat)
            assert again.store[name].data.flags.writeable
        assert list(again.store.params) == list(model.store.params)
        assert again.store.m is None and again.store.v is None

    def test_save_is_deterministic(self, tmp_path):
        model = build_model(tiny_config())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config(seed=1)), path)
        before = path.read_bytes()

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, blob):
                self.fh.write(blob[:len(blob) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(model_mod, "open", lambda *a, **k: DiskFull(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(build_model(tiny_config(seed=2)), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_and_trailing_junk_is_data_error(self, tmp_path):
        model = build_model(ModelConfig(vocab_size=3, feat_dim=2, d_model=2, n_layers=1,
                                        n_heads=1, d_ff=2, t_max=2, n_max=1, m_max=1,
                                        o_max=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        broken = [blob[:n] for n in range(len(blob))]
        broken += [blob + b"\x07" * n for n in (1, 2, 3)]
        # well-formed records appended after the last one repeat parameters
        last = blob.rindex(b"out.w") - 4
        broken.append(blob + blob[last:])
        for data in broken:
            path.write_bytes(data)
            with pytest.raises(DataError):
                load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, message", [
        ("vocab_size=4000000000", "make a"), ("n_layers=1000000000000", "cannot hold"),
        ("d_ff=-16", "d_ff must be positive"), ("rank", "rank 4294967295"),
        ("name", "unknown parameter 'ln_f.x'"), ("extent", r"shape \(9,\)"),
    ])
    def test_a_malformed_claim_fails_before_it_is_allocated_or_read(
            self, tmp_path, monkeypatch, capsys, damage, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(tiny_config()), path)
        path.write_bytes(damaged_checkpoint(path.read_bytes(), damage))
        size = path.stat().st_size
        asked = []

        class Counted:  # the loader's file, counting the bytes each read asks for
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def read(self, n=-1):
                asked.append(size - self.fh.tell() if n < 0 else n)
                return self.fh.read(n)

            def readinto(self, buffer):
                asked.append(memoryview(buffer).nbytes)
                return self.fh.readinto(buffer)

        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "open", lambda *a, **k: Counted(open(*a, **k)),
                          raising=False)
            tracemalloc.start()
            try:
                with pytest.raises(DataError, match=message):
                    load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sum(asked) <= size
        assert peak < 100_000  # the whole file is 12 kB
        assert main(["generate", "--checkpoint", str(path), "--dataset", "unread.jsonl",
                     "--vocab", "unread.json", "--out", str(tmp_path / "out.jsonl")]) == 2
        assert "data error" in capsys.readouterr().err


def damaged_checkpoint(blob: bytes, damage: str) -> bytes:
    """``blob``, a ``tiny_config`` checkpoint, with one claim made wrong: a
    config field's value (``damage`` is its new ``field=value`` line), or the
    rank, name or extent of ``ln_f.g``'s record."""
    if "=" in damage:
        end = 12 + int.from_bytes(blob[8:12], "little")
        field = damage.partition("=")[0]
        text = re.sub(f"(?m)^{field}=.*$", damage, blob[12:end].decode()).encode()
        return blob[:8] + len(text).to_bytes(4, "little") + text + blob[end:]
    name = blob.index(b"ln_f.g")
    if damage == "name":
        return blob[:name] + b"ln_f.x" + blob[name + 6:]
    field = name + 6 + (4 if damage == "extent" else 0)
    value = 9 if damage == "extent" else 0xFFFFFFFF
    return blob[:field] + value.to_bytes(4, "little") + blob[field + 4:]


def mid_size_model():
    """384 592 parameters (3 MB a buffer), so each copy of them shows."""
    return build_model(ModelConfig(vocab_size=2000, feat_dim=32, d_model=64, n_layers=2,
                                   n_heads=4, feature_set=("global", "char"),
                                   grid_mode="char", seed=1))


def traced(call):
    """``call()``'s result, and the peak and kept bytes that it allocated."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


class TestParameterMemory:
    """Each producer of a store writes into its one buffer: no copy of the
    parameters is made in transit (tracemalloc sees numpy's allocations,
    and not the gradient's anonymous mapping)."""

    @pytest.fixture(scope="class")
    def model(self):
        mid_size_model()  # a first call also imports what it needs
        return mid_size_model()

    def test_build_model_draws_into_the_buffer(self, model):
        built, peak, _ = traced(mid_size_model)
        assert built.store.flat.tobytes() == model.store.flat.tobytes()
        assert peak <= 1.5 * model.store.flat.nbytes

    def test_save_writes_from_the_views(self, model, tmp_path):
        save_checkpoint(model, tmp_path / "warm.ckpt")
        _, peak, _ = traced(lambda: save_checkpoint(model, tmp_path / "model.ckpt"))
        assert peak <= 0.1 * model.store.flat.nbytes
        assert (tmp_path / "model.ckpt").read_bytes() == (tmp_path / "warm.ckpt").read_bytes()

    @pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"),
                        reason="the gradient buffer is np.zeros without MAP_PRIVATE")
    def test_load_reads_into_the_views(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        load_checkpoint(path)
        loaded, peak, kept = traced(lambda: load_checkpoint(path))
        assert loaded.store.flat.tobytes() == model.store.flat.tobytes()
        assert peak <= 1.1 * model.store.flat.nbytes
        assert kept <= 1.1 * model.store.flat.nbytes


def straightline_forward(model, layout):
    """Independent plain-numpy recomputation of the forward arithmetic."""
    P = {name: model.store[name].data for name in model.store.params}
    cfg = model.config
    parts = [layout.image_feats @ P["enc_global.w"] + P["enc_global.b"]]
    if layout.entity_feats is not None:
        parts.append(layout.entity_feats @ P["enc_entity.w"] + P["enc_entity.b"])
    if layout.grid_vecs is not None:
        parts.append(layout.grid_vecs[0][None, :] @ P["enc_grid.w"] + P["enc_grid.b"])
    parts.append(P["tok_emb"][layout.token_ids])
    x = np.concatenate(parts, axis=0)
    x = x + P["pos_emb"][layout.positions] + P["seg_emb"][layout.segments]

    def ln(v, g, b):
        mu = v.mean(axis=-1, keepdims=True)
        var = v.var(axis=-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    def sm(v):
        e = np.exp(v - v.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    length = x.shape[0]
    causal = np.triu(np.full((length, length), -1e30), k=1)
    hd = cfg.d_model // cfg.n_heads
    for i in range(cfg.n_layers):
        b = f"block{i}."
        h = ln(x, P[b + "ln1.g"], P[b + "ln1.b"])
        q = h @ P[b + "attn.wq"] + P[b + "attn.bq"]
        k = h @ P[b + "attn.wk"] + P[b + "attn.bk"]
        v = h @ P[b + "attn.wv"] + P[b + "attn.bv"]
        head_outs = []
        for head in range(cfg.n_heads):
            sl = slice(head * hd, (head + 1) * hd)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(hd) + causal
            head_outs.append(sm(scores) @ v[:, sl])
        x = x + np.concatenate(head_outs, axis=1) @ P[b + "attn.wo"] + P[b + "attn.bo"]
        h = ln(x, P[b + "ln2.g"], P[b + "ln2.b"])
        inner = h @ P[b + "mlp.w1"] + P[b + "mlp.b1"]
        g = 0.5 * inner * (1 + np.tanh(math.sqrt(2 / math.pi) * (inner + 0.044715 * inner ** 3)))
        x = x + g @ P[b + "mlp.w2"] + P[b + "mlp.b2"]
    x = ln(x, P["ln_f.g"], P["ln_f.b"])
    return x @ P["out.w"] + P["out.b"]
