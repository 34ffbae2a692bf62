import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwpstory import decoding
from vwpstory import model as model_mod
from vwpstory import numerics as nm
from vwpstory.cli import main as cli_main
from vwpstory.corpus import build_vocab, load_dataset, prepare_records, save_dataset
from vwpstory.decoding import (
    DecodingConfig,
    NamePools,
    detokenize,
    generate,
    generate_batch,
    nucleus_sample,
    realize,
    save_generated,
)
from vwpstory.errors import ConfigError, DataError, NumericError, ResourceError, StateError
from vwpstory.model import (
    KVCache,
    ModelConfig,
    assemble_batch,
    assemble_input,
    build_model,
    forward_logits,
    save_checkpoint,
    text_step,
)
from vwpstory.synth import fixture_dataset, synthetic_grid_corpus

from test_model import make_seq, tiny_config

NAMES = NamePools(male=["John", "Jack", "Tom"], female=["Mary", "Sue"],
                  location=["Paris", "Rome"])


class TestNucleusSample:
    def test_renormalization_law_p06(self):
        dist = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(123)
        n = 100_000
        draws = np.array([nucleus_sample(dist, 0.6, rng) for _ in range(n)])
        assert set(np.unique(draws)) <= {0, 1}
        for token, expected in ((0, 0.625), (1, 0.375)):
            freq = float((draws == token).mean())
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(freq - expected) <= 3 * se

    def test_p01_always_argmax(self):
        dist = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(7)
        assert all(nucleus_sample(dist, 0.1, rng) == 0 for _ in range(100))

    def test_full_support_at_p1(self):
        dist = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(99)
        n = 100_000
        draws = np.array([nucleus_sample(dist, 1.0, rng) for _ in range(n)])
        for token, expected in enumerate(dist):
            freq = float((draws == token).mean())
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(freq - expected) <= 3 * se

    def test_sort_ties_break_to_lower_id(self):
        # two tokens tie at 0.3; the lower id joins the nucleus first
        dist = np.array([0.3, 0.3, 0.4])
        rng = np.random.default_rng(5)
        draws = {nucleus_sample(dist, 0.69, rng) for _ in range(300)}
        assert draws <= {0, 2}

    def test_invalid_distribution(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericError):
            nucleus_sample(np.array([0.5, 0.3]), 0.5, rng)
        with pytest.raises(NumericError):
            nucleus_sample(np.array([0.7, 0.4, -0.1]), 0.5, rng)
        with pytest.raises(NumericError):
            nucleus_sample(np.array([0.5, 0.5]), 0.0, rng)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_tiny_p_equals_greedy_on_unique_max(self, seed):
        rng_dist = np.random.default_rng(seed)
        raw = rng_dist.random(6) + 1e-3
        dist = raw / raw.sum()
        if (dist == dist.max()).sum() != 1:
            return
        rng = np.random.default_rng(seed + 1)
        assert nucleus_sample(dist, 1e-9, rng) == int(np.argmax(dist))


def nucleus_sample_loop(dist, p, rng):
    """Reference sampler: walk the nucleus token by token."""
    order = np.argsort(-dist, kind="stable")
    cut = int(np.searchsorted(np.cumsum(dist[order]), p - 1e-15)) + 1
    support = order[:cut]
    weights = dist[support] / dist[support].sum()
    u = rng.random()
    acc = 0.0
    for token, w in zip(support, weights):
        acc += w
        if u < acc:
            return int(token)
    return int(support[-1])


class TestNucleusSearch:
    def test_same_draws_as_token_walk(self):
        meta = np.random.default_rng(2024)
        for trial in range(3000):
            vocab = int(meta.integers(1, 60))
            raw = meta.random(vocab) ** int(meta.integers(1, 6))
            if trial % 7 == 0:
                raw = np.round(raw, 1) + 0.1  # ties
            dist = raw / raw.sum()
            p = float(meta.choice([1.0, meta.random() * 0.99 + 0.01]))
            seed = int(meta.integers(1 << 30))
            got = nucleus_sample(dist, p, np.random.default_rng(seed))
            assert got == nucleus_sample_loop(dist, p, np.random.default_rng(seed))

    def test_draws_on_mass_boundaries(self):
        class FixedDraw:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        # a draw equal to a running mass belongs to the next token
        for sampler in (nucleus_sample, nucleus_sample_loop):
            assert sampler(np.array([0.5, 0.25, 0.25]), 1.0, FixedDraw(0.5)) == 1
            assert sampler(np.array([0.5, 0.25, 0.25]), 1.0, FixedDraw(0.0)) == 0
        # ten equal weights add up to one ulp below 1, which the largest draw
        # reaches: it takes the last token of the support
        dist = np.full(10, 0.1)
        dist /= dist.sum()
        largest = np.nextafter(1.0, 0.0)
        assert np.cumsum(dist / dist.sum())[-1] <= largest
        for sampler in (nucleus_sample, nucleus_sample_loop):
            assert sampler(dist, 1.0, FixedDraw(largest)) == 9


class TestDecodeTokens:
    """The decoding loop inside ``generate``, run on scripted logits."""

    def _decode(self, monkeypatch, script, max_new_tokens, mode="greedy"):
        """``generate``'s ids when forward number k returns ``script(k, vocab)``,
        and the number of forwards it ran."""
        vocab = build_vocab([list("abcdefgh")], min_freq=1)
        model = build_model(tiny_config(vocab_size=len(vocab)))
        calls = []

        def scripted_forward(model_, layout, **kwargs):
            calls.append(layout.length)
            return nm.Tensor(np.atleast_2d(script(len(calls) - 1, vocab)))

        monkeypatch.setattr(decoding, "forward_logits", scripted_forward)
        cfg = DecodingConfig(mode=mode, p=0.5, max_new_tokens=max_new_tokens)
        return generate(model, make_seq(), vocab, cfg).token_ids, calls

    def test_rigged_sequence_then_stop(self, monkeypatch):
        def script(k, vocab):
            logits = np.zeros(len(vocab))
            logits[[5, 6, 7, vocab.eos_id][k]] = 10.0
            return logits

        for mode in ("greedy", "nucleus"):
            out, calls = self._decode(monkeypatch, script, 50, mode)
            assert out == [5, 6, 7]
            assert calls[1:] == [1, 1, 1]  # one-row steps; picking [EOS] ends the loop

    def test_truncation_at_budget(self, monkeypatch):
        out, calls = self._decode(monkeypatch, lambda k, vocab: np.eye(len(vocab))[3] * 9.0, 4)
        assert out == [3, 3, 3, 3]
        assert len(calls) == 4  # no forward after the last token of the budget

    def test_greedy_tie_breaks_to_lowest_id(self, monkeypatch):
        def script(k, vocab):
            logits = np.zeros(len(vocab))
            logits[[9, 4, 6]] = 2.0
            return logits

        out, _ = self._decode(monkeypatch, script, 1)
        assert out == [4]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DecodingConfig(mode="beam")
        with pytest.raises(ConfigError):
            DecodingConfig(p=0.0)


class TestGenerate:
    def _vocab(self):
        return build_vocab([["story", "words", "here"]], min_freq=1)

    def test_greedy_deterministic(self):
        vocab = self._vocab()
        model = build_model(tiny_config(vocab_size=len(vocab)))
        seq = make_seq()
        cfg = DecodingConfig(mode="greedy", max_new_tokens=8)
        a = generate(model, seq, vocab, cfg)
        b = generate(model, seq, vocab, cfg)
        assert a.token_ids == b.token_ids

    def test_nucleus_seed_reproducible(self):
        vocab = self._vocab()
        model = build_model(tiny_config(vocab_size=len(vocab)))
        seq = make_seq()
        cfg = DecodingConfig(mode="nucleus", p=0.9, max_new_tokens=8, seed=21)
        a = generate(model, seq, vocab, cfg)
        b = generate(model, seq, vocab, cfg)
        assert a.token_ids == b.token_ids

    def test_respects_t_max(self):
        vocab = self._vocab()
        model = build_model(tiny_config(vocab_size=len(vocab), t_max=5))
        out = generate(model, make_seq(), vocab,
                       DecodingConfig(mode="greedy", max_new_tokens=100))
        assert len(out.token_ids) <= 4

    def test_output_record_shape(self):
        vocab = self._vocab()
        model = build_model(tiny_config(vocab_size=len(vocab)))
        out = generate(model, make_seq(seq_id="seq9"), vocab,
                       DecodingConfig(mode="greedy", max_new_tokens=4, seed=3))
        payload = out.to_dict()
        assert payload["sequence_id"] == "seq9"
        assert payload["seed"] == 3
        assert isinstance(payload["text"], str)


def full_recompute_decode(model, seq, vocab, config):
    """Reference decoder: assemble and forward the whole sequence at every
    step. Returns the ids and each step's last-position logits."""
    rng = np.random.default_rng(config.seed)
    ids, steps = [], []
    for _ in range(min(config.max_new_tokens, model.config.t_max - 1)):
        layout = assemble_input(seq, ids, model.config, vocab.bos_id)
        logits = forward_logits(model, layout).data[-1]
        steps.append(logits)
        if config.mode == "greedy":
            token = int(np.argmax(logits))
        else:
            exps = np.exp(logits - logits.max())
            token = nucleus_sample(exps / exps.sum(), config.p, rng)
        if token == vocab.eos_id:
            break
        ids.append(token)
    return ids, steps


def cached_decode(monkeypatch, model, seq, vocab, config):
    """``generate``'s ids and the last-position logits of each of its forwards."""
    steps = []

    def recording_forward(*args, **kwargs):
        logits = forward_logits(*args, **kwargs)
        steps.append(logits.data[-1].copy())
        return logits

    monkeypatch.setattr(decoding, "forward_logits", recording_forward)
    return generate(model, seq, vocab, config).token_ids, steps


def corpus_and_model(corpus, t_max=24, suppress_eos=False):
    if corpus == "fixture":
        records = fixture_dataset(6, seed=7)
        features, grid_mode = ("global", "char", "obj"), "entity"
    else:
        records = synthetic_grid_corpus(6, seed=3)
        features, grid_mode = ("global", "char"), "char"
    prepared = prepare_records(records, seed=0)
    vocab = prepared.vocab
    model = build_model(ModelConfig(
        vocab_size=len(vocab), feat_dim=8, d_model=16, n_layers=2, n_heads=2, d_ff=32,
        t_max=t_max, n_max=5, m_max=5, o_max=2, feature_set=features,
        grid_mode=grid_mode, dropout=0.1, seed=4))
    if suppress_eos:
        model.store["out.b"].data[vocab.eos_id] = -1e9
    return prepared.splits["train"][:3], vocab, model


# generate's ids, its number of forwards, and a sha256 over the float.hex of
# every forward's last-position logits, per record of ``corpus_and_model``,
# recorded from the callback-driven decoder that the loop in ``generate``
# replaced (the same NumPy build; another BLAS may sum in another order)
RECORDED_DECODES = {
    ("fixture", "greedy"): [
        ([12, 10, 14, 10, 0, 0, 0], 8,
         "2f59fc59d7a11b64c8988a257cc9232d6cf0954b7b4dc34581737b52cb7c5bf4"),
        ([11, 10, 14, 10], 5,
         "1ca33e6d92388e9044a90b46647771e075bc8ffc015ff7f290d2e578d9f5a081"),
        ([12, 10, 14, 10], 5,
         "c1b873727fee1784857f8f66449c208a771cfc05f17870c96239934df44576c4"),
    ],
    ("fixture", "nucleus"): [
        ([18], 2,
         "5bbbc08fcc0da39f05cb6fa0ae7cda00272808677a9b64941e61feecd3371126"),
        ([13, 24, 24, 20, 25, 4, 13, 3, 20, 25, 25, 5, 28, 21, 28, 26, 7, 10, 0, 17], 20,
         "8f0cda4a2543cc4c8f8c04f6b4c649546466ecf03550c2bf3b1340ba40b90063"),
        ([0, 27, 8, 18, 16, 27, 17, 8, 7, 22, 11, 0], 13,
         "8d166bb0ca3069ea47022017ca22116b4677ae23757c7de5fdd8304d8a73423b"),
    ],
    ("planted", "greedy"): [
        ([19, 19, 6, 19, 16, 9, 19, 16, 9, 19, 1, 19, 16, 10, 16, 9, 19, 19, 16], 20,
         "24c7c7cbe487ba0675ce12b61a73c4a2a7409dd872d4923ae93a7745bcefd1ce"),
        ([19, 19, 6, 19, 16, 9, 19, 16, 9, 19, 1, 19, 16, 10, 16, 9, 19, 19, 16], 20,
         "ea619873ec46a08a0e6bdee5e26ad99546726d0366a920df8e287177c6582b6c"),
        ([19, 19, 6, 19, 16, 9, 19, 16, 9, 19, 1, 19, 16, 10, 16, 9, 19, 19, 16], 20,
         "3a42b305e9e03add03c730d6d2078da3a7753bae1ceb8ddeb9cc24d7e66e9f23"),
    ],
    ("planted", "nucleus"): [
        ([7, 6, 14, 18, 0, 16, 19, 10, 14, 10, 18, 6, 7, 4, 7, 10, 18, 8, 16, 7], 20,
         "0c7efcb2434d7d2fd61bc667c32d80d92e02abd9faf69128b38274045af3d5f3"),
        ([6, 16, 15, 8, 6, 17, 18, 14, 5, 6, 15, 13, 17, 13, 9, 17, 6, 12, 16, 9], 20,
         "8af92545192385a8f33b492ee5cd9dc70287abf2be747aa35093caffc1759e44"),
        ([11, 9], 3,
         "370eabcf3b350fbd51c2f829b34e96338c08d00825c363aeb5c21a3579ad17ba"),
    ],
}


def logits_digest(steps):
    text = "".join(float.hex(float(x)) for step in steps for x in step)
    return hashlib.sha256(text.encode()).hexdigest()


class TestCachedDecoding:
    @pytest.mark.parametrize("corpus", ["fixture", "planted"])
    @pytest.mark.parametrize("mode", ["greedy", "nucleus"])
    def test_matches_full_recompute(self, monkeypatch, corpus, mode):
        records, vocab, model = corpus_and_model(corpus)
        for r, seq in enumerate(records):
            cfg = DecodingConfig(mode=mode, p=0.9, max_new_tokens=20, seed=31 + r)
            ids, steps = cached_decode(monkeypatch, model, seq, vocab, cfg)
            want_ids, want_steps = full_recompute_decode(model, seq, vocab, cfg)
            assert ids == want_ids
            assert len(steps) == len(want_steps)
            for got, want in zip(steps, want_steps):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("corpus", ["fixture", "planted"])
    @pytest.mark.parametrize("mode", ["greedy", "nucleus"])
    def test_bits_match_recorded_decodes(self, monkeypatch, corpus, mode):
        records, vocab, model = corpus_and_model(corpus)
        got = []
        for r, seq in enumerate(records):
            cfg = DecodingConfig(mode=mode, p=0.9, max_new_tokens=20, seed=31 + r)
            ids, steps = cached_decode(monkeypatch, model, seq, vocab, cfg)
            got.append((ids, len(steps), logits_digest(steps)))
        assert got == RECORDED_DECODES[corpus, mode]

    @pytest.mark.parametrize("corpus", ["fixture", "planted"])
    def test_stops_at_t_max_budget(self, monkeypatch, corpus):
        records, vocab, model = corpus_and_model(corpus, t_max=9, suppress_eos=True)
        cfg = DecodingConfig(mode="nucleus", p=0.9, max_new_tokens=100, seed=8)
        ids, steps = cached_decode(monkeypatch, model, records[0], vocab, cfg)
        want_ids, want_steps = full_recompute_decode(model, records[0], vocab, cfg)
        assert len(ids) == model.config.t_max - 1
        assert ids == want_ids
        np.testing.assert_allclose(np.array(steps), np.array(want_steps), rtol=0, atol=1e-12)

    def test_one_prefix_forward_then_one_position_per_token(self, monkeypatch):
        records, vocab, model = corpus_and_model("fixture", suppress_eos=True)
        seq = records[0]
        prefix = assemble_input(seq, [], model.config, vocab.bos_id)
        prefix_len = prefix.length - prefix.token_ids.size
        lengths, grid_calls = [], []

        def counting_forward(model_, layout, **kwargs):
            lengths.append(layout.length)
            return forward_logits(model_, layout, **kwargs)

        real_grid = model_mod.grid_for_mode

        def counting_grid(*args, **kwargs):
            grid_calls.append(args[0].id)
            return real_grid(*args, **kwargs)

        monkeypatch.setattr(decoding, "forward_logits", counting_forward)
        monkeypatch.setattr(model_mod, "grid_for_mode", counting_grid)
        out = generate(model, seq, vocab, DecodingConfig(mode="greedy", max_new_tokens=12))
        assert len(out.token_ids) == 12
        assert lengths == [prefix_len + 1] + [1] * 11
        assert grid_calls == [seq.id]
        generate(model, records[1], vocab, DecodingConfig(mode="greedy", max_new_tokens=1))
        assert lengths[12:] == [prefix_len + 1]
        assert grid_calls == [seq.id, records[1].id]


def recut_corpus():
    """40 fixture records cut to 2, 1 or 0 objects, so their prefixes take
    three widths and the widest group (24 records) spans two slices."""
    prepared = prepare_records(fixture_dataset(40, seed=7), seed=0)
    records = [dataclasses.replace(rec, objects=rec.objects[:(2, 2, 1, 2, 0)[i % 5]])
               for i, rec in enumerate(prepared.splits["train"])]
    vocab = prepared.vocab
    model = build_model(ModelConfig(
        vocab_size=len(vocab), feat_dim=8, d_model=16, n_layers=2, n_heads=2, d_ff=32,
        t_max=24, n_max=5, m_max=5, o_max=2, feature_set=("global", "char", "obj"),
        grid_mode="entity", dropout=0.1, seed=4))
    return records, vocab, model


def expected_slices(model, records, vocab):
    """Record indices of each decode slice: records grouped by prefix width
    (groups in order of first appearance), each group cut into slices of 16."""
    widths = [assemble_input(seq, [], model.config, vocab.bos_id).width for seq in records]
    slices = []
    for width in dict.fromkeys(widths):
        group = [i for i, w in enumerate(widths) if w == width]
        slices += [group[i:i + 16] for i in range(0, len(group), 16)]
    return slices


def expected_forwards(slices, ids, budget):
    """(slice, step, records still decoding) of every batched forward: a story
    of n ids takes part in steps 0..n, or 0..budget - 1 when it hits the budget."""
    last_step = [min(len(story), budget - 1) for story in ids]
    return [(members, step, [r for r in members if step <= last_step[r]])
            for members in slices
            for step in range(max(last_step[r] for r in members) + 1)]


def record_batched_forwards(monkeypatch):
    """Patch ``decoding.forward_logits``; return the list that collects each
    forward's (sequences, width, last-position logits of each sequence)."""
    forwards = []

    def recording_forward(model_, batch, **kwargs):
        logits = forward_logits(model_, batch, **kwargs)
        rows = batch.lengths.size
        forwards.append((rows, batch.width,
                         logits.data.reshape(rows, batch.width, -1)[:, -1].copy()))
        return logits

    monkeypatch.setattr(decoding, "forward_logits", recording_forward)
    return forwards


class TestBatchedDecoding:
    CASES = [("greedy", 6), ("nucleus", 8)]

    @pytest.mark.parametrize("mode, budget", CASES)
    def test_matches_per_record_generate_and_full_recompute(self, monkeypatch, mode, budget):
        records, vocab, model = recut_corpus()
        cfg = DecodingConfig(mode=mode, p=0.9, max_new_tokens=budget, seed=31)
        per_record = [generate(model, seq, vocab, cfg).token_ids for seq in records]
        oracle = [full_recompute_decode(model, seq, vocab, cfg) for seq in records]
        forwards = record_batched_forwards(monkeypatch)
        stories = generate_batch(model, records, vocab, cfg)
        ids = [story.token_ids for story in stories]
        assert [story.sequence_id for story in stories] == [seq.id for seq in records]
        assert ids == per_record == [want for want, _ in oracle]

        # the data exercise what the test is about
        slices = expected_slices(model, records, vocab)
        assert len({len(s) for s in slices}) > 1 and max(len(s) for s in slices) == 16
        assert len(slices) >= 4  # three widths, one of them over two slices
        lengths = {len(story) for story in ids}
        assert budget in lengths and len(lengths - {budget}) >= 2

        steps = [[] for _ in records]
        schedule = expected_forwards(slices, ids, budget)
        assert len(forwards) == len(schedule)
        for (rows, _, last), (_, _, active) in zip(forwards, schedule):
            assert rows == len(active)
            for r, row in zip(active, last):
                steps[r].append(row)
        for got, (_, want) in zip(steps, oracle):
            assert len(got) == len(want)
            np.testing.assert_allclose(np.array(got), np.array(want), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode, budget", CASES)
    def test_one_prefix_forward_per_slice_then_one_row_per_active_story(
            self, monkeypatch, mode, budget):
        records, vocab, model = recut_corpus()
        cfg = DecodingConfig(mode=mode, p=0.9, max_new_tokens=budget, seed=31)
        forwards = record_batched_forwards(monkeypatch)
        ids = [story.token_ids for story in generate_batch(model, records, vocab, cfg)]
        widths = [assemble_input(seq, [], model.config, vocab.bos_id).width for seq in records]
        slices = expected_slices(model, records, vocab)
        schedule = expected_forwards(slices, ids, budget)
        # the prefixes of a slice in one forward, then one row per unfinished story
        assert [(rows, width) for rows, width, _ in forwards] == [
            (len(active), widths[members[0]] if step == 0 else 1)
            for members, step, active in schedule]
        for members in slices:
            steps = sum(1 for m, step, _ in schedule if m is members and step > 0)
            assert steps <= max(len(ids[r]) for r in members)

    def test_batched_cache_rows_match_full_forwards_after_keep(self):
        records, vocab, model = recut_corpus()
        seqs = [records[0], records[1], records[3]]  # one prefix width
        stories = [[3, 7, 2, 9], [5, 5, 8, 1], [4, 9, 9, 6]]
        cache = KVCache(model.config, batch=3)
        prefix = assemble_batch([assemble_input(seq, [], model.config, vocab.bos_id)
                                 for seq in seqs])
        width = prefix.width
        got = {r: [row] for r, row in enumerate(
            forward_logits(model, prefix, cache=cache).data.reshape(3, width, -1)[:, -1])}
        rows = [0, 1, 2]
        for step in range(4):
            if step == 2:
                cache.keep([0, 2])  # the middle story finishes
                rows = [0, 2]
            logits = forward_logits(model, text_step([stories[r][step] for r in rows],
                                                     cache.length), cache=cache).data
            for r, row in zip(rows, logits):
                got[r].append(row)
        assert cache.batch == 2 and cache.length == width + 4
        for r, seq in enumerate(seqs):
            n = len(got[r])
            full = forward_logits(model, assemble_input(seq, stories[r][:n - 1],
                                                        model.config, vocab.bos_id)).data
            np.testing.assert_allclose(np.array(got[r]), full[width - 1:], rtol=0, atol=1e-12)

    def test_batched_cached_forward_rejects_misaligned_or_padded_positions(self):
        records, vocab, model = recut_corpus()
        same = [assemble_input(records[i], [], model.config, vocab.bos_id) for i in (0, 1)]
        narrower = assemble_input(records[2], [], model.config, vocab.bos_id)
        assert narrower.width < same[0].width
        with pytest.raises(StateError):  # padded: the prefixes differ in width
            forward_logits(model, assemble_batch([same[0], narrower]), cache=KVCache(
                model.config, batch=2))
        cache = KVCache(model.config, batch=2)
        with pytest.raises(StateError):  # one sequence for a cache of two
            forward_logits(model, same[0], cache=cache)
        forward_logits(model, assemble_batch(same), cache=cache)
        length = cache.length
        with pytest.raises(StateError):  # both rows one position ahead
            forward_logits(model, text_step([3, 4], length + 1), cache=cache)
        step = text_step([3, 4], length)
        step.positions[1] += 1
        with pytest.raises(StateError):  # the second row misaligned
            forward_logits(model, step, cache=cache)
        step = text_step([3, 4], length)
        step.lengths[1] = 0
        with pytest.raises(StateError):  # the second row is padding
            forward_logits(model, step, cache=cache)
        with pytest.raises(StateError):  # three rows for a cache of two
            forward_logits(model, text_step([3, 4, 5], length), cache=cache)
        assert cache.length == length
        forward_logits(model, text_step([3, 4], length), cache=cache)
        assert cache.length == length + 1

    @pytest.mark.parametrize("mode", ["greedy", "nucleus"])
    def test_cli_generate_writes_the_per_record_stories(self, tmp_path, mode):
        records, vocab, model = recut_corpus()
        save_dataset(records, tmp_path / "records.jsonl")
        save_checkpoint(model, tmp_path / "model.ckpt")
        (tmp_path / "vocab.json").write_text(json.dumps(vocab.to_dict()))
        pools = {kind: [f"{kind}{i}" for i in range(12)]
                 for kind in ("male", "female", "location")}
        (tmp_path / "names.json").write_text(json.dumps(pools))
        for names in ([], ["--names", str(tmp_path / "names.json")]):
            out = tmp_path / "cli.jsonl"
            assert cli_main(["generate", "--checkpoint", str(tmp_path / "model.ckpt"),
                             "--dataset", str(tmp_path / "records.jsonl"),
                             "--vocab", str(tmp_path / "vocab.json"), "--out", str(out),
                             "--decoding", mode, "--p", "0.9", "--seed", "5",
                             "--max-new", "8"] + names) == 0
            cfg = DecodingConfig(mode=mode, p=0.9, max_new_tokens=8, seed=5)
            realize_rng = np.random.default_rng(5)
            stories = []
            for rec in load_dataset(tmp_path / "records.jsonl"):
                story = generate(model, rec, vocab, cfg)
                if names:
                    story.text = realize(story.tokens, NamePools.from_dict(pools), realize_rng)
                stories.append(story)
            save_generated(stories, tmp_path / "per_record.jsonl")
            assert out.read_bytes() == (tmp_path / "per_record.jsonl").read_bytes()
        assert len(stories) == len(records)


class TestDetokenize:
    def test_punctuation_reattached(self):
        assert detokenize(["hello", ",", "world", "!"]) == "hello, world!"

    def test_sent_paragraph_break(self):
        assert detokenize(["one", ".", "[sent]", "two", "."]) == "one.\n\ntwo."

    def test_control_tokens_dropped(self):
        assert detokenize(["[BOS]", "hi", "[EOS]", "[PAD]"]) == "hi"

    def test_unk_rendered_plain(self):
        assert detokenize(["an", "[UNK]", "dog"]) == "an unk dog"

    def test_apostrophe(self):
        assert detokenize(["don", "'", "t"]) == "don't"


class TestRealize:
    def test_same_placeholder_same_name(self):
        rng = np.random.default_rng(0)
        text = realize(["[male0]", "met", "[male0]", "."], NAMES, rng)
        words = text.replace(".", "").split()
        assert words[0] == words[2]

    def test_two_placeholders_distinct_names(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            text = realize(["[male0]", "met", "[male1]", "."], NAMES, rng)
            words = text.replace(".", "").split()
            assert words[0] != words[2]

    def test_no_placeholders_is_detokenization(self):
        rng = np.random.default_rng(0)
        assert realize(["just", "words", "."], NAMES, rng) == "just words."

    def test_location_placeholder(self):
        rng = np.random.default_rng(0)
        text = realize(["in", "[location]", "."], NAMES, rng)
        assert any(loc in text for loc in NAMES.location)

    def test_name_pools_are_lists_of_strings(self):
        pools = NamePools.from_dict({"male": ["Bob"], "location": []})
        assert (pools.male, pools.female, pools.location) == (["Bob"], [], [])
        for payload, message in (({"male": "Bob"}, "male names must be a list, got str"),
                                 ({"female": ["Sue", 5]}, "female names holds int"),
                                 ({"location": [None]}, "location names holds null")):
            with pytest.raises(DataError, match=message):
                NamePools.from_dict(payload)

    def test_empty_pool_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ResourceError):
            realize(["[female0]"], NamePools(male=["X"]), rng)

    def test_gender_correct_restoration_after_anonymize(self):
        from vwpstory.corpus import EntitySpan, StoryRecord, anonymize, tokenize
        story = StoryRecord(
            raw_text="John met Mary in Paris.",
            entity_spans=[EntitySpan(0, 4, "person", "John"),
                          EntitySpan(9, 13, "person", "Mary"),
                          EntitySpan(17, 22, "location", "Paris")])
        table = {"john": (9, 0), "mary": (0, 9)}
        anon, mapping = anonymize(story, table)
        pools = NamePools(
            male=[n for p, n in mapping.persons.items() if mapping.genders[p] == "male"],
            female=[n for p, n in mapping.persons.items() if mapping.genders[p] == "female"],
            location=mapping.locations)
        text = realize(tokenize(anon.raw_text), pools, np.random.default_rng(0))
        assert "John" in text and "Mary" in text and "Paris" in text

    @given(st.lists(st.sampled_from(
        ["[male0]", "[male1]", "[female0]", "[location]", "word", "."]),
        min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_no_brackets_survive(self, tokens):
        rng = np.random.default_rng(1)
        text = realize(tokens, NAMES, rng)
        assert "[" not in text and "]" not in text
