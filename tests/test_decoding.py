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
from vwpstory.corpus import build_vocab, load_dataset, prepare_records, save_dataset, write_jsonl
from vwpstory.decoding import (
    DecodingConfig,
    GeneratedStory,
    detokenize,
    generate,
    generate_batch,
    name_pools,
    nucleus_sample,
    realize,
)
from vwpstory.errors import DataError, NumericError, UsageError
from vwpstory.model import (
    KVCache,
    ModelConfig,
    assemble_input,
    build_model,
    forward_logits,
    save_checkpoint,
    text_step,
)
from vwpstory.synth import fixture_dataset, synthetic_grid_corpus

from test_model import make_seq, tiny_config

NAMES = {"male": ["John", "Jack", "Tom"], "female": ["Mary", "Sue"],
         "location": ["Paris", "Rome"]}


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

    @pytest.mark.parametrize("dist", [
        [0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, -np.inf, 0.5], [np.inf, -np.inf, 1.0],
        [0.7, 0.4, -0.1], [[0.5, 0.5]], [0.5, 0.4], []],
        ids=["nan", "inf", "minus-inf", "inf-minus-inf", "negative", "2-d", "bad-sum", "empty"])
    def test_rejects_each_bad_distribution(self, dist):
        with pytest.raises(NumericError):
            nucleus_sample(np.array(dist, dtype=np.float64), 0.9, np.random.default_rng(0))

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


class FixedDraw:
    """A generator stub whose every ``random()`` draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


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

    def test_full_support_whose_mass_ends_short_of_one(self):
        # the sorted running mass ends below 1 - 1e-15, so every id is in the
        # support; the largest draw takes the last-ranked one
        dist = nm.softmax_rows(np.random.default_rng(8).normal(size=1120) * 2)
        assert np.cumsum(dist[np.argsort(-dist)])[-1] < 1.0 - 1e-15
        largest = np.nextafter(1.0, 0.0)
        for sampler in (nucleus_sample, nucleus_sample_loop):
            assert sampler(dist, 1.0, FixedDraw(largest)) == int(np.argmin(dist))

    # 40 ids: id 11 alone on top, ids 5, 17, 29 and 33 tied below it (numpy's
    # default sort puts 29 before 17), the rest tied at the bottom
    TIED = np.ones(40)
    TIED[11], TIED[[5, 17, 29, 33]] = 10.0, 4.0
    UNTIED_HEAD = TIED.copy()
    UNTIED_HEAD[[5, 17, 29, 33]] = [4.0, 3.9, 3.8, 3.7]

    @pytest.mark.parametrize("raw, p, stable", [
        (TIED, 0.4, True),          # the support ends with the whole tied group
        (TIED, 0.25, True),         # the support ends inside the tied group
        (UNTIED_HEAD, 0.25, False),  # only the bottom group, beyond the cut, is tied
    ], ids=["inside", "straddling", "beyond"])
    def test_ties_in_the_head_take_the_stable_sort(self, monkeypatch, raw, p, stable):
        dist = raw / raw.sum()
        kinds = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        for seed in range(300):
            kinds.clear()
            monkeypatch.setattr(np, "argsort", spy)
            got = nucleus_sample(dist, p, np.random.default_rng(seed))
            monkeypatch.setattr(np, "argsort", argsort)
            assert got == nucleus_sample_loop(dist, p, np.random.default_rng(seed))
            assert kinds == ([None, "stable"] if stable else [None])


class TestDecodeTokens:
    """The decoding loop inside ``generate``, run on scripted logits."""

    def _decode(self, monkeypatch, script, max_new_tokens, mode="greedy"):
        """``generate``'s story when forward number k returns ``script(k, vocab)``,
        and the length of each forward's input."""
        vocab = build_vocab([list("abcdefgh")], min_freq=1)
        model = build_model(tiny_config(vocab_size=len(vocab)))
        calls = []

        def scripted_forward(model_, layout, **kwargs):
            calls.append(layout.length)
            return nm.Tensor(np.atleast_2d(script(len(calls) - 1, vocab)))

        monkeypatch.setattr(decoding, "forward_logits", scripted_forward)
        cfg = DecodingConfig(mode=mode, p=0.5, max_new_tokens=max_new_tokens)
        return generate(model, make_seq(), vocab, cfg), calls

    def test_rigged_sequence_then_stop(self, monkeypatch):
        def script(k, vocab):
            logits = np.zeros(len(vocab))
            logits[[5, 6, 7, vocab.eos_id][k]] = 10.0
            return logits

        for mode in ("greedy", "nucleus"):
            out, calls = self._decode(monkeypatch, script, 50, mode)
            assert out.token_ids == [5, 6, 7] and out.stop == "eos"
            assert calls[1:] == [1, 1, 1]  # one-row steps; picking [EOS] ends the loop

    def test_truncation_at_budget(self, monkeypatch):
        out, calls = self._decode(monkeypatch, lambda k, vocab: np.eye(len(vocab))[3] * 9.0, 4)
        assert out.token_ids == [3, 3, 3, 3] and out.stop == "budget"
        assert len(calls) == 4  # no forward after the last token of the budget

    def test_greedy_tie_breaks_to_lowest_id(self, monkeypatch):
        def script(k, vocab):
            logits = np.zeros(len(vocab))
            logits[[9, 4, 6]] = 2.0
            return logits

        out, _ = self._decode(monkeypatch, script, 1)
        assert out.token_ids == [4]

    def test_config_validation(self):
        with pytest.raises(UsageError, match="unknown decoding mode 'beam'"):
            DecodingConfig(mode="beam")
        with pytest.raises(UsageError, match=r"nucleus p must be in \(0, 1\], got 0.0"):
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
        assert payload["stop"] == ("budget" if len(out.token_ids) == 4 else "eos")
        assert isinstance(payload["text"], str)


def full_recompute_decode(model, seq, vocab, config):
    """Reference decoder: assemble and forward the whole sequence at every
    step. Returns the ids and each step's last-position logits."""
    rng = np.random.default_rng(config.seed)
    ids, steps = [], []
    for _ in range(min(config.max_new_tokens, model.config.t_max - 1)):
        layout = assemble_input([(seq, ids)], model.config, vocab.bos_id)
        logits = forward_logits(model, layout).data[-1]
        steps.append(logits)
        if config.mode == "greedy":
            token = int(np.argmax(logits))
        else:
            exps = np.exp(logits - logits.max())
            token = nucleus_sample_loop(exps / exps.sum(), config.p, rng)
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


# generate's ids, its number of forwards, and two sha256 digests over the
# float.hex of a forward's last-position logits, per record of
# ``corpus_and_model``: one of the prefix forward's row, one of every cached
# step's. The ids, the counts and the cached-step digests were recorded from
# the callback-driven decoder that the loop in ``generate`` replaced; the
# prefix digests were recorded again when the cached prefix forward came to
# compute only its last row's query side and logits (the same NumPy build;
# another BLAS may sum in another order)
RECORDED_DECODES = {
    ("fixture", "greedy"): [
        ([12, 10, 14, 10, 0, 0, 0], 8,
         "17e0348ae40a223ec76facfac8246e18b42241d61ffc17bc6cfbbe6641d98b0a",
         "66f614bc58f83fd34311464edc3c3b4b73bd0435154fc76d3fcb1de69af40532"),
        ([11, 10, 14, 10], 5,
         "e87a1527eace0aa2623aa94c172c8407bcc334bcab32be46e914497135af63c5",
         "26ce5eff9a2a8b18655619cad5b5965d6c311ca501f87cd499abb5acd8b82ffa"),
        ([12, 10, 14, 10], 5,
         "45a8fa56384264ee40d73ab58f9c863f243d26c5e4480abc4c4f1f8c77f971c2",
         "d4bdf1869d4aa0b735634ad1c82fdd410158aa7a71c91802e8a1b6e89d7cf2e3"),
    ],
    ("fixture", "nucleus"): [
        ([18], 2,
         "17e0348ae40a223ec76facfac8246e18b42241d61ffc17bc6cfbbe6641d98b0a",
         "220f1c677be2448224883d9cbf6e8e03deb998576dce8b7b8d5744a4b8b97d57"),
        ([13, 24, 24, 20, 25, 4, 13, 3, 20, 25, 25, 5, 28, 21, 28, 26, 7, 10, 0, 17], 20,
         "e87a1527eace0aa2623aa94c172c8407bcc334bcab32be46e914497135af63c5",
         "0bdb82a041d8454ab80664918c34f1256b551fd2aed80a34ad2e770e99cb36a5"),
        ([0, 27, 8, 18, 16, 27, 17, 8, 7, 22, 11, 0], 13,
         "45a8fa56384264ee40d73ab58f9c863f243d26c5e4480abc4c4f1f8c77f971c2",
         "38164118b652da08f0d172ce5f065d48d08b9614f9d260d49ac52c9d7bba6ad9"),
    ],
    ("planted", "greedy"): [
        ([19, 19, 6, 19, 16, 9, 19, 16, 9, 19, 1, 19, 16, 10, 16, 9, 19, 19, 16], 20,
         "e25f2352cdff8cdbe9751b5019d5e0dcac6dbc78c46af77145029ccaec0099dd",
         "3ef22bdbded3e6ddca1232c9934512a9bbb7c0d01dc34a10b6d6d4d2262e6e93"),
        ([19, 19, 6, 19, 16, 9, 19, 16, 9, 19, 1, 19, 16, 10, 16, 9, 19, 19, 16], 20,
         "fc95e863d204d0730a5c488a17586bd13d6e9082f0090a94c3d6e10efe8247cd",
         "01d115f0f36d2ffffa4e8c95eb6cd1f885c79e6144a4b1ef21901bf0b7c0108d"),
        ([19, 19, 6, 19, 16, 9, 19, 16, 9, 19, 1, 19, 16, 10, 16, 9, 19, 19, 16], 20,
         "8463cfa76ec4c97142d831d7df4fdd466ad33ac615fe9f397543049f6471c95a",
         "52e84f40a30122a641cc0be2c5bbe90ce93366945ee2971fb2d022f0008f191f"),
    ],
    ("planted", "nucleus"): [
        ([7, 6, 14, 18, 0, 16, 19, 10, 14, 10, 18, 6, 7, 4, 7, 10, 18, 8, 16, 7], 20,
         "e25f2352cdff8cdbe9751b5019d5e0dcac6dbc78c46af77145029ccaec0099dd",
         "bf9914c56dd0fc0b15fb25ba28e9dda4ec0a62704e6d734fa1a96ed5759b5b5d"),
        ([6, 16, 15, 8, 6, 17, 18, 14, 5, 6, 15, 13, 17, 13, 9, 17, 6, 12, 16, 9], 20,
         "fc95e863d204d0730a5c488a17586bd13d6e9082f0090a94c3d6e10efe8247cd",
         "4b73d96e7583ed0f0167135bac224249f72bdd9a70d22a5870ccab6b91f14e58"),
        ([11, 9], 3,
         "8463cfa76ec4c97142d831d7df4fdd466ad33ac615fe9f397543049f6471c95a",
         "b2e61861492161a2f770e49f2db03cd3317cd34228770744eadb049ead60ae54"),
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
            got.append((ids, len(steps), logits_digest(steps[:1]), logits_digest(steps[1:])))
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
        assert generate(model, records[0], vocab, cfg).stop == "budget"

    def test_matches_full_recompute_at_the_generate_benchmark_shape(self, monkeypatch):
        # the ``vwp train`` default model on 512-wide features, 10 images and
        # 5 characters, over a vocabulary of more than 1 000 ids
        vocab = build_vocab([[f"w{i}" for i in range(1100)]], min_freq=1)
        seq = make_seq(n_images=10, n_chars=5, seed=2, dim=512)
        model = build_model(ModelConfig(vocab_size=len(vocab), feat_dim=512,
                                        feature_set=("global", "char"), grid_mode="char",
                                        seed=6))
        assert len(vocab) > 1000 and model.config.n_layers == 2
        model.store["out.b"].data[vocab.eos_id] = -1e9
        cfg = DecodingConfig(mode="nucleus", p=0.9, max_new_tokens=40, seed=12)
        ids, steps = cached_decode(monkeypatch, model, seq, vocab, cfg)
        want_ids, want_steps = full_recompute_decode(model, seq, vocab, cfg)
        assert len(ids) == 40
        assert ids == want_ids
        np.testing.assert_allclose(np.array(steps), np.array(want_steps), rtol=0, atol=1e-12)
        assert generate(model, seq, vocab, cfg).stop == "budget"

    # Tensors built by the 19 cached steps of a 20-token decode with the
    # two-layer ``corpus_and_model`` models, each step one text row: 36 per step
    CACHED_STEP_TENSORS = 19 * 36

    @pytest.mark.parametrize("corpus", ["fixture", "planted"])
    def test_cached_steps_build_no_more_tensors(self, monkeypatch, corpus):
        records, vocab, model = corpus_and_model(corpus, suppress_eos=True)
        built, forwards = [0], []
        init = nm.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            built[0] += 1
            init(tensor, *args, **kwargs)

        def counting_forward(*args, **kwargs):
            before = built[0]
            logits = forward_logits(*args, **kwargs)
            forwards.append(built[0] - before)
            return logits

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        monkeypatch.setattr(decoding, "forward_logits", counting_forward)
        out = generate(model, records[0], vocab,
                       DecodingConfig(mode="nucleus", p=0.9, max_new_tokens=20, seed=3))
        assert len(out.token_ids) == 20 and len(forwards) == 20
        assert sum(forwards[1:]) <= self.CACHED_STEP_TENSORS

    @pytest.mark.parametrize("budget, t_max", [(12, 24), (100, 9)])
    def test_cache_holds_exactly_the_positions_a_slice_fills(self, monkeypatch, budget, t_max):
        records, vocab, model = corpus_and_model("fixture", t_max=t_max, suppress_eos=True)
        caches = []

        def recording_cache(*args, **kwargs):
            caches.append(KVCache(*args, **kwargs))
            return caches[-1]

        monkeypatch.setattr(decoding, "KVCache", recording_cache)
        out = generate_batch(model, records[:2], vocab,
                             DecodingConfig(mode="greedy", max_new_tokens=budget))
        new = min(budget, t_max - 1)
        assert [len(story.token_ids) for story in out] == [new, new]
        width = assemble_input([(records[0], [])], model.config, vocab.bos_id).width
        # the prefix, then one position for every token but the last
        assert [(c.keys.shape[2], c.length) for c in caches] == [(width + new - 1,) * 2]

    def test_one_prefix_forward_then_one_position_per_token(self, monkeypatch):
        records, vocab, model = corpus_and_model("fixture", suppress_eos=True)
        seq = records[0]
        prefix = assemble_input([(seq, [])], model.config, vocab.bos_id)
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
    widths = [assemble_input([(seq, [])], model.config, vocab.bos_id).width for seq in records]
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
        assert logits.shape == (rows, model_.config.vocab_size)
        forwards.append((rows, batch.width, logits.data.copy()))
        return logits

    monkeypatch.setattr(decoding, "forward_logits", recording_forward)
    return forwards


class TestBatchedDecoding:
    CASES = [("greedy", 6), ("nucleus", 8)]

    @pytest.mark.parametrize("mode, budget", CASES)
    def test_matches_per_record_generate_and_full_recompute(self, monkeypatch, mode, budget):
        records, vocab, model = recut_corpus()
        cfg = DecodingConfig(mode=mode, p=0.9, max_new_tokens=budget, seed=31)
        alone = [generate(model, seq, vocab, cfg) for seq in records]
        oracle = [full_recompute_decode(model, seq, vocab, cfg) for seq in records]
        forwards = record_batched_forwards(monkeypatch)
        stories = generate_batch(model, records, vocab, cfg)
        ids = [story.token_ids for story in stories]
        assert [story.sequence_id for story in stories] == [seq.id for seq in records]
        assert ids == [story.token_ids for story in alone] == [want for want, _ in oracle]
        # each story keeps its own stop reason through the batch's row changes
        stops = [story.stop for story in stories]
        assert stops == [story.stop for story in alone]
        assert stops == ["budget" if len(story) == budget else "eos" for story in ids]

        # the data exercise what the test is about
        slices = expected_slices(model, records, vocab)
        assert len({len(s) for s in slices}) > 1 and max(len(s) for s in slices) == 16
        assert len(slices) >= 4  # three widths, one of them over two slices
        lengths = {len(story) for story in ids}
        assert budget in lengths and len(lengths - {budget}) >= 2
        assert any(len({stops[r] for r in members}) == 2 for members in slices)

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
        widths = [assemble_input([(seq, [])], model.config, vocab.bos_id).width for seq in records]
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
        prefix = assemble_input([(seq, []) for seq in seqs], model.config, vocab.bos_id)
        width = prefix.width
        first = forward_logits(model, prefix, cache=cache).data
        assert first.shape == (3, model.config.vocab_size)
        got = {r: [row] for r, row in enumerate(first)}
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
            full = forward_logits(model, assemble_input([(seq, stories[r][:n - 1])],
                                                        model.config, vocab.bos_id)).data
            np.testing.assert_allclose(np.array(got[r]), full[width - 1:], rtol=0, atol=1e-12)

    def test_batched_cached_forward_rejects_misaligned_or_padded_positions(self):
        records, vocab, model = recut_corpus()
        same = [(records[i], []) for i in (0, 1)]
        padded = assemble_input([same[0], (records[2], [])], model.config, vocab.bos_id)
        assert padded.lengths[1] < padded.width
        misplaced = "do not all follow the"
        with pytest.raises(NumericError, match=misplaced):  # padded: the prefixes differ in width
            forward_logits(model, padded, cache=KVCache(model.config, batch=2))
        cache = KVCache(model.config, batch=2)
        with pytest.raises(NumericError, match=misplaced):  # one sequence for a cache of two
            forward_logits(model, assemble_input(same[:1], model.config, vocab.bos_id),
                           cache=cache)
        forward_logits(model, assemble_input(same, model.config, vocab.bos_id), cache=cache)
        length = cache.length
        with pytest.raises(NumericError, match=misplaced):  # both rows one position ahead
            forward_logits(model, text_step([3, 4], length + 1), cache=cache)
        step = text_step([3, 4], length)
        step.positions[1] += 1
        with pytest.raises(NumericError, match=misplaced):  # the second row misaligned
            forward_logits(model, step, cache=cache)
        step = text_step([3, 4], length)
        step.lengths[1] = 0
        with pytest.raises(NumericError, match=misplaced):  # the second row is padding
            forward_logits(model, step, cache=cache)
        with pytest.raises(NumericError, match=misplaced):  # three rows for a cache of two
            forward_logits(model, text_step([3, 4, 5], length), cache=cache)
        assert cache.length == length
        forward_logits(model, text_step([3, 4], length), cache=cache)
        assert cache.length == length + 1

    def test_a_bad_record_fails_before_any_slice_decodes(self, monkeypatch):
        records, vocab, model = recut_corpus()
        bad = dataclasses.replace(records[-1], images=records[-1].images * 2)
        forwards = record_batched_forwards(monkeypatch)
        with pytest.raises(DataError, match=f"sequence {bad.id}: 10 images exceed n_max 5"):
            generate_batch(model, records[:-1] + [bad], vocab, DecodingConfig(max_new_tokens=4))
        assert forwards == []

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
                    story.text = realize(story.tokens, name_pools(pools), realize_rng)
                stories.append(story)
            write_jsonl(tmp_path / "per_record.jsonl", stories, GeneratedStory.to_dict)
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
        assert any(loc in text for loc in NAMES["location"])

    def test_name_pools_are_lists_of_strings(self):
        pools = name_pools({"male": ["Bob"], "location": []})
        assert pools == {"male": ["Bob"], "female": [], "location": []}
        for payload, message in (({"male": "Bob"}, "male names must be a list, got str"),
                                 ({"female": ["Sue", 5]}, "female names holds int"),
                                 ({"location": [None]}, "location names holds null")):
            with pytest.raises(DataError, match=message):
                name_pools(payload)

    def test_empty_pool_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match=r"no female names left for placeholder \[female0\]"):
            realize(["[female0]"], name_pools({"male": ["X"]}), rng)

    def test_gender_correct_restoration_after_anonymize(self):
        from vwpstory.corpus import EntitySpan, StoryRecord, anonymize, tokenize
        story = StoryRecord(
            raw_text="John met Mary in Paris.",
            entity_spans=[EntitySpan(0, 4, "person", "John"),
                          EntitySpan(9, 13, "person", "Mary"),
                          EntitySpan(17, 22, "location", "Paris")])
        table = {"john": (9, 0), "mary": (0, 9)}
        anon, mapping = anonymize(story, table)
        pools = {
            "male": [n for p, n in mapping.persons.items() if mapping.genders[p] == "male"],
            "female": [n for p, n in mapping.persons.items() if mapping.genders[p] == "female"],
            "location": mapping.locations}
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
