"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The learnability and end-to-end criteria train real models and
take a couple of minutes combined.
"""

import json
import math
import time

import numpy as np
import pytest

from vwpstory import numerics as nm
from vwpstory.analytics import (
    EntityGridModel,
    EntityRoleGrid,
    GroundednessAnnotation,
    SRLStory,
    WorkerStats,
    corpus_stats,
    groundedness_table,
    jaccard_similarity,
    plan_review_sample,
    predicate_ngram_diversity,
    qualify,
    score_coherence,
    train_entity_grid,
)
from vwpstory.chargrid import grid_for_mode
from vwpstory.cli import main as cli_main
from vwpstory.corpus import (
    CharacterInstance,
    CharacterRecord,
    ImageRecord,
    ImageSequenceRecord,
    prepare_records,
    save_dataset,
)
from vwpstory.decoding import nucleus_sample
from vwpstory.metrics import (
    EvalPair,
    bleu_corpus,
    cider,
    meteor,
    rouge_l,
)
from vwpstory.model import (
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
    story_loss,
)
from vwpstory.synth import fixture_dataset, fixture_annotations, write_annotations, write_gender_table
from vwpstory.training import TrainConfig, fit, run_grid_comparison

from test_metrics import brute_force_cider


def report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def _tiny_sequence(rng, n_images=3, n_chars=2, dim=3, seq_id="acc"):
    images = [ImageRecord(image_id=f"{seq_id}-im{a}", global_feat=rng.normal(size=dim))
              for a in range(n_images)]
    chars = [CharacterRecord(
        char_id=f"{seq_id}-c{b}", gender="unknown",
        instances=[CharacterInstance(0, (0, 0, 1, 1), 1.0)],
        representative_feat=rng.normal(size=dim)) for b in range(n_chars)]
    return ImageSequenceRecord(id=seq_id, images=images, characters=chars)


class TestGradientSuite:
    def test_grad_check_tiny_grid_model_under_30s(self):
        start = time.monotonic()
        cfg = ModelConfig(vocab_size=12, feat_dim=3, d_model=8, n_layers=1,
                          n_heads=2, d_ff=16, t_max=8, n_max=4, m_max=2, o_max=1,
                          feature_set=("global", "char"), grid_mode="char",
                          dropout=0.0, seed=3)
        model = build_model(cfg)
        seq = _tiny_sequence(np.random.default_rng(0))
        err = nm.grad_check(
            lambda store: story_loss(model, seq, [2, 3, 4], bos_id=1),
            model.store, epsilon=1e-5)
        elapsed = time.monotonic() - start
        assert err < 1e-4, f"max relative gradient error {err}"
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        report(f"gradient suite (max rel err {err:.2e}, {elapsed:.1f}s)")


class TestGridOracle:
    def test_100_random_fixtures_exact(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n, m, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 9)
            ifeats = rng.normal(size=(n, d))
            cfeats = rng.normal(size=(m, d))
            seq = ImageSequenceRecord(
                id=f"g{trial}",
                images=[ImageRecord(f"im{a}", ifeats[a]) for a in range(n)],
                characters=[CharacterRecord(f"c{b}", "unknown",
                                            [CharacterInstance(0, (0, 0, 1, 1), 1.0)],
                                            cfeats[b]) for b in range(m)])
            grid = grid_for_mode(seq, "char")
            for a in range(n):
                for b in range(m):
                    expected = 0.0
                    for x, y in zip(ifeats[a], cfeats[b]):
                        expected += float(x) * float(y)
                    assert grid.values[a, b] == expected
        report("grid oracle: 100 random fixtures match brute force exactly")

    def test_equivariance_and_bilinearity_exact(self):
        rng = np.random.default_rng(77)
        ifeats = rng.normal(size=(4, 5))
        cfeats = rng.normal(size=(3, 5))

        def seq_of(imgs, chars):
            return ImageSequenceRecord(
                id="s", images=[ImageRecord(f"im{a}", imgs[a]) for a in range(len(imgs))],
                characters=[CharacterRecord(f"c{b}", "unknown",
                                            [CharacterInstance(0, (0, 0, 1, 1), 1.0)],
                                            chars[b]) for b in range(len(chars))])

        base = grid_for_mode(seq_of(ifeats, cfeats), "char").values
        perm = [2, 0, 1]
        permuted = grid_for_mode(seq_of(ifeats, cfeats[perm]), "char").values
        np.testing.assert_array_equal(permuted, base[:, perm])
        # powers of two scale mantissas exactly in IEEE double
        for s in (0.5, 2.0, 8.0):
            scaled = grid_for_mode(seq_of(ifeats * s, cfeats), "char").values
            np.testing.assert_array_equal(scaled, base * s)
        report("grid oracle: permutation equivariance and row scaling exact")


class TestMetricOracles:
    def test_hand_computed_examples(self):
        checks = []
        # BLEU
        identical = EvalPair("the cat sat on the mat".split(),
                             ["the cat sat on the mat".split()])
        for n in range(1, 5):
            checks.append((bleu_corpus([identical], n), 1.0))
        checks.append((bleu_corpus([EvalPair(["the"] * 4, [["the", "cat"]])], 1), 0.25))
        checks.append((bleu_corpus([EvalPair(["aa"], [["bb"]])], 1), 0.0))
        # METEOR
        checks.append((meteor([EvalPair(["the", "cat", "sat"], [["the", "cat", "sat"]])]),
                       1.0 - 0.5 * (1 / 3) ** 3))
        checks.append((meteor([EvalPair(["the", "cat"], [["cat", "the"]])]), 0.5))
        checks.append((meteor([EvalPair(["aa"], [["bb"]])]), 0.0))
        # ROUGE-L
        checks.append((rouge_l([EvalPair(list("abcd"), [list("abcd")])]), 1.0))
        checks.append((rouge_l([EvalPair(["a", "b", "c", "d"], [["a", "c", "d"]])]),
                       (1 + 1.44) * 1.0 * 0.75 / (1.0 + 1.44 * 0.75)))
        checks.append((rouge_l([EvalPair(["aa"], [["bb"]])]), 0.0))
        for got, want in checks:
            assert got == pytest.approx(want, abs=1e-9)
        report("metric oracles: BLEU/METEOR/ROUGE-L hand examples within 1e-9")

    def test_cider_against_brute_force(self):
        identity = [EvalPair([f"u{i}", f"v{i}", f"w{i}", f"x{i}"],
                             [[f"u{i}", f"v{i}", f"w{i}", f"x{i}"]]) for i in range(4)]
        assert cider(identity) == pytest.approx(10.0, abs=1e-9)
        rng = np.random.default_rng(3)
        vocab = ["the", "cat", "dog", "sat", "ran", "mat", "on"]
        pairs = []
        for _ in range(8):
            hyp = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(3, 9))]
            refs = [[vocab[i] for i in rng.integers(0, len(vocab), rng.integers(3, 9))]
                    for _ in range(int(rng.integers(1, 3)))]
            pairs.append(EvalPair(hyp, refs))
        assert cider(pairs) == pytest.approx(brute_force_cider(pairs), abs=1e-9)
        report("metric oracles: CIDEr matches independent TF-IDF within 1e-9")

    def test_self_evaluation_on_20_pair_corpus(self):
        rng = np.random.default_rng(11)
        common = ["a", "story", "about", "people"]
        pairs = []
        for i in range(20):
            toks = common + [f"u{i}", f"v{i}", f"w{i}", f"x{i}"]
            rng.shuffle(toks)
            pairs.append(EvalPair(list(toks), [list(toks)]))
        for n in range(1, 5):
            assert bleu_corpus(pairs, n) == pytest.approx(1.0, abs=1e-12)
        assert rouge_l(pairs) == pytest.approx(1.0, abs=1e-12)
        m_total = sum(len(p.hypothesis) for p in pairs)
        expected_meteor = 1.0 - 0.5 * (20 / m_total) ** 3
        got = meteor(pairs)
        assert got == pytest.approx(expected_meteor, abs=1e-12)
        assert got < 1.0
        assert cider(pairs) == pytest.approx(10.0, abs=1e-9)
        report("metric oracles: self-evaluation invariants on 20-pair corpus")


class TestNucleusLaw:
    def test_empirical_frequencies(self):
        dist = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(20240615)
        n = 100_000
        draws = np.array([nucleus_sample(dist, 0.6, rng) for _ in range(n)])
        for token, expected in ((0, 0.625), (1, 0.375)):
            freq = float((draws == token).mean())
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(freq - expected) <= 3 * se, f"token {token}: {freq} vs {expected}"
        assert not (draws == 2).any()
        argmax_draws = [nucleus_sample(dist, 0.1, rng) for _ in range(1000)]
        assert all(t == 0 for t in argmax_draws)
        report("nucleus sampling law: p=0.6 within 3 SE, p=0.1 pure argmax")


class TestLearnability:
    def test_grid_beats_baseline_three_seeds(self):
        start = time.monotonic()
        result = run_grid_comparison(n_sequences=560, val_count=60,
                                     seeds=(0, 1, 2), epochs=14)
        elapsed = time.monotonic() - start
        assert elapsed < 900.0, f"learnability run took {elapsed:.0f}s"
        for row in result.per_seed:
            assert row["grid_loss"] < row["baseline_loss"], row
            assert row["grid_accuracy"] >= 0.90, row
        assert result.grid_wins == 3
        report(f"learnability: grid wins 3/3 seeds, min accuracy "
               f"{result.min_grid_accuracy:.3f}, {elapsed:.0f}s")


class TestTrainingDeterminism:
    def test_bitwise_identical_best_checkpoints(self, tmp_path):
        from vwpstory.synth import synthetic_grid_corpus
        from vwpstory.decoding import DecodingConfig

        records = synthetic_grid_corpus(12, seed=4)
        prepared = prepare_records(records, seed=4, val_count=2, test_count=2)
        model_cfg = ModelConfig(vocab_size=len(prepared.vocab), feat_dim=8,
                                d_model=16, n_layers=1, n_heads=2, d_ff=32,
                                t_max=24, n_max=5, m_max=5, o_max=2,
                                feature_set=("global", "char"), grid_mode="char",
                                dropout=0.1, seed=0)
        blobs = []
        for sub in ("runA", "runB"):
            cfg = TrainConfig(epochs=2, batch_size=4, lr=5e-3, seeds=(0,),
                              checkpoint_dir=tmp_path / sub,
                              val_decoding=DecodingConfig(mode="nucleus", p=0.9,
                                                          max_new_tokens=12, seed=777),
                              test_decoding=DecodingConfig(mode="greedy", max_new_tokens=12))
            fit(cfg, prepared.splits, model_cfg, prepared.vocab)
            blobs.append((tmp_path / sub / "seed0-best.ckpt").read_bytes())
        assert blobs[0] == blobs[1]
        report("training determinism: identical config+seed gives bitwise-identical checkpoints")

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(vocab_size=20, feat_dim=4, d_model=16, n_layers=2,
                          n_heads=2, d_ff=32, t_max=16, n_max=5, m_max=3, o_max=2,
                          feature_set=("global", "char", "obj"), grid_mode="entity",
                          dropout=0.1, seed=9)
        model = build_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.config == model.config
        for name in model.store.params:
            assert again.store[name].data.tobytes() == model.store[name].data.tobytes()
        report("training determinism: checkpoint save/load round-trips bit-exactly")


class TestEntityGridOracle:
    def test_h1_hand_tallied_on_toy_corpus(self):
        # 2 entities, 3 sentences
        grid = EntityRoleGrid(entities=["e0", "e1"],
                              rows=[["S", "-"], ["O", "S"], ["S", "S"]])
        alpha = 0.1
        model = train_entity_grid([grid], history=1, alpha=alpha)
        # column e0: - -> S, S -> O, O -> S; column e1: - -> -, - -> S, S -> S
        tallies = {
            ("-",): {"S": 2, "-": 1},  # from (pad->S), (pad->-), (- -> S)
            ("S",): {"O": 1, "S": 1},
            ("O",): {"S": 1},
        }
        for ctx, counts in tallies.items():
            total = sum(counts.values())
            for role in ("S", "O", "X", "-"):
                expected = (counts.get(role, 0) + alpha) / (total + 4 * alpha)
                assert model.prob(ctx, role) == pytest.approx(expected, abs=1e-12), (ctx, role)
        report("entity-grid oracle: h=1 probabilities equal hand-tallied smoothed counts")

    def test_self_trained_beats_uniform_by_enumeration(self):
        grid = EntityRoleGrid(entities=["e0", "e1"],
                              rows=[["S", "O"], ["X", "O"], ["S", "-"]])
        trained = train_entity_grid([grid], history=1, alpha=1e-9)
        uniform = EntityGridModel(history=1, alpha=1.0)
        assert score_coherence(trained, grid).ll >= score_coherence(uniform, grid).ll
        # per-context enumeration over a discretized simplex confirms maximality
        from collections import Counter
        from itertools import combinations
        tallies = {}
        for col in range(2):
            column = [row[col] for row in grid.rows]
            padded = ["-"] + column
            for i in range(len(column)):
                tallies.setdefault((padded[i],), Counter())[column[i]] += 1
        roles = ("S", "O", "X", "-")
        step = 20
        for ctx, counts in tallies.items():
            best_ll = sum(n * math.log(trained.prob(ctx, r)) for r, n in counts.items())
            for parts in combinations(range(1, step + 3), 3):
                sizes = [parts[0] - 1, parts[1] - parts[0], parts[2] - parts[1],
                         step + 3 - parts[2] - 1]
                probs = [s / step for s in sizes]
                if any(p == 0 and counts.get(r, 0) > 0 for p, r in zip(probs, roles)):
                    continue
                cand = sum(n * math.log(probs[roles.index(r)]) for r, n in counts.items())
                assert best_ll >= cand - 1e-6
        report("entity-grid oracle: self-trained LL maximal (simplex enumeration)")


class TestAnalyticsArithmetic:
    def test_hand_counts(self):
        a = SRLStory(predicates=["tell", "convince", "work"], characters={"[male0]"})
        b = SRLStory(predicates=["convince", "work", "call"], characters={"[male0]"})
        jac = jaccard_similarity({"s": [a, b]})
        assert jac.per_role["predicates"] == pytest.approx(0.5)
        ngrams = predicate_ngram_diversity([SRLStory(predicates=["tell", "convince", "work", "call"])])
        assert ngrams[3] == pytest.approx(1.0)
        from vwpstory.analytics import AnnotatedStory
        stories = [
            AnnotatedStory("a", ["x"] * 10, SRLStory(predicates=["run"], characters=set()), n_images=5),
            AnnotatedStory("b", ["y"] * 20, SRLStory(predicates=["run", "hide", "wave"],
                                                     characters={"[male0]"}), n_images=7),
        ]
        stats = corpus_stats(stories)
        assert stats["tokens_per_text"] == 15.0
        assert stats["events_per_text"] == 2.0
        assert stats["characters_per_text"] == 0.5
        assert stats["images_per_text"] == [5, 7]
        report("analytics arithmetic: jaccard, n-gram ratios, corpus stats match hand counts")

    def test_published_groundedness_counts_reproduce(self):
        events = ([GroundednessAnnotation("event", "Grounded")] * 164
                  + [GroundednessAnnotation("event", "Inferred")] * 134
                  + [GroundednessAnnotation("event", "Hallucinated")] * 1)
        arguments = ([GroundednessAnnotation("argument", "Grounded")] * 447
                     + [GroundednessAnnotation("argument", "Inferred")] * 254
                     + [GroundednessAnnotation("argument", "Hallucinated")] * 14)
        table = groundedness_table(events + arguments)
        assert table["event"]["counts"] == {"Grounded": 164, "Inferred": 134,
                                            "Hallucinated": 1}
        assert table["event"]["percentages"] == {"Grounded": 54.8, "Inferred": 44.8,
                                                 "Hallucinated": 0.3}
        assert table["argument"]["percentages"] == {"Grounded": 62.5, "Inferred": 35.5,
                                                    "Hallucinated": 2.0}
        print("NOTE: half-up rounding of 164/299 gives 54.8; the published table "
              "prints 54.9 for the same counts. Both raw counts and our convention "
              "are reported; the discrepancy is documented, not hidden.")
        report("analytics arithmetic: published raw counts reproduce percentages "
               "(54.8-vs-54.9 noted)")


class TestPlanner:
    def test_review_sampling_and_qualification(self):
        def worker(n_w, acceptance=0.95, quality=3.5, accepted=6):
            return WorkerStats("w", acceptance, quality, accepted, n_w)

        assert plan_review_sample(worker(5), cap_at_written=False) == 10
        assert plan_review_sample(worker(9), cap_at_written=False) == 10
        assert plan_review_sample(worker(5)) == 5  # capped at what was written
        assert plan_review_sample(worker(10)) == 10
        assert plan_review_sample(worker(1000)) == 30
        assert qualify(WorkerStats("w", 0.95, 3.5, 6, 1)) is True
        assert qualify(WorkerStats("w", 0.90, 3.1, 5, 1)) is False  # strict quality
        assert qualify(WorkerStats("w", 0.89, 5.0, 100, 1)) is False
        assert qualify(WorkerStats("w", 0.90, 3.2, 5, 1)) is True
        report("planner: review-sample branches and three-threshold qualification")


class TestEndToEndCli:
    def test_full_pipeline_under_five_minutes(self, tmp_path, capsys):
        start = time.monotonic()
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        records = fixture_dataset(16, seed=7)
        save_dataset(records, fixtures / "dataset.jsonl")
        write_annotations(fixture_annotations(records), fixtures / "annotations.jsonl")
        write_gender_table(fixtures / "gender_table.csv")
        prepared = tmp_path / "prepared"
        assert cli_main(["prepare", "--dataset", str(fixtures / "dataset.jsonl"),
                         "--out", str(prepared),
                         "--gender-table", str(fixtures / "gender_table.csv"),
                         "--seed", "0", "--val-count", "3", "--test-count", "3"]) == 0
        run_dir = tmp_path / "run"
        assert cli_main(["train", "--dataset", str(prepared), "--out", str(run_dir),
                         "--seeds", "0", "--epochs", "2", "--d-model", "16",
                         "--n-layers", "1", "--n-heads", "2", "--t-max", "32",
                         "--batch-size", "4", "--dropout", "0.0",
                         "--max-new", "12"]) == 0
        ckpt = run_dir / "checkpoints" / "seed0-best.ckpt"
        assert ckpt.exists()
        for mode in ("greedy", "nucleus"):
            out = tmp_path / f"gen-{mode}.jsonl"
            assert cli_main(["generate", "--checkpoint", str(ckpt),
                             "--dataset", str(prepared / "test.jsonl"),
                             "--vocab", str(prepared / "vocab.json"),
                             "--out", str(out), "--decoding", mode, "--p", "0.9",
                             "--seed", "1", "--max-new", "12"]) == 0
            for line in out.read_text().splitlines():
                payload = json.loads(line)
                assert set(payload) == {"sequence_id", "seed", "tokens", "text"}
        capsys.readouterr()  # drain earlier subcommand output
        assert cli_main(["evaluate", "--hyp", str(tmp_path / "gen-greedy.jsonl"),
                         "--dataset", str(prepared / "test.jsonl"),
                         "--format", "json"]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert "B-1" in scores and "METEOR" in scores
        for what in ("coherence", "jaccard", "diversity", "groundedness", "stats"):
            assert cli_main(["analyze", what, "--annotations",
                             str(fixtures / "annotations.jsonl"),
                             "--format", "json"]) == 0
            json.loads(capsys.readouterr().out)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
        report(f"end-to-end CLI pipeline in {elapsed:.0f}s with schema-valid outputs")
