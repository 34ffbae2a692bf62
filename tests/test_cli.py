import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vwpstory import chargrid, training
from vwpstory.chargrid import GRID_COLUMNS
from vwpstory.cli import _pairs_from_hyp, build_parser, main, report_error
from vwpstory.corpus import (
    UNK,
    Vocabulary,
    load_dataset,
    prepare_records,
    save_dataset,
    story_surface_tokens,
)
from vwpstory.decoding import DecodingConfig, GeneratedStory
from vwpstory.errors import DataError, NumericError, UsageError
from vwpstory.metrics import REPORT_SCALE, compute_metrics
from vwpstory.model import GRID_MODES, ModelConfig, build_model, save_checkpoint
from vwpstory.synth import (
    fixture_annotations,
    fixture_dataset,
    write_annotations,
    write_gender_table,
)
from vwpstory.training import metric_tokens

ROOT = Path(__file__).resolve().parents[1]

@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fixtures")
    records = fixture_dataset(12, seed=7)
    save_dataset(records, base / "dataset.jsonl")
    write_annotations(fixture_annotations(records), base / "annotations.jsonl")
    write_gender_table(base / "gender_table.csv")
    (base / "workers.csv").write_text(
        "worker_id,acceptance_rate,avg_quality,accepted,n_w\n"
        "w1,0.95,3.5,6,5\nw2,0.90,3.1,5,10\nw3,0.97,4.0,50,1000\n")
    return base


@pytest.fixture(scope="module")
def prepared_dir(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prepared")
    code = main(["prepare", "--dataset", str(fixture_dir / "dataset.jsonl"),
                 "--out", str(out), "--gender-table", str(fixture_dir / "gender_table.csv"),
                 "--seed", "0", "--val-count", "2", "--test-count", "2"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(prepared_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--dataset", str(prepared_dir), "--out", str(out),
                 "--seeds", "0", "--epochs", "1", "--d-model", "16",
                 "--n-layers", "1", "--n-heads", "2", "--t-max", "32",
                 "--batch-size", "4", "--dropout", "0.0", "--max-new", "12"])
    assert code == 0
    return out


def run_python(*args):
    """``python *args`` run from this checkout's root, importing its own src/,
    wherever pytest was started and whatever else is on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
                          env=env)


def run_console(*args):
    """``python -m vwpstory.cli *args``, as ``run_python`` runs it."""
    return run_python("-m", "vwpstory.cli", *args)


class TestUsage:
    def test_no_arguments_exits_one(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_rejected(self, capsys):
        assert main(["plan", "--workers", "x.csv", "--frobnicate"]) == 1

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_missing_file_is_data_error(self, capsys):
        assert main(["evaluate", "--pairs", "/definitely/not/here.jsonl"]) == 2

    def test_bad_vwp_log_env(self, monkeypatch):
        monkeypatch.setenv("VWP_LOG", "chatty")
        assert main(["plan", "--workers", "x"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv, flag", [
        (["prepare", "--dataset", "d.jsonl", "--out", "out", "--seed", "-1"], "--seed"),
        (["train", "--dataset", "prep", "--out", "out", "--seeds=-1"], "--seeds"),
        (["train", "--dataset", "prep", "--out", "out", "--seeds", "0,1,-2"], "--seeds"),
        (["train", "--dataset", "prep", "--out", "out", "--seeds", "0,x"], "--seeds"),
        (["generate", "--checkpoint", "c", "--dataset", "d", "--vocab", "v", "--out", "o",
          "--decoding", "nucleus", "--seed", "-3"], "--seed"),
    ])
    def test_a_bad_seed_is_a_usage_error(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a non-negative integer" in err
        assert "Traceback" not in err

    def test_a_negative_seed_in_a_config_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("seed=-1\n")
        assert main(["--config", str(cfg), "plan", "--workers", "w.csv"]) == 1
        assert f"{cfg}: bad seed '-1'" in capsys.readouterr().err


class TestPrepare:
    def test_outputs_schema(self, prepared_dir):
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.json", "names.json"):
            assert (prepared_dir / name).exists()
        vocab = json.loads((prepared_dir / "vocab.json").read_text())
        assert vocab["tokens"][0] == "[PAD]"
        names = json.loads((prepared_dir / "names.json").read_text())
        assert set(names) == {"male", "female", "location"}
        assert names["male"]
        records = load_dataset(prepared_dir / "train.jsonl")
        story = records[0].stories[0]
        assert all(isinstance(t, int) for t in story.tokens)
        assert "[male0]" in story.raw_text or "[female0]" in story.raw_text


class TestGrid:
    def test_csv_matches_char_grid(self, fixture_dir, capsys):
        code = main(["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--sequence", "fix1", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        records = {r.id: r for r in load_dataset(fixture_dir / "dataset.jsonl")}
        expected = chargrid.grid_csv(chargrid.grid_for_mode(records["fix1"], "char"))
        assert out == expected

    def test_missing_sequence_is_data_error(self, fixture_dir):
        assert main(["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--sequence", "nope"]) == 2

    def test_text_mode(self, fixture_dir, capsys):
        assert main(["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--sequence", "fix1", "--format", "text"]) == 0
        assert "shade scale" in capsys.readouterr().out

    def test_grid_mode_choices_are_the_grid_mode_table(self):
        _, commands = build_parser()

        def choices(command):
            return next(a.choices for a in commands[command]._actions if a.dest == "grid_mode")
        assert choices("train") == GRID_MODES
        assert choices("grid") == tuple(GRID_COLUMNS)


class TestTrainGenerateEvaluate:
    def test_train_artifacts(self, trained_dir):
        assert (trained_dir / "runlog.json").exists()
        assert (trained_dir / "checkpoints" / "seed0-best.ckpt").exists()
        runlog = json.loads((trained_dir / "runlog.json").read_text())
        assert runlog["runlogs"][0]["best_epoch"] == 1

    def test_generate_both_modes_deterministic(self, prepared_dir, trained_dir, tmp_path):
        ckpt = trained_dir / "checkpoints" / "seed0-best.ckpt"
        base = ["generate", "--checkpoint", str(ckpt),
                "--dataset", str(prepared_dir / "test.jsonl"),
                "--vocab", str(prepared_dir / "vocab.json"), "--max-new", "10"]
        for mode in ("greedy", "nucleus"):
            out1, out2 = tmp_path / f"{mode}1.jsonl", tmp_path / f"{mode}2.jsonl"
            for out in (out1, out2):
                assert main(base + ["--out", str(out), "--decoding", mode,
                                    "--p", "0.9", "--seed", "3"]) == 0
            assert out1.read_bytes() == out2.read_bytes()
            payload = json.loads(out1.read_text().splitlines()[0])
            assert set(payload) == {"sequence_id", "seed", "tokens", "text", "stop"}

    def test_generate_on_damaged_checkpoint_is_data_error(self, prepared_dir, trained_dir,
                                                          tmp_path, capsys):
        blob = (trained_dir / "checkpoints" / "seed0-best.ckpt").read_bytes()
        damaged = tmp_path / "damaged.ckpt"
        for data in (blob[:12], blob[:-3], blob + b"\x00\x01"):
            damaged.write_bytes(data)
            code = main(["generate", "--checkpoint", str(damaged),
                         "--dataset", str(prepared_dir / "test.jsonl"),
                         "--vocab", str(prepared_dir / "vocab.json"),
                         "--out", str(tmp_path / "out.jsonl")])
            assert code == 2
            assert "data error" in capsys.readouterr().err

    def test_evaluate_identity_pairs(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = [{"id": f"s{i}", "hypothesis": ["w", f"u{i}", "x", f"v{i}"],
                 "references": [["w", f"u{i}", "x", f"v{i}"]]} for i in range(4)]
        pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert main(["evaluate", "--pairs", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert "B-1" in out and "100.00" in out

    def test_evaluate_json_sorted(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "a", "hypothesis": "the cat",
                                     "references": ["the cat"]}) + "\n"
                         + json.dumps({"id": "b", "hypothesis": "dog",
                                       "references": ["dog"]}) + "\n")
        assert main(["evaluate", "--pairs", str(pairs), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == sorted(payload)
        assert payload["B-1"] == pytest.approx(100.0)

    @pytest.mark.parametrize("value", ["B-0", "B-x", "B-5", ""])
    def test_evaluate_bad_metric_name_is_data_error(self, tmp_path, value):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(json.dumps({"id": i, "hypothesis": "the cat sat",
                                             "references": ["the cat sat"]}) + "\n"
                                 for i in range(2)))
        proc = run_console("evaluate", "--pairs", str(pairs), f"--metrics={value}")
        assert proc.returncode == 2
        assert "data error: unknown metric" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("line", [
        '{"hypothesis": "the cat", "references": "the cat"}',
        '{"hypothesis": 5, "references": ["the cat"]}',
        '["the cat"]',
        '{"hypothesis": [null, {"a": 1}], "references": [[null, {"a": 1}]]}',
    ])
    def test_evaluate_malformed_pair_is_data_error(self, tmp_path, line):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"hypothesis": "a dog", "references": ["a dog"]}\n' + line + "\n")
        proc = run_console("evaluate", "--pairs", str(pairs))
        assert proc.returncode == 2
        assert "pairs.jsonl:2: bad eval pair" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_evaluate_cider_alone_on_one_pair_is_data_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": 0, "hypothesis": "the cat",
                                     "references": ["the cat"]}) + "\n")
        assert main(["evaluate", "--pairs", str(pairs), "--metrics", "CIDEr"]) == 2
        assert "cider: needs a corpus of at least 2 pairs" in capsys.readouterr().err
        assert main(["evaluate", "--pairs", str(pairs), "--metrics", "B-1,CIDEr"]) == 0
        captured = capsys.readouterr()
        assert "B-1" in captured.out and "CIDEr" not in captured.out
        assert captured.err == "note: CIDEr left out: its IDF needs at least 2 pairs, got 1\n"

    def test_evaluate_hyp_against_dataset(self, prepared_dir, trained_dir, tmp_path, capsys):
        ckpt = trained_dir / "checkpoints" / "seed0-best.ckpt"
        gen = tmp_path / "gen.jsonl"
        assert main(["generate", "--checkpoint", str(ckpt),
                     "--dataset", str(prepared_dir / "test.jsonl"),
                     "--vocab", str(prepared_dir / "vocab.json"),
                     "--out", str(gen), "--max-new", "10"]) == 0
        lines = [json.loads(line) for line in gen.read_text().splitlines()]
        assert lines and all(line["stop"] in ("eos", "budget") for line in lines)
        assert main(["evaluate", "--hyp", str(gen),
                     "--dataset", str(prepared_dir / "test.jsonl")]) == 0
        assert "METEOR" in capsys.readouterr().out

    @pytest.mark.parametrize("line, message", [
        ('["fix0", ["a"]]', "not a JSON object"),
        ('{"sequence_id": "fix0"}', "missing 'tokens'"),
        ('{"sequence_id": "fix0", "tokens": "abc"}', "tokens must be a list, got str"),
        ('{"sequence_id": "fix0", "tokens": [null, true]}', "tokens holds null"),
        ('{"sequence_id": "fix0", "tokens": ["a", true]}', "tokens holds true/false"),
        ('{"sequence_id": "fix0", "tokens": [{"a": 1}]}', "tokens holds an object"),
        ('{"sequence_id": 0, "tokens": ["a"]}', "sequence_id must be a string, got int"),
        ('{"tokens": ["a"]}', "sequence_id must be a string, got NoneType"),
        ('{"sequence_id": "fix0", "tokens": ["a"]', "Expecting"),
    ])
    def test_malformed_hyp_line_is_data_error_with_its_line(self, fixture_dir, tmp_path,
                                                            line, message):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"sequence_id": "fix0", "tokens": ["a", 2]}\n' + line + "\n")
        with pytest.raises(DataError, match=f"hyp.jsonl:2: bad hypothesis line .*{message}"):
            _pairs_from_hyp(str(hyp), str(fixture_dir / "dataset.jsonl"))

    def test_hyp_numbers_are_tokens(self, fixture_dir, tmp_path):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"sequence_id": "fix0", "tokens": ["a", 2, 0.5]}\n')
        pairs = _pairs_from_hyp(str(hyp), str(fixture_dir / "dataset.jsonl"))
        assert [p.hypothesis for p in pairs] == [["a", "2", "0.5"]]

    def test_unknown_word_scores_alike_in_training_and_on_the_command_line(
            self, tmp_path, monkeypatch, capsys):
        # every test story ends in a word the train split never saw; the
        # hypothesis is the first story as its token ids decode, [UNK] in that
        # word's place, and neither scorer may count the [UNK] as a match
        prepared = prepare_records(fixture_dataset(12, seed=7), seed=0, val_count=2,
                                   test_count=2)
        vocab, records = prepared.vocab, prepared.splits["test"]
        for rec in records:
            for story in rec.stories:
                story.raw_text += " zeppelin"
                story.tokens = vocab.encode(story_surface_tokens(story.raw_text))
        hyps = {rec.id: metric_tokens(vocab.decode(rec.stories[0].tokens)) for rec in records}
        assert all(tokens[-1] == UNK for tokens in hyps.values())

        def decoded(model, seqs, vocab, config):
            return [GeneratedStory(rec.id, 0, [], hyps[rec.id], "", "eos") for rec in seqs]

        monkeypatch.setattr(training, "generate_batch", decoded)
        pairs = training.eval_pairs(None, records, vocab, DecodingConfig())
        assert all(ref[-1] == "zeppelin" for pair in pairs for ref in pair.references)
        in_training = compute_metrics(pairs)

        save_dataset(records, tmp_path / "test.jsonl")
        (tmp_path / "hyp.jsonl").write_text("".join(
            json.dumps({"sequence_id": seq_id, "tokens": tokens}) + "\n"
            for seq_id, tokens in hyps.items()))
        assert main(["evaluate", "--hyp", str(tmp_path / "hyp.jsonl"), "--dataset",
                     str(tmp_path / "test.jsonl"), "--format", "json"]) == 0
        on_the_command_line = json.loads(capsys.readouterr().out)
        assert on_the_command_line == {name: value * REPORT_SCALE[name]
                                       for name, value in in_training.items()}
        assert in_training["B-1"] < 0.99 and in_training["METEOR"] < 0.99

    def test_evaluate_malformed_hyp_is_data_error(self, fixture_dir, tmp_path):
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"sequence_id": "fix0", "tokens": ["a"]}\n'
                       '{"sequence_id": "fix1", "tokens": [null, true]}\n')
        proc = run_console("evaluate", "--hyp", str(hyp),
                           "--dataset", str(fixture_dir / "dataset.jsonl"))
        assert proc.returncode == 2
        assert "hyp.jsonl:2: bad hypothesis line" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_evaluate_scores_bands(self, tmp_path, capsys):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({
            "ours": {"METEOR": [0.33, 0.332, 0.331]},
            "base": {"METEOR": [0.318, 0.319, 0.3185]},
        }))
        assert main(["evaluate", "--scores", str(scores), "--reference", "base"]) == 0
        out = capsys.readouterr().out
        assert "ours" in out and "**" in out

    def test_scores_without_reference_is_usage_error(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text("{}")
        assert main(["evaluate", "--scores", str(scores)]) == 1

    def test_train_zero_heads_is_usage_error(self, prepared_dir, tmp_path, capsys):
        assert main(["train", "--dataset", str(prepared_dir), "--out", str(tmp_path),
                     "--seeds", "0", "--epochs", "1", "--d-model", "16",
                     "--n-heads", "0"]) == 1
        assert "n_heads must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "0", "batch_size must be at least 1"),
        ("--batch-size", "-1", "batch_size must be at least 1"),
        ("--epochs", "0", "epochs must be at least 1"),
    ])
    def test_train_degenerate_loop_is_usage_error(self, prepared_dir, tmp_path, capsys,
                                                  flag, value, message):
        assert main(["train", "--dataset", str(prepared_dir), "--out", str(tmp_path),
                     "--seeds", "0", "--epochs", "1", "--d-model", "16",
                     "--n-heads", "2", flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runlog.json").exists()

    @pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
    def test_train_bad_lr_is_usage_error(self, prepared_dir, tmp_path, lr):
        proc = run_console("train", "--dataset", str(prepared_dir), "--out", str(tmp_path),
                           "--seeds", "0", "--epochs", "1", "--d-model", "16",
                           "--n-heads", "2", f"--lr={lr}")
        assert proc.returncode == 1
        assert "lr must be finite and non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "runlog.json").exists()

    def test_train_divergence_is_numeric_error(self, prepared_dir, tmp_path):
        # numpy's overflow warnings stay silent, so the refusal is all of stderr
        proc = run_console("train", "--dataset", str(prepared_dir), "--out", str(tmp_path),
                           "--seeds", "0", "--epochs", "1", "--d-model", "16",
                           "--n-layers", "1", "--n-heads", "2", "--t-max", "32",
                           "--batch-size", "4", "--dropout", "0.0", "--max-new", "4",
                           "--lr", "1e300")
        assert proc.returncode == 3
        assert re.fullmatch(r"numeric error: epoch 1, batch \d+: [^\n]+\n", proc.stderr)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "runlog.json").exists()

    def test_train_object_features_on_records_without_objects(self, prepared_dir, tmp_path):
        data = tmp_path / "no-objects"
        shutil.copytree(prepared_dir, data)
        for split in ("train", "val", "test"):
            records = load_dataset(data / f"{split}.jsonl")
            for rec in records:
                rec.objects = []
            save_dataset(records, data / f"{split}.jsonl")
        assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "out"),
                     "--seeds", "0", "--epochs", "1", "--d-model", "16", "--n-layers", "1",
                     "--n-heads", "2", "--t-max", "32", "--batch-size", "4",
                     "--features", "global,obj", "--grid-mode", "obj", "--max-new", "4"]) == 0
        assert (tmp_path / "out" / "checkpoints" / "seed0-best.ckpt").exists()

    def test_train_grid_column_overflow_names_the_record(self, prepared_dir, tmp_path):
        # 6 objects fit o_max (20) but not the grid frame's m_max (5) columns
        data = tmp_path / "many-objects"
        shutil.copytree(prepared_dir, data)
        records = load_dataset(data / "train.jsonl")
        bad = records[1]
        bad.objects = [dataclasses.replace(bad.objects[0], object_id=f"extra{k}")
                       for k in range(6)]
        save_dataset(records, data / "train.jsonl")
        proc = run_console("train", "--dataset", str(data), "--out", str(tmp_path / "out"),
                           "--seeds", "0", "--epochs", "1", "--d-model", "16",
                           "--n-layers", "1", "--n-heads", "2", "--t-max", "32",
                           "--features", "global,obj", "--grid-mode", "obj")
        assert proc.returncode == 2
        assert f"sequence {bad.id}: 6 grid columns exceed m_max 5" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_generate_with_other_feature_width_is_data_error(self, prepared_dir, tmp_path):
        vocab = Vocabulary.from_dict(json.loads((prepared_dir / "vocab.json").read_text()))
        width = load_dataset(prepared_dir / "test.jsonl")[0].feat_dim
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(build_model(ModelConfig(
            vocab_size=len(vocab), feat_dim=width + 4, d_model=16, n_layers=1, n_heads=2,
            t_max=32, feature_set=("global", "char", "obj"))), ckpt)
        proc = run_console("generate", "--checkpoint", str(ckpt),
                           "--dataset", str(prepared_dir / "test.jsonl"),
                           "--vocab", str(prepared_dir / "vocab.json"),
                           "--out", str(tmp_path / "out.jsonl"))
        assert proc.returncode == 2
        assert f"features are {width} wide" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestAnalyze:
    @pytest.mark.parametrize("what,needle", [
        ("coherence", "avg_ll"),
        ("jaccard", "per_role"),
        ("diversity", "diverse_verb_pct"),
        ("groundedness", "percentages"),
        ("stats", "tokens_per_text"),
    ])
    def test_subreports(self, fixture_dir, capsys, what, needle):
        assert main(["analyze", what, "--annotations",
                     str(fixture_dir / "annotations.jsonl"), "--format", "json"]) == 0
        assert needle in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["0", "nan", "inf"])
    def test_alpha_must_be_finite_and_positive(self, fixture_dir, capsys, alpha):
        assert main(["analyze", "coherence", "--annotations",
                     str(fixture_dir / "annotations.jsonl"), "--alpha", alpha,
                     "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "smoothing alpha must be finite and positive" in captured.err
        assert captured.out == ""

    @staticmethod
    def _report(fixture_dir, capsys, what: str, fmt: str):
        assert main(["analyze", what, "--annotations", str(fixture_dir / "annotations.jsonl"),
                     "--format", fmt]) == 0
        return capsys.readouterr().out

    def test_groundedness_text_nests_each_table_under_its_kind(self, fixture_dir, capsys):
        payload = json.loads(self._report(fixture_dir, capsys, "groundedness", "json"))
        want = []
        for kind in sorted(payload):
            table = payload[kind]
            want += [f"{kind}:", "  counts:"]
            want += [f"    {label}: {n}" for label, n in sorted(table["counts"].items())]
            want.append("  percentages:")
            want += [f"    {label}: {pct:.6g}"
                     for label, pct in sorted(table["percentages"].items())]
            want.append(f"  total: {table['total']}")
        assert self._report(fixture_dir, capsys, "groundedness", "text").splitlines() == want

    def test_diversity_text_prints_floats_to_six_figures(self, fixture_dir, capsys):
        payload = json.loads(self._report(fixture_dir, capsys, "diversity", "json"))
        ngrams = payload["predicate_ngram_unique_total"]
        want = [f"diverse_verb_pct: {payload['diverse_verb_pct']:.6g}",
                "predicate_ngram_unique_total:",
                *[f"  {n}: {ngrams[n]:.6g}" for n in sorted(ngrams)],
                f"unique_verbs: {payload['unique_verbs']}",
                f"verb_token_pct: {payload['verb_token_pct']:.6g}",
                f"verb_vocab_pct: {payload['verb_vocab_pct']:.6g}",
                f"vocab_size: {payload['vocab_size']}"]
        assert self._report(fixture_dir, capsys, "diversity", "text").splitlines() == want


class TestReportOut:
    @pytest.mark.parametrize("command", ["grid", "evaluate", "analyze", "plan"])
    def test_out_file_gets_what_stdout_would(self, fixture_dir, tmp_path, capsys, command):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(json.dumps({"id": f"s{i}", "hypothesis": f"a cat {i}",
                                             "references": [f"the cat {i}"]}) + "\n"
                                 for i in range(3)))
        argv = {"grid": ["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                         "--sequence", "fix1"],
                "evaluate": ["evaluate", "--pairs", str(pairs)],
                "analyze": ["analyze", "stats", "--annotations",
                            str(fixture_dir / "annotations.jsonl")],
                "plan": ["plan", "--workers", str(fixture_dir / "workers.csv")]}[command]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report.txt"
        assert main(argv + ["--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert printed and report.read_text(encoding="utf-8") == printed


class TestPlan:
    def test_table(self, fixture_dir, capsys):
        assert main(["plan", "--workers", str(fixture_dir / "workers.csv")]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("worker_id")
        assert "w1" in out and "30" in out  # n_w=1000 -> 30 reviews

    def test_json(self, fixture_dir, capsys):
        assert main(["plan", "--workers", str(fixture_dir / "workers.csv"),
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_id = {r["worker_id"]: r for r in rows}
        assert by_id["w1"]["qualified"] is True
        assert by_id["w1"]["review_sample"] == 5
        assert by_id["w2"]["qualified"] is False

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "w.csv"
        bad.write_text("id,rate\n")
        assert main(["plan", "--workers", str(bad)]) == 2


class TestConfigFile:
    def test_defaults_with_flags_winning(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("sequence=fix1\nformat=text\n")
        assert main(["--config", str(cfg), "grid",
                     "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("image_id,")  # flag overrode the config's text format

    def test_config_typed_values(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("val_count=2\ntest_count=2\nseed=1\n")
        out_dir = tmp_path / "prep"
        assert main(["--config", str(cfg), "prepare",
                     "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--out", str(out_dir),
                     "--gender-table", str(fixture_dir / "gender_table.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["val"] == 2 and summary["test"] == 2


    def test_config_key_shared_by_commands_with_other_choices(self, fixture_dir, tmp_path,
                                                              capsys):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("format=json\n")  # plan takes json; grid's --format does not
        assert main(["--config", str(cfg), "plan",
                     "--workers", str(fixture_dir / "workers.csv")]) == 0
        assert json.loads(capsys.readouterr().out)[0]["worker_id"] == "w1"

    def test_a_key_that_names_no_flag_is_usage_error(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("formt=json\nbogus=1\n")
        assert main(["--config", str(cfg), "plan",
                     "--workers", str(fixture_dir / "workers.csv")]) == 1
        out, err = capsys.readouterr()
        assert f"{cfg}: no command has a flag named 'bogus', 'formt'" in err and out == ""

    @pytest.mark.parametrize("line, argv", [
        ("format=xml", ["evaluate", "--pairs", "pairs.jsonl"]),
        ("grid_mode=sideways", ["grid", "--dataset", "dataset.jsonl", "--sequence", "fix1"]),
    ])
    def test_config_value_outside_its_choices_is_usage_error(self, fixture_dir, tmp_path,
                                                             capsys, line, argv):
        (tmp_path / "pairs.jsonl").write_text(
            json.dumps({"id": 0, "hypothesis": ["a", "dog"], "references": ["a dog"]}) + "\n")
        shutil.copy(fixture_dir / "dataset.jsonl", tmp_path)
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text(line + "\n")
        paths = [str(tmp_path / arg) if arg.endswith(".jsonl") else arg for arg in argv]
        assert main(["--config", str(cfg), *paths]) == 1
        out, err = capsys.readouterr()
        key, _, value = line.partition("=")
        assert f"{cfg}: bad {key} {value!r}" in err and out == ""

    def test_config_flag_in_either_form(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("format=json\n")
        workers = str(fixture_dir / "workers.csv")
        for form in (["--config", str(cfg)], [f"--config={cfg}"]):
            assert main([*form, "plan", "--workers", workers]) == 0
            assert json.loads(capsys.readouterr().out)[0]["worker_id"] == "w1"
        # an abbreviation is refused, not read as some other flag or ignored
        assert main(["--conf", str(cfg), "plan", "--workers", workers]) == 1
        assert capsys.readouterr().out == ""


class TestFixtureScript:
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_a_bad_seed_is_a_usage_error(self, tmp_path, seed):
        proc = run_python(str(ROOT / "scripts" / "make_fixtures.py"), "--out", str(tmp_path),
                          "--seed", seed)
        assert proc.returncode == 1, proc.stderr
        assert "usage error: argument --seed: expected a non-negative integer" in proc.stderr
        assert "Traceback" not in proc.stderr and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_a_non_positive_sequence_count_is_a_usage_error(self, tmp_path, count):
        proc = run_python(str(ROOT / "scripts" / "make_fixtures.py"), "--out", str(tmp_path),
                          "--sequences", count)
        assert proc.returncode == 1, proc.stderr
        assert "usage error: argument --sequences: expected a positive integer" in proc.stderr
        assert "Traceback" not in proc.stderr and not (tmp_path / "dataset.jsonl").exists()


class TestConsoleEntry:
    def test_module_invocation(self, fixture_dir):
        proc = run_console("plan", "--workers", str(fixture_dir / "workers.csv"))
        assert proc.returncode == 0
        assert "worker_id" in proc.stdout

    @pytest.mark.parametrize("exc, label, code", [
        (UsageError("bad flag"), "usage error", 1),
        (DataError("bad record"), "data error", 2),
        (OSError("no such file"), "data error", 2),
        (NumericError("non-finite loss"), "numeric error", 3),
    ])
    def test_each_error_kind_has_its_exit_code(self, capsys, exc, label, code):
        assert report_error(exc) == code
        assert capsys.readouterr().err == f"{label}: {exc}\n"


def _second_line(source: Path, target: Path, mutate) -> Path:
    """``target``: the first two lines of ``source``, the second passed
    through ``mutate`` (a JSON value in, a JSON value out)."""
    first, second = source.read_text().splitlines()[:2]
    target.write_text(first + "\n" + json.dumps(mutate(json.loads(second))) + "\n")
    return target


def _nan_image(p):
    image = p["images"][0]
    return {**p, "images": [{**image, "global_feat": [float("nan")] + image["global_feat"][1:]}]
            + p["images"][1:]}


DATASET_PROBES = {
    "array-line": lambda p: [1, 2],
    "image-without-global_feat": lambda p: {**p, "images": [{"image_id": "im"}] + p["images"][1:]},
    "images-of-ints": lambda p: {**p, "images": [1, 2, 3, 4, 5]},
    "global_feat-string": lambda p: {
        **p, "images": [{**im, "global_feat": "abc"} for im in p["images"]]},
    "story-string": lambda p: {**p, "stories": ["x"]},
    "nan-feature": _nan_image,
    "span-past-story-end": lambda p: {**p, "stories": [
        {**p["stories"][0], "entity_spans": [
            {"start": 0, "end": len(p["stories"][0]["raw_text"]) + 1,
             "kind": "person", "name": "x"}]}] + p["stories"][1:]},
    "sharpness-string": lambda p: {**p, "characters": [{**p["characters"][0], "instances": [
        {**p["characters"][0]["instances"][0], "sharpness": "nan"}]}]},
    "image_id-null": lambda p: {**p, "images": [{**im, "image_id": None} for im in p["images"]]},
    "srl-argument-string": lambda p: {**p, "stories": [
        {**p["stories"][0], "srl": [{"predicate": "meet", "args": {"arg0": "john"}}]}]},
}
ANNOTATION_PROBES = {
    "array-line": lambda p: [1],
    "tokens-int": lambda p: {**p, "tokens": 5},
    "srl-int": lambda p: {**p, "srl": 5},
    "tokens-string": lambda p: {**p, "tokens": "hello"},
    "tokens-null-token": lambda p: {**p, "tokens": ["a", None]},
    "srl-argument-string": lambda p: {**p, "srl": [{"predicate": "run", "args": {"arg0": "bob"}}]},
    "characters-string": lambda p: {**p, "characters": "bob"},
    "entity-grid-entities-string": lambda p: {
        **p, "entity_grid": {"entities": "ab", "rows": [["S", "O"]]}},
    "entity-grid-row-string": lambda p: {
        **p, "entity_grid": {"entities": ["a", "b"], "rows": ["SO"]}},
    "sequence-id-null": lambda p: {**p, "sequence_id": None},
    "n-images-string": lambda p: {**p, "n_images": "5"},
    "n-images-bool": lambda p: {**p, "n_images": True},
    "n-images-negative": lambda p: {**p, "n_images": -3},
}


class TestBadInputProbes:
    """Each bad input file exits with its documented code, names the file
    (and line) on stderr, and never ends in a traceback."""

    @staticmethod
    def _assert_reported(proc, code: int, where: str):
        assert proc.returncode == code, proc.stderr
        assert where in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("probe", list(DATASET_PROBES))
    def test_bad_dataset_line_fails_prepare(self, fixture_dir, tmp_path, probe):
        bad = _second_line(fixture_dir / "dataset.jsonl", tmp_path / "bad.jsonl",
                           DATASET_PROBES[probe])
        proc = run_console("prepare", "--dataset", str(bad), "--out", str(tmp_path / "out"))
        self._assert_reported(proc, 2, f"{bad}:2: bad record")

    @pytest.mark.parametrize("span", [{"start": 0.9, "end": "4"}, {"start": False, "end": 4}])
    def test_non_integer_span_offsets_fail_prepare(self, fixture_dir, tmp_path, span):
        def mutate(p):
            story = p["stories"][0]
            return {**p, "stories": [{**story, "entity_spans": [
                {**span, "kind": "person", "name": "x"}]}] + p["stories"][1:]}
        bad = _second_line(fixture_dir / "dataset.jsonl", tmp_path / "bad.jsonl", mutate)
        proc = run_console("prepare", "--dataset", str(bad), "--out", str(tmp_path / "out"))
        self._assert_reported(proc, 2, f"{bad}:2: bad record")
        assert "entity span start must be an integer" in proc.stderr

    def test_nan_feature_fails_grid(self, fixture_dir, tmp_path):
        bad = _second_line(fixture_dir / "dataset.jsonl", tmp_path / "bad.jsonl", _nan_image)
        proc = run_console("grid", "--dataset", str(bad), "--sequence", "fix0")
        self._assert_reported(proc, 2, f"{bad}:2: bad record")
        assert "NaN or infinity" in proc.stderr

    @pytest.mark.parametrize("probe", list(ANNOTATION_PROBES))
    def test_bad_annotation_line_fails_analyze(self, fixture_dir, tmp_path, probe):
        bad = _second_line(fixture_dir / "annotations.jsonl", tmp_path / "bad.jsonl",
                           ANNOTATION_PROBES[probe])
        proc = run_console("analyze", "stats", "--annotations", str(bad))
        self._assert_reported(proc, 2, f"{bad}:2: bad annotated story")

    @pytest.mark.parametrize("flag, text", [
        ("--vocab", "[]"), ("--vocab", "{}"), ("--names", "[]"),
        ("--names", '{"male": "Bob"}'), ("--names", '{"female": ["Sue", 5]}')])
    def test_bad_json_file_fails_generate(self, prepared_dir, trained_dir, tmp_path,
                                          flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        files = {"--vocab": str(prepared_dir / "vocab.json"), flag: str(bad)}
        proc = run_console("generate",
                           "--checkpoint", str(trained_dir / "checkpoints" / "seed0-best.ckpt"),
                           "--dataset", str(prepared_dir / "test.jsonl"),
                           "--out", str(tmp_path / "gen.jsonl"),
                           *[part for item in files.items() for part in item])
        self._assert_reported(proc, 2, f"{bad}: bad ")
        assert not (tmp_path / "gen.jsonl").exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_a_vocabulary_token_that_is_not_a_string_fails(self, prepared_dir, trained_dir,
                                                            tmp_path, command):
        bad = tmp_path / "prepared"
        shutil.copytree(prepared_dir, bad)
        vocab = json.loads((prepared_dir / "vocab.json").read_text())
        vocab["tokens"][-1] = 5
        (bad / "vocab.json").write_text(json.dumps(vocab))
        argv = {"generate": ["--checkpoint", str(trained_dir / "checkpoints" / "seed0-best.ckpt"),
                             "--dataset", str(bad / "test.jsonl"),
                             "--vocab", str(bad / "vocab.json"),
                             "--decoding", "nucleus", "--p", "1.0", "--max-new", "50"],
                "train": ["--dataset", str(bad), "--epochs", "1", "--seeds", "0"]}[command]
        proc = run_console(command, *argv, "--out", str(tmp_path / "out"))
        self._assert_reported(proc, 2, f"{bad / 'vocab.json'}: bad vocabulary")
        assert "vocabulary tokens holds int" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scores", [
        {"a": {"B-1": 5}}, {"a": {"B-1": [0.1, "x"]}},
        {"a": {"B-1": [True, float("nan")]}, "b": {"B-1": [0.1, 0.2]}},
        {"a": {"B-1": [0.1]}, "b": {"B-1": [0.1, float("inf")]}}])
    def test_bad_scores_fail_evaluate(self, tmp_path, scores):
        bad = tmp_path / "scores.json"
        bad.write_text(json.dumps(scores))
        proc = run_console("evaluate", "--scores", str(bad), "--reference", "a")
        self._assert_reported(proc, 2, f"{bad}: bad scores")
        assert proc.stdout == ""

    @pytest.mark.parametrize("tokens, message", [
        (["x", 99999], "tokens must be null or a list of non-negative integer ids"),
        ([4, 99999], "token id 99999 outside the"),
    ])
    def test_bad_prepared_tokens_fail_train(self, prepared_dir, tmp_path, tokens, message):
        bad = tmp_path / "prepared"
        shutil.copytree(prepared_dir, bad)
        _second_line(prepared_dir / "train.jsonl", bad / "train.jsonl",
                     lambda p: {**p, "stories": [{**p["stories"][0], "tokens": tokens}]})
        proc = run_console("train", "--dataset", str(bad), "--out", str(tmp_path / "out"),
                           "--epochs", "1", "--seeds", "0")
        self._assert_reported(proc, 2, str(bad / "train.jsonl"))
        assert message in proc.stderr

    def test_bad_worker_row_fails_plan(self, tmp_path):
        bad = tmp_path / "workers.csv"
        bad.write_text("worker_id,acceptance_rate,avg_quality,accepted,n_w\n"
                       "w1,abc,3.5,5,10\n")
        proc = run_console("plan", "--workers", str(bad))
        self._assert_reported(proc, 2, f"{bad}:2: bad worker row")

    def test_config_value_of_wrong_type_is_usage_error(self, fixture_dir, tmp_path):
        cfg = tmp_path / "vwp.cfg"
        cfg.write_text("epochs=abc\n")
        proc = run_console("--config", str(cfg), "plan",
                           "--workers", str(fixture_dir / "workers.csv"))
        self._assert_reported(proc, 1, f"{cfg}: bad epochs 'abc'")
