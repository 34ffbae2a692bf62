import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vwpstory import chargrid
from vwpstory.cli import main
from vwpstory.corpus import load_dataset, save_dataset
from vwpstory.synth import (
    fixture_annotations,
    fixture_dataset,
    write_annotations,
    write_gender_table,
)


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
    def test_csv_matches_compute_grid(self, fixture_dir, capsys):
        code = main(["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--sequence", "fix1", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        records = {r.id: r for r in load_dataset(fixture_dir / "dataset.jsonl")}
        expected = chargrid.grid_csv(chargrid.compute_grid(records["fix1"]))
        assert out == expected

    def test_missing_sequence_is_data_error(self, fixture_dir):
        assert main(["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--sequence", "nope"]) == 2

    def test_text_mode(self, fixture_dir, capsys):
        assert main(["grid", "--dataset", str(fixture_dir / "dataset.jsonl"),
                     "--sequence", "fix1", "--format", "text"]) == 0
        assert "shade scale" in capsys.readouterr().out


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
            assert set(payload) == {"sequence_id", "seed", "tokens", "text"}

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

    def test_evaluate_hyp_against_dataset(self, prepared_dir, trained_dir, tmp_path, capsys):
        ckpt = trained_dir / "checkpoints" / "seed0-best.ckpt"
        gen = tmp_path / "gen.jsonl"
        assert main(["generate", "--checkpoint", str(ckpt),
                     "--dataset", str(prepared_dir / "test.jsonl"),
                     "--vocab", str(prepared_dir / "vocab.json"),
                     "--out", str(gen), "--max-new", "10"]) == 0
        assert main(["evaluate", "--hyp", str(gen),
                     "--dataset", str(prepared_dir / "test.jsonl")]) == 0
        assert "METEOR" in capsys.readouterr().out

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


class TestConsoleEntry:
    def test_module_invocation(self, fixture_dir):
        # Run from this checkout's root and import its own src/, wherever
        # pytest was started and whatever else is on PYTHONPATH.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "vwpstory.cli", "plan", "--workers",
             str(fixture_dir / "workers.csv")],
            capture_output=True, text=True, cwd=root, env=env)
        assert proc.returncode == 0
        assert "worker_id" in proc.stdout
