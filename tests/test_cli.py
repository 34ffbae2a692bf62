import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vwpstory import chargrid
from vwpstory.chargrid import GRID_COLUMNS
from vwpstory.cli import _pairs_from_hyp, build_parser, main
from vwpstory.corpus import Vocabulary, load_dataset, save_dataset
from vwpstory.errors import DataError
from vwpstory.model import GRID_MODES, ModelConfig, build_model, save_checkpoint
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


def run_console(*args):
    """``python -m vwpstory.cli *args`` run from this checkout's root, importing
    its own src/, wherever pytest was started and whatever else is on
    PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "vwpstory.cli", *args],
                          capture_output=True, text=True, cwd=root, env=env)


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


class TestConsoleEntry:
    def test_module_invocation(self, fixture_dir):
        proc = run_console("plan", "--workers", str(fixture_dir / "workers.csv"))
        assert proc.returncode == 0
        assert "worker_id" in proc.stdout


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
