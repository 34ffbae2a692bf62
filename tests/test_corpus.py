import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwpstory import corpus
from vwpstory.corpus import (
    CharacterInstance,
    CharacterRecord,
    EntitySpan,
    ImageRecord,
    ImageSequenceRecord,
    SPECIAL_TOKENS,
    StoryRecord,
    Vocabulary,
    anonymize,
    build_vocab,
    load_gender_table,
    split_dataset,
    story_surface_tokens,
    tokenize,
)
from vwpstory.errors import CapacityError, DataError

GENDERS = {"john": (90, 2), "jack": (80, 1), "mary": (1, 95), "sam": (50, 50)}


@pytest.mark.parametrize("token, kind", [
    ("[male0]", "male"), ("[female4]", "female"), ("[male7]", "male"),
    ("[location]", "location"), ("[sent]", None), ("[male", None), ("john", None)])
def test_placeholder_kind(token, kind):
    assert corpus.placeholder_kind(token) == kind


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_placeholder_preserved(self):
        assert tokenize("[male0] ran.") == ["[male0]", "ran", "."]

    def test_lowercases(self):
        assert tokenize("The CAT") == ["the", "cat"]

    @given(st.sampled_from(SPECIAL_TOKENS[4:]))
    def test_placeholder_round_trip(self, placeholder):
        # detokenized placeholder text re-tokenizes to the same token
        assert tokenize(f"a {placeholder} b") == ["a", placeholder, "b"]

    def test_sections_become_sent(self):
        toks = story_surface_tokens("He ran.\nShe laughed.")
        assert toks == ["he", "ran", ".", "[sent]", "she", "laughed", "."]


class TestAnonymize:
    def _story(self, text, spans):
        return StoryRecord(raw_text=text, entity_spans=[EntitySpan(*s) for s in spans])

    def test_placeholder_scheme(self):
        story = self._story(
            "John met Mary in Paris.",
            [(0, 4, "person", "John"), (9, 13, "person", "Mary"),
             (17, 22, "location", "Paris")],
        )
        out, mapping = anonymize(story, GENDERS)
        assert tokenize(out.raw_text) == ["[male0]", "met", "[female0]", "in", "[location]", "."]
        assert mapping.persons == {"[male0]": "John", "[female0]": "Mary"}
        assert mapping.locations == ["Paris"]

    def test_no_entities_unchanged(self):
        story = self._story("Nothing to see here.", [])
        out, mapping = anonymize(story, GENDERS)
        assert out.raw_text == story.raw_text
        assert mapping.persons == {}

    def test_first_mention_ordering(self):
        story = self._story("John met Jack.", [(0, 4, "person", "John"), (9, 13, "person", "Jack")])
        out, _ = anonymize(story, GENDERS)
        assert tokenize(out.raw_text) == ["[male0]", "met", "[male1]", "."]

    def test_same_name_same_placeholder(self):
        story = self._story("John saw John.", [(0, 4, "person", "John"), (9, 13, "person", "John")])
        out, _ = anonymize(story, GENDERS)
        assert tokenize(out.raw_text) == ["[male0]", "saw", "[male0]", "."]

    def test_unknown_names_alternate_by_parity(self):
        story = self._story(
            "Zorp met Blee.", [(0, 4, "person", "Zorp"), (9, 13, "person", "Blee")])
        out, mapping = anonymize(story, {})
        assert tokenize(out.raw_text) == ["[male0]", "met", "[female0]", "."]
        assert mapping.genders == {"[male0]": "male", "[female0]": "female"}

    def test_capacity_error(self):
        names = ["Aj", "Bj", "Cj", "Dj", "Ej", "Fj"]
        text = " ".join(names)
        spans, pos = [], 0
        for n in names:
            spans.append((pos, pos + len(n), "person", n))
            pos += len(n) + 1
        table = {n.lower(): (9, 0) for n in names}
        with pytest.raises(CapacityError):
            anonymize(self._story(text, spans), table)

    def test_overlapping_spans_rejected(self):
        story = self._story("John Johnson", [(0, 4, "person", "John"), (2, 12, "person", "Johnson")])
        with pytest.raises(DataError):
            anonymize(story, GENDERS)

    def test_idempotent(self):
        story = self._story(
            "John met Mary.", [(0, 4, "person", "John"), (9, 13, "person", "Mary")])
        once, _ = anonymize(story, GENDERS)
        twice, _ = anonymize(once, GENDERS)
        assert twice.raw_text == once.raw_text

    @given(st.lists(st.sampled_from(["John", "Mary", "Jack", "Zorp"]),
                    min_size=0, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_property(self, names):
        text = " ".join(names)
        spans, pos = [], 0
        for n in names:
            spans.append((pos, pos + len(n), "person", n))
            pos += len(n) + 1
        once, _ = anonymize(self._story(text, spans), GENDERS)
        twice, _ = anonymize(once, GENDERS)
        assert twice.raw_text == once.raw_text


class TestVocabulary:
    def test_threshold(self):
        vocab = build_vocab([["a", "a", "b"]], min_freq=2)
        assert "a" in vocab and "b" not in vocab

    def test_min_freq_one_keeps_all(self):
        vocab = build_vocab([["a", "b", "c"]], min_freq=1)
        assert all(t in vocab for t in ("a", "b", "c"))

    def test_specials_only_when_everything_filtered(self):
        vocab = build_vocab([["a"]], min_freq=2)
        assert len(vocab) == len(SPECIAL_TOKENS)

    def test_specials_occupy_lowest_ids_in_order(self):
        vocab = build_vocab([["z", "z"]], min_freq=1)
        for i, tok in enumerate(SPECIAL_TOKENS):
            assert vocab.token_to_id[tok] == i

    def test_bijection_and_unk_fallback(self):
        vocab = build_vocab([["cat", "sat"]], min_freq=1)
        ids = vocab.encode(["cat", "dog", "sat"])
        assert ids[1] == vocab.unk_id
        assert vocab.decode([ids[0], ids[2]]) == ["cat", "sat"]
        assert len(set(vocab.token_to_id.values())) == len(vocab)

    def test_round_trip_dict(self):
        vocab = build_vocab([["cat", "sat", "cat"]], min_freq=1)
        again = Vocabulary.from_dict(json.loads(json.dumps(vocab.to_dict())))
        assert again.id_to_token == vocab.id_to_token


def _records(n, dim=3):
    recs = []
    for i in range(n):
        images = [ImageRecord(image_id=f"s{i}-im{j}", global_feat=np.zeros(dim))
                  for j in range(5)]
        recs.append(ImageSequenceRecord(id=f"s{i}", images=images, characters=[]))
    return recs


class TestSplitDataset:
    def test_counts(self):
        splits = split_dataset(_records(10), seed=0, val_count=2, test_count=2)
        assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) == (6, 2, 2)
        ids = [r.id for part in splits.values() for r in part]
        assert len(set(ids)) == 10

    def test_deterministic(self):
        a = split_dataset(_records(10), seed=7, val_count=3, test_count=2)
        b = split_dataset(_records(10), seed=7, val_count=3, test_count=2)
        assert [r.id for r in a["val"]] == [r.id for r in b["val"]]
        assert [r.id for r in a["test"]] == [r.id for r in b["test"]]

    def test_all_train(self):
        splits = split_dataset(_records(4), seed=1, val_count=0, test_count=0)
        assert len(splits["train"]) == 4

    def test_insufficient_errors(self):
        with pytest.raises(DataError):
            split_dataset(_records(4), seed=1, val_count=2, test_count=2)

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, val, test, seed):
        recs = _records(8)
        splits = split_dataset(recs, seed=seed, val_count=val, test_count=test)
        ids = sorted(r.id for part in splits.values() for r in part)
        assert ids == sorted(r.id for r in recs)
        assert len(splits["val"]) == val and len(splits["test"]) == test


class TestPrepare:
    def _dataset(self):
        from vwpstory.synth import fixture_dataset
        return fixture_dataset(8, seed=3)

    def test_pipeline_encodes_tokens(self):
        prepared = corpus.prepare_records(self._dataset(), GENDERS, seed=0,
                                          val_count=2, test_count=2)
        assert len(prepared.splits["train"]) == 4
        story = prepared.splits["train"][0].stories[0]
        assert all(isinstance(t, int) for t in story.tokens)
        decoded = prepared.vocab.decode(story.tokens)
        assert "[sent]" in decoded
        assert prepared.name_pools["male"]

    def test_vocab_built_from_train_split_only(self):
        records = self._dataset()
        prepared = corpus.prepare_records(records, GENDERS, seed=0,
                                          val_count=2, test_count=2)
        train_surface = set()
        for rec in prepared.splits["train"]:
            for story in rec.stories:
                train_surface.update(prepared.vocab.decode(story.tokens))
        assert "[UNK]" not in train_surface  # train tokens are all in-vocab

    def test_sections_exceeding_images_rejected(self):
        records = self._dataset()
        records[0].stories[0].raw_text = "\n".join(f"part {i}." for i in range(7))
        records[0].stories[0].entity_spans = []
        with pytest.raises(DataError, match="sections"):
            corpus.prepare_records(records, GENDERS, seed=0, val_count=0, test_count=0)


class TestGenderTable(object):
    def test_parse(self, tmp_path):
        p = tmp_path / "names.csv"
        p.write_text("name,male_count,female_count\nJohn,90,2\nMary,1,95\n")
        table = load_gender_table(p)
        assert table["john"] == (90, 2)
        assert table["mary"] == (1, 95)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("John,90,2\n")
        with pytest.raises(DataError):
            load_gender_table(p)


class TestDatasetIO:
    def _payload(self, seq_id="s1", n_images=5, dim=3):
        return {
            "id": seq_id,
            "images": [{"image_id": f"im{j}", "global_feat": [float(j)] * dim}
                       for j in range(n_images)],
            "characters": [{
                "char_id": "c0", "gender": "male",
                "instances": [{"image_index": 0, "bbox": [0, 0, 4, 4], "sharpness": 0.5}],
                "representative_feat": [1.0] * dim,
            }],
            "objects": [{"object_id": "o0", "feat": [0.5] * dim}],
            "stories": [{"raw_text": "John ran.\nHe hid.",
                         "entity_spans": [{"start": 0, "end": 4, "kind": "person", "name": "John"}],
                         "srl": [{"predicate": "run", "args": {"arg0": ["john"]}}],
                         "tokens": None}],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps(self._payload()) + "\n")
        recs = corpus.load_dataset(path)
        assert recs[0].id == "s1"
        assert recs[0].stories[0].srl[0].predicate == "run"
        out = tmp_path / "again.jsonl"
        corpus.save_dataset(recs, out)
        again = corpus.load_dataset(out)
        np.testing.assert_array_equal(again[0].images[2].global_feat,
                                      recs[0].images[2].global_feat)

    def test_image_count_bounds(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self._payload(n_images=3)) + "\n")
        with pytest.raises(DataError, match="bad.jsonl:1"):
            corpus.load_dataset(path)

    def test_dimension_mismatch(self, tmp_path):
        payload = self._payload()
        payload["characters"][0]["representative_feat"] = [1.0, 2.0]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(DataError, match="feature dim"):
            corpus.load_dataset(path)

    def test_instance_index_out_of_range(self, tmp_path):
        payload = self._payload()
        payload["characters"][0]["instances"][0]["image_index"] = 9
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(DataError, match="image_index"):
            corpus.load_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps(self._payload())
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DataError, match="duplicate"):
            corpus.load_dataset(path)

    @pytest.mark.parametrize("vector, named", [
        (lambda p: p["images"][2]["global_feat"], "sequence s1 image im2"),
        (lambda p: p["characters"][0]["representative_feat"], "sequence s1 character c0"),
        (lambda p: p["objects"][0]["feat"], "sequence s1 object o0"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_feature(self, tmp_path, vector, named, value):
        payload = self._payload()
        vector(payload)[1] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(DataError, match=f"bad.jsonl:1: bad record \\({named}: "
                                             "feature vector holds NaN or infinity"):
            corpus.load_dataset(path)

    def test_huge_number_feature_is_data_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(self._payload()).replace('"feat": [0.5', '"feat": [1e999') + "\n")
        with pytest.raises(DataError, match="bad.jsonl:1: .*NaN or infinity"):
            corpus.load_dataset(path)

    def test_story_tokens_are_null_or_non_negative_int_ids(self):
        payload = self._payload()
        # the upper bound needs the vocabulary, so the loader leaves it to vwp train
        for tokens in (None, [], [0, 7, 99999]):
            payload["stories"][0]["tokens"] = tokens
            assert corpus.record_from_dict(payload).stories[0].tokens == tokens
        for tokens in (["x", 99999], [1, True], [3, -1], [1.0], "12", {"a": 1}):
            payload["stories"][0]["tokens"] = tokens
            with pytest.raises(DataError, match="sequence s1: tokens must be null or a list of "
                                                "non-negative integer ids"):
                corpus.record_from_dict(payload)

    def test_entity_spans_lie_inside_the_story(self):
        payload = self._payload()  # raw text "John ran.\nHe hid." has 17 characters
        span = payload["stories"][0]["entity_spans"][0]
        span.update(start=13, end=17)
        assert corpus.record_from_dict(payload).stories[0].entity_spans[0].end == 17
        for start, end in ((-1, 4), (4, 4), (5, 4), (0, 18), (17, 99)):
            span.update(start=start, end=end)
            with pytest.raises(DataError, match=f"sequence s1: entity span {start}..{end} "
                                                "outside the 17-character story or empty"):
                corpus.record_from_dict(payload)

    @pytest.mark.parametrize("where, value, message", [
        ("start", 0.9, "entity span start must be an integer, got 0.9"),
        ("end", "4", "entity span end must be an integer, got '4'"),
        ("start", True, "entity span start must be an integer, got True"),
        ("image_index", 0.0, "image_index must be an integer, got 0.0"),
        ("image_index", False, "image_index must be an integer, got False"),
        ("bbox", [0, 0, 4.5, 4], "bbox value must be an integer, got 4.5"),
        ("bbox", [0, 0, True, 4], "bbox value must be an integer, got True"),
        ("bbox", [0, 0, 4], r"bbox must be a list of 4 integers, got \[0, 0, 4\]"),
        ("bbox", "0 0 4 4", "bbox must be a list of 4 integers, got '0 0 4 4'"),
    ])
    def test_offsets_and_indices_must_be_json_integers(self, where, value, message):
        payload = self._payload()
        if where in ("start", "end"):
            payload["stories"][0]["entity_spans"][0][where] = value
        else:
            payload["characters"][0]["instances"][0][where] = value
        with pytest.raises(DataError, match=f"sequence s1: {message}"):
            corpus.record_from_dict(payload)


    @pytest.mark.parametrize("where, value, message", [
        ("sharpness", "nan", "sharpness must be a finite number, got 'nan'"),
        ("sharpness", True, "sharpness must be a finite number, got True"),
        ("sharpness", float("nan"), "sharpness must be a finite number, got nan"),
        ("sharpness", -float("inf"), "sharpness must be a finite number, got -inf"),
        ("sharpness", None, "sharpness must be a finite number, got None"),
        ("image_id", None, "image_id must be a string, got NoneType"),
        ("image_id", 3, "image_id must be a string, got int"),
        ("char_id", ["c0"], "char_id must be a string, got list"),
        ("object_id", 0, "object_id must be a string, got int"),
    ])
    def test_ids_are_strings_and_sharpness_a_finite_number(self, where, value, message):
        payload = self._payload()
        owner = {"sharpness": payload["characters"][0]["instances"][0],
                 "image_id": payload["images"][3], "char_id": payload["characters"][0],
                 "object_id": payload["objects"][0]}[where]
        owner[where] = value
        with pytest.raises(DataError, match=f"sequence s1: {re.escape(message)}"):
            corpus.record_from_dict(payload)

    def test_sharpness_accepts_json_numbers_and_defaults_to_zero(self):
        payload = self._payload()
        instance = payload["characters"][0]["instances"][0]
        instance["sharpness"] = 2
        assert corpus.record_from_dict(payload).characters[0].instances[0].sharpness == 2.0
        del instance["sharpness"]
        assert corpus.record_from_dict(payload).characters[0].instances[0].sharpness == 0.0

    @pytest.mark.parametrize("args, message", [
        ({"arg0": "john"}, "SRL argument 'arg0' must be a list, got str"),
        ({"arg1": ["him", 3]}, "SRL argument 'arg1' holds int; it must hold strings only"),
        ({"arg0": None}, "SRL argument 'arg0' must be a list, got NoneType"),
    ])
    def test_srl_arguments_are_lists_of_strings(self, args, message):
        payload = self._payload()
        payload["stories"][0]["srl"][0]["args"] = args
        with pytest.raises(DataError, match=f"sequence s1: {re.escape(message)}"):
            corpus.record_from_dict(payload)

    @pytest.mark.parametrize("seq_id", [None, "", 7, ["s1"]])
    def test_sequence_id_must_be_a_non_empty_string(self, seq_id):
        payload = self._payload(seq_id=seq_id)
        with pytest.raises(DataError, match=re.escape(
                f"record id must be a non-empty string, got {seq_id!r}")):
            corpus.record_from_dict(payload)


class TestJsonFieldChecks:
    def test_json_list_rejects_what_would_iterate_as_a_list(self):
        assert corpus.json_list([1, "a"], "x") == [1, "a"]
        for value, found in (("ab", "str"), ({"a": 1}, "dict"), (None, "NoneType"), (3, "int")):
            with pytest.raises(DataError, match=f"^x must be a list, got {found}$"):
                corpus.json_list(value, "x")

    def test_string_list(self):
        assert corpus.string_list(["a", ""], "names") == ["a", ""]
        assert corpus.string_list([], "names") == []
        for value, message in (("Bob", "names must be a list, got str"),
                               (["a", 5], "names holds int; it must hold strings only"),
                               (["a", None], "names holds null; it must hold strings only"),
                               ([["a"]], "names holds an array; it must hold strings only"),
                               ([True], "names holds true/false; it must hold strings only")):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                corpus.string_list(value, "names")

    def test_token_list(self):
        assert corpus.token_list(["a", 2, 1.5], "tokens") == ["a", "2", "1.5"]
        for value, message in (("hello", "tokens must be a list, got str"),
                               (["a", True], "tokens holds true/false; tokens must be strings "
                                             "or numbers"),
                               ([{}], "tokens holds an object; tokens must be strings or "
                                      "numbers")):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                corpus.token_list(value, "tokens")


class TestReaders:
    def test_jsonl_skips_blank_lines_and_counts_them(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert corpus.read_jsonl(path, lambda p: p["a"], "thing") == [1, 2]
        path.write_text('{"a": 1}\n\n   \n{"a": 2}\n{"b": 3}\n')
        with pytest.raises(DataError, match=r"x.jsonl:5: bad thing \(missing 'a'\)"):
            corpus.read_jsonl(path, lambda p: p["a"], "thing")

    @pytest.mark.parametrize("line, reason", [
        ("[1, 2]", "not a JSON object"),
        ("5", "not a JSON object"),
        ("{", "Expecting property name"),
        pytest.param("[" * 100_000, "maximum recursion depth", id="deep-nesting"),
        ('{"a": 1', "Expecting ',' delimiter"),
    ])
    def test_jsonl_line_must_be_an_object(self, tmp_path, line, reason):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        with pytest.raises(DataError, match=f"x.jsonl:2: bad thing \\({reason}"):
            corpus.read_jsonl(path, lambda p: p, "thing")

    @pytest.mark.parametrize("error", [KeyError, TypeError, ValueError, AttributeError,
                                       IndexError, OverflowError, DataError])
    def test_parse_errors_name_the_line(self, tmp_path, error):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n')

        def parse(payload):
            raise error("boom")
        with pytest.raises(DataError, match="x.jsonl:1: bad thing .*boom"):
            corpus.read_jsonl(path, parse, "thing")

    def test_programming_errors_are_not_data_errors(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n')

        def parse(payload):
            raise RuntimeError("bug")
        with pytest.raises(RuntimeError):
            corpus.read_jsonl(path, parse, "thing")

    def test_non_utf8_line_names_its_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
        with pytest.raises(DataError, match="x.jsonl:2: bad thing .*utf-8"):
            corpus.read_jsonl(path, lambda p: p, "thing")

    @pytest.mark.parametrize("text", ["", "\n\n  \n"])
    def test_empty_file_is_data_error(self, tmp_path, text):
        path = tmp_path / "x.jsonl"
        path.write_text(text)
        with pytest.raises(DataError, match="x.jsonl: empty file"):
            corpus.read_jsonl(path, lambda p: p, "thing")

    @pytest.mark.parametrize("text, reason", [
        ("[]", "not a JSON object"),
        ("", "Expecting value"),
        ("{}", "missing 'a'"),
    ])
    def test_json_file(self, tmp_path, text, reason):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(DataError, match=f"x.json: bad thing \\({reason}"):
            corpus.read_json(path, lambda p: p["a"], "thing")
        path.write_text('{"a": [1]}')
        assert corpus.read_json(path, lambda p: p["a"], "thing") == [1]

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("k, v\na, 1\n\nb,2\n")
        assert corpus.read_csv(path, "k,v", lambda f: (f[0], int(f[1])), "row") == [
            ("a", 1), ("b", 2)]

    @pytest.mark.parametrize("text, match", [
        ("", "x.csv: expected header 'k,v'"),
        ("k,w\na,1\n", "x.csv: expected header 'k,v'"),
        ("k,v\n", "x.csv: empty file"),
        ("k,v\na,1\nb\n", r"x.csv:3: bad row \(expected 2 comma-separated fields, got 1\)"),
        ("k,v\na,1\nb,x\n", r"x.csv:3: bad row \(invalid literal for int"),
    ])
    def test_csv_errors(self, tmp_path, text, match):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=match):
            corpus.read_csv(path, "k,v", lambda f: (f[0], int(f[1])), "row")

    def test_gender_table_bad_count_names_its_line(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("name,male_count,female_count\nJohn,90,2\nMary,x,95\n")
        with pytest.raises(DataError, match="names.csv:3: bad gender table row"):
            load_gender_table(path)
