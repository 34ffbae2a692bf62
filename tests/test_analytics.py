import json
import math
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwpstory import analytics
from vwpstory.analytics import (
    AnnotatedStory,
    EntityGridModel,
    EntityRoleGrid,
    GroundednessAnnotation,
    JACCARD_ROLES,
    ROLES,
    SRLStory,
    WorkerStats,
    corpus_stats,
    event_diversity,
    groundedness_table,
    jaccard,
    jaccard_similarity,
    plan_review_sample,
    predicate_ngram_diversity,
    qualify,
    score_coherence,
    train_entity_grid,
)
from vwpstory.errors import DataError


def grid(entities, rows):
    return EntityRoleGrid(entities=list(entities), rows=[list(r) for r in rows])


class TestEntityGridModel:
    def test_all_subject_corpus_alpha_to_zero(self):
        g = grid(["e"], [["S"], ["S"], ["S"]])
        model = train_entity_grid([g], history=0, alpha=1e-12)
        assert model.prob((), "S") == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_uniform_smoothing(self):
        g = grid(["e"], [["S"]])
        model = train_entity_grid([g], history=1, alpha=0.1)
        for role in ROLES:
            assert model.prob(("O",), role) == pytest.approx(0.25)

    def test_h1_hand_tallied_counts(self):
        # single column S, O, S: contexts '-'->S, 'S'->O, 'O'->S
        g = grid(["e"], [["S"], ["O"], ["S"]])
        model = train_entity_grid([g], history=1, alpha=0.5)
        # context ('S',): count O = 1, total 1, 4 roles -> (1+.5)/(1+2)
        assert model.prob(("S",), "O") == pytest.approx(1.5 / 3.0)
        assert model.prob(("S",), "S") == pytest.approx(0.5 / 3.0)
        assert model.prob(("-",), "S") == pytest.approx(1.5 / 3.0)

    def test_probabilities_sum_to_one_per_context(self):
        g = grid(["a", "b"], [["S", "-"], ["O", "X"], ["S", "S"]])
        model = train_entity_grid([g], history=2, alpha=0.1)
        contexts = list(model.counts) + [("X", "X")]
        for ctx in contexts:
            assert sum(model.prob(ctx, r) for r in ROLES) == pytest.approx(1.0)

    def test_empty_corpus_errors(self):
        with pytest.raises(DataError):
            train_entity_grid([])

    def test_bad_cell_rejected(self):
        with pytest.raises(DataError):
            grid(["e"], [["Q"]])


class TestScoreCoherence:
    def test_single_cell_uniform_model(self):
        uniform = EntityGridModel(history=1, alpha=0.1)  # no counts at all
        score = score_coherence(uniform, grid(["e"], [["S"]]))
        assert score.ll == pytest.approx(math.log(0.25))
        assert score.cells == 1

    def test_avg_is_ll_over_cells(self):
        g = grid(["a", "b"], [["S", "O"], ["X", "-"]])
        model = train_entity_grid([g], history=1, alpha=0.1)
        score = score_coherence(model, g)
        assert score.cells == 4
        assert score.avg_ll == pytest.approx(score.ll / 4.0)

    def test_self_trained_beats_uniform(self):
        g = grid(["a", "b"], [["S", "O"], ["S", "-"]])
        model = train_entity_grid([g], history=1, alpha=1e-6)
        uniform = EntityGridModel(history=1, alpha=0.1)
        assert score_coherence(model, g).ll >= score_coherence(uniform, g).ll

    def test_self_trained_is_maximum_by_enumeration(self):
        # per-context LL decomposes, so checking each context's distribution
        # against a discretized simplex verifies global maximality for h=1
        g = grid(["a", "b"], [["S", "O"], ["X", "O"], ["S", "-"]])
        model = train_entity_grid([g], history=1, alpha=1e-9)
        tallies: dict[tuple, Counter] = {}
        for col in range(2):
            column = [row[col] for row in g.rows]
            padded = ["-"] + column
            for i in range(len(column)):
                tallies.setdefault((padded[i],), Counter())[column[i]] += 1
        step = 20
        for ctx, counts in tallies.items():
            trained_ll = sum(n * math.log(model.prob(ctx, role))
                             for role, n in counts.items())
            for parts in combinations(range(1, step + 4 - 1), 4 - 1):
                sizes = [parts[0]] + [parts[i] - parts[i - 1] for i in range(1, 3)] \
                        + [step + 4 - 1 - parts[-1]]
                probs = [max(s - 1, 0) / step for s in sizes]
                if any(p == 0.0 and counts.get(r, 0) > 0 for p, r in zip(probs, ROLES)):
                    continue
                if abs(sum(probs) - 1.0) > 1e-9:
                    continue
                cand_ll = sum(n * math.log(probs[ROLES.index(role)])
                              for role, n in counts.items())
                assert trained_ll >= cand_ll - 1e-6


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_set_arithmetic_example(self):
        a = {"tell", "convince", "work"}
        b = {"convince", "work", "call"}
        assert jaccard(a, b) == pytest.approx(0.5)

    def test_empty_union_contributes_zero(self):
        assert jaccard(set(), set()) == 0.0

    @given(st.sets(st.sampled_from("abcdef"), max_size=5),
           st.sets(st.sampled_from("abcdef"), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0
        if a:
            assert jaccard(a, a) == 1.0

    def test_grouped_similarity(self):
        s1 = SRLStory(predicates=["tell", "convince", "work"], characters={"[male0]"})
        s2 = SRLStory(predicates=["convince", "work", "call"], characters={"[male0]"})
        report = jaccard_similarity({"seq1": [s1, s2], "seq2": [s1]})
        assert report.sequences_used == 1
        assert report.sequences_skipped == 1
        assert report.per_role["predicates"] == pytest.approx(0.5)
        assert report.per_role["characters"] == pytest.approx(1.0)

    def test_argument_union_role(self):
        s1 = SRLStory(predicates=[], args={"arg0": {"he"}, "arg1": {"door"}})
        s2 = SRLStory(predicates=[], args={"arg0": {"he"}, "arg1": {"window"}})
        report = jaccard_similarity({"s": [s1, s2]})
        assert report.per_role["arguments"] == pytest.approx(1 / 3)
        assert report.per_role["arg0"] == pytest.approx(1.0)
        assert set(report.per_role) == set(JACCARD_ROLES)


class TestEventDiversity:
    def test_single_lemma_no_diversity(self):
        stories = [SRLStory(predicates=["run", "run"])]
        report = event_diversity(stories, [["he", "ran"]])
        assert report.diverse_verb_ratio == 0.0
        assert report.unique_verbs == 1

    def test_six_singletons(self):
        stories = [SRLStory(predicates=list("abcdef"))]
        report = event_diversity(stories, [list("xyzpqr")])
        assert report.diverse_verb_ratio == pytest.approx(1 / 6)
        assert report.top_verbs == ["a", "b", "c", "d", "e"]

    def test_tie_break_lexicographic(self):
        # 'z' and 'a' tie on count; 'a' enters the top-5 first
        stories = [SRLStory(predicates=["z", "a", "b", "c", "d", "e"])]
        report = event_diversity(stories, [[]])
        assert "a" in report.top_verbs and "z" not in report.top_verbs

    def test_empty_everything(self):
        report = event_diversity([SRLStory(predicates=[])], [[]])
        assert report.vocab_size == 0
        assert report.unique_verbs == 0
        assert report.diverse_verb_ratio == 0.0
        assert report.verb_vocab_ratio == 0.0
        assert report.verb_token_ratio == 0.0

    def test_ratios(self):
        stories = [SRLStory(predicates=["run", "walk"])]
        report = event_diversity(stories, [["he", "ran", "and", "walked"]])
        assert report.verb_vocab_ratio == pytest.approx(2 / 4)
        assert report.verb_token_ratio == pytest.approx(2 / 4)


class TestPredicateNgrams:
    def test_figure_example_trigrams(self):
        stories = [SRLStory(predicates=["tell", "convince", "work", "call"])]
        ratios = predicate_ngram_diversity(stories)
        assert ratios[3] == pytest.approx(1.0)

    def test_repeated_predicate_bigrams(self):
        stories = [SRLStory(predicates=["a", "a", "a"])]
        ratios = predicate_ngram_diversity(stories)
        assert ratios[2] == pytest.approx(0.5)

    def test_short_story_contributes_nothing(self):
        stories = [SRLStory(predicates=["a"]), SRLStory(predicates=["b", "c"])]
        ratios = predicate_ngram_diversity(stories)
        assert ratios[3] == 0.0
        assert ratios[2] == pytest.approx(1.0)

    def test_no_crossing_story_boundaries(self):
        stories = [SRLStory(predicates=["a", "b"]), SRLStory(predicates=["b", "a"])]
        ratios = predicate_ngram_diversity(stories)
        assert ratios[2] == pytest.approx(1.0)  # (a,b) and (b,a), both unique

    @given(st.lists(st.lists(st.sampled_from("abc"), max_size=6), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_ratios_bounded(self, preds):
        stories = [SRLStory(predicates=p) for p in preds]
        for ratio in predicate_ngram_diversity(stories).values():
            assert 0.0 <= ratio <= 1.0

    @given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_duplication_never_raises_unigram_ratio(self, preds):
        stories = [SRLStory(predicates=p) for p in preds]
        base = predicate_ngram_diversity(stories)[1]
        doubled = predicate_ngram_diversity(stories + stories)[1]
        assert doubled <= base + 1e-12


class TestGroundedness:
    def test_published_event_counts(self):
        annotations = (
            [GroundednessAnnotation("event", "Grounded")] * 164
            + [GroundednessAnnotation("event", "Inferred")] * 134
            + [GroundednessAnnotation("event", "Hallucinated")] * 1
        )
        table = groundedness_table(annotations)
        # 164/299 rounds half-up to 54.8 (the published table shows 54.9)
        assert table["event"]["percentages"] == {
            "Grounded": 54.8, "Inferred": 44.8, "Hallucinated": 0.3}

    def test_published_argument_counts(self):
        annotations = (
            [GroundednessAnnotation("argument", "Grounded")] * 447
            + [GroundednessAnnotation("argument", "Inferred")] * 254
            + [GroundednessAnnotation("argument", "Hallucinated")] * 14
        )
        table = groundedness_table(annotations)
        assert table["argument"]["percentages"] == {
            "Grounded": 62.5, "Inferred": 35.5, "Hallucinated": 2.0}

    def test_single_annotation_full_cell(self):
        table = groundedness_table([GroundednessAnnotation("event", "Grounded")])
        assert table["event"]["percentages"]["Grounded"] == 100.0
        assert "argument" not in table

    def test_empty_input(self):
        assert groundedness_table([]) == {}

    def test_misspelled_label_normalized(self):
        ann = GroundednessAnnotation("event", "Hallucianted")
        assert ann.label == "Hallucinated"

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError):
            GroundednessAnnotation("event", "Imagined")

    def test_percentages_sum_to_100_within_rounding(self):
        annotations = [GroundednessAnnotation("event", label)
                       for label in ("Grounded",) * 3 + ("Inferred",) * 3 + ("Hallucinated",)]
        pct = groundedness_table(annotations)["event"]["percentages"]
        assert sum(pct.values()) == pytest.approx(100.0, abs=0.2)


def worker(acceptance=0.95, quality=3.5, accepted=6, n_w=10):
    return WorkerStats(worker_id="w", acceptance_rate=acceptance,
                       avg_quality=quality, accepted=accepted, n_w=n_w)


class TestPlanner:
    def test_small_batch_capped(self):
        assert plan_review_sample(worker(n_w=5)) == 5

    def test_small_batch_raw_branch(self):
        assert plan_review_sample(worker(n_w=5), cap_at_written=False) == 10

    def test_branch_boundary(self):
        assert plan_review_sample(worker(n_w=10)) == 10

    def test_thousand(self):
        assert plan_review_sample(worker(n_w=1000)) == 30

    def test_below_ten_wants_ten(self):
        assert plan_review_sample(worker(n_w=9)) == 9
        assert plan_review_sample(worker(n_w=40)) == math.ceil(10 * math.log10(40))

    @given(st.integers(10, 5000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_from_ten(self, n):
        assert plan_review_sample(worker(n_w=n + 1)) >= plan_review_sample(worker(n_w=n))

    def test_qualify_thresholds(self):
        assert qualify(worker(0.95, 3.5, 6)) is True
        assert qualify(worker(0.90, 3.1, 5)) is False  # quality bound is strict
        assert qualify(worker(0.89, 5.0, 100)) is False
        assert qualify(worker(0.90, 3.2, 5)) is True

    def test_stats_ranges_validated(self):
        with pytest.raises(DataError):
            worker(acceptance=1.2)
        with pytest.raises(DataError):
            worker(quality=0.5)


class TestCorpusStats:
    def _story(self, seq, tokens, predicates, characters=(), n_images=None):
        return AnnotatedStory(
            sequence_id=seq, tokens=tokens,
            srl=SRLStory(predicates=list(predicates), characters=set(characters)),
            n_images=n_images)

    def test_single_story_token_count(self):
        stats = corpus_stats([self._story("s", ["t"] * 10, ["run"])])
        assert stats["tokens_per_text"] == 10.0

    def test_mean_events(self):
        stories = [self._story("a", [], ["x"]), self._story("b", [], ["x", "y", "z"])]
        assert corpus_stats(stories)["events_per_text"] == 2.0

    def test_fixture_hand_count(self):
        stories = [
            self._story("a", ["a", "b", "c"], ["run"], {"[male0]"}, n_images=5),
            self._story("b", ["d", "e"], ["run", "hide"], {"[male0]", "[female0]"}, n_images=7),
        ]
        stats = corpus_stats(stories)
        assert stats == {
            "texts": 2,
            "images_per_text": [5, 7],
            "tokens_per_text": 2.5,
            "events_per_text": 1.5,
            "characters_per_text": 1.5,
        }


class TestAnnotatedIngest:
    def test_round_trip_from_jsonl(self, tmp_path):
        payload = {
            "sequence_id": "s1",
            "tokens": ["[male0]", "ran", ".", "[sent]", "he", "hid", "."],
            "srl": [
                {"predicate": "run", "args": {"arg0": ["[male0]"]}},
                {"predicate": "hide", "args": {"arg0": ["he"], "arg-loc": ["cellar"]}},
            ],
            "entity_grid": {"entities": ["[male0]"], "rows": [["S"], ["S"]]},
            "groundedness": [{"kind": "event", "label": "Grounded"},
                             {"kind": "argument", "label": "Hallucianted"}],
            "n_images": 5,
        }
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        stories = analytics.load_annotated(path)
        story = stories[0]
        assert story.srl.predicates == ["run", "hide"]
        assert story.srl.args["arg-loc"] == {"cellar"}
        assert story.srl.characters == {"[male0]"}  # derived from placeholders
        assert story.entity_grid.rows == [["S"], ["S"]]
        assert story.groundedness[1].label == "Hallucinated"
        assert story.n_images == 5

    def test_bad_line_carries_context(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": []}\n')
        with pytest.raises(DataError, match="bad.jsonl:1"):
            analytics.load_annotated(path)

    @pytest.mark.parametrize("field, message", [
        ({"tokens": "hello"}, "tokens must be a list, got str"),
        ({"tokens": ["a", None]}, "tokens holds null"),
        ({"srl": [{"predicate": "run", "args": {"arg0": "bob"}}]},
         "SRL argument 'arg0' must be a list, got str"),
        ({"srl": [{"predicate": "run", "args": {"arg1": ["a", 2]}}]},
         "SRL argument 'arg1' holds int"),
        ({"characters": "bob"}, "characters must be a list, got str"),
        ({"entity_grid": {"entities": "ab", "rows": [["S", "O"]]}},
         "entity grid entities must be a list, got str"),
        ({"entity_grid": {"entities": ["a", "b"], "rows": ["SO"]}},
         "an entity grid row must be a list, got str"),
        ({"entity_grid": {"entities": ["a"], "rows": "S"}},
         "entity grid rows must be a list, got str"),
    ])
    def test_a_string_is_not_a_list(self, field, message):
        payload = {"sequence_id": "s1", "tokens": ["a"], **field}
        with pytest.raises(DataError, match=re.escape(message)):
            analytics.annotated_from_dict(payload)

    def test_absent_or_null_tokens_read_as_no_tokens(self):
        for payload in ({"sequence_id": "s1"}, {"sequence_id": "s1", "tokens": None}):
            assert analytics.annotated_from_dict(payload).tokens == []
