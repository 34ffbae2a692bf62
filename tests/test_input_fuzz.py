"""Property-based fuzzing of the four JSON-lines loaders.

Each loader is fed lines drawn from arbitrary JSON values and mutated copies
of valid lines: a key dropped, a value replaced by one of another kind, a
list replaced by a string, NaN or infinity in a feature, a feature of
another width. Every call must
either return or raise DataError; any other exception is a traceback that
reaches the user. What a loader returns must also survive the next step the
command line takes with it (prepare and grids; the analytics reports).
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vwpstory import analytics, chargrid, corpus, metrics
from vwpstory.cli import _pairs_from_hyp
from vwpstory.errors import DataError
from vwpstory.synth import fixture_annotations, fixture_dataset

KEYS = ["id", "images", "image_id", "global_feat", "characters", "char_id", "gender",
        "instances", "image_index", "bbox", "sharpness", "representative_feat",
        "objects", "object_id", "feat", "stories", "raw_text", "entity_spans", "start",
        "end", "kind", "name", "srl", "predicate", "args", "tokens", "hypothesis",
        "references", "sequence_id", "entity_grid", "entities", "rows",
        "groundedness", "label", "n_images"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                        children, max_size=4)),
    max_leaves=12)

RECORDS = fixture_dataset(2, seed=3)
VALID = {
    "dataset": [corpus.record_to_dict(r) for r in RECORDS],
    "pairs": [{"id": 0, "hypothesis": ["a", "dog", 2], "references": ["a dog", ["a", "cat"]]}],
    "hyp": [{"sequence_id": r.id, "seed": 0, "tokens": ["a", "story"]} for r in RECORDS],
    "annotations": fixture_annotations(RECORDS),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    corpus.save_dataset(RECORDS, base / "refs.jsonl")
    return base


def _load(kind: str, path, workdir):
    if kind == "dataset":
        return corpus.load_dataset(path)
    if kind == "pairs":
        return metrics.load_eval_pairs(path)
    if kind == "hyp":
        return _pairs_from_hyp(str(path), str(workdir / "refs.jsonl"))
    return analytics.load_annotated(path)


def _slots(value, out):
    """Every (container, key) pair inside a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


@st.composite
def mutated(draw, kind: str):
    payload = json.loads(json.dumps(draw(st.sampled_from(VALID[kind]))))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(payload, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["drop", "replace", "string", "non-finite", "width"]))
        child = container[key]
        if action == "drop":
            del container[key]
        elif action == "replace":
            container[key] = draw(json_values)
        elif action == "string" and isinstance(child, list):
            container[key] = draw(st.text(min_size=1, max_size=6))
        elif action == "non-finite" and isinstance(child, list) and child:
            child[draw(st.integers(0, len(child) - 1))] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        elif action == "width" and isinstance(child, list):
            container[key] = child[:-1] if draw(st.booleans()) else child + [0.5]
    return payload


def _use(kind: str, loaded: list):
    if kind == "dataset":
        corpus.prepare_records(loaded)
        for mode in chargrid.GRID_COLUMNS:
            chargrid.grid_for_mode(loaded[0], mode)
    elif kind == "annotations":
        analytics.corpus_stats(loaded)
        grids = [s.entity_grid for s in loaded if s.entity_grid is not None]
        if grids:
            model = analytics.train_entity_grid(grids)
            for grid in grids:
                analytics.score_coherence(model, grid)
        analytics.jaccard_similarity(analytics.group_by_sequence(loaded))
        analytics.event_diversity([s.srl for s in loaded], [s.tokens for s in loaded])
        analytics.predicate_ngram_diversity([s.srl for s in loaded])
        analytics.groundedness_table([g for s in loaded for g in s.groundedness])


def _check(kind: str, lines: list[str], workdir):
    path = workdir / f"{kind}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        _use(kind, _load(kind, path, workdir))
    except DataError:
        pass


KINDS = ["dataset", "pairs", "hyp", "annotations"]
fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", KINDS)
@fuzz
@given(data=st.data())
def test_arbitrary_json_lines_load_or_raise_data_error(workdir, kind, data):
    lines = data.draw(st.lists(json_values.map(json.dumps), min_size=1, max_size=3))
    _check(kind, [json.dumps(v) for v in VALID[kind][:1]] + lines, workdir)


@pytest.mark.parametrize("kind", KINDS)
@fuzz
@given(data=st.data())
def test_mutated_valid_lines_load_or_raise_data_error(workdir, kind, data):
    _check(kind, [json.dumps(data.draw(mutated(kind)))], workdir)


@pytest.mark.parametrize("kind", KINDS)
def test_valid_lines_load(workdir, kind):
    path = workdir / f"{kind}-valid.jsonl"
    path.write_text("".join(json.dumps(v) + "\n" for v in VALID[kind]), encoding="utf-8")
    loaded = _load(kind, path, workdir)
    assert len(loaded) == len(VALID[kind])
    _use(kind, loaded)


def _string_for_list(kind: str, payload: dict, container, key) -> bool:
    """Whether a string may stand where this list is: an eval pair's
    hypothesis and each of its references are tokenized."""
    return kind == "pairs" and (key == "hypothesis" or container is payload["references"])


@pytest.mark.parametrize("kind", KINDS)
def test_list_replaced_by_a_string_is_a_data_error(workdir, kind):
    """A string where a list belongs would iterate as its letters, so every
    list of a valid line, replaced by a string, makes the line fail."""
    path = workdir / f"{kind}-string.jsonl"
    checked = 0
    for i in range(len(_slots(VALID[kind][0], []))):
        payload = json.loads(json.dumps(VALID[kind][0]))
        container, key = _slots(payload, [])[i]
        if not isinstance(container[key], list) or _string_for_list(kind, payload, container, key):
            continue
        container[key] = "ab"
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            _load(kind, path, workdir)
        checked += 1
    assert checked > 0
