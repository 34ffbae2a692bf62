"""Synthetic corpora: a planted grid-dependent task and a small fixture set.

The planted task makes the next token at each story section a deterministic
function of which characters appear in that image. Character signatures are
orthonormal within a sequence and image features are sums of the present
signatures plus noise, so the dot-product grid exposes the appearance
pattern directly, while the raw features hold it only as sums of
signatures that a model without the grid must learn to take apart.
"""

from __future__ import annotations

import numpy as np

from .corpus import (
    CharacterInstance,
    CharacterRecord,
    EntitySpan,
    ImageRecord,
    ImageSequenceRecord,
    ObjectRecord,
    SrlEvent,
    StoryRecord,
    write_jsonl,
)

PATTERN_WORDS = ("quiet", "alone", "pair", "crowd")  # indexed by appearance code
FILLER_NAMES = {
    "male": ["John", "Jack", "Peter", "Tom"],
    "female": ["Mary", "Alice", "Sue", "Nina"],
}
FILLER_VERBS = ["walk", "smile", "run", "hide", "wave", "shout"]
FILLER_PLACES = ["Paris", "Delhi", "Cairo", "Oslo"]
# the shape of every planted sequence: images, characters, feature width, and
# the scale of the normal noise on each image feature
SYNTH_IMAGES = 5
SYNTH_CHARS = 2
FEAT_DIM = 8
FEAT_NOISE = 0.02


def _orthonormal_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return basis[:n]


def appearance_code(present: tuple[bool, ...]) -> int:
    return sum(1 << b for b, here in enumerate(present) if here)


def synthetic_grid_corpus(n_sequences: int, seed: int) -> list[ImageSequenceRecord]:
    """Sequences whose story section words encode per-image character presence."""
    rng = np.random.default_rng(seed)
    records = []
    for s in range(n_sequences):
        sigs = _orthonormal_rows(rng, SYNTH_CHARS, FEAT_DIM)
        presence = rng.random((SYNTH_IMAGES, SYNTH_CHARS)) < 0.5
        images = []
        sections = []
        for a in range(SYNTH_IMAGES):
            feat = sigs[presence[a]].sum(axis=0) if presence[a].any() else np.zeros(FEAT_DIM)
            feat = feat + FEAT_NOISE * rng.normal(size=FEAT_DIM)
            images.append(ImageRecord(image_id=f"syn{s}-im{a}", global_feat=feat))
            sections.append(PATTERN_WORDS[appearance_code(tuple(presence[a]))])
        characters = []
        for b in range(SYNTH_CHARS):
            instance_images = [a for a in range(SYNTH_IMAGES) if presence[a, b]] or [0]
            characters.append(CharacterRecord(
                char_id=f"syn{s}-c{b}",
                gender="male" if b % 2 == 0 else "female",
                instances=[CharacterInstance(image_index=a, bbox=(0, 0, 8, 8),
                                             sharpness=float(rng.random()))
                           for a in instance_images],
                representative_feat=sigs[b].copy(),
            ))
        story = StoryRecord(raw_text="\n".join(sections))
        records.append(ImageSequenceRecord(id=f"syn{s}", images=images,
                                           characters=characters, stories=[story]))
    return records


def pattern_token_ids(vocab) -> set[int]:
    return {vocab.token_to_id[w] for w in PATTERN_WORDS if w in vocab}


# --- richer fixture data for the end-to-end pipeline -------------------------

def fixture_dataset(n_sequences: int, seed: int) -> list[ImageSequenceRecord]:
    """Small realistic-shaped dataset: named characters in raw text with
    entity spans, SRL events, objects, and two stories per sequence, on the
    images and characters of the planted corpus."""
    rng = np.random.default_rng(seed)
    base = synthetic_grid_corpus(n_sequences, seed)
    records = []
    for s, rec in enumerate(base):
        male = FILLER_NAMES["male"][s % len(FILLER_NAMES["male"])]
        female = FILLER_NAMES["female"][s % len(FILLER_NAMES["female"])]
        place = FILLER_PLACES[s % len(FILLER_PLACES)]
        stories = []
        for variant in range(2):
            verb = FILLER_VERBS[(s + variant) % len(FILLER_VERBS)]
            verb2 = FILLER_VERBS[(s + variant + 2) % len(FILLER_VERBS)]
            sections = [
                f"{male} and {female} meet in {place}.",
                f"{male} {verb}s away.",
                f"{female} {verb2}s after him.",
            ]
            text = "\n".join(sections)
            spans = []
            offset = 0
            for section in sections:
                for name, kind in ((male, "person"), (female, "person"), (place, "location")):
                    start = section.find(name)
                    if start >= 0:
                        spans.append(EntitySpan(offset + start, offset + start + len(name),
                                                kind, name))
                offset += len(section) + 1
            srl = [
                SrlEvent(predicate="meet", args={"arg0": [male.lower(), female.lower()],
                                                 "arg-loc": [place.lower()]}),
                SrlEvent(predicate=verb, args={"arg0": [male.lower()]}),
                SrlEvent(predicate=verb2, args={"arg0": [female.lower()], "arg1": ["him"]}),
            ]
            stories.append(StoryRecord(raw_text=text,
                                       entity_spans=sorted(spans, key=lambda sp: sp.start),
                                       srl=srl))
        objects = [ObjectRecord(object_id=f"fix{s}-o{k}", feat=rng.normal(size=FEAT_DIM))
                   for k in range(2)]
        records.append(ImageSequenceRecord(id=f"fix{s}", images=rec.images,
                                           characters=rec.characters, objects=objects,
                                           stories=stories))
    return records


def fixture_gender_table() -> dict[str, tuple[int, int]]:
    table = {}
    for name in FILLER_NAMES["male"]:
        table[name.lower()] = (95, 2)
    for name in FILLER_NAMES["female"]:
        table[name.lower()] = (3, 90)
    return table


def write_gender_table(path) -> None:
    lines = ["name,male_count,female_count"]
    for name, (m, f) in sorted(fixture_gender_table().items()):
        lines.append(f"{name},{m},{f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def fixture_annotations(records: list[ImageSequenceRecord], seed: int = 11) -> list[dict]:
    """Annotated-corpus payloads (one per story) with role grids and
    groundedness labels, for the analytics pipeline."""
    from .corpus import story_surface_tokens

    rng = np.random.default_rng(seed)
    labels = ["Grounded", "Grounded", "Grounded", "Inferred", "Inferred", "Hallucinated"]
    payloads = []
    for rec in records:
        for story in rec.stories:
            surface = story_surface_tokens(story.raw_text)
            srl = [{"predicate": ev.predicate, "args": ev.args} for ev in story.srl or []]
            n_rows = surface.count("[sent]") + 1
            entities = [ch.char_id for ch in rec.characters] or ["e0"]
            rows = [[str(rng.choice(["S", "O", "X", "-"], p=[0.4, 0.2, 0.1, 0.3]))
                     for _ in entities] for _ in range(n_rows)]
            groundedness = (
                [{"kind": "event", "label": str(rng.choice(labels))} for _ in srl]
                + [{"kind": "argument", "label": str(rng.choice(labels))}
                   for ev in srl for _ in ev["args"]]
            )
            characters = sorted({tok for span in story.entity_spans
                                 for tok in [span.name.lower()] if span.kind == "person"})
            payloads.append({
                "sequence_id": rec.id,
                "tokens": surface,
                "srl": srl,
                "characters": characters,
                "entity_grid": {"entities": entities, "rows": rows},
                "groundedness": groundedness,
                "n_images": len(rec.images),
            })
    return payloads


def write_annotations(payloads: list[dict], path) -> None:
    write_jsonl(path, payloads, dict)
