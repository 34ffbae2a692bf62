"""Dataset records, tokenizer, entity anonymization, vocabulary, splits.

Records arrive as UTF-8 JSON Lines (one image sequence per line, field
names as in the dataclasses below; see docs/dataset-format.md). Raw story
text uses a newline between the per-image sections; processing turns those
boundaries into the [sent] separator token.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

PAD, BOS, EOS, UNK = "[PAD]", "[BOS]", "[EOS]", "[UNK]"
SENT, LOCATION = "[sent]", "[location]"
PLACEHOLDER_SLOTS = 5
MALE_PLACEHOLDERS = [f"[male{i}]" for i in range(PLACEHOLDER_SLOTS)]
FEMALE_PLACEHOLDERS = [f"[female{i}]" for i in range(PLACEHOLDER_SLOTS)]
SPECIAL_TOKENS = [PAD, BOS, EOS, UNK, SENT, LOCATION] + MALE_PLACEHOLDERS + FEMALE_PLACEHOLDERS

# images per sequence and characters per sequence a record may hold
MIN_IMAGES, MAX_IMAGES = 5, 10
MAX_CHARACTERS = PLACEHOLDER_SLOTS

# placeholders intact, then words, then single punctuation marks
_TOKEN_RE = re.compile(r"\[[a-z][a-z0-9]*\]|[a-z0-9]+|[^\sa-z0-9]")


@dataclass
class CharacterInstance:
    image_index: int
    bbox: tuple[int, int, int, int]
    sharpness: float


@dataclass
class CharacterRecord:
    char_id: str
    gender: str  # male | female | unknown
    instances: list[CharacterInstance]
    representative_feat: np.ndarray


@dataclass
class ObjectRecord:
    object_id: str
    feat: np.ndarray


@dataclass
class ImageRecord:
    image_id: str
    global_feat: np.ndarray


@dataclass
class EntitySpan:
    start: int
    end: int
    kind: str  # person | location
    name: str


@dataclass
class SrlEvent:
    predicate: str
    args: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class StoryRecord:
    raw_text: str
    entity_spans: list[EntitySpan] = field(default_factory=list)
    srl: list[SrlEvent] | None = None
    tokens: list[int] | None = None


@dataclass
class ImageSequenceRecord:
    id: str
    images: list[ImageRecord]
    characters: list[CharacterRecord]
    objects: list[ObjectRecord] = field(default_factory=list)
    stories: list[StoryRecord] = field(default_factory=list)

    @property
    def feat_dim(self) -> int:
        return int(self.images[0].global_feat.shape[0])


@dataclass
class AnonymizationMap:
    """What each placeholder stood for, kept for later realization."""
    persons: dict[str, str] = field(default_factory=dict)  # placeholder -> name
    genders: dict[str, str] = field(default_factory=dict)  # placeholder -> gender
    locations: list[str] = field(default_factory=list)


def placeholder_kind(token: str) -> str | None:
    """"male", "female" or "location" for a placeholder token, else None.
    Any bracketed [male...] or [female...] token counts, not only the
    numbered slots."""
    if token == LOCATION:
        return "location"
    for gender in ("male", "female"):
        if token.startswith(f"[{gender}") and token.endswith("]"):
            return gender
    return None


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, keeping punctuation
    as tokens and bracketed placeholders intact."""
    return _TOKEN_RE.findall(text.lower())


def story_surface_tokens(raw_text: str) -> list[str]:
    """Tokenize a raw story, turning newline section breaks into [sent]."""
    sections = [s for s in raw_text.split("\n") if s.strip()]
    out: list[str] = []
    for i, section in enumerate(sections):
        if i:
            out.append(SENT)
        out.extend(tokenize(section))
    return out


def load_gender_table(path: str | Path) -> dict[str, tuple[int, int]]:
    """Parse the name statistics file: header then name,male_count,female_count."""
    return dict(read_csv(path, "name,male_count,female_count",
                         lambda f: (f[0].lower(), (int(f[1]), int(f[2]))), "gender table row"))


def _gender_for(name: str, table: dict[str, tuple[int, int]], unknown_seen: int) -> str:
    counts = table.get(name.lower())
    if counts is not None:
        male, female = counts
        if male > female:
            return "male"
        if female > male:
            return "female"
    # unknown names alternate by first-mention parity
    return "male" if unknown_seen % 2 == 0 else "female"


def anonymize(story: StoryRecord,
              gender_table: dict[str, tuple[int, int]] | None = None,
              ) -> tuple[StoryRecord, AnonymizationMap]:
    """Replace person names with [maleK]/[femaleK] (in order of first
    mention, per gender) and location names with [location].

    Already-anonymized stories (no entity spans) pass through unchanged,
    which makes the operation idempotent.
    """
    gender_table = gender_table or {}
    spans = sorted(story.entity_spans, key=lambda s: s.start)
    for prev, cur in zip(spans, spans[1:]):
        if cur.start < prev.end:
            raise DataError(f"overlapping entity spans at {prev.start}..{prev.end} and {cur.start}..{cur.end}")
    mapping = AnonymizationMap()
    by_name: dict[str, str] = {}
    counters = {"male": 0, "female": 0}
    unknown_seen = 0
    pieces: list[str] = []
    cursor = 0
    for span in spans:
        pieces.append(story.raw_text[cursor:span.start])
        if span.kind == "location":
            placeholder = LOCATION
            mapping.locations.append(span.name)
        elif span.kind == "person":
            placeholder = by_name.get(span.name)
            if placeholder is None:
                gender = _gender_for(span.name, gender_table, unknown_seen)
                if span.name.lower() not in gender_table:
                    unknown_seen += 1
                slot = counters[gender]
                if slot >= PLACEHOLDER_SLOTS:
                    raise DataError(
                        f"more than {PLACEHOLDER_SLOTS} distinct {gender} names in one story")
                counters[gender] += 1
                placeholder = f"[{gender}{slot}]"
                by_name[span.name] = placeholder
                mapping.persons[placeholder] = span.name
                mapping.genders[placeholder] = gender
        else:
            raise DataError(f"unknown entity kind {span.kind!r}")
        pieces.append(placeholder)
        cursor = span.end
    pieces.append(story.raw_text[cursor:])
    return StoryRecord(raw_text="".join(pieces), entity_spans=[],
                       srl=story.srl, tokens=None), mapping


class Vocabulary:
    """Bijective token<->id map with the special tokens at the lowest ids."""

    def __init__(self, tokens: list[str], min_freq: int = 1):
        for i, special in enumerate(SPECIAL_TOKENS):
            if i >= len(tokens) or tokens[i] != special:
                raise DataError(f"special token {special} missing from slot {i}")
        if len(set(tokens)) != len(tokens):
            raise DataError("vocabulary tokens must be unique")
        self.id_to_token = list(tokens)
        self.token_to_id = {tok: i for i, tok in enumerate(tokens)}
        self.min_freq = min_freq

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    def encode(self, tokens: list[str]) -> list[int]:
        unk = self.unk_id
        return [self.token_to_id.get(t, unk) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def to_dict(self) -> dict:
        return {"tokens": self.id_to_token, "min_freq": self.min_freq}

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        return cls(string_list(payload["tokens"], "vocabulary tokens"), payload.get("min_freq", 1))


def build_vocab(corpus: list[list[str]], min_freq: int = 1) -> Vocabulary:
    """Vocabulary over surface-token lists; rarer-than-min_freq maps to [UNK]."""
    if not corpus:
        raise DataError("build_vocab: empty corpus")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    specials = set(SPECIAL_TOKENS)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq and tok not in specials),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(SPECIAL_TOKENS + kept, min_freq=min_freq)


def split_dataset(records: list[ImageSequenceRecord], seed: int,
                  val_count: int, test_count: int) -> dict[str, list[ImageSequenceRecord]]:
    """Seed-deterministic, disjoint train/val/test partition by sequence id."""
    if val_count < 0 or test_count < 0:
        raise DataError("split sizes must be non-negative")
    if val_count + test_count >= len(records):
        raise DataError(
            f"need val+test < total, got {val_count}+{test_count} of {len(records)}")
    order = np.random.default_rng(seed).permutation(len(records))
    val_ids = {records[i].id for i in order[:val_count]}
    test_ids = {records[i].id for i in order[val_count:val_count + test_count]}
    splits = {"train": [], "val": [], "test": []}
    for rec in records:
        if rec.id in val_ids:
            splits["val"].append(rec)
        elif rec.id in test_ids:
            splits["test"].append(rec)
        else:
            splits["train"].append(rec)
    return splits


# --- checked readers for input files ---------------------------------------
# Every outside input file is read by one of these three. What parsing malformed
# data raises (missing keys, wrong types, bad numbers, deep nesting) becomes a
# DataError naming the file (and line), never a traceback.
_BAD_INPUT = (DataError, LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
              RecursionError)


def _reason(exc: Exception) -> str:
    return f"missing {exc}" if isinstance(exc, KeyError) else str(exc)


def _json_object(data: bytes) -> dict:
    payload = json.loads(data)
    if not isinstance(payload, dict):
        raise DataError("not a JSON object")
    return payload


def _parse_lines(path, numbered_lines, parse, what: str) -> list:
    items = []
    for lineno, line in numbered_lines:
        if not line.strip():
            continue
        try:
            items.append(parse(line))
        except _BAD_INPUT as exc:
            raise DataError(f"{path}:{lineno}: bad {what} ({_reason(exc)})") from exc
    if not items:
        raise DataError(f"{path}: empty file (no {what})")
    return items


def read_jsonl(path, parse, what: str) -> list:
    """``parse(payload)`` for every non-blank line, each a JSON object. Bytes
    are decoded inside the check, so a line that is not UTF-8 is a bad line."""
    with open(path, "rb") as fh:
        return _parse_lines(path, enumerate(fh, start=1),
                            lambda line: parse(_json_object(line)), what)


def write_jsonl(path, items, to_payload) -> None:
    """``to_payload(item)`` for every item, one JSON object a line with its
    keys sorted: what ``read_jsonl`` reads. Each payload is freed before the
    next one is built."""
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(to_payload(item), sort_keys=True) + "\n")


def json_text(payload) -> str:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_json(path, parse, what: str):
    """``parse(payload)`` for a file holding one JSON object."""
    try:
        return parse(_json_object(Path(path).read_bytes()))
    except _BAD_INPUT as exc:
        raise DataError(f"{path}: bad {what} ({_reason(exc)})") from exc


def read_csv(path, header: str, parse, what: str) -> list:
    """``parse(fields)`` for every non-blank row after the required header."""
    names = header.split(",")
    lines = Path(path).read_bytes().splitlines()
    if not lines or [c.strip() for c in lines[0].decode("utf-8", "replace").split(",")] != names:
        raise DataError(f"{path}: expected header '{header}'")

    def row(line: bytes):
        fields = [c.strip() for c in line.decode("utf-8").split(",")]
        if len(fields) != len(names):
            raise DataError(f"expected {len(names)} comma-separated fields, got {len(fields)}")
        return parse(fields)
    return _parse_lines(path, enumerate(lines[1:], start=2), row, what)


# --- JSON Lines ingest/serialization ---------------------------------------

def text_field(value, what: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"{what} must be a string, got {type(value).__name__}")
    return value


_JSON_NAMES = {type(None): "null", bool: "true/false", dict: "an object", list: "an array"}


def json_list(value, what: str) -> list:
    """A JSON array. Anything else is a DataError naming ``what``: above all
    a string, which would otherwise iterate as its letters."""
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list, got {type(value).__name__}")
    return value


def string_list(value, what: str) -> list[str]:
    """A JSON array whose elements are all strings (names, ids, roles). The
    element check runs at C speed, once per list."""
    if not set(map(type, json_list(value, what))) <= {str}:
        found = next(v for v in value if type(v) is not str)
        raise DataError(f"{what} holds {_JSON_NAMES.get(type(found), type(found).__name__)}; "
                        "it must hold strings only")
    return value


def token_list(value, what: str) -> list[str]:
    """A JSON token list as metric tokens. Each element must be a string or
    a number (written with ``str``, so ``2`` is ``"2"``); bools are not
    numbers here. Anything else is a DataError that names ``what``."""
    for token in json_list(value, what):
        if isinstance(token, bool) or not isinstance(token, (str, int, float)):
            found = _JSON_NAMES.get(type(token), type(token).__name__)
            raise DataError(f"{what} holds {found}; tokens must be strings or numbers")
    return [str(t) for t in value]


def _feat(vec, context: str, dim: int | None) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"{context}: feature vector must be 1-D")
    if dim is not None and arr.shape[0] != dim:
        raise DataError(f"{context}: feature dim {arr.shape[0]} != {dim}")
    if np.count_nonzero(np.isfinite(arr)) < arr.shape[0]:
        raise DataError(f"{context}: feature vector holds NaN or infinity")
    return arr


def _story_tokens(value, ctx: str) -> list[int] | None:
    """A story's ``tokens``: null, or a list of non-negative int ids (bools
    are not ids). The type and sign checks run at C speed, once per story."""
    if value is None:
        return None
    if not isinstance(value, list) or not set(map(type, value)) <= {int} \
            or (value and min(value) < 0):
        raise DataError(f"{ctx}: tokens must be null or a list of non-negative integer ids")
    return value


def _json_int(value, what: str, ctx: str) -> int:
    """A JSON integer: a float, a numeric string or true/false is a DataError
    rather than a value to convert."""
    if type(value) is not int:
        raise DataError(f"{ctx}: {what} must be an integer, got {value!r}")
    return value


def _json_finite(value, what: str, ctx: str) -> float:
    """A finite JSON number: a string, true/false, NaN or infinity is a
    DataError rather than a value to convert."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DataError(f"{ctx}: {what} must be a finite number, got {value!r}")
    return float(value)


def _entity_span(span: dict, text: str, ctx: str) -> EntitySpan:
    start = _json_int(span["start"], "entity span start", ctx)
    end = _json_int(span["end"], "entity span end", ctx)
    if not 0 <= start < end <= len(text):
        raise DataError(f"{ctx}: entity span {start}..{end} outside the "
                        f"{len(text)}-character story or empty")
    return EntitySpan(start=start, end=end, kind=text_field(span["kind"], "kind"),
                      name=text_field(span["name"], "name"))


def record_from_dict(payload: dict) -> ImageSequenceRecord:
    seq_id = payload.get("id")
    if type(seq_id) is not str or not seq_id:
        raise DataError(f"record id must be a non-empty string, got {seq_id!r}")
    ctx = f"sequence {seq_id}"
    images_raw = payload.get("images") or []
    if not MIN_IMAGES <= len(images_raw) <= MAX_IMAGES:
        raise DataError(f"{ctx}: {len(images_raw)} images outside [{MIN_IMAGES}, {MAX_IMAGES}]")
    dim: int | None = None
    images = []
    for img in images_raw:
        image_id = text_field(img["image_id"], f"{ctx}: image_id")
        feat = _feat(img["global_feat"], f"{ctx} image {image_id}", dim)
        dim = feat.shape[0]
        images.append(ImageRecord(image_id=image_id, global_feat=feat))

    characters_raw = payload.get("characters") or []
    if len(characters_raw) > MAX_CHARACTERS:
        raise DataError(f"{ctx}: {len(characters_raw)} characters exceed limit {MAX_CHARACTERS}")
    characters = []
    for ch in characters_raw:
        char_id = text_field(ch["char_id"], f"{ctx}: char_id")
        instances = []
        for inst in ch.get("instances", []):
            idx = _json_int(inst["image_index"], "image_index", ctx)
            if not 0 <= idx < len(images):
                raise DataError(f"{ctx} character {char_id}: image_index {idx} out of range")
            bbox = inst.get("bbox", [0, 0, 0, 0])
            if not isinstance(bbox, list) or len(bbox) != 4:
                raise DataError(f"{ctx}: bbox must be a list of 4 integers, got {bbox!r}")
            instances.append(CharacterInstance(
                image_index=idx,
                bbox=tuple(_json_int(b, "bbox value", ctx) for b in bbox),
                sharpness=_json_finite(inst.get("sharpness", 0.0), "sharpness", ctx),
            ))
        gender = ch.get("gender", "unknown")
        if gender not in ("male", "female", "unknown"):
            raise DataError(f"{ctx} character {char_id}: bad gender {gender!r}")
        characters.append(CharacterRecord(
            char_id=char_id,
            gender=gender,
            instances=instances,
            representative_feat=_feat(ch["representative_feat"],
                                      f"{ctx} character {char_id}", dim),
        ))

    objects = []
    for ob in payload.get("objects") or []:
        object_id = text_field(ob["object_id"], f"{ctx}: object_id")
        objects.append(ObjectRecord(object_id=object_id,
                                    feat=_feat(ob["feat"], f"{ctx} object {object_id}", dim)))

    stories = []
    for st in payload.get("stories") or []:
        raw_text = text_field(st["raw_text"], "raw_text")
        spans = [_entity_span(s, raw_text, ctx) for s in st.get("entity_spans", [])]
        srl = None
        if st.get("srl") is not None:
            srl = [SrlEvent(predicate=text_field(ev["predicate"], "predicate"),
                            args={k: string_list(v, f"{ctx}: SRL argument {k!r}")
                                  for k, v in ev.get("args", {}).items()})
                   for ev in st["srl"]]
        stories.append(StoryRecord(raw_text=raw_text, entity_spans=spans, srl=srl,
                                   tokens=_story_tokens(st.get("tokens"), ctx)))
    return ImageSequenceRecord(id=seq_id, images=images, characters=characters,
                               objects=objects, stories=stories)


def record_to_dict(rec: ImageSequenceRecord) -> dict:
    return {
        "id": rec.id,
        "images": [{"image_id": im.image_id, "global_feat": im.global_feat.tolist()}
                   for im in rec.images],
        "characters": [{
            "char_id": ch.char_id,
            "gender": ch.gender,
            "instances": [{"image_index": i.image_index, "bbox": list(i.bbox),
                           "sharpness": i.sharpness} for i in ch.instances],
            "representative_feat": ch.representative_feat.tolist(),
        } for ch in rec.characters],
        "objects": [{"object_id": ob.object_id, "feat": ob.feat.tolist()}
                    for ob in rec.objects],
        "stories": [{
            "raw_text": st.raw_text,
            "entity_spans": [{"start": s.start, "end": s.end, "kind": s.kind,
                              "name": s.name} for s in st.entity_spans],
            "srl": None if st.srl is None else [
                {"predicate": ev.predicate, "args": ev.args} for ev in st.srl],
            "tokens": st.tokens,
        } for st in rec.stories],
    }


def load_dataset(path: str | Path) -> list[ImageSequenceRecord]:
    seen: set[str] = set()

    def record(payload: dict) -> ImageSequenceRecord:
        rec = record_from_dict(payload)
        if rec.id in seen:
            raise DataError(f"duplicate sequence id {rec.id!r}")
        seen.add(rec.id)
        return rec
    return read_jsonl(path, record, "record")


def save_dataset(records: list[ImageSequenceRecord], path: str | Path) -> None:
    write_jsonl(path, records, record_to_dict)


# --- the prepare pipeline ---------------------------------------------------

@dataclass
class PreparedDataset:
    splits: dict[str, list[ImageSequenceRecord]]
    vocab: Vocabulary
    name_pools: dict[str, list[str]]  # male/female/location names seen in anonymization


def prepare_records(records: list[ImageSequenceRecord],
                    gender_table: dict[str, tuple[int, int]] | None = None,
                    *, seed: int = 0, val_count: int = 0, test_count: int = 0,
                    min_freq: int = 1) -> PreparedDataset:
    """Anonymize, tokenize (with [sent] section separators), split, build the
    vocabulary on the train split, and encode story tokens everywhere.

    Collects the names the anonymizer replaced so they can later realize
    placeholders in generated stories.
    """
    pools: dict[str, list[str]] = {"male": [], "female": [], "location": []}

    def remember(pool: str, name: str) -> None:
        if name not in pools[pool]:
            pools[pool].append(name)

    processed: list[ImageSequenceRecord] = []
    for rec in records:
        stories = []
        for story in rec.stories:
            anon, mapping = anonymize(story, gender_table)
            for placeholder, name in mapping.persons.items():
                remember(mapping.genders[placeholder], name)
            for name in mapping.locations:
                remember("location", name)
            surface = story_surface_tokens(anon.raw_text)
            sections = surface.count(SENT) + 1
            if sections > len(rec.images):
                raise DataError(
                    f"sequence {rec.id}: {sections} story sections exceed {len(rec.images)} images")
            stories.append(StoryRecord(raw_text=anon.raw_text, entity_spans=[],
                                       srl=story.srl, tokens=surface))
        processed.append(ImageSequenceRecord(rec.id, rec.images, rec.characters,
                                             rec.objects, stories))

    splits = split_dataset(processed, seed=seed, val_count=val_count, test_count=test_count)
    train_tokens = [story.tokens for rec in splits["train"] for story in rec.stories]
    vocab = build_vocab(train_tokens or [[]], min_freq=min_freq)
    for part in splits.values():
        for rec in part:
            for story in rec.stories:
                story.tokens = vocab.encode(story.tokens)
    return PreparedDataset(splits=splits, vocab=vocab, name_pools=pools)
