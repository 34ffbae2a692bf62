"""Grid-conditioned causal transformer for story generation.

One causal stream: encoded image tokens, then character/object tokens, then
(optionally) a single token carrying the flattened similarity grid, then
[BOS] and the story. Every position gets a learned absolute position
embedding and one of four segment embeddings (image/character/grid/text).
Pre-LN GPT-2 style blocks; loss is masked cross-entropy on story positions.

Every forward input comes from ``assemble_input``, which builds the padded
batch straight from its (record, story) pairs with index arithmetic:
training and scoring batches, and decoding's prefixes, which are records
with empty stories. The tests hold it to a per-sequence reference, bit for
bit.

The parameters live in one ``ParamStore`` buffer, allocated once:
``build_model`` draws each parameter into its view, ``load_checkpoint``
reads each payload into its view, and ``save_checkpoint`` writes each view
to the file, so no path copies the parameters in transit.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .chargrid import GRID_COLUMNS, entity_columns, flatten_pad, grid_for_mode
from .corpus import MAX_CHARACTERS, MAX_IMAGES, ImageSequenceRecord
from .errors import DataError, NumericError, UsageError
from .numerics import ParamStore, Tensor

GRID_MODES = ("none", *GRID_COLUMNS)
FEATURES = ("global", "char", "obj")
SEG_IMAGE, SEG_CHAR, SEG_GRID, SEG_TEXT = 0, 1, 2, 3

CHECKPOINT_MAGIC = b"VWPCKPT1"

# sequences per no-grad forward, in held-out scoring and in decoding: the
# planted run's batch size
EVAL_SLICE = 16

# how canonical_text's value of a field (by its annotation) is read back
_FIELD_PARSERS = {"int": int, "float": float, "str": str,
                  "tuple[str, ...]": lambda text: tuple(text.split(","))}


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    feat_dim: int
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0  # 0 means 4 * d_model
    t_max: int = 256
    n_max: int = MAX_IMAGES
    m_max: int = MAX_CHARACTERS
    o_max: int = 20
    feature_set: tuple[str, ...] = ("global",)
    grid_mode: str = "none"
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "feature_set", tuple(sorted(set(self.feature_set))))
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        for name in ("vocab_size", "feat_dim", "d_model", "n_layers", "n_heads", "d_ff",
                     "t_max", "n_max", "m_max", "o_max"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise UsageError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if "global" not in self.feature_set:
            raise UsageError("feature_set must include 'global'")
        for feat in self.feature_set:
            if feat not in FEATURES:
                raise UsageError(f"unknown feature {feat!r}")
        if self.grid_mode not in GRID_MODES:
            raise UsageError(f"unknown grid_mode {self.grid_mode!r}")
        for feat in GRID_COLUMNS.get(self.grid_mode, ()):
            if feat not in self.feature_set:
                raise UsageError(f"grid_mode {self.grid_mode!r} requires feature {feat!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout {self.dropout} outside [0, 1)")

    @property
    def grid_len(self) -> int:
        return self.n_max * self.m_max

    @property
    def n_positions(self) -> int:
        # fixed across variants: frame capacity + grid slot + [BOS] + text budget
        return self.n_max + self.m_max + self.o_max + 2 + self.t_max

    def canonical_text(self) -> str:
        """One ``name=value`` line per field, sorted by name: a tuple
        comma-joined, any other value by ``str`` (a float's shortest repr)."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            text = ",".join(value) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name}={text}\n")
        return "".join(lines)

    @classmethod
    def from_canonical_text(cls, text: str) -> "ModelConfig":
        raw: dict[str, str] = {}
        for line in text.splitlines():
            if line.strip():
                key, _, value = line.partition("=")
                raw[key] = value
        missing = [f.name for f in fields(cls) if f.name not in raw]
        if missing:
            raise DataError(f"checkpoint config missing field {missing[0]!r}")
        return cls(**{f.name: _FIELD_PARSERS[f.type](raw[f.name]) for f in fields(cls)})


@dataclass
class StoryGenModel:
    config: ModelConfig
    store: ParamStore

    def param(self, name: str) -> Tensor:
        return self.store[name]


def _param_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init kind) for every parameter, in a fixed order."""
    d, dff = config.d_model, config.d_ff
    spec: list[tuple[str, tuple[int, ...], str]] = [
        ("enc_global.w", (config.feat_dim, d), "normal"),
        ("enc_global.b", (d,), "zeros"),
    ]
    if "char" in config.feature_set or "obj" in config.feature_set:
        spec += [("enc_entity.w", (config.feat_dim, d), "normal"),
                 ("enc_entity.b", (d,), "zeros")]
    if config.grid_mode != "none":
        spec += [("enc_grid.w", (config.grid_len, d), "normal"),
                 ("enc_grid.b", (d,), "zeros")]
    spec += [
        ("tok_emb", (config.vocab_size, d), "normal"),
        ("pos_emb", (config.n_positions, d), "normal"),
        ("seg_emb", (4, d), "normal"),
    ]
    for i in range(config.n_layers):
        p = f"block{i}."
        spec += [
            (p + "ln1.g", (d,), "ones"), (p + "ln1.b", (d,), "zeros"),
            (p + "attn.wq", (d, d), "normal"), (p + "attn.bq", (d,), "zeros"),
            (p + "attn.wk", (d, d), "normal"), (p + "attn.bk", (d,), "zeros"),
            (p + "attn.wv", (d, d), "normal"), (p + "attn.bv", (d,), "zeros"),
            (p + "attn.wo", (d, d), "normal"), (p + "attn.bo", (d,), "zeros"),
            (p + "ln2.g", (d,), "ones"), (p + "ln2.b", (d,), "zeros"),
            (p + "mlp.w1", (d, dff), "normal"), (p + "mlp.b1", (dff,), "zeros"),
            (p + "mlp.w2", (dff, d), "normal"), (p + "mlp.b2", (d,), "zeros"),
        ]
    spec += [
        ("ln_f.g", (d,), "ones"), ("ln_f.b", (d,), "zeros"),
        ("out.w", (d, config.vocab_size), "normal"), ("out.b", (config.vocab_size,), "zeros"),
    ]
    return spec


def build_model(config: ModelConfig) -> StoryGenModel:
    """Seed-deterministic initialization: normal(0, 0.02) weights, zero
    biases, unit layer-norm gains. Each parameter draws from an rng keyed on
    (seed, name), so shared parameters initialize identically across
    variants with the same seed. Every value is written straight into its
    view of the store's one buffer."""
    spec = _param_spec(config)
    store = ParamStore({name: shape for name, shape, _ in spec})
    for name, _, kind in spec:
        view = store[name].data
        if kind == "normal":
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, zlib.crc32(name.encode()))))
            # rng.normal(0.0, 0.02)'s own arithmetic, 0.0 + 0.02 z, in place
            rng.standard_normal(out=view)
            view *= 0.02
            view += 0.0
        else:
            view.fill(1.0 if kind == "ones" else 0.0)
    return StoryGenModel(config=config, store=store)


@dataclass
class BatchLayout:
    """The model's input: sequences right-padded to a common ``width`` and
    stacked example-major, so row ``b * width + t`` holds position t of
    sequence b. Every forward takes one; a single sequence is a batch of
    one, with ``width`` equal to its length and no pad rows.

    The model encodes the conditioning rows of every sequence (images, then
    entities, then grids) and embeds all text tokens, stacks those four
    blocks in that order, and ``rows`` picks each padded row's source row
    from the stack (None when the stack is already in padded order, as for a
    single sequence). Pad rows copy row 0 and carry no loss (target -1).
    They sit after every real row of their sequence, so the causal mask
    already hides them from real rows.
    """
    lengths: np.ndarray                       # real positions per sequence
    width: int
    token_ids: np.ndarray                     # every sequence's text tokens, concatenated
    positions: np.ndarray                     # (B * width,)
    segments: np.ndarray                      # (B * width,)
    rows: np.ndarray | None = None            # (B * width,) source row in the stack
    image_feats: np.ndarray | None = None     # every sequence's image rows, concatenated
    entity_feats: np.ndarray | None = None
    grid_vecs: np.ndarray | None = None       # (sequences with a grid, n_max * m_max)
    targets: np.ndarray | None = None         # (B * width,), -1 on rows with no loss
    loss_weights: np.ndarray | None = None    # (B, B * width): 1 / story length on a sequence's loss rows

    @property
    def length(self) -> int:
        """Real positions across the batch; pad rows do not count."""
        return int(self.lengths.sum())


def text_step(token_ids, position: int) -> BatchLayout:
    """One text token per sequence, each at absolute ``position``: the batch
    of one-row sequences a decode step forwards over a KV cache, with no
    conditioning rows and no loss."""
    token_ids = np.array(token_ids, dtype=np.intp).reshape(-1)
    rows = token_ids.size
    # arrays from short lists: cheaper than np.ones / np.full at one row
    return BatchLayout(lengths=np.array([1] * rows, dtype=np.intp), width=1,
                       token_ids=token_ids,
                       positions=np.array([position] * rows, dtype=np.intp),
                       segments=np.array([SEG_TEXT] * rows, dtype=np.intp))


class KVCache:
    """Keys and values of every position forwarded so far, per layer and
    sequence, in buffers sized for ``positions`` per sequence (by default
    the model's full position range). The ``batch`` cached sequences all
    hold ``length`` positions."""

    def __init__(self, config: ModelConfig, batch: int = 1, positions: int | None = None):
        if positions is None:
            positions = config.n_positions
        shape = (config.n_layers, batch, positions, config.d_model)
        self.keys = np.zeros(shape)
        self.values = np.zeros(shape)
        self.batch = batch
        self.length = 0

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Store ``layer``'s keys and values of the rows after ``length`` (the
        new positions of each sequence, example-major); return views of that
        layer's keys and values of every position up to them, (batch,
        positions, d)."""
        b, d = self.batch, k.data.shape[1]
        end = self.length + k.data.shape[0] // b
        if end > self.keys.shape[2]:
            raise NumericError(f"KVCache: {end} positions exceed its capacity of "
                               f"{self.keys.shape[2]}")
        self.keys[layer, :b, self.length:end] = k.data.reshape(b, -1, d)
        self.values[layer, :b, self.length:end] = v.data.reshape(b, -1, d)
        return self.keys[layer, :b, :end], self.values[layer, :b, :end]

    def keep(self, rows) -> None:
        """Keep only the cached sequences at ``rows``, in that order."""
        n = len(rows)
        self.keys[:, :n, :self.length] = self.keys[:, rows, :self.length]
        self.values[:, :n, :self.length] = self.values[:, rows, :self.length]
        self.batch = n


def _conditioning_rows(seq: ImageSequenceRecord, story_tokens: list[int],
                       config: ModelConfig) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A sequence's image rows and entity rows, once it passes the checks of
    every sequence the model takes: frame capacities, story budget and
    feature width. A grid's columns are checked where the grid is built,
    in ``grid_for_mode``."""
    n_img = len(seq.images)
    if n_img > config.n_max:
        raise DataError(f"sequence {seq.id}: {n_img} images exceed n_max {config.n_max}")
    if len(story_tokens) > config.t_max:
        raise DataError(f"sequence {seq.id}: story length {len(story_tokens)} exceeds t_max {config.t_max}")
    if "char" in config.feature_set and len(seq.characters) > config.m_max:
        raise DataError(f"sequence {seq.id}: {len(seq.characters)} characters exceed m_max {config.m_max}")
    if "obj" in config.feature_set and len(seq.objects) > config.o_max:
        raise DataError(f"sequence {seq.id}: {len(seq.objects)} objects exceed o_max {config.o_max}")
    image_rows = [im.global_feat for im in seq.images]
    entity_rows = entity_columns(seq, config.feature_set)[1]
    for feat in image_rows + entity_rows:
        if feat.shape != (config.feat_dim,):
            raise DataError(f"sequence {seq.id}: features are {feat.shape[0]} wide, not feat_dim {config.feat_dim}")
    return image_rows, entity_rows


def prefix_width(seq: ImageSequenceRecord, config: ModelConfig) -> int:
    """Rows of ``seq``'s decode prefix: its images, its entity rows, its grid
    slot if the model has one, then [BOS]."""
    n_grid = 0 if config.grid_mode == "none" else 1
    return len(seq.images) + len(entity_columns(seq, config.feature_set)[0]) + n_grid + 1


def assemble_input(examples: list[tuple[ImageSequenceRecord, list[int]]], config: ModelConfig,
                   bos_id: int) -> BatchLayout:
    """The padded batch of (record, story) pairs that every forward takes:
    per sequence images ++ characters/objects ++ grid? ++ [BOS] ++ story,
    with a loss on every story-prediction row. An empty story is a decode
    prefix: the conditioning rows and [BOS], with no loss rows.

    The image rows and the entity rows of the batch are each stacked in one
    array build, each record's grid comes from ``grid_for_mode``, and every
    per-row field is index arithmetic on the per-sequence block sizes. A
    block with no rows in the batch (entities, grids) is None.
    """
    if not examples:
        raise DataError("assemble_input: no examples")
    n_grid = 0 if config.grid_mode == "none" else 1
    image_rows, entity_rows, grid_rows, token_ids, sizes = [], [], [], [], []
    for seq, story in examples:
        images, entities = _conditioning_rows(seq, story, config)
        image_rows += images
        entity_rows += entities
        if n_grid:
            grid = grid_for_mode(seq, config.grid_mode, config.n_max, config.m_max)
            grid_rows.append(flatten_pad(grid, config.n_max, config.m_max))
        token_ids += [bos_id, *story]
        sizes.append((len(images), len(entities), n_grid, 1 + len(story)))

    # rows of each sequence (axis 0) in each block of the stack (axis 1);
    # segment ids number the blocks in stack order
    counts = np.array(sizes, dtype=np.intp)
    n = len(examples)
    lengths = counts.sum(axis=1)
    width = int(lengths.max())
    total = n * width
    # real row i, counted sequence by sequence, is padded row dest[i]
    runs = counts.ravel()
    real = np.arange(lengths.sum())
    dest = real + np.repeat(np.arange(n) * width - (np.cumsum(lengths) - lengths), lengths)
    positions = np.zeros(total, dtype=np.intp)
    positions[dest] = dest - np.repeat(np.arange(n) * width, lengths)
    segments = np.zeros(total, dtype=np.intp)
    segments[dest] = np.repeat(np.arange(4 * n) % 4, runs)  # blocks 0..3 of each sequence

    # text row i holds token_ids[i]; all but each sequence's last predict the next
    text = np.flatnonzero(segments == SEG_TEXT)
    tokens = np.array(token_ids, dtype=np.intp)
    predicts = np.ones(tokens.size, dtype=bool)
    predicts[np.cumsum(counts[:, SEG_TEXT]) - 1] = False
    loss_rows = text[predicts]
    targets = np.full(total, -1, dtype=np.intp)
    targets[loss_rows] = tokens[1:][predicts[:-1]]
    owner = loss_rows // width
    loss_weights = np.zeros((n, total))
    loss_weights[owner, loss_rows] = 1.0 / (counts[owner, SEG_TEXT] - 1)

    rows = None
    if n > 1:
        # real row i is stack row src[i]: entry i of the runs laid end to end,
        # where a run of rows starts after its block's rows of every earlier
        # sequence
        block_sizes = counts.sum(axis=0)
        run_starts = (np.cumsum(block_sizes) - block_sizes + np.cumsum(counts, axis=0)
                      - counts).ravel()
        src = real + np.repeat(run_starts - (np.cumsum(runs) - runs), runs)
        rows = np.zeros(total, dtype=np.intp)
        rows[dest] = src
    return BatchLayout(lengths=lengths, width=width, token_ids=tokens, positions=positions,
                       segments=segments, rows=rows, image_feats=np.array(image_rows),
                       entity_feats=np.array(entity_rows) if entity_rows else None,
                       grid_vecs=np.array(grid_rows) if n_grid else None, targets=targets,
                       loss_weights=loss_weights)


def _causal_mask(length: int, past: int) -> np.ndarray:
    """(length, past + length): row r sits at position past + r and sees
    every position up to its own."""
    if length == 1:  # a decode step's one row sees every key
        return np.zeros((1, past + 1))
    return np.triu(np.full((length, past + length), -1e30), k=past + 1)


def forward_logits(model: StoryGenModel, batch: BatchLayout, *,
                   rng: np.random.Generator | None = None,
                   cache: KVCache | None = None) -> Tensor:
    """Logits under causal self-attention. The forward trains exactly when
    it is handed ``rng``: embedding, residual and attention dropout draw
    their masks from it at ``cfg.dropout``.

    Without a cache ``batch`` holds whole sequences (from ``assemble_input``)
    and the logits are (B * width x vocab), one row per padded position;
    training, losses and teacher-forced evaluation all take this path.

    With a ``KVCache`` the batch holds one unpadded sequence per cached one,
    each holding only the positions that follow those already cached (the
    conditioning prefixes first, then one ``text_step`` per token), and the
    logits are (B x vocab): the row of each sequence's last position, the
    only one a decoder reads. Each layer projects and stores the keys and
    values of every new row, and its new queries attend over their
    sequence's cached keys/values plus the new ones under a (new, past +
    new) causal mask; the last layer takes its queries, and everything
    after them, from each sequence's last row only. The cache's contents
    and every one-row step are bitwise the uncached forward's. A prefix's
    logits may differ from the uncached forward's last row in the last bits
    (within 1e-12): one query row takes BLAS's matrix-vector kernel, which
    sums in another order than the matrix-matrix one. Every cached sequence
    grows by ``batch.width``. A cache is for inference only, so it is
    refused together with ``rng``.
    """
    cfg = model.config
    p = model.param
    past = 0
    if cache is not None:
        if rng is not None:
            raise NumericError("forward_logits: a KV cache is for inference only")
        past, rows, width = cache.length, cache.batch, batch.width
        # one unpadded sequence per cached one, each continuing at ``past``
        if (batch.lengths.size != rows or batch.positions.shape != (rows * width,)
                or batch.lengths.min() != width
                or (batch.positions.reshape(rows, width) != np.arange(past, past + width)).any()):
            raise NumericError(f"forward_logits: positions of {batch.lengths.size} sequences do "
                               f"not all follow the {past} cached ones of {cache.batch}")

    parts = []
    if batch.image_feats is not None:
        parts.append(nm.matmul(Tensor(batch.image_feats), p("enc_global.w"), p("enc_global.b")))
    if batch.entity_feats is not None:
        parts.append(nm.matmul(Tensor(batch.entity_feats), p("enc_entity.w"), p("enc_entity.b")))
    if batch.grid_vecs is not None:
        parts.append(nm.matmul(Tensor(batch.grid_vecs), p("enc_grid.w"), p("enc_grid.b")))
    parts.append(nm.embedding(p("tok_emb"), batch.token_ids))

    x = nm.concat_rows(parts)
    if batch.rows is not None:
        x = nm.embedding(x, batch.rows)  # a row gather into padded order
    x = nm.add(x, nm.embedding(p("pos_emb"), batch.positions))
    x = nm.add(x, nm.embedding(p("seg_emb"), batch.segments))
    x = nm.dropout(x, cfg.dropout, rng)

    mask = _causal_mask(batch.width, past)
    for i in range(cfg.n_layers):
        b = f"block{i}."
        h = nm.layer_norm(x, p(b + "ln1.g"), p(b + "ln1.b"))
        k = nm.matmul(h, p(b + "attn.wk"), p(b + "attn.bk"))
        v = nm.matmul(h, p(b + "attn.wv"), p(b + "attn.bv"))
        if cache is not None:
            k, v = cache.extend(i, k, v)
            if i == cfg.n_layers - 1 and batch.width > 1:
                # only each sequence's last row is read from here on; it
                # sees every key, so the last mask row is all zeros
                ends = np.arange(1, batch.lengths.size + 1) * batch.width - 1
                x, h, mask = nm.embedding(x, ends), nm.embedding(h, ends), mask[-1:]
        q = nm.matmul(h, p(b + "attn.wq"), p(b + "attn.bq"))
        heads = nm.attention(q, k, v, mask, cfg.n_heads, dropout=cfg.dropout, rng=rng)
        # branch outputs stay unnamed, so each is freed once added in
        x = nm.add(x, nm.dropout(nm.matmul(heads, p(b + "attn.wo"), p(b + "attn.bo")),
                                 cfg.dropout, rng))

        h = nm.layer_norm(x, p(b + "ln2.g"), p(b + "ln2.b"))
        inner = nm.gelu(nm.matmul(h, p(b + "mlp.w1"), p(b + "mlp.b1")))
        x = nm.add(x, nm.dropout(nm.matmul(inner, p(b + "mlp.w2"), p(b + "mlp.b2")),
                                 cfg.dropout, rng))

    x = nm.layer_norm(x, p("ln_f.g"), p("ln_f.b"))
    logits = nm.matmul(x, p("out.w"), p("out.b"))
    if not np.isfinite(logits.data).all():
        raise NumericError("forward_logits: non-finite activation")
    if cache is not None:
        cache.length += batch.width
    return logits


def story_loss(model: StoryGenModel, seq: ImageSequenceRecord, story_tokens: list[int],
               bos_id: int, *, rng: np.random.Generator | None = None) -> Tensor:
    """Masked cross-entropy over story positions (targets shifted by one):
    the one-example case of ``story_losses``."""
    if not story_tokens:
        raise DataError(f"sequence {seq.id}: empty story has no loss positions")
    layout = assemble_input([(seq, story_tokens)], model.config, bos_id)
    logits = forward_logits(model, layout, rng=rng)
    return nm.cross_entropy_masked(logits, layout.targets)


def story_losses(model: StoryGenModel,
                 examples: list[tuple[ImageSequenceRecord, list[int]]], bos_id: int, *,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Each example's ``story_loss`` from one forward pass over the padded
    batch of ``assemble_input``: a vector with one mean masked cross-entropy
    per example."""
    for seq, story in examples:
        if not story:
            raise DataError(f"sequence {seq.id}: empty story has no loss positions")
    batch = assemble_input(examples, model.config, bos_id)
    logits = forward_logits(model, batch, rng=rng)
    return nm.cross_entropy_masked(logits, batch.targets, batch.loss_weights)


# --- checkpoint io ------------------------------------------------------------

def _record_header(name: str, shape: tuple[int, ...]) -> bytes:
    """The bytes before a parameter's payload in a checkpoint: u32 name
    length, the UTF-8 name, u32 rank, then one u32 per extent."""
    blob = name.encode("utf-8")
    return struct.pack(f"<I{len(blob)}sI{len(shape)}I", len(blob), blob, len(shape), *shape)


def save_checkpoint(model: StoryGenModel, path) -> None:
    """Magic, length-prefixed canonical config text, then the parameters in
    name order, each as its ``_record_header`` and its <f8 data. Each
    parameter's bytes go from its view straight to the file."""
    # write beside the target, then rename over it: a crash mid-write never
    # leaves a truncated checkpoint at ``path``
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            config_blob = model.config.canonical_text().encode("utf-8")
            fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(config_blob)) + config_blob)
            for name in sorted(model.store.params):
                data = model.store[name].data
                fh.write(_record_header(name, data.shape))
                fh.write(data.astype("<f8", copy=False))  # a copy on big-endian hosts only
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> StoryGenModel:
    """Read a checkpoint written by ``save_checkpoint``: each payload goes
    straight into its parameter's view of a store allocated once.

    A truncated or otherwise malformed file raises DataError, and before it
    allocates for or reads anything the file claims: the file must be
    exactly as long as its config's parameters make a checkpoint, and each
    record, in name order, must start with its parameter's
    ``_record_header`` before its payload is read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic)")

        def read(n: int) -> bytes:
            if n > size - fh.tell():
                raise DataError(f"{path}: truncated checkpoint")
            return fh.read(n)

        (config_length,) = struct.unpack("<I", read(4))
        config_blob = read(config_length)
        try:
            config = ModelConfig.from_canonical_text(config_blob.decode("utf-8"))
        except (ValueError, UsageError) as exc:  # a UnicodeDecodeError is a ValueError
            raise DataError(f"{path}: malformed checkpoint config ({exc})") from exc
        # each layer adds 16 records of more than 16 bytes, so a config that
        # claims more layers than the file can hold fails before its spec
        # is listed
        if 16 * 16 * config.n_layers > size:
            raise DataError(f"{path}: {size} bytes cannot hold {config.n_layers} layers")
        shapes = {name: shape for name, shape, _ in _param_spec(config)}
        try:
            headers = {name: _record_header(name, shapes[name]) for name in sorted(shapes)}
        except struct.error as exc:  # an extent that no u32 holds
            raise DataError(f"{path}: malformed checkpoint config ({exc})") from exc
        want = fh.tell() + sum(len(header) + 8 * math.prod(shapes[name])
                               for name, header in headers.items())
        if size != want:
            raise DataError(f"{path}: {size} bytes, but its config's parameters "
                            f"make a {want}-byte checkpoint")
        store = ParamStore(shapes)
        for name, header in headers.items():
            offset = fh.tell()
            if read(len(header)) != header:
                raise DataError(f"{path}: byte {offset} does not start the header of "
                                f"{name!r} {shapes[name]}, the next parameter in name order")
            view = store[name].data
            if fh.readinto(view) != view.nbytes:
                raise DataError(f"{path}: truncated payload for {name!r}")
            if sys.byteorder == "big":
                view.byteswap(inplace=True)  # the file's floats are little-endian
    return StoryGenModel(config=config, store=store)
