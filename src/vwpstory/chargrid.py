"""The images-by-characters similarity grid and its fixed-frame layout.

Cell (a, b) is the plain dot product of image a's global feature vector
and character b's representative feature vector: high values mark images
where that character carries narrative weight. Columns can equally hold
object features (object grid) or characters followed by objects (entity
grid). Accumulation is explicit left-to-right so results are reproducible
bit for bit.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .corpus import ImageSequenceRecord
from .errors import DataError

N_MAX_DEFAULT = 10
M_MAX_DEFAULT = 5
SHADE_CHARS = " .:*#"  # 5 min-max normalized buckets, light to dark


@dataclass
class CharacterGrid:
    values: np.ndarray  # (N images, M columns) float64
    image_ids: list[str]
    column_ids: list[str]

    @property
    def n_images(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.values.shape[1])


def _grid_from_features(image_ids, image_feats, column_ids, column_feats,
                        n_max: int, m_max: int) -> CharacterGrid:
    if len(image_feats) > n_max:
        raise DataError(f"{len(image_feats)} images exceed grid frame height {n_max}")
    if len(column_feats) > m_max:
        raise DataError(f"{len(column_feats)} columns exceed grid frame width {m_max}")
    dims = {f.shape[0] for f in image_feats} | {f.shape[0] for f in column_feats}
    if len(dims) > 1:
        raise DataError(f"feature dimensions differ: {sorted(dims)}")
    width = dims.pop() if dims else 0
    images = np.asarray(image_feats, dtype=np.float64).reshape(len(image_feats), width)
    columns = np.asarray(column_feats, dtype=np.float64).reshape(len(column_feats), width)
    if width == 0:
        values = np.zeros((len(images), len(columns)))
    else:
        # cumsum adds each cell's products one by one, left to right, as a
        # loop from 0.0 would; "+ 0.0" maps an all -0.0 sum to +0.0 as 0.0 + ... does
        values = np.cumsum(images[:, None, :] * columns[None, :, :], axis=2)[..., -1] + 0.0
    return CharacterGrid(values=values, image_ids=list(image_ids),
                         column_ids=list(column_ids))


def compute_grid(seq: ImageSequenceRecord, n_max: int = N_MAX_DEFAULT,
                 m_max: int = M_MAX_DEFAULT) -> CharacterGrid:
    """Character grid: one column per character, rows in image order."""
    return _grid_from_features(
        [im.image_id for im in seq.images],
        [im.global_feat for im in seq.images],
        [ch.char_id for ch in seq.characters],
        [ch.representative_feat for ch in seq.characters],
        n_max, m_max)


def compute_object_grid(seq: ImageSequenceRecord, n_max: int = N_MAX_DEFAULT,
                        m_max: int = M_MAX_DEFAULT) -> CharacterGrid:
    """Same construction over detected-object features."""
    return _grid_from_features(
        [im.image_id for im in seq.images],
        [im.global_feat for im in seq.images],
        [ob.object_id for ob in seq.objects],
        [ob.feat for ob in seq.objects],
        n_max, m_max)


def compute_entity_grid(seq: ImageSequenceRecord, n_max: int = N_MAX_DEFAULT,
                        m_max: int = M_MAX_DEFAULT) -> CharacterGrid:
    """Characters first, then objects, as one wider grid."""
    return _grid_from_features(
        [im.image_id for im in seq.images],
        [im.global_feat for im in seq.images],
        [ch.char_id for ch in seq.characters] + [ob.object_id for ob in seq.objects],
        [ch.representative_feat for ch in seq.characters] + [ob.feat for ob in seq.objects],
        n_max, m_max)


def grid_for_mode(seq: ImageSequenceRecord, mode: str, n_max: int = N_MAX_DEFAULT,
                  m_max: int = M_MAX_DEFAULT) -> CharacterGrid:
    if mode == "char":
        return compute_grid(seq, n_max, m_max)
    if mode == "obj":
        return compute_object_grid(seq, n_max, m_max)
    if mode == "entity":
        return compute_entity_grid(seq, n_max, m_max)
    raise DataError(f"unknown grid mode {mode!r}")


def flatten_pad(grid: CharacterGrid, n_max: int = N_MAX_DEFAULT,
                m_max: int = M_MAX_DEFAULT) -> np.ndarray:
    """Row-major layout into a fixed n_max x m_max frame, zeros elsewhere.

    Cell (a, b) lands at index a * m_max + b; absent cells stay zero, so an
    undersized grid is indistinguishable from a full frame padded with
    zero-importance cells.
    """
    n, m = grid.values.shape
    if n > n_max or m > m_max:
        raise DataError(f"grid {n}x{m} exceeds frame {n_max}x{m_max}")
    frame = np.zeros((n_max, m_max))
    frame[:n, :m] = grid.values
    return frame.reshape(-1)


def shade_buckets(grid: CharacterGrid) -> np.ndarray:
    """Min-max normalized 5-level buckets; a constant grid is all bucket 0."""
    lo = grid.values.min() if grid.values.size else 0.0
    hi = grid.values.max() if grid.values.size else 0.0
    if hi <= lo:
        return np.zeros(grid.values.shape, dtype=int)
    scaled = (grid.values - lo) / (hi - lo)
    return np.minimum((scaled * 5).astype(int), 4)


def grid_csv(grid: CharacterGrid) -> str:
    """Deterministic CSV, images as rows; floats via repr so they re-parse
    to the exact same values."""
    out = io.StringIO()
    out.write("image_id," + ",".join(grid.column_ids) + "\n")
    for image_id, row in zip(grid.image_ids, grid.values):
        out.write(image_id + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def grid_heat_table(grid: CharacterGrid) -> str:
    """Aligned text table; darker shade marks higher similarity."""
    buckets = shade_buckets(grid)
    col_width = max([len(c) for c in grid.column_ids] + [1])
    id_width = max([len(i) for i in grid.image_ids] + [len("image")])
    lines = [" " * id_width + " | " + " ".join(c.rjust(col_width) for c in grid.column_ids)]
    lines.append("-" * len(lines[0]))
    for image_id, row in zip(grid.image_ids, buckets):
        cells = " ".join((SHADE_CHARS[b] * 3).rjust(col_width) for b in row)
        lines.append(image_id.rjust(id_width) + " | " + cells)
    lines.append(f"shade scale (low to high): {' '.join(SHADE_CHARS)}")
    return "\n".join(lines) + "\n"


def parse_grid_csv(text: str) -> CharacterGrid:
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    if header[0] != "image_id":
        raise DataError("grid CSV must start with an image_id column")
    column_ids = header[1:]
    image_ids, rows = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        image_ids.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    values = np.asarray(rows, dtype=np.float64).reshape(len(image_ids), len(column_ids))
    return CharacterGrid(values=values, image_ids=image_ids, column_ids=column_ids)
