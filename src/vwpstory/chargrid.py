"""The images-by-characters similarity grid and its fixed-frame layout.

Cell (a, b) is the plain dot product of image a's global feature vector
and column b's feature vector: high values mark images where that entity
carries narrative weight. ``GRID_COLUMNS`` names each grid mode's columns:
the characters' representative features, the object features, or both,
characters first. Accumulation is explicit left-to-right so results are
reproducible bit for bit.
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

# grid mode -> the entity kinds its columns hold, characters before objects.
# The model's grid modes, its feature checks and the CLI choices read this.
GRID_COLUMNS = {"char": ("char",), "obj": ("obj",), "entity": ("char", "obj")}


@dataclass
class CharacterGrid:
    values: np.ndarray  # (N images, M columns) float64
    image_ids: list[str]
    column_ids: list[str]


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


def entity_columns(seq: ImageSequenceRecord, kinds) -> tuple[list[str], list[np.ndarray]]:
    """Ids and feature vectors of the entity kinds in ``kinds``: each
    character's ``representative_feat`` ("char"), then each object's
    ``feat`` ("obj"). Other kinds are ignored."""
    ids, feats = [], []
    if "char" in kinds:
        ids += [ch.char_id for ch in seq.characters]
        feats += [ch.representative_feat for ch in seq.characters]
    if "obj" in kinds:
        ids += [ob.object_id for ob in seq.objects]
        feats += [ob.feat for ob in seq.objects]
    return ids, feats


def grid_for_mode(seq: ImageSequenceRecord, mode: str, n_max: int = N_MAX_DEFAULT,
                  m_max: int = M_MAX_DEFAULT) -> CharacterGrid:
    """The grid of the images against the entity columns of ``mode``."""
    if mode not in GRID_COLUMNS:
        raise DataError(f"unknown grid mode {mode!r}")
    column_ids, column_feats = entity_columns(seq, GRID_COLUMNS[mode])
    return _grid_from_features(
        [im.image_id for im in seq.images], [im.global_feat for im in seq.images],
        column_ids, column_feats, n_max, m_max)


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

