import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwpstory import chargrid
from vwpstory.chargrid import (
    GRID_COLUMNS,
    CharacterGrid,
    entity_columns,
    flatten_pad,
    grid_for_mode,
    grid_csv,
    grid_heat_table,
    shade_buckets,
)
from vwpstory.corpus import (
    CharacterInstance,
    CharacterRecord,
    ImageRecord,
    ImageSequenceRecord,
    ObjectRecord,
)
from vwpstory.errors import DataError


def make_seq(image_feats, char_feats, obj_feats=()):
    images = [ImageRecord(image_id=f"im{a}", global_feat=np.asarray(f, dtype=np.float64))
              for a, f in enumerate(image_feats)]
    chars = [
        CharacterRecord(
            char_id=f"c{b}", gender="unknown",
            instances=[CharacterInstance(image_index=0, bbox=(0, 0, 1, 1), sharpness=1.0)],
            representative_feat=np.asarray(f, dtype=np.float64),
        )
        for b, f in enumerate(char_feats)
    ]
    objs = [ObjectRecord(object_id=f"o{k}", feat=np.asarray(f, dtype=np.float64))
            for k, f in enumerate(obj_feats)]
    return ImageSequenceRecord(id="seq", images=images, characters=chars, objects=objs)


def _dot(u, v):
    # left-to-right accumulation from 0.0: the reference for every grid cell
    total = 0.0
    for x, y in zip(u, v):
        total += float(x) * float(y)
    return total


def loop_grid(image_feats, column_feats):
    """Reference grid: one explicit ``_dot`` per cell."""
    values = np.zeros((len(image_feats), len(column_feats)))
    for a, ifeat in enumerate(image_feats):
        for b, cfeat in enumerate(column_feats):
            values[a, b] = _dot(ifeat, cfeat)
    return values


def vector_grid(image_feats, column_feats):
    return grid_for_mode(make_seq(image_feats, column_feats), "char", n_max=16, m_max=16).values


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


class TestComputeGrid:
    def test_zero_character_column(self):
        seq = make_seq([[1.0, 2.0], [3.0, 4.0], [0.5, 0.5]], [[0.0, 0.0], [1.0, 0.0]])
        grid = grid_for_mode(seq, "char")
        np.testing.assert_array_equal(grid.values[:, 0], 0.0)

    def test_unit_vector_identity(self):
        unit = [1.0, 0.0, 0.0]
        seq = make_seq([unit], [unit])
        # single image allowed here: grid construction has no image-count bound
        grid = grid_for_mode(seq, "char")
        assert grid.values[0, 0] == 1.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ifeats = rng.normal(size=(3, 4))
            cfeats = rng.normal(size=(2, 4))
            grid = grid_for_mode(make_seq(ifeats, cfeats), "char")
            for a in range(3):
                for b in range(2):
                    assert grid.values[a, b] == _dot(ifeats[a], cfeats[b])

    def test_dimension_mismatch(self):
        seq = make_seq([[1.0, 2.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(DataError):
            grid_for_mode(seq, "char")

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        ifeats = rng.normal(size=(4, 3))
        cfeats = rng.normal(size=(3, 3))
        base = grid_for_mode(make_seq(ifeats, cfeats), "char")
        perm = [2, 0, 1]
        permuted = grid_for_mode(make_seq(ifeats, cfeats[perm]), "char")
        np.testing.assert_array_equal(permuted.values, base.values[:, perm])

    @given(st.floats(0.1, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_row_scaling_bilinearity(self, s):
        rng = np.random.default_rng(3)
        ifeats = rng.normal(size=(2, 3))
        cfeats = rng.normal(size=(2, 3))
        base = grid_for_mode(make_seq(ifeats, cfeats), "char")
        scaled = grid_for_mode(make_seq(ifeats * s, cfeats), "char")
        np.testing.assert_allclose(scaled.values, base.values * s, rtol=1e-12)


class TestVectorisedGridOracle:
    @pytest.mark.parametrize("width", [8, 512, 2048])
    def test_bit_identical_to_loop(self, width):
        rng = np.random.default_rng(width)
        ifeats = rng.normal(size=(10, width))
        cfeats = rng.normal(size=(5, width)) * rng.choice([1e-8, 1.0, 1e8], size=(5, 1))
        assert_bits_equal(vector_grid(ifeats, cfeats), loop_grid(ifeats, cfeats))

    @pytest.mark.parametrize("n_images,n_columns,width", [(0, 3, 4), (3, 0, 4), (0, 0, 4),
                                                          (3, 2, 0), (0, 0, 0)])
    def test_empty(self, n_images, n_columns, width):
        ifeats = np.ones((n_images, width))
        cfeats = np.ones((n_columns, width))
        assert_bits_equal(vector_grid(ifeats, cfeats), loop_grid(ifeats, cfeats))

    def test_all_zero_products_sum_to_positive_zero(self):
        # every product is -0.0: the loop starts from +0.0 and stays there
        ifeats = np.array([[1.0, -1.0, 2.0], [-0.0, 0.0, -0.0]])
        cfeats = np.array([[-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]])
        expected = loop_grid(ifeats, cfeats)
        assert_bits_equal(vector_grid(ifeats, cfeats), expected)
        assert not np.signbit(expected).any()

    def test_signed_zeros_cancellation_and_specials(self):
        ifeats = np.array([[-0.0, 1e308, 1.0, -1.0], [np.inf, 1.0, 0.0, np.nan]])
        cfeats = np.array([[1.0, 10.0, 1.0, 1.0], [-0.0, 1.0, -1.0, 1.0],
                           [0.0, -1e308, 1e-300, -1e-300]])
        with np.errstate(over="ignore", invalid="ignore"):
            actual = vector_grid(ifeats, cfeats)
        assert_bits_equal(actual, loop_grid(ifeats, cfeats))


def loop_frame(seq, mode, n_max, m_max):
    """Reference frame: ``loop_grid`` of the record's images against its
    mode's columns, laid out by the ``flatten_pad`` rule."""
    values = loop_grid([im.global_feat for im in seq.images],
                       entity_columns(seq, GRID_COLUMNS[mode])[1])
    frame = np.zeros((n_max, m_max))
    frame[:values.shape[0], :values.shape[1]] = values
    return frame.reshape(-1)


def record_frames(seqs, mode, n_max, m_max):
    """Each record's ``grid_for_mode`` grid in its ``flatten_pad`` frame, one
    row per record: the grid rows the model's input builder stacks."""
    return np.array([flatten_pad(grid_for_mode(seq, mode, n_max, m_max), n_max, m_max)
                     for seq in seqs])


class TestStackedGridOracle:
    """The grid rows of a batch, one ``grid_for_mode`` call per record: each
    row must carry the bits of that record's own loop grid."""

    @pytest.mark.parametrize("mode", list(GRID_COLUMNS))
    def test_bit_identical_to_per_record_loop(self, mode):
        rng = np.random.default_rng(5)
        # repeated shapes; (2, 0, 0) and (1, 0, 2) have no char columns
        shapes = [(3, 2, 1), (1, 0, 2), (3, 2, 1), (5, 3, 2), (2, 0, 0), (3, 2, 1), (5, 3, 2)]
        seqs = [make_seq(rng.normal(size=(n, 6)) * rng.choice([1e-8, 1.0, 1e8], size=(n, 1)),
                         rng.normal(size=(m, 6)), obj_feats=rng.normal(size=(o, 6)))
                for n, m, o in shapes]
        # every product -0.0 (the cell must read +0.0), then exact cancellation
        signed = [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
        seqs.append(make_seq([[1.0, -1.0, 2.0, -1.0, 1.0, -1.0], [-0.0] * 6],
                             [signed, [0.0] * 6], obj_feats=[signed]))
        seqs.append(make_seq([[1.0, -1.0, 0.5, 0.0, 3.0, -3.0]] * 2,
                             [[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]],
                             obj_feats=[[2.0, 2.0, 0.0, 0.0, 1.0, 1.0]]))
        frames = record_frames(seqs, mode, n_max=6, m_max=5)
        assert frames.shape == (len(seqs), 30)
        for frame, seq in zip(frames, seqs):
            assert_bits_equal(frame, loop_frame(seq, mode, 6, 5))
        assert not np.signbit(frames[-2:]).any()

    @pytest.mark.parametrize("width", [0, 3])
    def test_zero_columns_and_zero_width_features(self, width):
        seqs = [make_seq(np.ones((n, width)), np.ones((m, width)))
                for n, m in [(2, 0), (2, 3), (1, 1), (2, 3)]]
        frames = record_frames(seqs, "char", n_max=4, m_max=3)
        for frame, seq in zip(frames, seqs):
            assert_bits_equal(frame, loop_frame(seq, "char", 4, 3))

    def test_frame_overflow_is_data_error(self):
        fits = make_seq([[1.0]] * 2, [[1.0]] * 2)
        with pytest.raises(DataError, match="sequence seq: 3 images exceed n_max 2"):
            record_frames([fits, make_seq([[1.0]] * 3, [])], "char", n_max=2, m_max=2)
        with pytest.raises(DataError, match="sequence seq: 3 grid columns exceed m_max 2"):
            record_frames([fits, make_seq([[1.0]], [[1.0]] * 2, obj_feats=[[1.0]])], "entity",
                          n_max=2, m_max=2)


class TestVariantGrids:
    def test_no_objects_zero_columns(self):
        seq = make_seq([[1.0, 0.0]], [[1.0, 1.0]])
        grid = grid_for_mode(seq, "obj")
        assert grid.values.shape == (1, 0)

    def test_entity_grid_concatenates(self):
        seq = make_seq([[1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]], obj_feats=[[2.0, 0.0]])
        grid = grid_for_mode(seq, "entity")
        assert grid.values.shape == (1, 3)
        assert grid.column_ids == ["c0", "c1", "o0"]

    @given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 5),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_entity_grid_is_char_grid_then_object_grid(self, n, m, o, width, seed):
        rng = np.random.default_rng(seed)
        seq = make_seq(rng.normal(size=(n, width)), rng.normal(size=(m, width)),
                       obj_feats=rng.normal(size=(o, width)))
        char, obj = grid_for_mode(seq, "char"), grid_for_mode(seq, "obj")
        entity = grid_for_mode(seq, "entity")
        assert_bits_equal(entity.values, np.concatenate([char.values, obj.values], axis=1))
        assert entity.column_ids == char.column_ids + obj.column_ids
        assert entity.image_ids == char.image_ids == obj.image_ids

    def test_object_grid_matches_brute_force(self):
        rng = np.random.default_rng(17)
        ifeats = rng.normal(size=(2, 5))
        ofeats = rng.normal(size=(3, 5))
        grid = grid_for_mode(make_seq(ifeats, [], obj_feats=ofeats), "obj")
        for a in range(2):
            for k in range(3):
                assert grid.values[a, k] == _dot(ifeats[a], ofeats[k])


class TestFlattenPad:
    def _grid(self, values):
        arr = np.asarray(values, dtype=np.float64)
        return CharacterGrid(values=arr, image_ids=[f"im{i}" for i in range(arr.shape[0])],
                             column_ids=[f"c{j}" for j in range(arr.shape[1])])

    def test_layout_rule(self):
        vec = flatten_pad(self._grid([[1.0, 2.0], [3.0, 4.0]]), n_max=10, m_max=5)
        assert vec.shape == (50,)
        assert (vec[0], vec[1], vec[5], vec[6]) == (1.0, 2.0, 3.0, 4.0)
        others = np.delete(vec, [0, 1, 5, 6])
        np.testing.assert_array_equal(others, 0.0)

    def test_all_zero(self):
        vec = flatten_pad(self._grid(np.zeros((3, 2))))
        np.testing.assert_array_equal(vec, 0.0)

    def test_full_frame_is_plain_copy(self):
        values = np.arange(50, dtype=np.float64).reshape(10, 5)
        np.testing.assert_array_equal(flatten_pad(self._grid(values)), values.reshape(-1))

    def test_oversized_errors(self):
        with pytest.raises(DataError):
            flatten_pad(self._grid(np.zeros((11, 5))))

    def test_injective_for_fixed_occupancy(self):
        a = flatten_pad(self._grid([[1.0, 2.0]]))
        b = flatten_pad(self._grid([[1.0, 3.0]]))
        assert not np.array_equal(a, b)


class TestGridReport:
    def _grid(self, values):
        arr = np.asarray(values, dtype=np.float64)
        return CharacterGrid(values=arr, image_ids=[f"im{i}" for i in range(arr.shape[0])],
                             column_ids=[f"c{j}" for j in range(arr.shape[1])])

    def test_constant_grid_single_bucket(self):
        buckets = shade_buckets(self._grid(np.full((3, 2), 7.0)))
        assert set(buckets.reshape(-1)) == {0}

    def test_increasing_row_monotone_buckets(self):
        buckets = shade_buckets(self._grid([[0.0, 1.0, 2.0, 3.0, 4.0]]))
        row = list(buckets[0])
        assert row == sorted(row)
        assert row[0] == 0 and row[-1] == 4

    @pytest.mark.parametrize("image_ids,column_ids,header_line", [
        (["im0", "im1", "im2"], ["c0", "c1"], "image_id,c0,c1"),
        (['img,"0"', "im\n1", "im2"], ["Ann, the hero", 'say "hi"'],
         'image_id,"Ann, the hero","say ""hi"""'),
    ], ids=["plain", "quoted"])
    def test_csv_round_trip_exact(self, image_ids, column_ids, header_line):
        rng = np.random.default_rng(23)
        grid = CharacterGrid(values=rng.normal(size=(3, 2)) * 1e-7, image_ids=image_ids,
                             column_ids=column_ids)
        text = grid_csv(grid)
        assert text.startswith(header_line + "\n")
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["image_id"] + column_ids
        assert [row[0] for row in rows] == image_ids
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        np.testing.assert_array_equal(values, grid.values)

    def test_heat_table_renders(self):
        text = grid_heat_table(self._grid([[0.0, 5.0], [2.5, 1.0]]))
        assert "im0" in text and "c1" in text
        assert "shade scale" in text

    def test_grid_for_mode_dispatch(self):
        seq = make_seq([[1.0, 0.0]], [[1.0, 1.0]], obj_feats=[[0.5, 0.5]])
        assert chargrid.grid_for_mode(seq, "char").column_ids == ["c0"]
        assert chargrid.grid_for_mode(seq, "obj").column_ids == ["o0"]
        assert chargrid.grid_for_mode(seq, "entity").column_ids == ["c0", "o0"]
        with pytest.raises(DataError):
            chargrid.grid_for_mode(seq, "sideways")
