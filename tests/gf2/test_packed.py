"""Tests for bit-packed GF(2) row storage."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gf2 import packed


def binary_matrices(max_rows=6, max_cols=200):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1))
    )


class TestPackUnpack:
    @given(binary_matrices())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, mat):
        restored = packed.unpack_rows(packed.pack_rows(mat), mat.shape[1])
        assert np.array_equal(restored, mat)

    def test_words_needed(self):
        assert packed.words_needed(1) == 1
        assert packed.words_needed(64) == 1
        assert packed.words_needed(65) == 2

    def test_packed_shape(self):
        mat = np.zeros((3, 130), dtype=np.uint8)
        assert packed.pack_rows(mat).shape == (3, 3)

    def test_unpack_zero_rows(self):
        empty = packed.pack_rows(np.zeros((0, 130), dtype=np.uint8))
        assert packed.unpack_rows(empty, 130).shape == (0, 130)


class TestColumnOf:
    @given(binary_matrices(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_column(self, mat, seed):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(0, mat.shape[1]))
        p = packed.pack_rows(mat)
        assert np.array_equal(packed.column_of(p, j), mat[:, j])


class TestPopcount:
    @given(binary_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_sum(self, mat):
        p = packed.pack_rows(mat)
        assert np.array_equal(
            packed.popcount_rows(p), mat.sum(axis=1, dtype=np.int64)
        )

    def test_xor_of_rows_behaves_like_gf2_addition(self):
        mat = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
        p = packed.pack_rows(mat)
        combined = p[0] ^ p[1]
        restored = packed.unpack_rows(combined[None, :], 4)[0]
        assert restored.tolist() == [1, 1, 0, 1]
