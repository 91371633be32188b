"""Tests for column-ordered Gaussian elimination (the OSD engine)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import gf2
from repro.gf2 import AugmentedMatrix, ColumnOrderedRREF
from repro.gf2.packed import column_of, pack_rows, unpack_rows


def binary_matrices(max_rows=8, max_cols=16):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shapes.flatmap(
        lambda s: arrays(np.uint8, s, elements=st.integers(0, 1))
    )


class TestRankAndPivots:
    @given(binary_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_dense(self, mat):
        assert ColumnOrderedRREF(mat).rank == gf2.rank(mat)

    @given(binary_matrices(), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_rank_invariant_under_column_order(self, mat, seed):
        rng = np.random.default_rng(seed)
        order = rng.permutation(mat.shape[1])
        assert ColumnOrderedRREF(mat, order).rank == gf2.rank(mat)

    def test_pivots_respect_column_order(self):
        mat = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)
        rref = ColumnOrderedRREF(mat, column_order=[2, 1, 0])
        # Greedy in order 2,1,0: column 2 and column 1 are independent.
        assert rref.pivot_cols.tolist() == [2, 1]

    def test_pivot_columns_are_independent(self, rng):
        mat = rng.integers(0, 2, size=(10, 25), dtype=np.uint8)
        rref = ColumnOrderedRREF(mat)
        sub = mat[:, rref.pivot_cols]
        assert gf2.rank(sub) == rref.rank


class TestReduceVector:
    @given(binary_matrices(), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_consistent_rhs_solved_by_pivot_assignment(self, mat, seed):
        rng = np.random.default_rng(seed)
        x_true = rng.integers(0, 2, size=mat.shape[1], dtype=np.uint8)
        s = gf2.mat_vec(mat, x_true)
        rref = ColumnOrderedRREF(mat)
        pivot_part, consistent = rref.reduce_vector(s)
        assert consistent
        e = rref.solve_with_flips(pivot_part)
        assert np.array_equal(gf2.mat_vec(mat, e), s)

    def test_inconsistent_rhs_detected(self):
        mat = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        rref = ColumnOrderedRREF(mat)
        _, consistent = rref.reduce_vector([1, 0])
        assert not consistent


class TestSolveWithFlips:
    @given(binary_matrices(), st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_flipped_solution_still_satisfies_system(self, mat, seed):
        rng = np.random.default_rng(seed)
        x_true = rng.integers(0, 2, size=mat.shape[1], dtype=np.uint8)
        s = gf2.mat_vec(mat, x_true)
        rref = ColumnOrderedRREF(mat)
        pivot_part, _ = rref.reduce_vector(s)
        non_pivot = np.setdiff1d(np.arange(mat.shape[1]), rref.pivot_cols)
        flips = non_pivot[:2]
        e = rref.solve_with_flips(pivot_part, flips)
        for j in flips:
            assert e[j] == 1
        assert np.array_equal(gf2.mat_vec(mat, e), s)

    def test_reduced_columns_match_single_queries(self, rng):
        mat = rng.integers(0, 2, size=(8, 20), dtype=np.uint8)
        rref = ColumnOrderedRREF(mat)
        cols = [0, 5, 13]
        block = rref.reduced_columns(cols)
        for k, j in enumerate(cols):
            assert np.array_equal(block[:, k], rref.reduced_column(j))


class _ColumnScanRREF:
    """Reference oracle: the original per-column elimination scan.

    Probes every column of ``column_order`` in turn (``column_of`` plus
    ``nonzero``) and stops early only when every row holds a pivot.
    The live-row-mask pivot search in :class:`ColumnOrderedRREF` is
    checked bit for bit against it.
    """

    def __init__(self, mat, column_order=None):
        dense = np.asarray(mat, dtype=np.uint8) % 2
        self.n_rows, self.n_cols = dense.shape
        if column_order is None:
            column_order = np.arange(self.n_cols)
        else:
            column_order = np.asarray(column_order, dtype=np.intp)

        rows = pack_rows(dense)
        transform = pack_rows(np.eye(self.n_rows, dtype=np.uint8))

        pivot_cols = []
        r = 0
        for c in column_order:
            if r == self.n_rows:
                break
            col = column_of(rows, int(c))
            below = np.nonzero(col[r:])[0]
            if below.size == 0:
                continue
            pivot = r + int(below[0])
            if pivot != r:
                rows[[r, pivot]] = rows[[pivot, r]]
                transform[[r, pivot]] = transform[[pivot, r]]
                col[[r, pivot]] = col[[pivot, r]]
            targets = np.nonzero(col)[0]
            targets = targets[targets != r]
            if targets.size:
                rows[targets] ^= rows[r]
                transform[targets] ^= transform[r]
            pivot_cols.append(int(c))
            r += 1

        self.rank = r
        self.pivot_cols = np.asarray(pivot_cols, dtype=np.intp)
        self._rows = rows
        self._transform = transform

    def reduce_vector(self, rhs):
        s = np.asarray(rhs, dtype=np.uint8).reshape(1, -1) % 2
        s_packed = pack_rows(s)[0]
        reduced = (
            np.bitwise_count(self._transform & s_packed[None, :]).sum(axis=1)
            & 1
        ).astype(np.uint8)
        return reduced[: self.rank], not reduced[self.rank:].any()

    def reduced_column(self, j):
        return column_of(self._rows[: self.rank], j)

    def reduced_columns(self, cols):
        cols = np.asarray(cols, dtype=np.intp)
        dense = unpack_rows(self._rows[: self.rank], self.n_cols)
        return dense[:, cols]

    def solve_with_flips(self, pivot_rhs, flip_cols=()):
        e = np.zeros(self.n_cols, dtype=np.uint8)
        pivot_vals = np.asarray(pivot_rhs, dtype=np.uint8).copy()
        for j in flip_cols:
            pivot_vals ^= self.reduced_column(int(j))
            e[int(j)] = 1
        e[self.pivot_cols] = pivot_vals
        return e


@st.composite
def oracle_cases(draw):
    """``(mat, column_order, rng)`` covering the shapes OSD meets.

    Tall and wide shapes straddle the 64-bit word boundary on both the
    column (matrix) and row (transform) side.  ``rank_cap`` below the
    row count makes rank-deficient matrices — the circuit-level case
    where the old scan's ``r == n_rows`` exit never fired — and zero
    and duplicate columns are spliced in at random positions.  The
    column order is natural, a full permutation or a strict prefix.
    """
    n_rows = draw(st.integers(1, 72))
    n_cols = draw(st.integers(1, 140))
    rank_cap = draw(st.integers(0, min(n_rows, n_cols)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = (rng.random((n_rows, rank_cap)) < density).astype(np.int64)
    right = (rng.random((rank_cap, n_cols)) < density).astype(np.int64)
    mat = ((left @ right) % 2).astype(np.uint8)
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        extra.append(np.zeros(n_rows, dtype=np.uint8))
    for _ in range(draw(st.integers(0, 3))):
        extra.append(mat[:, rng.integers(n_cols)].copy())
    for column in extra:
        at = int(rng.integers(mat.shape[1] + 1))
        mat = np.insert(mat, at, column, axis=1)
    n = mat.shape[1]
    kind = draw(st.sampled_from(["natural", "permutation", "prefix"]))
    if kind == "natural":
        order = None
    elif kind == "permutation":
        order = rng.permutation(n)
    else:
        order = rng.permutation(n)[: int(rng.integers(n))]
    return mat, order, rng


class TestColumnScanOracle:
    """The pivot search is bit-identical to the original column scan."""

    @given(oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_column_scan(self, case):
        mat, order, rng = case
        ref = _ColumnScanRREF(mat, order)
        for source in (mat, AugmentedMatrix.pack(mat)):
            rref = ColumnOrderedRREF(source, order)
            assert rref.rank == ref.rank
            assert np.array_equal(rref.pivot_cols, ref.pivot_cols)
            all_cols = np.arange(mat.shape[1])
            assert np.array_equal(
                rref.reduced_columns(all_cols), ref.reduced_columns(all_cols)
            )
            rhs_batch = [np.eye(mat.shape[0], dtype=np.uint8)[i]
                         for i in range(mat.shape[0])]
            rhs_batch += [rng.integers(0, 2, mat.shape[0], dtype=np.uint8)
                          for _ in range(4)]
            rhs_batch += [gf2.mat_vec(mat, rng.integers(
                0, 2, mat.shape[1], dtype=np.uint8)) for _ in range(4)]
            non_pivot = np.setdiff1d(all_cols, ref.pivot_cols)
            for rhs in rhs_batch:
                got, got_ok = rref.reduce_vector(rhs)
                want, want_ok = ref.reduce_vector(rhs)
                assert np.array_equal(got, want)
                assert got_ok == want_ok
                flips = rng.permutation(non_pivot)[: rng.integers(0, 4)]
                assert np.array_equal(
                    rref.solve_with_flips(got, flips),
                    ref.solve_with_flips(want, flips),
                )

    def test_rank_below_row_count_stops_at_true_rank(self):
        mat = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]],
            dtype=np.uint8,
        )
        rref = ColumnOrderedRREF(mat, column_order=[1, 0, 3, 2])
        assert rref.rank == 2 < mat.shape[0]
        assert rref.pivot_cols.tolist() == [1, 3]
        assert rref.pivot_cols.tolist() == (
            _ColumnScanRREF(mat, [1, 0, 3, 2]).pivot_cols.tolist()
        )
