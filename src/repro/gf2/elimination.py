"""Ordered Gaussian elimination over GF(2).

:class:`ColumnOrderedRREF` reduces a binary matrix to reduced
row-echelon form while choosing pivot columns greedily *in a caller
supplied column order*.  This is exactly the primitive that ordered
statistics decoding (OSD) needs: the order encodes bit reliabilities,
the pivot columns become the information set, and candidate solutions
for any syndrome are then produced by cheap XOR combinations.

The matrix and its row-operation history live side by side in one
packed block ``[H | I]`` (:class:`AugmentedMatrix`), so every row
operation is a single XOR and syndromes can be reduced after the fact
without re-running the elimination.  A caller that eliminates the same
matrix under many column orders (OSD, once per failing shot) packs the
block once and hands the :class:`AugmentedMatrix` in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, TypeAlias

import numpy as np
import numpy.typing as npt

from repro.gf2.packed import column_of, pack_rows, unpack_rows, words_needed

__all__ = ["AugmentedMatrix", "ColumnOrderedRREF"]

#: A dense binary matrix (array-like) or a scipy sparse matrix.
MatrixLike: TypeAlias = Any

#: ``_BITS[b]`` has only bit ``b`` set: the mask of column ``b`` in its word.
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@dataclass(frozen=True, eq=False)
class AugmentedMatrix:
    """``[H | I]`` bit-packed into one ``(m, words)`` ``uint64`` block.

    The first :attr:`h_words` words of each row hold row ``i`` of ``H``
    (layout of :func:`~repro.gf2.packed.pack_rows`); the remaining words
    hold row ``i`` of the ``m × m`` identity, which elimination turns
    into the transform recording every row operation.  Never mutated:
    :class:`ColumnOrderedRREF` eliminates a copy.
    """

    block: npt.NDArray[np.uint64]
    n_rows: int
    n_cols: int

    @classmethod
    def pack(cls, mat: MatrixLike) -> AugmentedMatrix:
        """Pack a binary matrix (dense or scipy sparse) beside ``I``."""
        if hasattr(mat, "toarray"):
            mat = mat.toarray()
        dense = np.asarray(mat, dtype=np.uint8) % 2
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {dense.shape}")
        n_rows, n_cols = dense.shape
        block = np.concatenate(
            [pack_rows(dense), pack_rows(np.eye(n_rows, dtype=np.uint8))],
            axis=1,
        )
        return cls(block=block, n_rows=n_rows, n_cols=n_cols)

    @property
    def h_words(self) -> int:
        """Words per row holding ``H``; the transform starts after them."""
        return words_needed(self.n_cols)


class ColumnOrderedRREF:
    """Reduced row-echelon form with pivots chosen in a given column order.

    Parameters
    ----------
    mat:
        Binary matrix ``(m, n)`` (dense array-like or scipy sparse), or
        an :class:`AugmentedMatrix` packed from one ahead of time.
    column_order:
        Permutation (or prefix) of ``range(n)``.  Pivots are selected
        greedily scanning columns in this order: a column becomes the
        next pivot when some not-yet-pivoted ("live") row has a 1 in
        it, and the pivot row is the first such live row.  Defaults to
        natural order.

    The search works per pivot, not per column: it OR-reduces the live
    rows into a packed mask and jumps to the first remaining column of
    ``column_order`` whose mask bit is set.  A column with no live 1
    stays that way (row operations only add live rows to other rows),
    so the scan position never moves back, and the elimination stops
    at the true rank — when no remaining column has a live 1 — even
    when the rank is below the row count.

    Attributes
    ----------
    rank:
        Rank of the matrix.
    pivot_cols:
        Pivot column indices, one per pivot row, in elimination order.
        ``pivot_cols[i]`` is the column whose only remaining 1 sits in
        row ``i`` of the reduced matrix.
    """

    def __init__(
        self,
        mat: MatrixLike | AugmentedMatrix,
        column_order: npt.ArrayLike | None = None,
    ) -> None:
        aug = (
            mat if isinstance(mat, AugmentedMatrix)
            else AugmentedMatrix.pack(mat)
        )
        self.n_rows, self.n_cols = aug.n_rows, aug.n_cols
        order: npt.NDArray[np.intp]
        if column_order is None:
            order = np.arange(self.n_cols, dtype=np.intp)
        else:
            order = np.asarray(column_order, dtype=np.intp).reshape(-1)

        h_words = aug.h_words
        block = aug.block.copy()
        pivot_cols: list[int] = []
        r = 0
        pos = 0
        while r < self.n_rows and pos < order.size:
            live = np.bitwise_or.reduce(block[r:, :h_words], axis=0)
            live_bits = np.unpackbits(live.view(np.uint8), bitorder="little")
            remaining = live_bits[order[pos:]]
            skip = int(remaining.argmax())
            if not remaining[skip]:
                break
            pos += skip
            c = int(order[pos])
            pos += 1
            # Every nonzero entry equals the column's bit mask, so the
            # first maximum is the first live row with a 1.
            col = block[:, c >> 6] & _BITS[c & 63]
            pivot = r + int(col[r:].argmax())
            # Clear every other row holding a 1 in ``c``, then move the
            # pivot row up to position ``r`` (row ``r`` itself has no 1
            # in ``c`` unless it is the pivot, so it is never a target).
            col[pivot] = 0
            block[col.nonzero()[0]] ^= block[pivot]
            if pivot != r:
                swapped = block[r].copy()
                block[r] = block[pivot]
                block[pivot] = swapped
            pivot_cols.append(c)
            r += 1

        self.rank = r
        self.pivot_cols = np.asarray(pivot_cols, dtype=np.intp)
        self._rows = block[:, :h_words]
        self._transform = block[:, h_words:]

    def reduce_vector(
        self, rhs: npt.ArrayLike
    ) -> tuple[npt.NDArray[np.uint8], bool]:
        """Apply the recorded row operations to a right-hand side.

        Returns ``(pivot_part, consistent)`` where ``pivot_part`` has one
        entry per pivot row and ``consistent`` says whether ``rhs`` lies
        in the column space (all non-pivot rows reduce to zero).
        """
        s = np.asarray(rhs, dtype=np.uint8).reshape(1, -1) % 2
        if s.shape[1] != self.n_rows:
            raise ValueError(
                f"rhs length {s.shape[1]} does not match {self.n_rows} rows"
            )
        s_packed = pack_rows(s)[0]
        reduced = (
            np.bitwise_count(self._transform & s_packed[None, :]).sum(axis=1)
            & 1
        ).astype(np.uint8)
        pivot_part = reduced[: self.rank]
        consistent = not reduced[self.rank:].any()
        return pivot_part, consistent

    def reduced_column(self, j: int) -> npt.NDArray[np.uint8]:
        """Column ``j`` of the reduced matrix, restricted to pivot rows."""
        return column_of(self._rows[: self.rank], j)

    def reduced_columns(self, cols: npt.ArrayLike) -> npt.NDArray[np.uint8]:
        """Dense ``(rank, len(cols))`` block of reduced columns.

        Used by OSD's combination sweep to score many single-bit flips
        in one vectorised pass.
        """
        dense = unpack_rows(self._rows[: self.rank], self.n_cols)
        return dense[:, np.asarray(cols, dtype=np.intp)]

    def solve_with_flips(
        self, pivot_rhs: npt.ArrayLike, flip_cols: Iterable[int] = ()
    ) -> npt.NDArray[np.uint8]:
        """Solution of ``mat @ e = rhs`` with chosen non-pivot bits set.

        ``pivot_rhs`` must come from :meth:`reduce_vector`.  All
        non-pivot coordinates of the solution are zero except those in
        ``flip_cols``, which are set to one; the pivot coordinates then
        follow by back-substitution (a column XOR per flipped bit).
        """
        e = np.zeros(self.n_cols, dtype=np.uint8)
        pivot_vals = np.asarray(pivot_rhs, dtype=np.uint8).copy()
        for j in flip_cols:
            pivot_vals ^= self.reduced_column(int(j))
            e[int(j)] = 1
        e[self.pivot_cols] = pivot_vals
        return e
