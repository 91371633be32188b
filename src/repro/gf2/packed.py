"""Bit-packed GF(2) row storage.

Rows are packed 64 columns per ``numpy.uint64`` word so that a row XOR
touches ``n / 64`` words instead of ``n`` bytes.  This is the storage
format used by the ordered Gaussian elimination behind OSD, where
matrices routinely have several thousand columns.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = ["pack_rows", "unpack_rows", "column_of", "popcount_rows", "words_needed"]


def words_needed(n_cols: int) -> int:
    """Number of 64-bit words needed to store ``n_cols`` bits."""
    return (n_cols + 63) // 64


def pack_rows(mat: npt.ArrayLike) -> npt.NDArray[np.uint64]:
    """Pack the rows of a binary matrix into ``uint64`` words.

    Column ``j`` of the input is stored in bit ``j % 64`` of word
    ``j // 64`` (little-endian bit order).

    Returns an array of shape ``(n_rows, words_needed(n_cols))``.
    """
    m = np.asarray(mat, dtype=np.uint8) % 2
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    n_rows, n_cols = m.shape
    n_words = words_needed(n_cols)
    padded_cols = n_words * 64
    if padded_cols != n_cols:
        pad = np.zeros((n_rows, padded_cols - n_cols), dtype=np.uint8)
        m = np.concatenate([m, pad], axis=1)
    packed_bytes = np.packbits(m, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(n_rows, n_words)


def unpack_rows(
    packed: npt.ArrayLike, n_cols: int
) -> npt.NDArray[np.uint8]:
    """Inverse of :func:`pack_rows`; returns a ``(n_rows, n_cols)`` uint8 matrix."""
    words = np.ascontiguousarray(packed, dtype=np.uint64)
    n_rows, n_words = words.shape
    as_bytes = words.view(np.uint8).reshape(n_rows, n_words * 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :n_cols]


def column_of(
    packed: npt.NDArray[np.uint64], j: int
) -> npt.NDArray[np.uint8]:
    """Extract column ``j`` across all packed rows as a uint8 vector."""
    word = j >> 6
    bit = j & 63
    return ((packed[:, word] >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)


def popcount_rows(
    packed: npt.NDArray[np.uint64],
) -> npt.NDArray[np.int64]:
    """Number of set bits in each packed row."""
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
