"""Linear algebra over GF(2).

This subpackage is the arithmetic substrate shared by the code
constructions (logical-operator extraction), the OSD post-processor
(ordered Gaussian elimination) and the detector-error-model machinery.

Two representations are provided:

``repro.gf2.dense``
    Plain ``numpy.uint8`` matrices.  Simple and convenient for the
    moderate sizes that appear in code construction (n of a few
    hundred).

``repro.gf2.packed``
    Rows packed 64 columns per ``numpy.uint64`` word.  Used by
    :class:`repro.gf2.elimination.ColumnOrderedRREF`, the engine behind
    OSD on circuit-level matrices with thousands of columns.
"""

from repro.gf2.dense import (
    as_gf2,
    identity,
    in_row_space,
    IncrementalRowSpace,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    row_basis,
    row_reduce,
    RowSpace,
    solve,
)
from repro.gf2.elimination import AugmentedMatrix, ColumnOrderedRREF
from repro.gf2.packed import (
    column_of,
    pack_rows,
    popcount_rows,
    unpack_rows,
)

__all__ = [
    "as_gf2",
    "identity",
    "in_row_space",
    "IncrementalRowSpace",
    "inverse",
    "mat_mul",
    "mat_vec",
    "nullspace",
    "rank",
    "row_basis",
    "row_reduce",
    "RowSpace",
    "solve",
    "AugmentedMatrix",
    "ColumnOrderedRREF",
    "pack_rows",
    "unpack_rows",
    "column_of",
    "popcount_rows",
]
