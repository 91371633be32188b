"""Ordered statistics decoding (OSD) post-processing.

This is the baseline the paper compares against (BP-OSD, Roffe et al.
2020).  After a failed BP run, columns of ``H`` are ranked by the BP
posterior probability of being in error; ordered Gaussian elimination
turns the most suspicious independent columns into an information set,
and candidate solutions are scored over the remaining ("T") columns:

* **OSD-0** — all T bits zero;
* **OSD-CS (order λ)** — additionally every weight-1 T pattern and all
  weight-2 patterns within the first λ T columns (the "combination
  sweep" of the paper's OSD-CS reference);
* **OSD-E (order λ)** — exhaustive search over the first λ T columns
  (small λ only; used to validate CS in tests).

Candidates are scored by soft weight ``Σ log((1-p_i)/p_i)`` over their
support (``weighting="hamming"`` scores plain Hamming weight).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.gf2 import AugmentedMatrix, ColumnOrderedRREF
from repro.problem import DecodingProblem

__all__ = ["OrderedStatisticsDecoder"]


class OrderedStatisticsDecoder:
    """OSD-0 / OSD-CS / OSD-E over a decoding problem's check matrix."""

    def __init__(
        self,
        problem: DecodingProblem,
        *,
        order: int = 10,
        method: str = "cs",
        weighting: str = "soft",
    ):
        if method not in ("0", "cs", "e"):
            raise ValueError(f"method must be '0', 'cs' or 'e', got {method!r}")
        if method == "e" and order > 14:
            raise ValueError("exhaustive OSD limited to order <= 14")
        if order < 0:
            raise ValueError("order must be non-negative")
        if weighting not in ("soft", "hamming"):
            raise ValueError(f"unknown weighting {weighting!r}")
        self.problem = problem
        self.order = int(order)
        self.method = method
        self.weighting = weighting
        self._augmented = AugmentedMatrix.pack(problem.check_matrix)
        if weighting == "soft":
            self._weights = problem.llr_priors()
        else:
            self._weights = np.ones(problem.n_mechanisms)

    def decode_from_marginals(self, syndrome, marginal_llrs) -> np.ndarray | None:
        """Decode using BP posterior LLRs as the reliability order.

        Small (or negative) marginal LLR means "probably in error", so
        columns are eliminated in ascending-LLR order.  Returns ``None``
        when the syndrome is outside the column space of ``H``.
        """
        syndrome = np.asarray(syndrome, dtype=np.uint8).reshape(-1)
        marginal_llrs = np.asarray(marginal_llrs, dtype=np.float64).reshape(-1)
        order_cols = np.argsort(marginal_llrs, kind="stable")
        rref = ColumnOrderedRREF(self._augmented, order_cols)
        pivot_rhs, consistent = rref.reduce_vector(syndrome)
        if not consistent:
            return None

        base = rref.solve_with_flips(pivot_rhs)
        if self.method == "0" or self.order == 0:
            return base

        is_pivot = np.zeros(rref.n_cols, dtype=bool)
        is_pivot[rref.pivot_cols] = True
        t_cols = order_cols[~is_pivot[order_cols]]
        if t_cols.size == 0:
            return base

        if self.method == "cs":
            flips = self._combination_sweep(rref, pivot_rhs, t_cols)
        else:
            flips = self._exhaustive(rref, pivot_rhs, t_cols)
        if flips is None:
            return base
        candidate = rref.solve_with_flips(pivot_rhs, flips)
        if self._soft_weight(candidate) < self._soft_weight(base):
            return candidate
        return base

    # -- candidate scoring ------------------------------------------------

    def _soft_weight(self, error: np.ndarray) -> float:
        return float(self._weights[np.nonzero(error)[0]].sum())

    def _combination_sweep(self, rref, pivot_rhs, t_cols):
        """Best flip set among weight-1 (all) and weight-2 (first λ)."""
        w_pivot = self._weights[rref.pivot_cols]
        w_t = self._weights[t_cols]
        reduced = rref.reduced_columns(t_cols).astype(np.float64)
        base = pivot_rhs.astype(np.float64)
        base_cost = float(w_pivot @ base)

        # Weight-1 candidates, vectorised:
        # cost_j = w_p . (base xor R_j) + w_t[j]
        #        = base_cost + (w_p * (1 - 2 base)) . R_j + w_t[j]
        signed = w_pivot * (1.0 - 2.0 * base)
        costs1 = base_cost + signed @ reduced + w_t
        best_idx = int(np.argmin(costs1))
        best_cost = float(costs1[best_idx])
        best_flips: tuple[int, ...] = (int(t_cols[best_idx]),)

        sweep = min(self.order, t_cols.size)
        for a, b in itertools.combinations(range(sweep), 2):
            pattern = (base.astype(np.uint8)
                       ^ reduced[:, a].astype(np.uint8)
                       ^ reduced[:, b].astype(np.uint8))
            cost = float(w_pivot @ pattern) + w_t[a] + w_t[b]
            if cost < best_cost:
                best_cost = cost
                best_flips = (int(t_cols[a]), int(t_cols[b]))
        return best_flips

    def _exhaustive(self, rref, pivot_rhs, t_cols):
        """Best flip set among all subsets of the first λ T columns."""
        sweep = min(self.order, t_cols.size)
        w_pivot = self._weights[rref.pivot_cols]
        reduced = rref.reduced_columns(t_cols[:sweep]).astype(np.uint8)
        base = pivot_rhs.astype(np.uint8)
        best_cost = None
        best_flips: tuple[int, ...] | None = None
        for r in range(1, sweep + 1):
            for combo in itertools.combinations(range(sweep), r):
                pattern = base.copy()
                for c in combo:
                    pattern ^= reduced[:, c]
                cost = float(w_pivot @ pattern) + float(
                    self._weights[t_cols[list(combo)]].sum()
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_flips = tuple(int(t_cols[c]) for c in combo)
        if best_cost is None:
            return None
        return best_flips
