"""Sparse-table range-minimum queries.

Used for (a) exact LCE queries over the LCP array and (b) the
RMQ-backed ``min``/``max`` local-utility extension.  O(n log n)
preprocessing, O(1) per query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError


class SparseTableRmq:
    """O(1) range minimum (or maximum) over a static array.

    Parameters
    ----------
    values:
        The static array to index.
    maximum:
        When ``True`` answer range-*maximum* queries instead.
    """

    def __init__(self, values: "Sequence[float] | np.ndarray", maximum: bool = False) -> None:
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ParameterError("RMQ input must be a 1-D array")
        self._n = len(arr)
        self._maximum = maximum
        if self._n == 0:
            self._table: list[np.ndarray] = []
            return
        reduce = np.maximum if maximum else np.minimum
        levels = max(1, self._n.bit_length())
        table = [arr.copy()]
        length = 1
        for _ in range(1, levels):
            prev = table[-1]
            if 2 * length > self._n:
                break
            merged = reduce(prev[: self._n - 2 * length + 1], prev[length : self._n - length + 1])
            table.append(merged)
            length *= 2
        self._table = table

    @property
    def length(self) -> int:
        return self._n

    def query(self, lo: int, hi: int):
        """Min (or max) of ``values[lo .. hi]``, inclusive on both ends."""
        if not 0 <= lo <= hi < self._n:
            raise ParameterError(f"range [{lo}, {hi}] out of bounds for n={self._n}")
        span = hi - lo + 1
        level = span.bit_length() - 1
        length = 1 << level
        left = self._table[level][lo]
        right = self._table[level][hi - length + 1]
        if self._maximum:
            return max(left, right)
        return min(left, right)

    def query_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`query` for every pair ``(lo[r], hi[r])``, vectorised.

        Rows are grouped by their table level (``floor(log2(span))``),
        and each distinct level costs one pair of fancy-indexed gathers,
        so a batch of equal-length spans is two gathers in total.
        """
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ParameterError("lo and hi must be 1-D arrays of one length")
        if lo.size and (int(lo.min()) < 0 or int(hi.max()) >= self._n or bool(np.any(lo > hi))):
            raise ParameterError(f"a range in the batch is out of bounds for n={self._n}")
        if not lo.size:
            return np.empty(0, dtype=self._table[0].dtype if self._table else np.float64)
        # frexp's exponent is bit_length(span): exact for spans below 2^53.
        levels = np.frexp((hi - lo + 1).astype(np.float64))[1] - 1
        reduce = np.maximum if self._maximum else np.minimum
        distinct = np.unique(levels).tolist()
        if len(distinct) == 1:
            table = self._table[distinct[0]]
            return reduce(table[lo], table[hi - (1 << distinct[0]) + 1])
        out = np.empty(len(lo), dtype=self._table[0].dtype)
        for level in distinct:
            rows = np.flatnonzero(levels == level)
            table = self._table[level]
            out[rows] = reduce(table[lo[rows]], table[hi[rows] - (1 << level) + 1])
        return out
