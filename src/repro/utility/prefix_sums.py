"""The PSW array: prefix sums of position utilities.

``PSW[i] = u(0, i + 1)`` stores the local utility of every prefix of
``S`` (Section IV).  With the sum local-utility function this is a
plain cumulative sum, and the local utility of any fragment comes from
two lookups:

    u(i, l) = PSW[i + l - 1] - PSW[i - 1]        (PSW[-1] := 0)

The class also exposes a vectorised batch form used by the USI
construction's interval gather and by the suffix-array query path,
which aggregate thousands of occurrences at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError


class PswArray:
    """Prefix-sum local utilities over a weight array ``w``.

    Supports O(1) fragment utilities and O(1) *appends* (needed by the
    dynamic USI of Section X), while keeping a vectorised numpy view
    for batch queries.
    """

    def __init__(self, utilities: "Sequence[float] | np.ndarray") -> None:
        w = np.asarray(utilities, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ParameterError("PSW requires a non-empty 1-D utility array")
        # _psw[0] = 0 and _psw[i] = w[0] + ... + w[i-1]: the shift-by-one
        # removes the i = 0 special case from every lookup.
        self._psw = np.concatenate(([0.0], np.cumsum(w)))
        self._appended: list[float] = []

    def _flush(self) -> None:
        """Fold buffered appends into the numpy array."""
        if self._appended:
            base = self._psw[-1]
            extra = base + np.cumsum(np.asarray(self._appended, dtype=np.float64))
            self._psw = np.concatenate((self._psw, extra))
            self._appended.clear()

    @property
    def length(self) -> int:
        """Number of text positions covered."""
        return len(self._psw) - 1 + len(self._appended)

    def append(self, utility: float) -> None:
        """Extend by one position (dynamic USI letter append)."""
        self._appended.append(float(utility))

    def local_utility(self, i: int, length: int) -> float:
        """``u(i, length)``: sum of ``w[i .. i + length - 1]``."""
        if length <= 0 or i < 0 or i + length > self.length:
            raise ParameterError(
                f"fragment ({i}, {length}) out of range for n={self.length}"
            )
        self._flush()
        return float(self._psw[i + length] - self._psw[i])

    def local_utilities(self, positions: np.ndarray, length: int) -> np.ndarray:
        """Vectorised ``u(i, length)`` for many start positions."""
        self._flush()
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) + length > self.length
        ):
            raise ParameterError("fragment positions out of range")
        return self._psw[positions + length] - self._psw[positions]

    def prefix_utility(self, i: int) -> float:
        """``PSW[i] = u(0, i + 1)`` in the paper's indexing."""
        self._flush()
        return float(self._psw[i + 1])

    def nbytes(self) -> int:
        self._flush()
        return int(self._psw.nbytes)
