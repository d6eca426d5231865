"""The suffix-array text index used for locate queries.

Wraps a suffix array + LCP array with the classic ``O(m log n)``
pattern search (two binary searches yielding the SA interval of all
occurrences).  The paper performs locate with a suffix tree in
``O(m + occ)``; the SA binary search returns the identical occurrence
set and is the practical choice in Python (see "Substitutions relative
to the paper" in README.md) — the extra ``log n`` applies equally to
our index and all baselines.
"""

from __future__ import annotations

import time
from typing import Literal, Sequence

import numpy as np

from repro.errors import ConstructionError, PatternError
from repro.profiling import record_stage
from repro.suffix.batch import batch_intervals, pack_limit, packed_window_keys
from repro.suffix.doubling import (
    suffix_array_doubling,
    suffix_array_doubling_with_ranks,
)
from repro.suffix.lcp import lcp_array_kasai, lcp_from_ranks
from repro.suffix.sais import suffix_array_sais


def build_suffix_array(
    codes: "Sequence[int] | np.ndarray",
    algorithm: Literal["doubling", "sais"] = "doubling",
) -> np.ndarray:
    """Construct the suffix array with the chosen algorithm."""
    if algorithm == "doubling":
        return suffix_array_doubling(codes)
    if algorithm == "sais":
        return suffix_array_sais(codes)
    raise ConstructionError(f"unknown suffix array algorithm {algorithm!r}")


class SuffixArray:
    """Suffix array + LCP array + pattern search over a code array.

    Parameters
    ----------
    codes:
        The text as an integer array.
    algorithm:
        ``"doubling"`` (default, vectorised) or ``"sais"`` (pure
        Python, O(n)).
    with_lcp:
        Build the LCP array too (required by the top-K oracle and the
        exact LCE; skippable for plain locate-only indexes).
    """

    def __init__(
        self,
        codes: "Sequence[int] | np.ndarray",
        algorithm: Literal["doubling", "sais"] = "doubling",
        with_lcp: bool = True,
    ) -> None:
        self._codes = np.asarray(codes, dtype=np.int64)
        if self._codes.ndim != 1 or len(self._codes) == 0:
            raise ConstructionError("suffix arrays require a non-empty 1-D text")
        t0 = time.perf_counter()
        self._ranks: "list[np.ndarray] | None" = None
        if algorithm == "doubling":
            # Retain the per-round rank arrays: they make the LCP
            # construction a handful of vectorised passes instead of a
            # Python Kasai walk, and are dropped as soon as it's built.
            self._sa, self._ranks = suffix_array_doubling_with_ranks(self._codes)
        else:
            self._sa = build_suffix_array(self._codes, algorithm)
        self.sa_seconds = time.perf_counter() - t0
        self.lcp_seconds = 0.0
        self.lcp_source: "str | None" = None
        self._lcp = self._build_lcp() if with_lcp else None
        self._prefix_keys: "tuple[np.ndarray, int] | None" = None

    def _build_lcp(self) -> np.ndarray:
        """Build the LCP array, vectorised when rank arrays are held."""
        t0 = time.perf_counter()
        if self._ranks is not None:
            lcp = lcp_from_ranks(self._sa, self._ranks)
            self._ranks = None  # O(n log n) bytes: free once consumed
            self.lcp_source = "ranks"
        else:
            lcp = lcp_array_kasai(self._codes, self._sa)
            self.lcp_source = "kasai"
        self.lcp_seconds = time.perf_counter() - t0
        return lcp

    @classmethod
    def from_parts(
        cls,
        codes: np.ndarray,
        sa: np.ndarray,
        lcp: "np.ndarray | None" = None,
    ) -> "SuffixArray":
        """Rewrap an already-constructed suffix array (deserialisation).

        Skips construction entirely; *codes* and *sa* are adopted as
        given (so memory-mapped arrays stay memory-mapped).
        """
        instance = cls.__new__(cls)
        instance._codes = codes
        instance._sa = sa
        instance._lcp = lcp
        instance._ranks = None
        instance.sa_seconds = 0.0
        instance.lcp_seconds = 0.0
        instance.lcp_source = None
        instance._prefix_keys = None
        return instance

    # Pickle: the prefix-key array and the doubling rank arrays are
    # derived accelerators; drop both.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_prefix_keys", None)
        state.pop("_ranks", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._prefix_keys = None
        self._ranks = None
        self.__dict__.setdefault("sa_seconds", 0.0)
        self.__dict__.setdefault("lcp_seconds", 0.0)
        self.__dict__.setdefault("lcp_source", None)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def codes(self) -> np.ndarray:
        return self._codes

    @property
    def sa(self) -> np.ndarray:
        """The suffix array (leaves of the suffix tree in order)."""
        return self._sa

    @property
    def lcp(self) -> np.ndarray:
        if self._lcp is None:
            self._lcp = self._build_lcp()
        return self._lcp

    def drop_lcp(self) -> None:
        """Release the LCP array (pattern search does not need it).

        Construction-only consumers (the top-K oracle) use the LCP;
        indexes that keep a SuffixArray around purely for locate
        queries call this to shed the O(n) array from their footprint.
        Any retained doubling rank arrays (held for a vectorised LCP
        build that is now moot) are shed too.
        """
        self._lcp = None
        self._ranks = None

    @property
    def length(self) -> int:
        return len(self._codes)

    def __len__(self) -> int:
        return len(self._codes)

    # ------------------------------------------------------------------
    # Pattern search
    # ------------------------------------------------------------------
    def _compare_suffix(self, suffix: int, pattern: np.ndarray) -> int:
        """Three-way compare of text suffix vs pattern, prefix-aware.

        Returns 0 when the pattern is a prefix of the suffix (a match).
        """
        n = len(self._codes)
        m = len(pattern)
        length = min(n - suffix, m)
        chunk = self._codes[suffix : suffix + length]
        window = pattern[:length]
        diff = np.nonzero(chunk != window)[0]
        if diff.size:
            d = int(diff[0])
            return int(chunk[d]) - int(window[d])
        if length == m:
            return 0  # pattern fully matched
        return -1  # suffix is a proper prefix of the pattern: sorts before

    def interval(self, pattern: "Sequence[int] | np.ndarray") -> tuple[int, int]:
        """SA interval ``[lb, rb]`` of *pattern*; ``(0, -1)`` if absent.

        Two binary searches over the suffix array; O(m log n).
        """
        pattern = np.asarray(pattern, dtype=np.int64)
        if len(pattern) == 0:
            raise PatternError("patterns must be non-empty")
        if self._ranks is not None:
            # First locate query: construction is over.  The retained
            # doubling ranks only serve a vectorised LCP build; shed
            # them so query-only consumers (baselines, servers) never
            # carry the O(n log n) bytes (a later .lcp request falls
            # back to Kasai).
            self._ranks = None
        n = len(self._codes)

        # Lower bound: first suffix >= pattern (with prefix counting as match).
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._compare_suffix(int(self._sa[mid]), pattern) < 0:
                lo = mid + 1
            else:
                hi = mid
        lb = lo

        # Upper bound: first suffix whose comparison is > 0.
        lo, hi = lb, n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._compare_suffix(int(self._sa[mid]), pattern) <= 0:
                lo = mid + 1
            else:
                hi = mid
        rb = lo - 1

        if rb < lb:
            return (0, -1)
        return (lb, rb)

    def occurrences(self, pattern: "Sequence[int] | np.ndarray") -> np.ndarray:
        """All starting positions of *pattern* in the text (unsorted)."""
        lb, rb = self.interval(pattern)
        if rb < lb:
            return np.empty(0, dtype=np.int64)
        return self._sa[lb : rb + 1]

    def interval_batch(self, matrix: "Sequence | np.ndarray") -> tuple[np.ndarray, np.ndarray]:
        """SA intervals for a whole batch of equal-length patterns.

        *matrix* holds one pattern per row; returns ``(lb, rb)`` int64
        arrays with one closed interval per row, identical to calling
        :meth:`interval` per pattern — but computed with the vectorised
        kernel of :mod:`repro.suffix.batch`.  The first batch builds
        one SA-order prefix-key array (every suffix's first ``W``
        letters packed into an int64, 8 bytes per text character);
        every later batch, of any length, reuses it.  Patterns of at
        most ``W`` letters are answered by ``np.searchsorted`` alone;
        longer ones (and every pattern once the alphabet is so large
        that ``W`` is 1 or 2) finish with a lockstep binary search
        inside the interval of their ``W``-letter prefix.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.int64)
        if matrix.ndim != 2:
            raise PatternError("expected a 2-D matrix of equal-length patterns")
        if matrix.shape[1] == 0:
            raise PatternError("patterns must be non-empty")
        if self._ranks is not None:
            self._ranks = None  # first query: shed the LCP-build aid
        t0 = time.perf_counter()
        keys, base = self._packed_keys()
        result = batch_intervals(self._codes, self._sa, keys, base, matrix)
        record_stage("locate", time.perf_counter() - t0)
        return result

    def _packed_keys(self) -> "tuple[np.ndarray, int]":
        """The SA-order prefix-key array and its base, built on first use.

        Assigned once when finished: two concurrent first batches may
        both build it, which costs time but never a wrong answer.
        """
        prefix = self._prefix_keys
        if prefix is None:
            base = int(self._codes.max()) + 2
            keys = packed_window_keys(self._codes, self._sa, pack_limit(base), base)
            prefix = self._prefix_keys = (keys, base)
        return prefix

    def count(self, pattern: "Sequence[int] | np.ndarray") -> int:
        """The frequency ``|occ(pattern)|``."""
        lb, rb = self.interval(pattern)
        return max(0, rb - lb + 1)

    # ------------------------------------------------------------------
    # Size accounting (for the index-size experiments of Fig. 6)
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes held by the SA (+LCP if built); text excluded."""
        total = self._sa.nbytes
        if self._lcp is not None:
            total += self._lcp.nbytes
        return total
