"""Longest-common-extension (LCE) oracles.

The paper's Approximate-Top-K uses Prezza's in-place LCE structure to
compare sampled suffixes in polylog time.  We provide two oracles with
the same interface:

* :class:`FingerprintLce` — Karp-Rabin binary search, O(log n) per
  query over an O(n) fingerprint table.  This is the substitution for
  Prezza's structure (same polylog query class; see "Substitutions
  relative to the paper" in README.md) and is
  what Approximate-Top-K uses, because it does **not** require a full
  suffix array — keeping the sampling algorithm's auxiliary space
  proportional to the sample, which is the entire point of Section VI.
* :class:`SuffixArrayLce` — exact O(1) LCE via inverse SA + LCP + RMQ,
  used as a cross-check and wherever a suffix array already exists.

Both answer one pair at a time (``lce``) or a whole batch of pairs at
once (``lce_batch``); the sparse suffix sort of
:mod:`repro.suffix.sparse` only uses the batch form.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.hashing.karp_rabin import KarpRabinFingerprinter
from repro.suffix.lcp import lcp_array_kasai
from repro.suffix.rmq import SparseTableRmq


class LceOracle(Protocol):
    """Minimal interface shared by the two LCE implementations."""

    def lce(self, i: int, j: int) -> int:  # pragma: no cover - protocol
        """Length of the longest common prefix of suffixes *i* and *j*."""
        ...

    def lce_batch(
        self, i: np.ndarray, j: np.ndarray, lo: "int | np.ndarray" = 0
    ) -> np.ndarray:  # pragma: no cover - protocol
        """``lce(i[r], j[r])`` for every row, given that each pair shares
        at least ``lo`` (scalar or per row) letters."""
        ...

    def compare_suffixes(self, i: int, j: int) -> int:  # pragma: no cover
        """Three-way lexicographic comparison of suffixes *i* and *j*."""
        ...


def naive_lce(codes: np.ndarray, i: int, j: int) -> int:
    """Reference LCE by direct letter comparison (test oracle)."""
    n = len(codes)
    k = 0
    while i + k < n and j + k < n and codes[i + k] == codes[j + k]:
        k += 1
    return k


class _CompareMixin:
    """Lexicographic suffix comparison on top of an ``lce`` method."""

    _codes: np.ndarray

    def compare_suffixes(self, i: int, j: int) -> int:
        """Return <0, 0, >0 as suffix *i* compares to suffix *j*.

        A proper prefix sorts first, matching suffix-array order for
        texts without a sentinel.
        """
        if i == j:
            return 0
        n = len(self._codes)
        k = self.lce(i, j)  # type: ignore[attr-defined]
        if i + k >= n:
            return -1
        if j + k >= n:
            return 1
        return int(self._codes[i + k]) - int(self._codes[j + k])


class FingerprintLce(_CompareMixin):
    """LCE by binary search over Karp-Rabin fingerprint equality.

    A fingerprint mismatch is always correct.  A spurious match needs a
    collision in both 31-bit fields at once, so with 62-bit
    fingerprints the error probability per comparison is negligible
    and no answer is re-checked against the letters.
    """

    def __init__(self, codes: np.ndarray, fingerprinter: "KarpRabinFingerprinter | None" = None,
                 seed: int = 0) -> None:
        self._codes = np.asarray(codes, dtype=np.int64)
        self._fp = fingerprinter or KarpRabinFingerprinter(self._codes, seed=seed)

    #: Letters compared directly before falling back to binary search.
    #: Most LCE queries on non-repetitive data resolve in this scan.
    _DIRECT_SCAN = 16

    def lce(self, i: int, j: int) -> int:
        n = len(self._codes)
        if i == j:
            return n - i
        if i >= n or j >= n:
            return 0
        max_len = n - max(i, j)
        codes = self._codes
        scan = min(self._DIRECT_SCAN, max_len)
        k = 0
        while k < scan and codes[i + k] == codes[j + k]:
            k += 1
        if k < scan or k == max_len:
            return k
        lo, hi = k, max_len  # invariant: lce >= lo, lce <= hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._fp.fragment(i, mid) == self._fp.fragment(j, mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def lce_batch(self, i: np.ndarray, j: np.ndarray, lo: "int | np.ndarray" = 0) -> np.ndarray:
        """:meth:`lce` for every pair ``(i[r], j[r])``, in lockstep.

        Every pair runs the same binary search over fragment
        fingerprints at once, one :meth:`~KarpRabinFingerprinter.fragments`
        call per step for the pairs still open, so a batch costs about
        ``log2(n)`` NumPy passes however many pairs it holds.  *lo* is a
        lower bound on every answer (a common prefix already known, as
        in a multikey sort), and the search starts there.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        n = len(self._codes)
        # The longest possible answer; 0 when either suffix is empty.
        hi = np.maximum(np.where(i == j, n - i, n - np.maximum(i, j)), 0)
        out = np.minimum(np.broadcast_to(np.asarray(lo, dtype=np.int64), i.shape), hi)
        open_ = np.flatnonzero(out < hi)
        i, j, lo, hi = i[open_], j[open_], out[open_], hi[open_]
        while len(open_):
            mid = (lo + hi + 1) >> 1
            equal = self._fp.fragments(i, mid) == self._fp.fragments(j, mid)
            lo = np.where(equal, mid, lo)
            hi = np.where(equal, hi, mid - 1)
            done = lo >= hi
            if done.any():
                out[open_[done]] = lo[done]
                keep = ~done
                open_, i, j, lo, hi = open_[keep], i[keep], j[keep], lo[keep], hi[keep]
        return out


class SuffixArrayLce(_CompareMixin):
    """Exact O(1) LCE from SA + LCP + sparse-table RMQ."""

    def __init__(self, codes: np.ndarray, sa: np.ndarray, lcp: "np.ndarray | None" = None) -> None:
        self._codes = np.asarray(codes, dtype=np.int64)
        self._sa = np.asarray(sa, dtype=np.int64)
        n = len(self._codes)
        if lcp is None:
            lcp = lcp_array_kasai(self._codes, self._sa)
        self._lcp = np.asarray(lcp, dtype=np.int64)
        self._rank = np.empty(n, dtype=np.int64)
        self._rank[self._sa] = np.arange(n, dtype=np.int64)
        self._rmq = SparseTableRmq(self._lcp)

    def lce(self, i: int, j: int) -> int:
        n = len(self._codes)
        if i == j:
            return n - i
        if i >= n or j >= n:
            return 0
        ri, rj = int(self._rank[i]), int(self._rank[j])
        if ri > rj:
            ri, rj = rj, ri
        return int(self._rmq.query(ri + 1, rj))

    def lce_batch(self, i: np.ndarray, j: np.ndarray, lo: "int | np.ndarray" = 0) -> np.ndarray:
        """:meth:`lce` for every pair, one batched RMQ over the LCP array.

        *lo* is accepted for interface parity and not needed: the RMQ
        answers are exact.
        """
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        n = len(self._codes)
        out = np.zeros(len(i), dtype=np.int64)
        inside = (i < n) & (j < n)
        same = inside & (i == j)
        out[same] = n - i[same]
        pairs = np.flatnonzero(inside & (i != j))
        ri = self._rank[i[pairs]]
        rj = self._rank[j[pairs]]
        out[pairs] = self._rmq.query_batch(np.minimum(ri, rj) + 1, np.maximum(ri, rj))
        return out
