"""Vectorised batch locate over a suffix array.

The scalar ``SuffixArray.interval`` walks an ``O(m log n)`` binary
search one pattern at a time in pure Python.  This module answers the
SA intervals of a whole *batch* of equal-length patterns with numpy,
from one **prefix-key array** per suffix array:

* every suffix's first ``W`` letters are rank-encoded into one
  base-``B`` int64, ``B = max code + 2`` and ``W = pack_limit(B)`` the
  longest width that fits (26 letters of DNA, 13 of a 25-letter
  alphabet).  In SA order the keys are non-decreasing (the pad digit
  0, past the end of the text, sorts before every letter).  The array
  costs 8 bytes per text character and is built once, by
  :func:`packed_window_keys`;
* a pattern of ``m <= W`` letters matches exactly the suffixes whose
  keys lie in ``[key * B^(W-m), (key + 1) * B^(W-m))``, so two
  ``np.searchsorted`` calls yield the intervals of the whole batch;
* a longer pattern takes the interval of its ``W``-letter prefix the
  same way, then the classic two binary searches run over the batch
  in lockstep *inside* those intervals: each round gathers one window
  matrix of the letters after the first ``W`` with a single
  fancy-index and compares it row-wise against the patterns.

Both steps return exactly the interval the scalar search would: the
closed SA range ``[lb, rb]`` of suffixes having the pattern as a
prefix, ``(0, -1)`` when absent.
"""

from __future__ import annotations

import math

import numpy as np

#: Packed keys are built in int64; keep one bit of headroom.
_KEY_BITS = 62


def pack_limit(base: int) -> int:
    """Longest window length whose base-``base`` key fits in 62 bits."""
    if base <= 1:
        return _KEY_BITS
    return max(1, int(_KEY_BITS / math.log2(base)))


def ragged_ids_offsets(counts: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Expand per-group *counts* into ``(group_ids, within_offsets)``.

    The ragged-expansion kernel shared by every vectorised unroll in
    the library (suffix-tree edge expansion, LMS-substring comparison,
    induction-chain unrolling): group ``g`` with ``counts[g] == c``
    contributes ``c`` consecutive entries carrying ids ``g`` and
    offsets ``0 .. c - 1``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    ids = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    return ids, offsets


def packed_window_keys(codes: np.ndarray, sa: np.ndarray, length: int, base: int) -> np.ndarray:
    """Rank-encoded keys of every suffix's first *length* letters, SA order.

    Letters are shifted by +1 so the pad digit 0 (positions past the
    end of the text) sorts before every real letter, matching the
    prefix-aware comparison of the scalar search.  The keys are built
    in text order with *length* Horner passes over contiguous slices,
    then gathered once by the suffix array; the result is
    non-decreasing along it.
    """
    n = len(codes)
    padded = np.zeros(n + length, dtype=np.int64)
    padded[:n] = codes
    padded[:n] += 1
    keys = np.zeros(n, dtype=np.int64)
    for j in range(length):
        keys *= base
        keys += padded[j : j + n]
    return keys[sa]


def pack_patterns(matrix: np.ndarray, base: int) -> np.ndarray:
    """The base-``base`` key of each pattern row (same encoding)."""
    keys = np.zeros(len(matrix), dtype=np.int64)
    for j in range(matrix.shape[1]):
        keys = keys * base + (matrix[:, j].astype(np.int64) + 1)
    return keys


def _batch_compare(codes: np.ndarray, sa: np.ndarray, mids: np.ndarray,
                   matrix: np.ndarray, depth: int) -> np.ndarray:
    """Sign of (suffix at ``sa[mid]`` vs pattern) per row, prefix-aware.

    Only letters from *depth* on are compared: the caller guarantees
    the first *depth* already match.  0 means the pattern is a prefix
    of the suffix; positions past the end of the text read as -1, so
    a suffix shorter than the pattern compares below it, exactly like
    ``SuffixArray._compare_suffix``.
    """
    n = len(codes)
    positions = sa[mids][:, None] + np.arange(depth, matrix.shape[1])
    windows = np.where(positions < n, codes[np.minimum(positions, n - 1)], -1)
    neq = windows != matrix[:, depth:]
    any_neq = neq.any(axis=1)
    first = np.where(any_neq, neq.argmax(axis=1), 0)
    rows = np.arange(len(matrix))
    window_letter = windows[rows, first]
    pattern_letter = matrix[rows, depth + first]
    return np.where(any_neq, np.sign(window_letter - pattern_letter), 0)


def batch_interval_lockstep(codes: np.ndarray, sa: np.ndarray, matrix: np.ndarray,
                            lo: np.ndarray, hi: np.ndarray,
                            depth: int) -> tuple[np.ndarray, np.ndarray]:
    """SA intervals via two lockstep binary searches (any length).

    Row ``r`` is searched inside the SA range ``[lo[r], hi[r])``, whose
    suffixes all share the row's first *depth* letters; an empty range
    yields an empty interval.  Returns closed ``(lb, rb)`` arrays.
    """
    n = len(codes)
    # Keep the codes' own dtype: memory-mapped int32 texts must not be
    # copied up to int64 here (comparisons broadcast across widths).
    codes = np.asarray(codes)
    matrix = np.asarray(matrix, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)

    def first_suffix(lo: np.ndarray, above: bool) -> np.ndarray:
        # Per row, the first suffix in [lo, hi) comparing > the pattern
        # (above) or >= it (not above).
        top = hi
        while True:
            active = lo < top
            if not active.any():
                return lo
            mid = np.minimum((lo + top) >> 1, n - 1)
            cmp = _batch_compare(codes, sa, mid, matrix, depth)
            go_right = active & ((cmp <= 0) if above else (cmp < 0))
            lo = np.where(go_right, mid + 1, lo)
            top = np.where(active & ~go_right, mid, top)

    lb = first_suffix(np.asarray(lo, dtype=np.int64), above=False)
    return lb, first_suffix(lb, above=True) - 1


def batch_intervals(
    codes: np.ndarray,
    sa: np.ndarray,
    keys: np.ndarray,
    base: int,
    matrix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed SA intervals ``[lb, rb]`` for every row of *matrix*.

    *keys* is the SA-order prefix-key array
    ``packed_window_keys(codes, sa, pack_limit(base), base)`` with
    ``base = max(codes) + 2``.  Rows containing letters outside
    ``[0, max(codes)]`` cannot occur and report the empty interval
    ``(0, -1)`` directly.  A pattern of ``m <= W = pack_limit(base)``
    letters matches exactly the suffixes whose keys fall in
    ``[key * base^(W-m), (key + 1) * base^(W-m))``, so two
    ``np.searchsorted`` calls answer the whole batch.  Longer patterns
    take the interval of their ``W``-letter prefix the same way and
    finish with the lockstep binary search inside it.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.int64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D pattern matrix")
    batch, m = matrix.shape
    lb = np.zeros(batch, dtype=np.int64)
    rb = np.full(batch, -1, dtype=np.int64)
    if batch == 0 or m == 0 or m > len(codes):
        return lb, rb
    valid = (matrix.min(axis=1) >= 0) & (matrix.max(axis=1) <= base - 2)
    if not valid.any():
        return lb, rb
    sub = matrix[valid]
    width = pack_limit(base)
    head = min(m, width)
    scale = base ** (width - head)
    pattern_keys = pack_patterns(sub[:, :head], base)
    left = np.searchsorted(keys, pattern_keys * scale)
    end = np.searchsorted(keys, (pattern_keys + 1) * scale)
    if m > width:
        left, right = batch_interval_lockstep(codes, sa, sub, left, end, depth=width)
    else:
        right = end - 1
    # Normalise absent patterns to the scalar search's (0, -1).
    empty = right < left
    lb[valid] = np.where(empty, 0, left)
    rb[valid] = np.where(empty, -1, right)
    return lb, rb
