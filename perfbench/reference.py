"""Exact answers computed apart from the program.

:func:`window_answers` groups every text window of each queried length
by content.  Windows are keyed by a rolling 64-bit polynomial hash and
matched against the pattern keys with one sorted probe per length;
every matched window is then compared letter by letter, so a hash
collision can never produce a wrong answer.  A window's local utility
is the sum of its weights and a pattern's utility is the sum over its
occurrences (the paper's "sum of sums"), which is what every workload
queries.  :func:`brute_force` is the slow definition the tests hold
:func:`window_answers` to.
"""

from __future__ import annotations

import numpy as np

_MULT = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def pattern_key(pattern) -> int:
    """The rolling hash of one pattern (matches the window keys)."""
    key = 0
    for code in np.asarray(pattern, dtype=np.int64).tolist():
        key = (key * _MULT + code + 1) & _MASK
    return key


def window_answers(codes, weights, patterns, group=None, groups: int = 0):
    """Utility and occurrence count of each of *patterns* in the text.

    *codes* and every pattern use the same integer coding; *patterns*
    must be pairwise distinct.  With *group* (one group id per text
    position, e.g. its document) the answers are split by group and
    returned as ``(groups, len(patterns))`` arrays; otherwise as
    ``(len(patterns),)`` arrays.  Returns ``(utilities, counts)``.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = len(codes)
    prefix = np.concatenate(([0.0], np.cumsum(np.asarray(weights, dtype=np.float64))))
    shape = (groups, len(patterns)) if group is not None else (len(patterns),)
    utilities = np.zeros(shape, dtype=np.float64)
    counts = np.zeros(shape, dtype=np.int64)
    by_length: dict[int, list[int]] = {}
    for slot, pattern in enumerate(patterns):
        if len(pattern) == 0:
            raise ValueError("patterns must be non-empty")
        by_length.setdefault(len(pattern), []).append(slot)
    if not by_length:
        return utilities, counts
    shifted = (codes + 1).astype(np.uint64)
    keys = np.zeros(n + 1, dtype=np.uint64)
    for m in range(1, min(max(by_length), n) + 1):
        with np.errstate(over="ignore"):
            keys = keys[: n - m + 1] * np.uint64(_MULT) + shifted[m - 1 :]
        slots = by_length.get(m)
        if slots is None:
            continue
        pattern_keys = np.asarray([pattern_key(patterns[s]) for s in slots], dtype=np.uint64)
        order = np.argsort(pattern_keys)
        pattern_keys = pattern_keys[order]
        slots = np.asarray(slots, dtype=np.int64)[order]
        if np.any(pattern_keys[1:] == pattern_keys[:-1]):
            raise RuntimeError(f"reference hash collision among length-{m} patterns")
        matrix = np.vstack([np.asarray(patterns[s], dtype=np.int64) for s in slots])
        probe = np.searchsorted(pattern_keys, keys)
        probe[probe == len(pattern_keys)] = 0
        starts = np.flatnonzero(pattern_keys[probe] == keys)
        which = probe[starts]
        same = np.ones(len(starts), dtype=bool)
        for j in range(m):
            same &= codes[starts + j] == matrix[which, j]
        starts, which = starts[same], which[same]
        local = prefix[starts + m] - prefix[starts]
        if group is None:
            utilities[slots] = np.bincount(which, weights=local, minlength=len(slots))
            counts[slots] = np.bincount(which, minlength=len(slots))
        else:
            cell = np.asarray(group, dtype=np.int64)[starts] * len(slots) + which
            size = groups * len(slots)
            utilities[:, slots] = np.bincount(cell, weights=local, minlength=size).reshape(groups, len(slots))
            counts[:, slots] = np.bincount(cell, minlength=size).reshape(groups, len(slots))
    return utilities, counts


def brute_force(codes, weights, pattern) -> "tuple[float, int]":
    """``(utility, count)`` of *pattern* by checking every position."""
    codes = list(np.asarray(codes, dtype=np.int64).tolist())
    weights = list(np.asarray(weights, dtype=np.float64).tolist())
    pattern = list(np.asarray(pattern, dtype=np.int64).tolist())
    m = len(pattern)
    utility, count = 0.0, 0
    for i in range(len(codes) - m + 1):
        if codes[i : i + m] == pattern:
            utility += sum(weights[i : i + m])
            count += 1
    return utility, count
