"""Answer checks.  Each returns a list of problems; empty means correct.

Utilities are compared exactly: the inputs use dyadic utilities (see
``inputs.UTILITY_GRID``), so every correct answer is the exact float the
reference computes, whatever order the program sums occurrences in.
Answers are compared slot by slot, so a reordered answer fails too.
"""

from __future__ import annotations

import json

import numpy as np


def compare_values(got, expected, label: str) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return [f"{label}: {got.size} answers for {expected.size} patterns"]
    wrong = np.flatnonzero(got != expected)
    if wrong.size == 0:
        return []
    first = int(wrong[0])
    return [f"{label}: {wrong.size} wrong answer(s); first at slot {first}: "
            f"got {got[first]!r}, expected {expected[first]!r}"]


def check_query_response(body: bytes, patterns: list[str], with_count: bool,
                         expected: dict, label: str) -> list[str]:
    """Check one ``POST /query`` 200 response against the reference.

    *expected* maps each pattern to ``(utility, count)``.  The rows must
    echo the patterns in request order and carry the reference utility
    and, when counts were asked for, the reference count.
    """
    try:
        rows = json.loads(body)["results"]
    except (ValueError, KeyError, TypeError) as error:
        return [f"{label}: unreadable response ({error})"]
    if len(rows) != len(patterns):
        return [f"{label}: {len(rows)} rows for {len(patterns)} patterns"]
    for slot, (row, pattern) in enumerate(zip(rows, patterns)):
        if row.get("pattern") != pattern:
            return [f"{label}: row {slot} answers {row.get('pattern')!r}, sent {pattern!r}"]
        utility, count = expected[pattern]
        if row.get("utility") != utility:
            return [f"{label}: U({pattern!r}) = {row.get('utility')!r}, expected {utility!r}"]
        if with_count and row.get("count") != count:
            return [f"{label}: count({pattern!r}) = {row.get('count')!r}, expected {count!r}"]
    return []


def expected_after(cumulative: np.ndarray, documents: int, slots) -> np.ndarray:
    """Reference answers for pattern *slots* after *documents* appends;
    row ``d`` of *cumulative* holds the answers over documents ``0..d``."""
    slots = np.asarray(slots, dtype=np.int64)
    if documents == 0:
        return np.zeros(len(slots), dtype=cumulative.dtype)
    return cumulative[documents - 1, slots]
