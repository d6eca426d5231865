"""Local and global utility functions (the class ``U`` of Section III).

A *local* utility function aggregates the position utilities of one
occurrence (fragment); a *global* utility function aggregates the
local utilities of all occurrences.  The paper's class ``U`` requires
the local function to have the sliding-window property (sum does) and
the global aggregator to be linear-time computable (sum, min, max,
avg).

:class:`GlobalUtility` bundles the two together with:

* ``identity`` — the value reported for patterns with no occurrences;
* scalar aggregation (query-path, one occurrence at a time);
* vectorised aggregation over a numpy array of local utilities
  (construction-path and SA-query batch path).

The RMQ-backed ``min``/``max`` *local* utilities are an extension
beyond the paper's sliding-window requirement: they are not
sliding-window but still O(1) per fragment, so the USI machinery works
with them unchanged.
"""

from __future__ import annotations

from typing import Callable, Literal, Protocol, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.suffix.rmq import SparseTableRmq
from repro.utility.prefix_sums import PswArray

AggregatorName = Literal["sum", "min", "max", "avg"]


class LocalUtility(Protocol):
    """O(1)-per-fragment local utility over a fixed weight array."""

    def local_utility(self, i: int, length: int) -> float:  # pragma: no cover
        ...

    def local_utilities(self, positions: np.ndarray, length: int) -> np.ndarray:  # pragma: no cover
        ...


class PrefixSumLocalUtility(PswArray):
    """The canonical sliding-window local utility: the sum.

    Identical to :class:`PswArray`; the alias exists so call sites can
    speak the paper's vocabulary.
    """


class ProductLocalUtility:
    """Local utility = product of position utilities (expected frequency).

    The paper's bioinformatics motivation: with per-base correctness
    probabilities ``w``, the *expected frequency* of a pattern is the
    sum over occurrences of the product of probabilities — "sum of
    products".  Products of a fragment have the sliding-window
    property in log space, so ``PSW`` becomes prefix sums of
    ``log w`` and every fragment product is one ``exp`` away.

    Requires strictly positive utilities.
    """

    def __init__(self, utilities: "Sequence[float] | np.ndarray") -> None:
        w = np.asarray(utilities, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ParameterError("product utilities require a non-empty 1-D array")
        if not np.all(w > 0):
            raise ParameterError(
                "product local utilities require strictly positive weights"
            )
        self._log_psw = np.concatenate(([0.0], np.cumsum(np.log(w))))

    @property
    def length(self) -> int:
        return len(self._log_psw) - 1

    def local_utility(self, i: int, length: int) -> float:
        """``u(i, length) = w[i] * ... * w[i + length - 1]``."""
        if length <= 0 or i < 0 or i + length > self.length:
            raise ParameterError(
                f"fragment ({i}, {length}) out of range for n={self.length}"
            )
        return float(np.exp(self._log_psw[i + length] - self._log_psw[i]))

    def local_utilities(self, positions: np.ndarray, length: int) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) + length > self.length
        ):
            raise ParameterError("fragment positions out of range")
        return np.exp(self._log_psw[positions + length] - self._log_psw[positions])

    def nbytes(self) -> int:
        return int(self._log_psw.nbytes)


LocalUtilityName = Literal["sum", "product", "min", "max"]


def make_local_utility(
    name: LocalUtilityName, utilities: "Sequence[float] | np.ndarray"
) -> LocalUtility:
    """Instantiate a local utility function by name.

    The instance is tagged with ``local_name`` so persisted indexes can
    record which local function they were built with.
    """
    classes = {
        "sum": PrefixSumLocalUtility,
        "product": ProductLocalUtility,
        "min": RangeMinLocalUtility,
        "max": RangeMaxLocalUtility,
    }
    if name not in classes:
        raise ParameterError(f"unknown local utility {name!r}")
    instance = classes[name](utilities)
    instance.local_name = name  # type: ignore[attr-defined]
    return instance


class _RangeLocalUtility:
    """Shared machinery for RMQ-backed min/max local utilities."""

    def __init__(self, utilities: "Sequence[float] | np.ndarray", maximum: bool) -> None:
        w = np.asarray(utilities, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ParameterError("range utilities require a non-empty 1-D array")
        self._w = w
        self._rmq = SparseTableRmq(w, maximum=maximum)

    @property
    def length(self) -> int:
        return len(self._w)

    def local_utility(self, i: int, length: int) -> float:
        if length <= 0 or i < 0 or i + length > len(self._w):
            raise ParameterError(
                f"fragment ({i}, {length}) out of range for n={len(self._w)}"
            )
        return float(self._rmq.query(i, i + length - 1))

    def local_utilities(self, positions: np.ndarray, length: int) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            length <= 0 or int(positions.min()) < 0 or int(positions.max()) + length > len(self._w)
        ):
            raise ParameterError("fragment positions out of range")
        # Every span has the same length, so this is one table level.
        return self._rmq.query_batch(positions, positions + length - 1)

    def nbytes(self) -> int:
        return int(self._w.nbytes)


class RangeMinLocalUtility(_RangeLocalUtility):
    """Local utility = min position utility in the fragment."""

    def __init__(self, utilities: "Sequence[float] | np.ndarray") -> None:
        super().__init__(utilities, maximum=False)


class RangeMaxLocalUtility(_RangeLocalUtility):
    """Local utility = max position utility in the fragment."""

    def __init__(self, utilities: "Sequence[float] | np.ndarray") -> None:
        super().__init__(utilities, maximum=True)


class GlobalUtility:
    """A global aggregator from the paper's class ``U``.

    Parameters
    ----------
    name:
        One of ``"sum"``, ``"min"``, ``"max"``, ``"avg"``.  The paper's
        experiments use the commonly-used "sum of sums".
    """

    def __init__(self, name: AggregatorName = "sum") -> None:
        if name not in ("sum", "min", "max", "avg"):
            raise ParameterError(f"unknown global aggregator {name!r}")
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    @property
    def identity(self) -> float:
        """Value reported for a pattern with zero occurrences.

        The paper defines ``u = 0`` outside valid fragments and sums
        over an empty set for absent patterns, so every aggregator
        reports 0.0 for no occurrences.
        """
        return 0.0

    def aggregate(self, local_utilities: np.ndarray) -> float:
        """Fold a batch of local utilities into the global utility."""
        values = np.asarray(local_utilities, dtype=np.float64)
        if values.size == 0:
            return self.identity
        if self._name == "sum":
            return float(values.sum())
        if self._name == "min":
            return float(values.min())
        if self._name == "max":
            return float(values.max())
        return float(values.mean())

    def grouped_aggregate(self, group_index: np.ndarray, values: np.ndarray,
                          group_count: int) -> np.ndarray:
        """Aggregate *values* per group — the construction-phase kernel.

        ``group_index[k]`` says which group ``values[k]`` belongs to
        (e.g. which distinct fingerprint); returns one aggregated value
        per group.  Vectorised with ``bincount`` / ``ufunc.at``.
        """
        values = np.asarray(values, dtype=np.float64)
        if self._name in ("sum", "avg"):
            sums = np.bincount(group_index, weights=values, minlength=group_count)
            if self._name == "sum":
                return sums
            counts = np.bincount(group_index, minlength=group_count)
            with np.errstate(invalid="ignore"):
                return np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        if self._name == "min":
            out = np.full(group_count, np.inf)
            np.minimum.at(out, group_index, values)
            return out
        out = np.full(group_count, -np.inf)
        np.maximum.at(out, group_index, values)
        return out

    # ------------------------------------------------------------------
    # Mergeable running state (used by the dynamic index and streaming)
    # ------------------------------------------------------------------
    def fresh_state(self) -> tuple[float, int]:
        """An empty running-aggregate state ``(accumulator, count)``."""
        if self._name == "min":
            return (np.inf, 0)
        if self._name == "max":
            return (-np.inf, 0)
        return (0.0, 0)

    def push(self, state: tuple[float, int], value: float) -> tuple[float, int]:
        """Fold one local utility into a running state."""
        acc, count = state
        if self._name == "min":
            return (min(acc, value), count + 1)
        if self._name == "max":
            return (max(acc, value), count + 1)
        return (acc + value, count + 1)

    def finalize(self, state: tuple[float, int]) -> float:
        """Extract the global utility from a running state."""
        acc, count = state
        if count == 0:
            return self.identity
        if self._name == "avg":
            return acc / count
        return float(acc)


def make_global_utility(name: "AggregatorName | GlobalUtility") -> GlobalUtility:
    """Coerce a name or instance into a :class:`GlobalUtility`."""
    if isinstance(name, GlobalUtility):
        return name
    return GlobalUtility(name)


def merge_partial_answers(
    aggregator: "AggregatorName | GlobalUtility",
    values: Sequence[float],
    counts: Sequence[int],
) -> float:
    """Fold disjoint partial answers ``(U_i, |occ_i|)`` into one global one.

    When a text is split so that no occurrence spans two parts (the
    document-aligned sharding invariant, or the prefix/tail split of
    the dynamic index), the occurrence multiset is the disjoint union
    of the per-part multisets and every class-``U`` aggregator merges
    exactly from per-part ``(value, count)`` pairs:

    * ``sum``    — the sum of part sums;
    * ``min``/``max`` — the min/max over parts with >= 1 occurrence;
    * ``avg``    — part averages recombined with part counts as
      weights (the only merge that re-divides, so it is exact up to
      one extra float rounding).

    Parts with ``count == 0`` contribute nothing (their ``value`` is
    the identity placeholder and must not poison a min/max).
    """
    aggregator = make_global_utility(aggregator)
    occupied = [(v, c) for v, c in zip(values, counts) if c > 0]
    if not occupied:
        return aggregator.identity
    name = aggregator.name
    if name == "min":
        return float(min(v for v, _ in occupied))
    if name == "max":
        return float(max(v for v, _ in occupied))
    if name == "avg":
        total = sum(c for _, c in occupied)
        return float(sum(v * c for v, c in occupied) / total)
    return float(sum(v for v, _ in occupied))
