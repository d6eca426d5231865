"""Dynamic USI under letter appends (Section X).

The paper sketches a partial solution for appending letters and notes
that maintaining suffix-tree node frequencies and the hash table
online "can in general be very costly", deferring it to future work.
This module implements a *correct and practical* dynamic index with
the standard static-to-dynamic transformation:

* a static :class:`~repro.core.usi.UsiIndex` over a frozen prefix
  ``S[0 .. n0-1]``;
* a growing *tail* buffer of appended letters plus an incrementally
  extended ``PSW`` (O(1) per append, exactly as in the paper's
  sketch);
* queries merge (a) the static answer over occurrences fully inside
  the prefix with (b) a vectorised sliding-window scan of the
  boundary-plus-tail region, whose length is bounded by the rebuild
  threshold;
* when the tail outgrows ``rebuild_fraction * n`` the whole index is
  rebuilt, giving amortised O(construction / threshold) per append.

This preserves the paper's query semantics exactly (property-tested
against a from-scratch rebuild) while keeping appends cheap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.usi import MinerName, UsiIndex
from repro.errors import ParameterError
from repro.strings.weighted import WeightedString
from repro.utility.functions import (
    AggregatorName,
    make_global_utility,
    merge_partial_answers,
)


class DynamicUsiIndex:
    """An appendable USI index.

    Parameters
    ----------
    ws:
        The initial weighted string.
    k:
        Top-K parameter forwarded to every (re)build.
    rebuild_fraction:
        Rebuild when the tail exceeds this fraction of the total
        length (minimum :attr:`MIN_TAIL` letters, so small indexes do
        not rebuild on every append).
    """

    MIN_TAIL = 64

    def __init__(
        self,
        ws: WeightedString,
        k: int,
        aggregator: "AggregatorName" = "sum",
        miner: MinerName = "exact",
        rebuild_fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ParameterError("rebuild_fraction must be in (0, 1]")
        self._k = k
        self._aggregator_name = aggregator
        self._utility = make_global_utility(aggregator)
        self._miner: MinerName = miner
        self._fraction = rebuild_fraction
        self._seed = seed
        self._tail_codes: list[int] = []
        self._tail_utilities: list[float] = []
        self._psw_cache: "tuple[int, np.ndarray] | None" = None
        self._tail_cache: "tuple[int, np.ndarray] | None" = None
        self.rebuild_count = 0
        self._base = UsiIndex.build(ws, k=k, miner=miner, aggregator=aggregator, seed=seed)

    @classmethod
    def from_parts(
        cls,
        base: UsiIndex,
        tail_codes,
        tail_utilities,
        *,
        k: int,
        miner: MinerName = "exact",
        rebuild_fraction: float = 0.25,
        seed: int = 0,
        rebuild_count: int = 0,
    ) -> "DynamicUsiIndex":
        """Reassemble an index from a frozen-prefix base plus a tail.

        The checkpoint-restore path (:func:`repro.io.load_index` on a
        v4 container): *base* is a prebuilt static index over the
        frozen prefix and the tails are the letters appended since, so
        no rebuild happens on restore.
        """
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ParameterError("rebuild_fraction must be in (0, 1]")
        if len(tail_codes) != len(tail_utilities):
            raise ParameterError("tail codes and utilities must have equal length")
        self = cls.__new__(cls)
        self._k = int(k)
        self._aggregator_name = base.utility.name
        self._utility = base.utility
        self._miner = miner
        self._fraction = rebuild_fraction
        self._seed = seed
        self._tail_codes = [int(code) for code in tail_codes]
        self._tail_utilities = [float(utility) for utility in tail_utilities]
        self._psw_cache = None
        self._tail_cache = None
        self.rebuild_count = int(rebuild_count)
        self._base = base
        return self

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    @property
    def base(self) -> UsiIndex:
        """The static index over the frozen prefix (checkpoint payload)."""
        return self._base

    @property
    def k(self) -> int:
        return self._k

    @property
    def miner(self) -> MinerName:
        return self._miner

    @property
    def rebuild_fraction(self) -> float:
        return self._fraction

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def tail_codes(self) -> list[int]:
        return list(self._tail_codes)

    @property
    def tail_utilities(self) -> list[float]:
        return list(self._tail_utilities)

    @property
    def length(self) -> int:
        """Current total text length (prefix + tail)."""
        return self._base.weighted_string.length + len(self._tail_codes)

    @property
    def tail_length(self) -> int:
        return len(self._tail_codes)

    def append(self, letter, utility: float) -> None:
        """Append one letter with its utility (amortised cheap).

        The letter must already belong to the alphabet of the initial
        string (appending novel letters would change every index's
        alphabet; reject explicitly rather than guess).
        """
        alphabet = self._base.weighted_string.alphabet
        code = alphabet.code(letter) if not isinstance(letter, (int, np.integer)) else int(letter)
        if not 0 <= code < alphabet.size:
            raise ParameterError(f"letter code {code} outside alphabet")
        self._tail_codes.append(code)
        self._tail_utilities.append(float(utility))
        threshold = max(self.MIN_TAIL, int(self._fraction * self.length))
        if len(self._tail_codes) > threshold:
            self._rebuild()

    def extend(self, letters, utilities: "Sequence[float]") -> None:
        """Append many letters (still amortised through rebuilds)."""
        if len(letters) != len(utilities):
            raise ParameterError("letters and utilities must have equal length")
        for letter, utility in zip(letters, utilities):
            self.append(letter, utility)

    def _rebuild(self) -> None:
        ws = self.to_weighted_string()
        self._base = UsiIndex.build(
            ws,
            k=self._k,
            miner=self._miner,
            aggregator=self._aggregator_name,
            seed=self._seed,
        )
        self._tail_codes.clear()
        self._tail_utilities.clear()
        self._psw_cache = None
        self._tail_cache = None
        self.rebuild_count += 1

    def to_weighted_string(self) -> WeightedString:
        """The full current text as a fresh :class:`WeightedString`."""
        base_ws = self._base.weighted_string
        codes = np.concatenate(
            (base_ws.codes, np.asarray(self._tail_codes, dtype=np.int32))
        )
        utilities = np.concatenate(
            (base_ws.utilities, np.asarray(self._tail_utilities, dtype=np.float64))
        )
        return WeightedString(codes, utilities, base_ws.alphabet)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _encode(
        self, pattern: "str | bytes | Sequence[int] | np.ndarray"
    ) -> "np.ndarray | None":
        """Encode a pattern; ``None`` means it cannot occur in the text."""
        return self._base.weighted_string.alphabet.try_encode_pattern(pattern)

    def query(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> float:
        """``U(pattern)`` over the *current* text (prefix + tail)."""
        codes = self._encode(pattern)
        if codes is None or len(codes) == 0:
            return self._utility.identity

        m = len(codes)
        n0 = self._base.weighted_string.length
        if m > self.length:
            return self._utility.identity

        # Occurrences fully inside the frozen prefix: the static index.
        base_value = self._base.query(codes) if m <= n0 else self._utility.identity

        # Occurrences crossing the boundary or inside the tail: one
        # vectorised sliding-window comparison over the short region.
        positions = self._tail_matches(codes, m, n0)
        if positions.size == 0:
            return float(base_value)
        psw_all = self._full_prefix_sums()
        locals_ = psw_all[positions + m] - psw_all[positions]
        if self._utility.name == "sum":
            return float(base_value + locals_.sum())
        # min / max / avg need the static count to merge the disjoint
        # prefix and boundary-plus-tail occurrence sets exactly.
        base_count = self._base.count(codes) if m <= n0 else 0
        tail_value = self._utility.aggregate(locals_)
        return merge_partial_answers(
            self._utility,
            (float(base_value), float(tail_value)),
            (int(base_count), int(positions.size)),
        )

    def query_batch(self, patterns: "Sequence") -> list[float]:
        """Batch query over the current text (per-pattern; order kept).

        The dynamic index has no cross-pattern vectorisation (the tail
        scan dominates), but exposing the protocol method keeps it a
        drop-in behind :class:`~repro.service.engine.QueryEngine`.
        """
        return [self.query(pattern) for pattern in patterns]

    def count(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> int:
        """``|occ(pattern)|`` over the current text (prefix + tail)."""
        codes = self._encode(pattern)
        if codes is None or len(codes) == 0:
            return 0
        m = len(codes)
        n0 = self._base.weighted_string.length
        if m > self.length:
            return 0
        count = self._base.count(codes) if m <= n0 else 0
        return count + int(self._tail_matches(codes, m, n0).size)

    def _tail_matches(self, codes: np.ndarray, m: int, n0: int) -> np.ndarray:
        """Start positions of matches crossing the boundary or in the tail.

        Every window starting at >= n0 - m + 1 crosses the boundary or
        lies in the tail, so these positions are disjoint from the
        static index's occurrence set and never double-count it.
        """
        region_start = max(0, n0 - m + 1)
        full = self._full_codes_region(region_start)
        if len(full) < m:
            return np.empty(0, dtype=np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(full, m)
        hits = np.flatnonzero(
            (windows == np.asarray(codes, dtype=np.int64)).all(axis=1)
        )
        positions = hits.astype(np.int64) + region_start
        # Windows fully inside the prefix were already answered by the
        # static index (only possible when region_start clamps to 0).
        return positions[positions + m > n0]

    def _full_codes_region(self, start: int) -> np.ndarray:
        base_ws = self._base.weighted_string
        return np.concatenate((base_ws.codes[start:].astype(np.int64), self._tail_array()))

    def _tail_array(self) -> np.ndarray:
        """The tail letters as an int64 array, cached until the next append."""
        cached = getattr(self, "_tail_cache", None)
        if cached is not None and cached[0] == len(self._tail_codes):
            return cached[1]
        tail = np.asarray(self._tail_codes, dtype=np.int64)
        self._tail_cache = (len(tail), tail)
        return tail

    def _full_prefix_sums(self) -> np.ndarray:
        cached = self._psw_cache
        if cached is not None and cached[0] == len(self._tail_utilities):
            return cached[1]
        base_ws = self._base.weighted_string
        all_w = np.concatenate(
            (base_ws.utilities, np.asarray(self._tail_utilities, dtype=np.float64))
        )
        psw = np.concatenate(([0.0], np.cumsum(all_w)))
        self._psw_cache = (len(self._tail_utilities), psw)
        return psw
