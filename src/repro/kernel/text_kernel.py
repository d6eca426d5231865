"""The shared text-index substrate: build once, inject everywhere.

Every engine family in this library rests on the same four primitives
over one encoded text: the int64 code array, the suffix array (plus a
lazily built LCP), the position-utility prefix sums (``PSW``), and the
Karp-Rabin fingerprint tables.  Before this module each backend built
and owned private copies; a :class:`TextKernel` builds them exactly
once and is injected into every backend constructed over the same
text (``repro.build(..., kernel=kernel)``), so building ``usi`` +
``bsl1`` + ``fm`` from one kernel encodes the text a single time.

The kernel also owns the **vectorised batch query path**: pattern
batches are grouped by length, located with the suffix-array batch
kernel (:mod:`repro.suffix.batch`), and their occurrence utilities
gathered from ``PSW`` with one fancy-index + one grouped aggregation —
the NumPy-bound warm path behind every backend's ``query_batch``.  That
gather (:func:`interval_utilities`) is also how the USI construction
fills its hash table from the miners' intervals, so a stored value and
a recomputed one agree bit for bit.

Construction is observable: :func:`record_kernel_builds` registers a
listener fed one event dict per substrate build, which is how the
``tests/kernel`` suite asserts the build-once discipline.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.hashing.karp_rabin import KarpRabinFingerprinter
from repro.profiling import record_stage
from repro.strings.weighted import WeightedString
from repro.suffix.suffix_array import SuffixArray
from repro.utility.functions import (
    GlobalUtility,
    LocalUtility,
    ProductLocalUtility,
    make_global_utility,
    make_local_utility,
)
from repro.utility.prefix_sums import PswArray

#: How many SA-order window-utility arrays one kernel caches for the
#: fused gather (each is one float64 per suffix).
_WINDOW_CACHE_LIMIT = 8

#: Listeners fed one dict per TextKernel substrate build/open.
_LISTENERS: "list[Callable[[dict], None]]" = []


def add_build_listener(listener: "Callable[[dict], None]") -> None:
    """Register *listener* to observe every kernel build (tests/metrics)."""
    _LISTENERS.append(listener)


def remove_build_listener(listener: "Callable[[dict], None]") -> None:
    _LISTENERS.remove(listener)


@contextmanager
def record_kernel_builds():
    """Collect kernel build events within a ``with`` block.

    Yields a list that receives one dict per :class:`TextKernel`
    created while the context is active: ``{"event": "build" | "open",
    "n": ..., "sa_algorithm": ...}``.  ``"build"`` events mark a full
    substrate construction (text encode + suffix array); ``"open"``
    marks a zero-construction rewrap of persisted parts.
    """
    events: list[dict] = []
    add_build_listener(events.append)
    try:
        yield events
    finally:
        remove_build_listener(events.append)


def _notify(event: dict) -> None:
    for listener in list(_LISTENERS):
        listener(event)


def iter_length_buckets(encoded: "Sequence[np.ndarray | None]"):
    """Yield ``(length, slots, matrix)`` per pattern-length bucket.

    The one bucketing implementation behind every vectorised batch
    path: ``None`` and empty entries are skipped (their slots keep the
    caller's default answer), the rest are grouped by length and
    stacked into one matrix per bucket, one pattern per row.
    """
    by_length: dict[int, list[int]] = {}
    for slot, codes in enumerate(encoded):
        if codes is not None and len(codes):
            by_length.setdefault(len(codes), []).append(slot)
    for length, slots in by_length.items():
        yield length, slots, np.vstack([encoded[slot] for slot in slots])


def interval_utilities(
    sa: np.ndarray,
    lb: np.ndarray,
    rb: np.ndarray,
    length: int,
    psw: LocalUtility,
    utility: GlobalUtility,
    *,
    window: "np.ndarray | None" = None,
    arange: "Callable[[int], np.ndarray]" = np.arange,
) -> np.ndarray:
    """Global utility of every SA interval ``[lb[i], rb[i]]``, vectorised.

    The one interval -> utility gather behind both the batch query path
    (:meth:`TextKernel.batch_utilities`, after locate) and the USI
    construction (the miners' intervals, :meth:`UsiIndex.build`): every
    interval's suffixes are unrolled in SA order, their length-*length*
    local utilities gathered from *psw* at ``sa[rank]`` with one fancy
    index, and folded per interval with one grouped aggregation.  Each
    interval accumulates in SA order whatever else is in the call, so a
    pattern's value does not depend on the batch it was answered in.

    Empty intervals (``rb < lb``) report the aggregator identity.
    *window*, when given, holds every suffix's local utility in SA
    order (the kernel's fused-gather cache) and replaces the SA + PSW
    gathers with one index; *arange* may hand out a shared scratch
    ``arange`` (read only).
    """
    counts = np.maximum(rb - lb + 1, 0)
    out = np.full(len(counts), utility.identity, dtype=np.float64)
    total = int(counts.sum())
    if total == 0:
        return out
    row_ids = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    ranks = arange(total) - np.repeat(starts - lb, counts)
    if window is not None:
        locals_ = window[ranks]
    else:
        locals_ = psw.local_utilities(sa[ranks], length)
    values = utility.grouped_aggregate(row_ids, locals_, len(counts))
    occupied = counts > 0
    out[occupied] = values[occupied]
    return out


class TextKernel:
    """The build-once substrate for one weighted string.

    Parameters
    ----------
    ws:
        The weighted string (use :meth:`build` for the coercing entry
        point that also accepts text and collections).
    sa_algorithm:
        Suffix-array construction algorithm (``"doubling"``/``"sais"``).
    seed:
        Karp-Rabin fingerprint seed.

    The suffix array is built eagerly (it *is* the substrate); the
    fingerprint tables and each local-utility ``PSW`` variant are
    built lazily on first use and cached, so a kernel reopened from a
    memory-mapped container stays cheap until queried.
    """

    def __init__(
        self,
        ws: WeightedString,
        *,
        sa_algorithm: str = "doubling",
        seed: int = 0,
    ) -> None:
        self._ws = ws
        self._codes = np.asarray(ws.codes, dtype=np.int64)
        self._seed = int(seed)
        self._sa_algorithm = sa_algorithm
        t0 = time.perf_counter()
        self._suffix = SuffixArray(self._codes, algorithm=sa_algorithm, with_lcp=False)  # type: ignore[arg-type]
        self.build_seconds = time.perf_counter() - t0
        self._bases: "tuple[int, int] | None" = None
        self._fp: "KarpRabinFingerprinter | None" = None
        self._psw_cache: dict[str, LocalUtility] = {}
        self._window_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._window_seen: dict[tuple, int] = {}
        self._arange_buf: "np.ndarray | None" = None
        _notify({"event": "build", "n": ws.length, "sa_algorithm": sa_algorithm})

    @classmethod
    def build(
        cls,
        source,
        *,
        sa_algorithm: str = "doubling",
        seed: int = 0,
    ) -> "TextKernel":
        """Build a kernel over text, a weighted string, or a collection.

        Collections are indexed through their separator-joined
        ``combined`` string (the same text every collection backend
        indexes), so one kernel serves them too.
        """
        from repro.strings.collection import WeightedStringCollection

        if isinstance(source, WeightedStringCollection):
            source = source.combined
        elif isinstance(source, (str, bytes)):
            source = WeightedString.uniform(source)
        elif not isinstance(source, WeightedString):
            raise ParameterError(
                f"cannot build a TextKernel over {type(source).__name__}; "
                "expected text, a WeightedString, or a collection"
            )
        return cls(source, sa_algorithm=sa_algorithm, seed=seed)

    @classmethod
    def from_parts(
        cls,
        ws: WeightedString,
        sa: np.ndarray,
        *,
        bases: "tuple[int, int] | None" = None,
        seed: int = 0,
    ) -> "TextKernel":
        """Rewrap persisted substrate arrays without any construction.

        *sa* and the weighted string's codes are adopted as given —
        including their dtype, so memory-mapped int32 codes stay
        mapped instead of being copied up to int64; every substrate
        consumer handles either width.  *bases* restores the exact
        Karp-Rabin pair the substrate was fingerprinted with, so
        persisted hash tables keep matching.
        """
        kernel = cls.__new__(cls)
        kernel._ws = ws
        kernel._codes = np.asarray(ws.codes)
        kernel._seed = int(seed)
        kernel._sa_algorithm = "persisted"
        kernel._suffix = SuffixArray.from_parts(kernel._codes, np.asarray(sa))
        kernel.build_seconds = 0.0
        kernel._bases = tuple(int(b) for b in bases) if bases is not None else None
        kernel._fp = None
        kernel._psw_cache = {}
        kernel._window_cache = OrderedDict()
        kernel._window_seen = {}
        kernel._arange_buf = None
        _notify({"event": "open", "n": ws.length, "sa_algorithm": "persisted"})
        return kernel

    # Pickle: the fused-gather window cache and the scratch arange are
    # derived accelerators rebuilt on demand; drop them from the state.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_window_cache", None)
        state.pop("_window_seen", None)
        state.pop("_arange_buf", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._window_cache = OrderedDict()
        self._window_seen = {}
        self._arange_buf = None

    # ------------------------------------------------------------------
    # Substrate accessors
    # ------------------------------------------------------------------
    @property
    def ws(self) -> WeightedString:
        return self._ws

    @property
    def codes(self) -> np.ndarray:
        """The text as a shared int64 code array."""
        return self._codes

    @property
    def length(self) -> int:
        return len(self._codes)

    @property
    def suffix(self) -> SuffixArray:
        """The shared :class:`SuffixArray` (LCP built lazily on it)."""
        return self._suffix

    @property
    def sa_algorithm(self) -> str:
        return self._sa_algorithm

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def fingerprinter(self) -> KarpRabinFingerprinter:
        """The shared Karp-Rabin tables (built on first use)."""
        if self._fp is None:
            if self._bases is not None:
                self._fp = KarpRabinFingerprinter.with_bases(self._codes, *self._bases)
            else:
                self._fp = KarpRabinFingerprinter(self._codes, seed=self._seed)
                self._bases = self._fp.bases
        return self._fp

    def psw(self, local: str = "sum") -> LocalUtility:
        """The shared local-utility structure for *local* (cached)."""
        cached = self._psw_cache.get(local)
        if cached is None:
            cached = make_local_utility(local, self._ws.utilities)  # type: ignore[arg-type]
            self._psw_cache[local] = cached
        return cached

    def matches(self, ws: WeightedString) -> bool:
        """Whether this kernel's substrate covers *ws*.

        Both the codes *and* the utilities must agree — the kernel's
        ``PSW`` answers utility queries, so a same-text kernel with
        different weights would silently return wrong utilities.
        """
        if ws is self._ws:
            return True
        return (
            ws.length == len(self._codes)
            and bool(np.array_equal(np.asarray(ws.codes), self._codes))
            and bool(np.array_equal(ws.utilities, self._ws.utilities))
        )

    def require_match(self, ws: WeightedString) -> None:
        if not self.matches(ws):
            raise ParameterError(
                "the supplied TextKernel was built over a different "
                "weighted string (text or utilities differ); build one "
                "kernel per distinct weighted string"
            )

    # ------------------------------------------------------------------
    # Vectorised batch query path
    # ------------------------------------------------------------------
    def batch_intervals(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """SA intervals of a batch of equal-length patterns (one per row)."""
        return self._suffix.interval_batch(matrix)

    def batch_utilities(
        self,
        encoded: "Sequence[np.ndarray | None]",
        utility: "str | GlobalUtility",
        *,
        psw: "LocalUtility | None" = None,
        local: str = "sum",
    ) -> list[float]:
        """Global utilities of many encoded patterns, vectorised.

        ``None`` entries (unencodable patterns) report the aggregator
        identity.  Patterns are bucketed by length; each bucket is one
        batch locate and one :func:`interval_utilities` gather — the
        same occurrence sets and utilities as the scalar SA path, in
        input order (sums may differ from the scalar path in the last
        float ULP because the grouped aggregation accumulates in a
        different order), and bit for bit the values the USI
        construction stores in its hash table ``H``.

        Hot buckets run **fused**: once a ``(local, length)`` pair has
        gathered about one text's worth of occurrences, the kernel
        caches the window utility of every suffix *in SA order* — then
        locate's interval ranks index that array directly, replacing
        the SA gather + two ``PSW`` gathers with a single fancy index.
        The cached values are the exact floats ``PSW`` produces and the
        grouped aggregation order is unchanged, so fused answers are
        bitwise identical to the unfused path.
        """
        utility = make_global_utility(utility)  # type: ignore[arg-type]
        if psw is None:
            psw = self.psw(local)
        out = np.full(len(encoded), utility.identity, dtype=np.float64)
        sa = self._suffix.sa
        for length, slots, matrix in iter_length_buckets(encoded):
            lb, rb = self._suffix.interval_batch(matrix)
            t0 = time.perf_counter()
            total = int(np.maximum(rb - lb + 1, 0).sum())
            if total:
                out[np.asarray(slots, dtype=np.int64)] = interval_utilities(
                    sa, lb, rb, length, psw, utility,
                    window=self._window_locals(psw, length, total),
                    arange=self._scratch_arange,
                )
            record_stage("gather", time.perf_counter() - t0)
        return out.tolist()

    def _scratch_arange(self, total: int) -> np.ndarray:
        """A read-only ``arange`` slice reused across batches (grow-only).

        Callers only read the slice (arithmetic on it allocates fresh
        output arrays), so sharing one buffer across concurrent batch
        queries is safe; a resize swaps in a new array, never mutates.
        """
        buf = self._arange_buf
        if buf is None or len(buf) < total:
            buf = np.arange(max(total, 4096), dtype=np.int64)
            self._arange_buf = buf
        return buf[:total]

    def _window_locals(self, psw, length: int, total: int) -> "np.ndarray | None":
        """SA-order window utilities for the fused gather, or ``None``.

        Entry ``i`` holds ``psw.local_utility(sa[i], length)`` (0.0
        where the suffix is shorter than *length* — such ranks never
        fall inside a match interval).  Built lazily per ``(local,
        length)`` once the cumulative gathered occurrences reach the
        text length — the O(n) build is then amortised — and only for
        the O(1)-per-position locals (sum/product); RMQ-backed locals
        would pay a Python loop per suffix to build it.  Foreign PSW
        instances (not this kernel's own) are never cached: there is
        no stable identity to key them by.
        """
        if not isinstance(psw, (PswArray, ProductLocalUtility)):
            return None
        name = getattr(psw, "local_name", None)
        if name is None or self._psw_cache.get(name) is not psw:
            return None
        cache = self._window_cache
        key = (name, length)
        window = cache.get(key)
        if window is not None:
            cache.move_to_end(key)
            return window
        n = len(self._codes)
        seen = self._window_seen.get(key, 0) + total
        self._window_seen[key] = seen
        if seen < n:
            return None
        sa = self._suffix.sa
        window = np.zeros(n, dtype=np.float64)
        valid = np.flatnonzero(sa <= n - length)
        if valid.size:
            window[valid] = psw.local_utilities(sa[valid], length)
        cache[key] = window
        if len(cache) > _WINDOW_CACHE_LIMIT:
            evicted, _ = cache.popitem(last=False)
            self._window_seen.pop(evicted, None)
        return window

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Substrate bytes: codes + SA(+LCP) + every built PSW + KR."""
        total = int(self._codes.nbytes) + self._suffix.nbytes()
        for psw in self._psw_cache.values():
            size = getattr(psw, "nbytes", None)
            if callable(size):
                total += int(size())
        if self._fp is not None:
            # Two prefix tables + two power tables, n+1 int64 each.
            total += 4 * 8 * (self.length + 1)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TextKernel(n={self.length}, sa={self._sa_algorithm!r}, "
            f"fp={'built' if self._fp is not None else 'lazy'})"
        )
