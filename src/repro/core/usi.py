"""USI_TOP-K: the Useful String Indexing data structure (Section IV).

The index stores the global utilities of the top-K frequent substrings
in a fingerprint-keyed hash table ``H`` and answers everything else
through the text index + the prefix-sum array ``PSW``:

* pattern in ``H``   -> O(m) (fingerprint + one lookup);
* pattern not in ``H`` -> O(m log n + occ) via the suffix array, with
  each occurrence's local utility read from ``PSW`` in O(1); since any
  such pattern occurs at most ``tau_K`` times, queries are bounded by
  the paper's O(m + tau_K) up to the SA-search ``log n``.

Construction (Theorem 1) has three phases:

1. mine the top-K frequent substrings (Exact-Top-K -> **UET**, or
   Approximate-Top-K -> **UAT**);
2. fill ``H`` from the mined substrings' suffix-array intervals: a
   top-K substring occurs exactly at the suffixes of its interval
   ``SA[lb .. rb]`` (the lcp-interval view of Abouelhoda, Kurtz &
   Ohlebusch, "Replacing suffix trees with enhanced suffix arrays",
   JDA 2004), so its global utility is one gather of those suffixes'
   local utilities from ``PSW``.  The exact miner reports the
   intervals itself (the ``<lcp, lb, rb>`` triplets of Section V);
   the approximate miner's witnesses are located with one batch SA
   search per length.  One vectorised gather per distinct length —
   the same gather the batch query path runs after locate — costs
   O(sum of frequencies) <= O(n L_K), within the paper's bound for
   its sliding-window pass, and fingerprints no text window;
3. the text index and ``PSW``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from repro.core.approximate import ApproximateTopK
from repro.core.topk_oracle import TopKOracle
from repro.core.types import MinedSubstring
from repro.errors import AlphabetError, ParameterError, PatternError
from repro.hashing.karp_rabin import KarpRabinFingerprinter
from repro.kernel import TextKernel, interval_utilities
from repro.strings.weighted import WeightedString
from repro.suffix.suffix_array import SuffixArray
from repro.utility.functions import (
    AggregatorName,
    GlobalUtility,
    LocalUtility,
    LocalUtilityName,
    PrefixSumLocalUtility,
    make_global_utility,
    make_local_utility,
)

MinerName = Literal["exact", "approximate"]


@dataclass(frozen=True)
class QueryExplanation:
    """How one query was (or would be) answered — see :meth:`UsiIndex.explain`."""

    pattern_length: int
    path: Literal["hash-table", "text-index", "no-occurrence", "unencodable"]
    occurrences: int
    utility: float
    within_tau_bound: bool


@dataclass
class UsiBuildReport:
    """Construction statistics (feed for the Fig. 6 experiments).

    Besides the paper's structural figures, the report carries a
    stage-level timing breakdown of the build pipeline (suffix array,
    LCP, mining, hash table), surfaced by ``usi build
    --profile`` and the build-speed benchmark.
    """

    miner: str
    k: int
    tau_k: int
    distinct_lengths: int
    hash_entries: int
    mining_seconds: float = 0.0
    table_seconds: float = 0.0
    sa_seconds: float = 0.0
    lcp_seconds: float = 0.0
    total_seconds: float = 0.0
    lcp_source: str = ""

    def stage_seconds(self) -> "dict[str, float]":
        """Ordered stage -> wall-seconds map (the --profile payload).

        ``mining`` is reported net of the LCP build it triggers (the
        LCP line itemises that); ``other`` is the remainder of the
        end-to-end total (PSW, fingerprint tables, plumbing).
        """
        mining = max(self.mining_seconds - self.lcp_seconds, 0.0)
        accounted = self.sa_seconds + self.lcp_seconds + mining + self.table_seconds
        stages = {
            "suffix-array": self.sa_seconds,
            "lcp": self.lcp_seconds,
            "mining": mining,
            "table": self.table_seconds,
        }
        if self.total_seconds:
            stages["other"] = max(self.total_seconds - accounted, 0.0)
            stages["total"] = self.total_seconds
        return stages


class UsiIndex:
    """The USI_TOP-K index over a weighted string.

    Build with :meth:`build`; query with :meth:`query`.

    Examples
    --------
    >>> ws = WeightedString("ATACCCCGATAATACCCCAG",
    ...                     [.9, 1, 3, 2, .7, 1, 1, .6, .5, .5,
    ...                      .5, .8, 1, 1, 1, .9, 1, 1, .8, 1])
    >>> index = UsiIndex.build(ws, k=5)
    >>> index.query("TACCCC")
    14.6
    """

    def __init__(
        self,
        ws: WeightedString,
        suffix_array: SuffixArray,
        fingerprinter: "KarpRabinFingerprinter | None",
        psw: LocalUtility,
        utility: GlobalUtility,
        table: dict[int, float],
        report: UsiBuildReport,
        kernel: "TextKernel | None" = None,
    ) -> None:
        self._ws = ws
        self._sa = suffix_array
        self._fp_obj = fingerprinter
        self._psw = psw
        self._utility = utility
        self._table = table
        self._kernel = kernel
        self.report = report
        if fingerprinter is None and kernel is None:
            raise ParameterError("a UsiIndex needs a fingerprinter or a kernel")
        # Query counters (cheap; used by the workload experiments).
        self.hash_hits = 0
        self.hash_misses = 0
        # Sorted fingerprint/value arrays for the vectorised batch
        # probe of H; derived from _table lazily on first batch query.
        self._probe_keys: "np.ndarray | None" = None
        self._probe_vals: "np.ndarray | None" = None

    # Pickle: the probe arrays are derived from the hash table; drop
    # them so persisted shards stay lean.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_probe_keys", None)
        state.pop("_probe_vals", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._probe_keys = None
        self._probe_vals = None

    @property
    def _fp(self) -> KarpRabinFingerprinter:
        """The fingerprinter (resolved from the kernel on first use)."""
        if self._fp_obj is None:
            self._fp_obj = self._kernel.fingerprinter  # type: ignore[union-attr]
        return self._fp_obj

    @property
    def kernel(self) -> "TextKernel | None":
        """The shared substrate this index was built over (if any)."""
        return self._kernel

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        ws: WeightedString,
        k: "int | None" = None,
        tau: "int | None" = None,
        miner: MinerName = "exact",
        s: "int | None" = None,
        aggregator: "AggregatorName | GlobalUtility" = "sum",
        local: LocalUtilityName = "sum",
        sa_algorithm: str = "doubling",
        locate_backend: Literal["sa", "fm", "st"] = "sa",
        seed: int = 0,
        kernel: "TextKernel | None" = None,
    ) -> "UsiIndex":
        """Construct USI_TOP-K for a weighted string.

        Parameters
        ----------
        ws:
            The weighted string ``(S, w)``.
        k:
            How many frequent substrings to precompute.  Exactly one
            of *k* and *tau* must be given; a *tau* is converted to
            ``K_tau`` through the Section-V oracle (Task iii).
        tau:
            Alternatively, the query-time budget: precompute all
            substrings with frequency >= *tau*.
        miner:
            ``"exact"`` (Exact-Top-K; the UET index) or
            ``"approximate"`` (Approximate-Top-K; the UAT index).
        s:
            Sampling rounds for the approximate miner (default
            ``max(2, round(log2 n))``, the paper's recommendation).
        aggregator:
            The global utility function from class ``U``.
        local:
            The local utility function: ``"sum"`` (the paper's
            sliding-window canonical), ``"product"`` (expected
            frequency over per-position probabilities — the
            bioinformatics motivation), or the RMQ-backed ``"min"`` /
            ``"max"`` extensions.
        locate_backend:
            ``"sa"`` (default: suffix-array binary search), ``"fm"``
            (the succinct FM-index), or ``"st"`` (the suffix tree, the
            paper's literal Section-IV layout with O(m + occ) locate).
            Construction always builds a suffix array for mining; the
            backend only changes which structure the index *keeps* for
            uncached queries.
        kernel:
            An optional pre-built :class:`~repro.kernel.TextKernel`
            over the same weighted string.  When given, its suffix
            array, ``PSW``, and fingerprint tables are shared (the
            text is not re-encoded); when absent a private kernel is
            built, exactly as before.
        """
        if (k is None) == (tau is None):
            raise ParameterError("provide exactly one of k or tau")
        utility = make_global_utility(aggregator)
        n = ws.length

        t_start = time.perf_counter()
        kernel_owned = kernel is None
        if kernel is None:
            kernel = TextKernel(ws, sa_algorithm=sa_algorithm, seed=seed)
        else:
            kernel.require_match(ws)
        # The LCP array is a construction-time aid (the Section-V
        # oracle); it is built lazily on demand and dropped afterwards
        # so the final index is SA + PSW + H, as in the paper.
        suffix_array = kernel.suffix
        psw = kernel.psw(local)

        t0 = time.perf_counter()
        lcp_seconds_before = getattr(suffix_array, "lcp_seconds", 0.0)
        if miner == "exact":
            oracle = TopKOracle(suffix_array)
            if k is None:
                k = max(1, oracle.tune_by_tau(int(tau)).k)  # type: ignore[arg-type]
            tuning = oracle.tune_by_k(k)
            mined_lengths, mined_lbs, mined_rbs = oracle.top_k_intervals(k)
            fingerprinter = kernel.fingerprinter
            tau_k = tuning.tau
        elif miner == "approximate":
            if k is None:
                # The approximate miner has no tau oracle; derive K from
                # the exact oracle (cheap relative to mining) so UAT and
                # UET agree on K for a given tau.
                oracle = TopKOracle(suffix_array)
                k = max(1, oracle.tune_by_tau(int(tau)).k)  # type: ignore[arg-type]
            if s is None:
                s = max(2, int(round(np.log2(max(n, 2)))))
            at = ApproximateTopK(ws, k=k, s=s, seed=seed,
                                 fingerprinter=kernel.fingerprinter)
            mined = at.mine()
            mined_positions = np.asarray([m.position for m in mined], dtype=np.int64)
            mined_lengths = np.asarray([m.length for m in mined], dtype=np.int64)
            fingerprinter = at.fingerprinter
            tau_k = min((m.frequency for m in mined), default=0)
        else:
            raise ParameterError(f"unknown miner {miner!r}")
        mining_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        if miner == "approximate":
            # The sampled frequencies are estimates; the witnesses'
            # true occurrence sets are their SA intervals.
            mined_lbs, mined_rbs = cls._witness_intervals(
                suffix_array, mined_positions, mined_lengths
            )
        table, distinct_lengths = cls._build_table(
            mined_lengths, mined_lbs, mined_rbs, suffix_array.sa,
            fingerprinter, psw, utility,
        )
        table_seconds = time.perf_counter() - t0

        if kernel_owned:
            # Shared kernels keep their LCP for the next consumer; a
            # private one sheds it so the index is SA + PSW + H.
            suffix_array.drop_lcp()
        if locate_backend == "fm":
            from repro.succinct.fm_index import FmIndex

            # Reuse the kernel's suffix array: the FM construction only
            # needs the SA to derive the BWT, so nothing is re-sorted.
            suffix_array = FmIndex(ws.codes, sa=kernel.suffix.sa)  # type: ignore[assignment]
        elif locate_backend == "st":
            # The paper's literal Section-IV layout: ST(S) performs
            # locate in O(m + occ).
            from repro.suffix_tree.navigation import SuffixTreeNavigator
            from repro.suffix_tree.ukkonen import SuffixTree

            suffix_array = SuffixTreeNavigator(  # type: ignore[assignment]
                SuffixTree.from_codes(ws.codes)
            )
        elif locate_backend != "sa":
            raise ParameterError(f"unknown locate backend {locate_backend!r}")
        report = UsiBuildReport(
            miner=miner,
            k=int(k),
            tau_k=int(tau_k),
            distinct_lengths=distinct_lengths,
            hash_entries=len(table),
            mining_seconds=mining_seconds,
            table_seconds=table_seconds,
            # A shared kernel's suffix array was paid for once, outside
            # this build; only charge it when this build constructed it.
            sa_seconds=getattr(kernel, "build_seconds", 0.0) if kernel_owned else 0.0,
            lcp_seconds=max(
                getattr(kernel.suffix, "lcp_seconds", 0.0) - lcp_seconds_before, 0.0
            ),
            lcp_source=getattr(kernel.suffix, "lcp_source", None) or "",
            total_seconds=time.perf_counter() - t_start,
        )
        return cls(
            ws, suffix_array, fingerprinter, psw, utility, table, report,
            kernel=kernel,
        )

    @staticmethod
    def _witness_intervals(
        suffix_array: SuffixArray, positions: np.ndarray, lengths: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """SA intervals ``(lb, rb)`` of the substrings ``S[p .. p + l - 1]``.

        One :meth:`SuffixArray.interval_batch` call per distinct length,
        over the matrix of the witnesses' letters.
        """
        lbs = np.empty(len(positions), dtype=np.int64)
        rbs = np.empty(len(positions), dtype=np.int64)
        codes = suffix_array.codes
        for length in np.unique(lengths).tolist():
            rows = np.flatnonzero(lengths == length)
            matrix = codes[positions[rows, None] + np.arange(length)]
            lbs[rows], rbs[rows] = suffix_array.interval_batch(matrix)
        return lbs, rbs

    @staticmethod
    def _build_table(
        lengths: np.ndarray,
        lbs: np.ndarray,
        rbs: np.ndarray,
        sa: np.ndarray,
        fingerprinter: KarpRabinFingerprinter,
        psw: LocalUtility,
        utility: GlobalUtility,
    ) -> tuple[dict[int, float], int]:
        """Phase (ii): read ``H`` off the mined substrings' SA intervals.

        Substring ``i`` occurs exactly at the suffixes ``SA[lbs[i] ..
        rbs[i]]``, so its global utility is one
        :func:`~repro.kernel.interval_utilities` gather over that
        interval — the same gather a batch query runs after locate, so
        every stored value equals the miss path's answer bit for bit.
        No text window is fingerprinted: ``H`` is keyed by the
        fingerprint of each substring's witness ``SA[lb]`` and its
        values are exact by construction, for either miner.

        The gather runs once per distinct length.  Distinct substrings
        of one length have disjoint intervals, so a length gathers at
        most ``n`` occurrences and the whole phase ``sum freq <= n L_K``
        — the paper's O(n L_K) bound (Theorem 1) and O(n) working
        memory per length.
        """
        distinct = np.unique(lengths)
        table: dict[int, float] = {}
        for length in distinct.tolist():
            group = lengths == length
            lb, rb = lbs[group], rbs[group]
            keys = fingerprinter.windows_at(sa[lb], length)
            values = interval_utilities(sa, lb, rb, length, psw, utility)
            table.update(zip(keys.tolist(), values.tolist()))
        return table, len(distinct)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _encode(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> "np.ndarray | None":
        """Encode a pattern; ``None`` means "cannot occur in S"."""
        if isinstance(pattern, np.ndarray):
            if len(pattern) == 0:
                raise PatternError("query patterns must be non-empty")
            return pattern.astype(np.int64, copy=False)
        try:
            return self._ws.alphabet.encode_pattern(pattern).astype(np.int64)
        except AlphabetError:
            return None

    def query(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> float:
        """The global utility ``U(pattern)``.

        O(m) for precomputed (top-K frequent) patterns, O(m log n +
        occ) otherwise; patterns that cannot occur report the
        aggregator identity (0.0 for all supported aggregators).
        """
        codes = self._encode(pattern)
        if codes is None:
            return self._utility.identity
        fingerprint = self._fp.of_codes(codes)
        cached = self._table.get(fingerprint)
        if cached is not None:
            self.hash_hits += 1
            return cached
        self.hash_misses += 1
        occurrences = self._sa.occurrences(codes)
        if occurrences.size == 0:
            return self._utility.identity
        locals_ = self._psw.local_utilities(occurrences, len(codes))
        return self._utility.aggregate(locals_)

    def query_many(self, patterns: "Sequence") -> list[float]:
        """Deprecated alias of :meth:`query_batch`."""
        import warnings

        warnings.warn(
            "UsiIndex.query_many is deprecated; use query_batch",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.query_batch(patterns)

    def query_batch(self, patterns: "Sequence") -> list[float]:
        """Batch query: vectorised fingerprinting *and* locating.

        Groups patterns by length and fingerprints each group with one
        numpy pass (columns of a pattern matrix), so hash-table hits
        cost amortised sub-microsecond.  Misses go through the shared
        kernel's batch locate (``searchsorted`` over the suffix array's
        prefix-key array per length bucket) and one fancy-indexed
        ``PSW`` gather, so the uncached path is NumPy-bound too; only
        FM/suffix-tree locate backends fall back to the per-pattern
        loop.  Answers match :meth:`query`
        (order preserved; sums of many occurrences may differ in the
        last float ULP from the scalar path's accumulation order).

        The H probe itself is vectorised too: the hash table's
        fingerprints are kept as a sorted key/value array pair, so one
        ``np.searchsorted`` per length bucket replaces the per-pattern
        dict lookups (exact same answers and hit/miss counts).
        """
        from repro.kernel import iter_length_buckets
        from repro.profiling import record_stage

        t0 = time.perf_counter()
        encoded: list["np.ndarray | None"] = [self._encode(p) for p in patterns]
        out = np.full(len(patterns), self._utility.identity, dtype=np.float64)
        record_stage("encode", time.perf_counter() - t0)

        vectorised = self._kernel is not None and isinstance(self._sa, SuffixArray)
        for length, slots, matrix in iter_length_buckets(encoded):
            t0 = time.perf_counter()
            keys = self._fp.of_code_matrix(matrix)
            slots_arr = np.asarray(slots, dtype=np.int64)
            probe_keys, probe_vals = self._probe_arrays()
            if probe_keys.size:
                pos = np.searchsorted(probe_keys, keys)
                pos[pos == probe_keys.size] = 0
                hit = probe_keys[pos] == keys
            else:
                hit = np.zeros(len(slots), dtype=bool)
            hits = int(hit.sum())
            self.hash_hits += hits
            self.hash_misses += len(slots) - hits
            if hits:
                out[slots_arr[hit]] = probe_vals[pos[hit]]
            record_stage("cache", time.perf_counter() - t0)
            if hits == len(slots):
                continue
            misses = [slots[int(i)] for i in np.flatnonzero(~hit)]
            if vectorised:
                values = self._kernel.batch_utilities(
                    [encoded[slot] for slot in misses],
                    self._utility,
                    psw=self._psw,
                )
                out[np.asarray(misses, dtype=np.int64)] = values
            else:
                for slot in misses:
                    occurrences = self._sa.occurrences(encoded[slot])
                    if occurrences.size:
                        locals_ = self._psw.local_utilities(occurrences, length)
                        out[slot] = self._utility.aggregate(locals_)
        return out.tolist()

    def _probe_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """H as sorted (fingerprints, values) arrays, built lazily.

        Fingerprints combine two 31-bit hashes, so they fit int64
        exactly; a stale pair (table size changed) is rebuilt.
        """
        keys = getattr(self, "_probe_keys", None)
        if keys is None or keys.size != len(self._table):
            table = self._table
            keys = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
            vals = np.fromiter(table.values(), dtype=np.float64, count=len(table))
            order = np.argsort(keys)
            self._probe_keys = keys = keys[order]
            self._probe_vals = vals[order]
        return keys, self._probe_vals  # type: ignore[return-value]

    def count(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> int:
        """``|occ(pattern)|`` through the text index (always exact)."""
        codes = self._encode(pattern)
        if codes is None:
            return 0
        return self._sa.count(codes)

    def count_batch(self, patterns: "Sequence") -> list[int]:
        """``|occ(pattern)|`` for many patterns, vectorised.

        Same counts as calling :meth:`count` per pattern, in input
        order, but each length bucket is one batch locate — this is
        what keeps non-``sum`` sharded merges off the per-pattern
        Python loop.  Non-SA locate backends fall back to the scalar
        count.
        """
        from repro.kernel import iter_length_buckets

        encoded = [self._encode(p) for p in patterns]
        out = np.zeros(len(patterns), dtype=np.int64)
        if isinstance(self._sa, SuffixArray):
            for _length, slots, matrix in iter_length_buckets(encoded):
                lb, rb = self._sa.interval_batch(matrix)
                out[np.asarray(slots, dtype=np.int64)] = np.maximum(rb - lb + 1, 0)
        else:
            for slot, codes in enumerate(encoded):
                if codes is not None and len(codes):
                    out[slot] = self._sa.count(codes)
        return out.tolist()

    def explain(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> QueryExplanation:
        """Describe how *pattern* is answered (diagnostics; no counters).

        Reports the answer path, the exact occurrence count, the
        utility, and whether the Theorem-1 guarantee held (an uncached
        pattern must occur at most ``tau_K`` times when the index was
        mined exactly; the approximate miner may violate it, which is
        exactly what this flag surfaces).
        """
        codes = self._encode(pattern)
        if codes is None:
            return QueryExplanation(
                pattern_length=len(pattern),
                path="unencodable",
                occurrences=0,
                utility=self._utility.identity,
                within_tau_bound=True,
            )
        occurrences = self._sa.count(codes)
        cached = self._fp.of_codes(codes) in self._table
        if cached:
            path = "hash-table"
        elif occurrences:
            path = "text-index"
        else:
            path = "no-occurrence"
        within = cached or occurrences <= max(self.report.tau_k, 0) or occurrences == 0
        # Compute the utility without disturbing the hit/miss counters.
        hits, misses = self.hash_hits, self.hash_misses
        value = self.query(codes)
        self.hash_hits, self.hash_misses = hits, misses
        return QueryExplanation(
            pattern_length=len(codes),
            path=path,  # type: ignore[arg-type]
            occurrences=int(occurrences),
            utility=value,
            within_tau_bound=bool(within),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def weighted_string(self) -> WeightedString:
        return self._ws

    @property
    def suffix_array(self) -> SuffixArray:
        return self._sa

    @property
    def utility(self) -> GlobalUtility:
        return self._utility

    @property
    def hash_table_size(self) -> int:
        """Number of precomputed (substring, utility) entries in ``H``."""
        return len(self._table)

    def top_cached(self, limit: "int | None" = None) -> list[tuple[int, float]]:
        """The hash table's (fingerprint, utility) pairs, utility-descending.

        Supports case-study-style reporting: the most *useful* among
        the precomputed frequent substrings.  Fingerprints are opaque
        keys; pair them with the miner's witness list to materialise
        the substrings.
        """
        ranked = sorted(self._table.items(), key=lambda kv: -kv[1])
        return ranked[: limit or len(ranked)]

    def is_cached(self, pattern: "str | bytes | Sequence[int] | np.ndarray") -> bool:
        """Whether *pattern*'s utility is answered from ``H``."""
        codes = self._encode(pattern)
        if codes is None:
            return False
        return self._fp.of_codes(codes) in self._table

    def nbytes(self) -> int:
        """Analytic index size: SA(+LCP) + PSW + hash table entries.

        Hash entries are charged 16 bytes of payload (62-bit key +
        float64 value) plus Python dict slot overhead of ~16 bytes,
        mirroring the paper's (1+eps)wK-bit hash-table accounting.
        """
        return self._sa.nbytes() + self._psw.nbytes() + 32 * len(self._table)
