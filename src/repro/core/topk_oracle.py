"""The linear-space top-K oracle of Section V.

One structure, three tasks:

* **Task (i)**  — list the top-K frequent substrings of ``S`` as
  triplets ``<lcp, lb, rb>`` (Exact-Top-K, Theorem 2);
* **Task (ii)** — given ``K``, report ``tau_K`` (smallest top-K
  frequency, bounding USI query time) and ``L_K`` (distinct lengths,
  bounding USI construction time) in ``O(log n)``;
* **Task (iii)** — given ``tau``, report ``K_tau`` (number of
  tau-frequent substrings, bounding USI size) and ``L_tau``.

Construction follows the paper, with the suffix tree realised as the
enhanced suffix array (the bottom-up traversal of
:mod:`repro.suffix.enhanced` enumerates exactly the explicit nodes):

* ``T`` — triplets ``<v, f(v), q(v)>`` sorted by frequency descending,
  ties broken by string depth ascending (shorter substrings first);
* ``Q[i]`` — cumulative count of distinct substrings represented by
  the first ``i + 1`` triplets;
* ``L[i]`` — distinct lengths among those substrings.  Because every
  ancestor of a node sorts before it (ancestors have frequency >= and
  depth <), the represented length set is always a contiguous prefix
  ``[1, max_depth]``, so ``L`` is the running maximum of string depths
  — exactly the counter/maximum argument in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import MinedSubstring
from repro.errors import ParameterError
from repro.suffix.batch import ragged_ids_offsets
from repro.suffix.enhanced import (
    bottom_up_intervals,
    lcp_interval_arrays,
    leaf_edge_arrays,
    leaf_intervals,
)
from repro.suffix.suffix_array import SuffixArray


@dataclass(frozen=True)
class TuningPoint:
    """One point on the (K, tau) trade-off curve (Tasks ii/iii)."""

    k: int
    tau: int
    distinct_lengths: int


@dataclass(frozen=True)
class TopKTriplet:
    """Task (i) output: substring of length ``lcp`` at ``SA[lb..rb]``."""

    lcp: int
    lb: int
    rb: int
    frequency: int


class TopKOracle:
    """The Section-V data structure over a suffix array.

    Parameters
    ----------
    index:
        A :class:`SuffixArray` (with LCP) of the text.
    include_leaves:
        Include suffix-tree leaf edges, i.e. frequency-1 substrings.
        Required for correctness when ``K`` exceeds the number of
        repeated substrings; the paper's ``T`` ranges over all explicit
        nodes, which includes leaves.
    enumeration:
        ``"vectorized"`` (default) enumerates the explicit nodes with
        the PSV/NSV interval arrays of :mod:`repro.suffix.enhanced`;
        ``"python"`` keeps the original generator walk — slow, retained
        as the construction cross-check and the seed-path reference for
        the build benchmarks.  Both produce the same oracle (node order
        before the radix sort differs, so exact witnesses may differ
        between equal-(frequency, length) ties).
    """

    def __init__(
        self,
        index: SuffixArray,
        include_leaves: bool = True,
        enumeration: str = "vectorized",
    ) -> None:
        self._index = index
        self._include_leaves = include_leaves
        n = index.length

        if enumeration == "vectorized":
            depths, lbs, rbs, parent_depths = lcp_interval_arrays(index.lcp)
            freqs = rbs - lbs + 1
            if len(depths):
                # Sort the internal nodes only; the sorted order of
                # the (much larger) leaf block is derived analytically
                # below, and every internal frequency (>= 2) precedes
                # every leaf (frequency 1).
                base = np.int64(int(depths.max()) + 2)
                order = np.argsort(depths - freqs * base, kind="stable")
                freqs, depths = freqs[order], depths[order]
                parent_depths, lbs, rbs = parent_depths[order], lbs[order], rbs[order]
            if include_leaves:
                # Leaves sorted by (frequency=1, depth asc) without a
                # sort: depth = n - SA[slot], so ascending depth is
                # descending suffix position — the reversed inverse
                # permutation of the suffix array, filtered to leaves
                # with non-empty edges.
                sa = np.asarray(index.sa, dtype=np.int64)
                depth_all, parent_all = leaf_edge_arrays(sa, index.lcp, n)
                inverse = np.empty(n, dtype=np.int64)
                inverse[sa] = np.arange(n, dtype=np.int64)
                slots = inverse[::-1]
                slots = slots[depth_all[slots] > parent_all[slots]]
                freqs = np.concatenate([freqs, np.ones(len(slots), dtype=np.int64)])
                depths = np.concatenate([depths, depth_all[slots]])
                parent_depths = np.concatenate([parent_depths, parent_all[slots]])
                lbs = np.concatenate([lbs, slots])
                rbs = np.concatenate([rbs, slots])
            self._finish(
                freqs, depths, parent_depths, lbs, rbs, index.sa, presorted=True
            )
            return
        if enumeration != "python":
            raise ParameterError(f"unknown enumeration {enumeration!r}")

        freqs_l: list[int] = []
        depths_l: list[int] = []
        parent_depths_l: list[int] = []
        lbs_l: list[int] = []
        rbs_l: list[int] = []
        for node in bottom_up_intervals(index.lcp):
            freqs_l.append(node.frequency)
            depths_l.append(node.lcp)
            parent_depths_l.append(node.parent_lcp)
            lbs_l.append(node.lb)
            rbs_l.append(node.rb)
        if include_leaves:
            for node in leaf_intervals(index.sa, index.lcp, n):
                freqs_l.append(1)
                depths_l.append(node.lcp)
                parent_depths_l.append(node.parent_lcp)
                lbs_l.append(node.lb)
                rbs_l.append(node.rb)
        self._finish(freqs_l, depths_l, parent_depths_l, lbs_l, rbs_l, index.sa)

    @classmethod
    def from_suffix_tree(cls, tree, include_leaves: bool = True) -> "TopKOracle":
        """Build the oracle directly from a finalized suffix tree.

        This is the paper's literal Section-V construction: traverse
        ``ST(S)``, extract ``<v, f(v), q(v)>`` per explicit node, and
        radix sort.  A DFS with children in letter order visits the
        leaves in lexicographic suffix order, which *is* the suffix
        array — so each node's leaf span doubles as its SA interval and
        the resulting oracle is interchangeable with the
        enhanced-suffix-array one (tested for agreement).
        """
        from repro.suffix_tree.ukkonen import SuffixTree  # cycle-safe

        if not isinstance(tree, SuffixTree):
            raise ParameterError("from_suffix_tree expects a SuffixTree")
        tree._require_finalized()
        text_len = tree.sentinel_length - 1  # without the sentinel

        freqs: list[int] = []
        depths: list[int] = []
        parent_depths: list[int] = []
        lbs: list[int] = []
        rbs: list[int] = []
        sa_positions = np.empty(text_len, dtype=np.int64)

        # Iterative DFS with children in letter order (sentinel -1
        # first, matching the shorter-suffix-sorts-first convention).
        # Post-order assembly: each internal node's interval is the
        # span of leaf indexes assigned below it.
        next_leaf = 0
        span: dict[int, tuple[int, int]] = {}
        stack: list[tuple[int, bool]] = [(0, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                kids = tree.children(node).values()
                lo = min(span[c][0] for c in kids)
                hi = max(span[c][1] for c in kids)
                span[node] = (lo, hi)
                continue
            if tree.is_leaf(node):
                suffix = tree.suffix_index(node)
                if suffix >= text_len:  # the sentinel-only leaf
                    span[node] = (next_leaf, next_leaf - 1)  # empty span
                    continue
                sa_positions[next_leaf] = suffix
                span[node] = (next_leaf, next_leaf)
                next_leaf += 1
                continue
            stack.append((node, True))
            for letter in sorted(tree.children(node), reverse=True):
                stack.append((tree.children(node)[letter], False))

        for node in range(1, tree.node_count):
            lo, hi = span[node]
            if hi < lo:
                continue  # the sentinel-only leaf
            depth = tree.string_depth(node)
            parent_depth = tree.string_depth(tree.parent(node))
            if tree.is_leaf(node):
                if not include_leaves:
                    continue
                depth -= 1  # clip the sentinel letter
                if depth <= parent_depth:
                    continue
            freqs.append(tree.frequency(node))
            depths.append(depth)
            parent_depths.append(parent_depth)
            lbs.append(lo)
            rbs.append(hi)

        oracle = cls.__new__(cls)
        oracle._index = None
        oracle._include_leaves = include_leaves
        oracle._finish(freqs, depths, parent_depths, lbs, rbs, sa_positions)
        return oracle

    def _finish(
        self,
        freqs,
        depths,
        parent_depths,
        lbs,
        rbs,
        sa_positions: np.ndarray,
        presorted: bool = False,
    ) -> None:
        """Sort the node records and build ``T``, ``Q``, ``L``."""
        self._sa_positions = np.asarray(sa_positions, dtype=np.int64)
        f = np.asarray(freqs, dtype=np.int64)
        sd = np.asarray(depths, dtype=np.int64)
        psd = np.asarray(parent_depths, dtype=np.int64)
        # Radix sort in the paper: frequency descending, string depth
        # ascending.  One collision-free combined int64 key sorts the
        # pair in a single stable argsort (depths stay below `base`,
        # so they never borrow into the frequency field).  Callers
        # that assembled the records in sorted order skip it.
        if presorted or not len(sd):
            order = slice(None)
        else:
            base = np.int64(int(sd.max()) + 2)
            order = np.argsort(sd - f * base, kind="stable")
        self._f = f[order]
        self._sd = sd[order]
        self._psd = psd[order]
        self._lb = np.asarray(lbs, dtype=np.int64)[order]
        self._rb = np.asarray(rbs, dtype=np.int64)[order]
        # Memoised descending-key view shared by every tau search
        # (tune_by_tau, trade_off_curve): ascending for searchsorted.
        self._f_neg = -self._f
        # Q: cumulative distinct substrings; L: running max depth.
        self._q = np.cumsum(self._sd - self._psd)
        self._l = (
            np.maximum.accumulate(self._sd)
            if len(self._sd)
            else np.empty(0, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def index(self) -> "SuffixArray | None":
        """The backing suffix array (``None`` for the suffix-tree path)."""
        return self._index

    @property
    def suffix_positions(self) -> np.ndarray:
        """Suffix start positions in lexicographic order (= SA)."""
        return self._sa_positions

    @property
    def triplet_count(self) -> int:
        """Number of explicit nodes stored in ``T``."""
        return len(self._f)

    @property
    def distinct_substring_count(self) -> int:
        """Total distinct substrings of ``S`` (only exact with leaves)."""
        return int(self._q[-1]) if len(self._q) else 0

    def nbytes(self) -> int:
        """Bytes held by the oracle arrays (``T``, ``Q``, ``L``)."""
        return int(
            self._f.nbytes + self._sd.nbytes + self._psd.nbytes
            + self._lb.nbytes + self._rb.nbytes + self._q.nbytes + self._l.nbytes
        )

    # ------------------------------------------------------------------
    # Task (i): Exact-Top-K
    # ------------------------------------------------------------------
    def _expand_top(self, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """Indices into ``T`` and substring lengths for the top *k*.

        Vectorised edge expansion: ``Q`` locates the node covering the
        K-th substring, ``np.repeat``/``np.arange`` unroll each kept
        node's edge into its ``q(v)`` lengths (shallower first), and
        the tail is clipped to exactly *k* — no per-length Python loop.
        """
        if k <= 0:
            raise ParameterError("K must be a positive integer")
        if not len(self._q):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        cut = int(np.searchsorted(self._q, k, side="left"))
        cut = min(cut, len(self._q) - 1)
        edges = (self._sd - self._psd)[: cut + 1]
        node_ids, offsets = ragged_ids_offsets(edges)
        total = len(node_ids)
        lengths = self._psd[node_ids] + 1 + offsets
        if total > k:
            node_ids = node_ids[:k]
            lengths = lengths[:k]
        return node_ids, lengths

    def top_k_triplets(self, k: int) -> list[TopKTriplet]:
        """The top-K frequent substrings as ``<lcp, lb, rb>`` triplets.

        Scans ``T`` in frequency order, expanding each node's edge into
        its ``q(v)`` distinct substrings (shallower first), and stops
        after ``k`` substrings.  O(n + K), expansion vectorised.
        """
        lengths, lbs, rbs = self.top_k_intervals(k)
        return [
            TopKTriplet(lcp=length, lb=lb, rb=rb, frequency=rb - lb + 1)
            for length, lb, rb in zip(lengths.tolist(), lbs.tolist(), rbs.tolist())
        ]

    def top_k_intervals(self, k: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Task (i) output as ``(lengths, lb, rb)`` arrays.

        Substring ``i`` is the length-``lengths[i]`` prefix of every
        suffix in ``SA[lb[i] .. rb[i]]``: its whole occurrence set, so
        its frequency is the interval's width.  Every substring on one
        node's edge shares that node's interval, and distinct substrings
        of one length have disjoint intervals.  This is what the USI
        construction consumes: it reads each global utility straight
        off the interval, without a pass over the text.
        """
        node_ids, lengths = self._expand_top(k)
        return lengths, self._lb[node_ids], self._rb[node_ids]

    def top_k_arrays(self, k: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Task (i) output as ``(positions, lengths, frequencies)`` arrays.

        The array twin of :meth:`top_k` — same substrings, no Python
        object per result.
        """
        lengths, lbs, rbs = self.top_k_intervals(k)
        return self._sa_positions[lbs], lengths, rbs - lbs + 1

    def top_k(self, k: int) -> list[MinedSubstring]:
        """Task (i) output in the uniform witness-tuple form.

        The witness is ``SA[lb]``, as in the paper's explicit-form
        conversion ``S[SA[lb] .. SA[lb] + lcp - 1]``.
        """
        positions, lengths, freqs = self.top_k_arrays(k)
        return [
            MinedSubstring(position=position, length=length, frequency=frequency)
            for position, length, frequency in zip(
                positions.tolist(), lengths.tolist(), freqs.tolist()
            )
        ]

    # ------------------------------------------------------------------
    # Task (ii): K -> (tau_K, L_K)
    # ------------------------------------------------------------------
    def tune_by_k(self, k: int) -> TuningPoint:
        """Smallest top-K frequency and distinct lengths, O(log n).

        Binary search in ``Q`` for the smallest index with
        ``Q[i] >= K``.  When ``K`` exceeds the number of distinct
        substrings, the last triplet answers (everything is reported).
        """
        if k <= 0:
            raise ParameterError("K must be a positive integer")
        if not len(self._q):
            return TuningPoint(k=0, tau=0, distinct_lengths=0)
        i = int(np.searchsorted(self._q, k, side="left"))
        if i >= len(self._q):
            i = len(self._q) - 1
        return TuningPoint(
            k=min(k, int(self._q[-1])),
            tau=int(self._f[i]),
            distinct_lengths=int(self._l[i]),
        )

    # ------------------------------------------------------------------
    # Task (iii): tau -> (K_tau, L_tau)
    # ------------------------------------------------------------------
    def tune_by_tau(self, tau: int) -> TuningPoint:
        """Number of tau-frequent substrings and their lengths, O(log n).

        ``T`` is sorted by frequency descending, so the tau-frequent
        prefix ends at the largest index with ``f >= tau``.
        """
        if tau <= 0:
            raise ParameterError("tau must be a positive integer")
        if not len(self._f):
            return TuningPoint(k=0, tau=tau, distinct_lengths=0)
        # First index with f < tau in the descending array (the
        # negated view is memoised at construction, so every call is a
        # pure binary search — no per-call array materialisation).
        i = int(np.searchsorted(self._f_neg, -(tau - 1), side="left"))
        if i == 0:
            return TuningPoint(k=0, tau=tau, distinct_lengths=0)
        return TuningPoint(
            k=int(self._q[i - 1]),
            tau=tau,
            distinct_lengths=int(self._l[i - 1]),
        )

    def trade_off_curve(self, max_points: int = 50) -> list[TuningPoint]:
        """Sample the (K, tau, L) curve — the Section-X tuning aid.

        Returns up to *max_points* tuning points at distinct
        frequencies, usable to pick a (K, tau) trade-off (the paper
        suggests a skyline over these).  One vectorised
        ``searchsorted`` over the memoised frequency order answers
        every sampled tau at once, instead of re-deriving the sorted
        state per point.
        """
        if not len(self._f):
            return []
        distinct_f = np.unique(self._f)[::-1]
        if len(distinct_f) > max_points:
            picks = np.linspace(0, len(distinct_f) - 1, max_points).astype(int)
            distinct_f = distinct_f[picks]
        # Batched Task (iii): every sampled tau occurs in T, so each
        # search lands past at least one triplet (i >= 1 throughout).
        ends = np.searchsorted(self._f_neg, -(distinct_f - 1), side="left") - 1
        return [
            TuningPoint(k=k, tau=tau, distinct_lengths=length)
            for k, tau, length in zip(
                self._q[ends].tolist(),
                distinct_f.tolist(),
                self._l[ends].tolist(),
            )
        ]
