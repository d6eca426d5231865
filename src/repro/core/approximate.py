"""Approximate-Top-K: space-efficient top-K estimation (Section VI).

The algorithm runs ``s`` rounds.  Round ``i`` samples the text
positions ``i + r*s``, builds a *sparse* suffix array over just those
suffixes (Step 2), extracts the sample's top-K frequent substrings via
the bottom-up lcp-interval traversal (Step 3), and merges them into
the running top-K list, summing frequencies of substrings found in
multiple rounds (Step 4).

Because each text position belongs to exactly one round's sample,
summed sample frequencies never exceed true frequencies: the error is
**one-sided** (frequencies are lower bounds), the key invariant of
Theorem 3, and it is property-tested in this repository.

Substitutions relative to the paper (see "Substitutions relative to
the paper" in README.md): Prezza's in-place LCE is replaced by the
Karp-Rabin fingerprint LCE (same polylog query class), asked in
lockstep batches by the sparse suffix sort, and the content-comparison
merge is keyed by O(1) fragment fingerprints — equal substrings
collide w.h.p. exactly like the paper's hash table ``H`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.types import MinedSubstring
from repro.errors import ParameterError
from repro.hashing.karp_rabin import KarpRabinFingerprinter
from repro.strings.alphabet import as_code_array
from repro.strings.weighted import WeightedString
from repro.suffix.batch import ragged_ids_offsets
from repro.suffix.enhanced import lcp_interval_arrays, leaf_interval_arrays
from repro.suffix.lce import FingerprintLce
from repro.suffix.sparse import SparseSuffixArray


@dataclass
class ApproximateStats:
    """Bookkeeping for the space/runtime experiments of Fig. 5."""

    rounds: int = 0
    sample_sizes: list[int] = field(default_factory=list)
    peak_auxiliary_bytes: int = 0

    def record_round(self, sample_size: int, merged_size: int) -> None:
        self.rounds += 1
        self.sample_sizes.append(sample_size)
        # SSA + SLCP (8 bytes each per sampled suffix) plus the merged
        # candidate list (three machine words per candidate).
        round_bytes = sample_size * 16 + merged_size * 24
        self.peak_auxiliary_bytes = max(self.peak_auxiliary_bytes, round_bytes)


class ApproximateTopK:
    """The Approximate-Top-K (AT) miner.

    Parameters
    ----------
    text:
        The text, in any form accepted by the library.
    k:
        How many substrings to report.
    s:
        Number of sampling rounds; trades accuracy and time for space.
        ``s = 1`` indexes every suffix and is exact; the paper
        recommends ``s = O(log n)``.
    seed:
        Fingerprint seed (determinism only).
    round_capacity:
        Over-provisioning factor for the per-round candidate lists.
        Each round lists the sample's top-``round_capacity * K``
        substrings before merging (the merged list is pruned to the
        same capacity; the final output is always exactly top-K).
        The paper keeps strict top-K lists (factor 1.0); at the
        scaled-down text lengths of this reproduction the per-round
        tie tail is proportionally much larger, and a small factor
        (default 4) compensates for tie churn between rounds without
        affecting the one-sided-error guarantee or the O(K) space
        class.
    """

    def __init__(
        self,
        text: "str | Sequence[int] | np.ndarray | WeightedString",
        k: int,
        s: int,
        seed: int = 0,
        round_capacity: float = 4.0,
        fingerprinter: "KarpRabinFingerprinter | None" = None,
    ) -> None:
        if isinstance(text, WeightedString):
            codes = text.codes
        else:
            codes, _ = as_code_array(text)
        self._codes = np.asarray(codes, dtype=np.int64)
        n = len(self._codes)
        if k <= 0:
            raise ParameterError("K must be a positive integer")
        if not 1 <= s <= n:
            raise ParameterError(f"s must be in [1, n]; got {s} for n={n}")
        if round_capacity < 1.0:
            raise ParameterError("round_capacity must be at least 1.0")
        self._k = k
        self._s = s
        self._capacity = max(k, int(round(k * round_capacity)))
        if fingerprinter is not None and fingerprinter.length != n:
            raise ParameterError(
                "the supplied fingerprinter covers a different text length"
            )
        # A kernel-shared fingerprinter avoids rebuilding the prefix
        # tables; absent one, build privately exactly as before.
        self._fp = (
            fingerprinter
            if fingerprinter is not None
            else KarpRabinFingerprinter(self._codes, seed=seed)
        )
        self._lce = FingerprintLce(self._codes, self._fp)
        self.stats = ApproximateStats()

    @property
    def fingerprinter(self) -> KarpRabinFingerprinter:
        """The shared fingerprinter (reused by UAT construction)."""
        return self._fp

    # ------------------------------------------------------------------
    # Steps 2-3: one round
    # ------------------------------------------------------------------
    def _round_candidates(
        self, round_index: int
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Top-K frequent substrings of one round's sample.

        Returns parallel witness arrays ``(j, l, f_sample)``.  Explicit
        nodes of the sample's compacted trie come from the vectorised
        PSV/NSV interval arrays (internal nodes) plus the vectorised
        leaf pass, exactly the node set of Task (i); the top
        ``capacity`` nodes are preselected with ``np.argpartition`` on
        the combined ``(frequency desc, depth asc)`` key — each node
        represents at least one substring, so nothing the expansion
        could report is ever partitioned away — and only that bounded
        subset is fully sorted and edge-expanded.
        """
        n = len(self._codes)
        positions = np.arange(round_index, n, self._s, dtype=np.int64)
        ssa = SparseSuffixArray(self._codes, positions, self._lce)
        order = ssa.positions_array
        slcp = ssa.slcp_array

        depths, lbs, rbs, parents = lcp_interval_arrays(slcp)
        leaf_depths, slots, leaf_parents = leaf_interval_arrays(order, slcp, n)
        freqs = np.concatenate(
            [rbs - lbs + 1, np.ones(len(slots), dtype=np.int64)]
        )
        depths = np.concatenate([depths, leaf_depths])
        parents = np.concatenate([parents, leaf_parents])
        lbs = np.concatenate([lbs, slots])
        if not len(freqs):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty

        base = np.int64(int(depths.max()) + 2)
        keys = depths - freqs * base  # ascending == (frequency desc, depth asc)
        if len(keys) > self._capacity:
            picked = np.argpartition(keys, self._capacity - 1)[: self._capacity]
        else:
            picked = np.arange(len(keys), dtype=np.int64)
        picked = picked[np.argsort(keys[picked], kind="stable")]

        # Edge expansion, clipped to the first `capacity` substrings.
        edges = depths[picked] - parents[picked]
        bounds = np.cumsum(edges)
        cut = int(np.searchsorted(bounds, self._capacity, side="left"))
        cut = min(cut, len(picked) - 1)
        node_ids, offsets = ragged_ids_offsets(edges[: cut + 1])
        total = len(node_ids)
        lengths = parents[picked[node_ids]] + 1 + offsets
        witnesses = order[lbs[picked[node_ids]]]
        round_freqs = freqs[picked[node_ids]]
        if total > self._capacity:
            witnesses = witnesses[: self._capacity]
            lengths = lengths[: self._capacity]
            round_freqs = round_freqs[: self._capacity]
        return witnesses, lengths, round_freqs

    # ------------------------------------------------------------------
    # Step 4: merge rounds
    # ------------------------------------------------------------------
    def mine(self) -> list[MinedSubstring]:
        """Run all rounds and return the estimated top-K substrings.

        The per-round merge keys candidates by ``(length,
        fingerprint)`` and is fully vectorised: one stable two-key
        sort groups equal substrings (first witness wins, exactly the
        hash-table semantics), ``np.add.reduceat`` sums the sample
        frequencies, and the capacity prune is one combined-key sort.
        """
        empty = np.empty(0, dtype=np.int64)
        merged_j, merged_len, merged_f, merged_fp = empty, empty, empty, empty
        for round_index in range(self._s):
            j, lengths, freqs = self._round_candidates(round_index)
            fps = self._fp.fragments(j, lengths) if len(j) else empty
            cat_j = np.concatenate([merged_j, j])
            cat_len = np.concatenate([merged_len, lengths])
            cat_f = np.concatenate([merged_f, freqs])
            cat_fp = np.concatenate([merged_fp, fps])
            if len(cat_j):
                # Stable grouping by (length, fingerprint): within a
                # group the earliest entry (the first-seen witness)
                # comes first.
                grouping = np.lexsort((cat_fp, cat_len))
                g_len = cat_len[grouping]
                g_fp = cat_fp[grouping]
                firsts = np.empty(len(grouping), dtype=bool)
                firsts[0] = True
                firsts[1:] = (g_len[1:] != g_len[:-1]) | (g_fp[1:] != g_fp[:-1])
                starts = np.flatnonzero(firsts)
                merged_j = cat_j[grouping][starts]
                merged_len = g_len[starts]
                merged_fp = g_fp[starts]
                merged_f = np.add.reduceat(cat_f[grouping], starts)
            if len(merged_j) > self._capacity:
                # Keep only the current top candidates (frequency desc,
                # length asc), as the paper's merged list does.
                base = np.int64(int(merged_len.max()) + 2)
                keep = np.argsort(merged_len - merged_f * base, kind="stable")
                keep = keep[: self._capacity]
                merged_j = merged_j[keep]
                merged_len = merged_len[keep]
                merged_f = merged_f[keep]
                merged_fp = merged_fp[keep]
            sample_size = (len(self._codes) - round_index + self._s - 1) // self._s
            self.stats.record_round(sample_size, len(merged_j))

        final = np.lexsort((merged_j, merged_len, -merged_f))[: self._k]
        return [
            MinedSubstring(position=j, length=length, frequency=freq)
            for j, length, freq in zip(
                merged_j[final].tolist(),
                merged_len[final].tolist(),
                merged_f[final].tolist(),
            )
        ]
