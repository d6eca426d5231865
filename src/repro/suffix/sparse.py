"""Sparse suffix arrays over sampled positions (Karkkainen & Ukkonen).

Round ``i`` of Approximate-Top-K indexes only the suffixes starting at
the sampled positions ``i + r*s``.  This module sorts those suffixes
and computes the sparse LCP array between lexicographic neighbours —
Steps 1-2 of Section VI.

The paper sorts with in-place mergesort over Prezza's in-place LCE.
We keep the same oracle (an LCE interface) but ask it whole batches
of pairs at once, so a round is a fixed number of NumPy passes:

1. a ``lexsort`` on each suffix's first :data:`PREFIX_KEY_LETTERS`
   letters (packed into as few int64 words as fit) orders the sample
   up to that depth, and the first letter where two neighbours' keys
   differ gives their LCP;
2. the runs of neighbours that tie on the whole key are finished by a
   vectorised multikey quicksort (Bentley & Sedgewick, "Fast
   algorithms for sorting and searching strings", SODA 1997).  In each
   pass every open run takes its middle row as pivot, one
   ``lce_batch`` call gives every row its LCE ``l`` with its pivot,
   and one ``lexsort`` on (run, side of the pivot, ``l`` below /
   ``-l`` above, the letter after ``l``) splits every run at once.
   Rows still equal on that key form the next pass's runs, known to
   share ``l + 1`` letters.  Neighbours split apart in a pass share
   exactly the smaller of their two ``l``, which fills the sparse LCP
   without a further LCE call.

The result is exactly the lexicographic order the paper's mergesort
produces.  Only the text and the oracle are read, never a full suffix
array, and a round allocates memory in proportion to its sample.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.suffix.batch import pack_limit
from repro.suffix.lce import LceOracle

#: Leading letters used as the vectorised primary sort key.
PREFIX_KEY_LETTERS = 24


def _letters_at(codes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``codes[at]``, reading -1 (below every letter) past the text end."""
    n = len(codes)
    return np.where(at < n, codes[np.minimum(at, n - 1)], -1)


class SparseSuffixArray:
    """Lexicographically sorted sample of suffixes with its sparse LCP.

    Parameters
    ----------
    codes:
        The full text (never copied).
    positions:
        The sampled suffix start positions (distinct, in range).
    lce:
        An LCE oracle over *codes* (fingerprint- or SA-backed).
    """

    def __init__(
        self,
        codes: np.ndarray,
        positions: "Sequence[int] | np.ndarray",
        lce: LceOracle,
    ) -> None:
        self._codes = np.asarray(codes, dtype=np.int64)
        requested = np.asarray(positions, dtype=np.int64)
        pos = np.unique(requested)
        n = len(self._codes)
        if pos.size and (int(pos[0]) < 0 or int(pos[-1]) >= n):
            raise ParameterError("sampled positions out of text range")
        if len(pos) != len(requested):
            raise ParameterError("sampled positions must be distinct")
        self._lce = lce
        self._ssa, self._slcp = self._sort_suffixes(pos)
        self._ssa.flags.writeable = False
        self._slcp.flags.writeable = False

    def _sort_suffixes(self, pos: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """The sorted sample and its sparse LCP, as int64 arrays."""
        m = len(pos)
        slcp = np.zeros(m, dtype=np.int64)
        if m <= 1:
            return pos, slcp
        codes = self._codes
        width = min(PREFIX_KEY_LETTERS, len(codes))
        # The key packs its letters, shifted up by one (0 past the text
        # end, below every letter), into as few int64 words as fit.
        base = int(codes.max()) + 2
        per_word = pack_limit(base)
        words = []
        for first in range(0, width, per_word):
            word = np.zeros(m, dtype=np.int64)
            for column in range(first, min(first + per_word, width)):
                word *= base
                word += _letters_at(codes, pos + column) + 1
            words.append(word)
        # lexsort uses the *last* key as primary: feed words reversed.
        order = np.lexsort(words[::-1])
        del words
        pos = pos[order]
        # A neighbour pair's LCP is its first mismatching key column; a
        # pair that ties on the whole key shares at least `width` letters
        # (a suffix shorter than the key differs at its -1).
        lcp = np.full(m - 1, width, dtype=np.int64)
        for column in range(width - 1, -1, -1):
            letters = _letters_at(codes, pos + column)
            lcp[letters[1:] != letters[:-1]] = column
        slcp[1:] = lcp
        tied = np.zeros(m, dtype=bool)
        tied[1:] = lcp == width
        if tied.any():
            self._split_ties(pos, slcp, tied, width)
        return pos, slcp

    def _split_ties(self, pos: np.ndarray, slcp: np.ndarray, tied: np.ndarray,
                    width: int) -> None:
        """Multikey quicksort of the tie runs, in place.

        ``tied[r]`` marks row ``r`` as still unordered against row
        ``r - 1``; ``depth[r]`` is how many letters row ``r`` is known
        to share with the rest of its run.
        """
        codes = self._codes
        depth = np.full(len(pos), width, dtype=np.int64)
        while True:
            # The rows of open runs, and where each run begins.
            member = tied.copy()
            member[:-1] |= tied[1:]
            rows = np.flatnonzero(member)
            if not len(rows):
                return
            begins = ~tied[rows]
            run = np.cumsum(begins) - 1
            firsts = np.flatnonzero(begins)
            sizes = np.diff(np.append(firsts, len(rows)))
            pivots = pos[rows[firsts + sizes // 2]][run]
            suffixes = pos[rows]
            ell = self._lce.lce_batch(suffixes, pivots, depth[rows])
            letter = _letters_at(codes, suffixes + ell)
            side = np.sign(letter - _letters_at(codes, pivots + ell))
            order = np.lexsort((letter, np.where(side < 0, ell, -ell), side, run))
            suffixes, ell, letter, side = suffixes[order], ell[order], letter[order], side[order]
            pos[rows] = suffixes
            depth[rows] = ell + 1
            # Neighbours in one run stay tied when they agree on (side, l,
            # next letter); otherwise they split with LCP min(l_prev, l_next).
            split = (run[1:] == run[:-1]) & (
                (side[1:] != side[:-1]) | (ell[1:] != ell[:-1]) | (letter[1:] != letter[:-1])
            )
            after = rows[1:]
            slcp[after[split]] = np.minimum(ell[:-1], ell[1:])[split]
            tied[after[split]] = False

    @property
    def positions(self) -> list[int]:
        """Sampled suffix starts in lexicographic suffix order (SSA)."""
        return self._ssa.tolist()

    @property
    def slcp(self) -> list[int]:
        """Sparse LCP array parallel to :attr:`positions`."""
        return self._slcp.tolist()

    @property
    def positions_array(self) -> np.ndarray:
        """:attr:`positions` as a read-only int64 array (no copy)."""
        return self._ssa

    @property
    def slcp_array(self) -> np.ndarray:
        """:attr:`slcp` as a read-only int64 array (no copy)."""
        return self._slcp

    def __len__(self) -> int:
        return len(self._ssa)

    def suffix_at_rank(self, rank: int) -> int:
        """Text position of the rank-th smallest sampled suffix."""
        return int(self._ssa[rank])

    def nbytes(self) -> int:
        """Analytic size of the SSA + SLCP arrays (8 bytes per entry)."""
        return 16 * len(self._ssa)
