"""Karp-Rabin fingerprints over dual 31-bit moduli.

The USI hash table ``H`` keys substrings by their Karp-Rabin
fingerprint (Karp & Rabin, 1987).  We use two independent polynomial
hashes modulo distinct 31-bit primes and combine them into a single
62-bit key:

* collisions require a simultaneous collision in both fields, so the
  collision probability for ``z`` distinct substrings is about
  ``z^2 / 2^62`` — negligible for any text this library targets, and
  matching the paper's "with high probability" guarantee;
* all arithmetic fits in ``int64`` (values < 2^31, products < 2^62),
  so window fingerprints for a whole text can be computed with
  vectorised ``numpy`` — this is the kernel behind the length-band
  mining sweeps of :mod:`repro.core.mining`.

The fingerprinter precomputes prefix hashes once (``O(n)``) and then
answers the fingerprint of any fragment in ``O(1)``, exactly the
primitive the paper relies on.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.errors import ParameterError

_MOD1 = (1 << 31) - 1  # Mersenne prime 2^31 - 1
_MOD2 = (1 << 31) - 99  # prime 2147483549


class KarpRabinFingerprinter:
    """Prefix-hash tables over a code array, with O(1) fragment hashes.

    Parameters
    ----------
    codes:
        The text as a non-negative integer array.
    seed:
        Seed for drawing the two random bases.  Indexes that must agree
        on fingerprints (e.g. an index and the queries against it) share
        one fingerprinter instance, so the seed only needs to make runs
        reproducible.
    """

    def __init__(self, codes: "Sequence[int] | np.ndarray", seed: int = 0) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ParameterError("codes must be a 1-D array")
        rng = random.Random(seed)
        # Bases must exceed every letter code to keep the map injective
        # per position; the moduli are ~2^31 so any code below them works,
        # but we additionally shift codes by +1 internally so that the
        # letter 0 does not hash like an empty prefix.
        self._base1 = rng.randrange(1 << 20, _MOD1 - 1)
        self._base2 = rng.randrange(1 << 20, _MOD2 - 1)
        self._n = len(codes)
        shifted = codes + 1
        if self._n and int(shifted.max()) >= _MOD1:
            raise ParameterError("letter codes must be below 2^31 - 2")
        self._prefix1, self._pow1 = self._build_tables(shifted, self._base1, _MOD1)
        self._prefix2, self._pow2 = self._build_tables(shifted, self._base2, _MOD2)

    @staticmethod
    def _power_table(base: int, mod: int, count: int) -> np.ndarray:
        """``base^i mod mod`` for ``i in [0, count)``, vectorised.

        Blocked decomposition ``base^i = small[i % B] * big[i // B]``:
        two short sequential tables of ~sqrt(count) mulmods each, then
        one vectorised multiply (products stay below ``2^62``).
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        block = max(1, int(count**0.5) + 1)
        small = np.empty(block, dtype=np.int64)
        p = 1
        for i in range(block):
            small[i] = p
            p = (p * base) % mod
        jump = p  # base^block
        blocks = (count + block - 1) // block
        big = np.empty(blocks, dtype=np.int64)
        p = 1
        for i in range(blocks):
            big[i] = p
            p = (p * jump) % mod
        idx = np.arange(count, dtype=np.int64)
        return small[idx % block] * big[idx // block] % mod

    @classmethod
    def _build_tables(cls, shifted: np.ndarray, base: int, mod: int) -> tuple[np.ndarray, np.ndarray]:
        """Prefix hashes ``h[i] = hash(S[0..i-1])`` and powers of *base*.

        The recurrence ``h_{i+1} = h_i * base + c_i`` is linearised by
        dividing through by ``base^{i+1}``: the quotients are a plain
        prefix sum of ``c_i * base^{-(i+1)}``, which ``np.cumsum`` can
        take (terms are below ``2^31``, so partial sums of up to
        ``2^31`` texts fit int64), and one vectorised multiply by
        ``base^i`` restores the hashes.  Same values as the sequential
        loop, bit for bit — persisted fingerprints stay comparable.
        """
        n = len(shifted)
        powers = cls._power_table(base, mod, n + 1)
        prefix = np.empty(n + 1, dtype=np.int64)
        prefix[0] = 0
        if n:
            inv_base = pow(int(base), -1, int(mod))
            inv_powers = cls._power_table(inv_base, mod, n + 1)
            scaled = shifted * inv_powers[1:] % mod
            prefix[1:] = np.cumsum(scaled) % mod * powers[1:] % mod
        return prefix, powers

    @classmethod
    def with_bases(
        cls,
        codes: "Sequence[int] | np.ndarray",
        base1: int,
        base2: int,
    ) -> "KarpRabinFingerprinter":
        """Rebuild a fingerprinter with explicit bases (deserialisation).

        Fingerprints are only comparable between instances sharing the
        same bases; a persisted index must restore the exact pair it
        was built with.
        """
        if not 1 < base1 < _MOD1 - 1 or not 1 < base2 < _MOD2 - 1:
            raise ParameterError("bases out of range for the fixed moduli")
        instance = cls.__new__(cls)
        codes = np.asarray(codes, dtype=np.int64)
        instance._base1 = int(base1)
        instance._base2 = int(base2)
        instance._n = len(codes)
        shifted = codes + 1
        instance._prefix1, instance._pow1 = cls._build_tables(shifted, instance._base1, _MOD1)
        instance._prefix2, instance._pow2 = cls._build_tables(shifted, instance._base2, _MOD2)
        return instance

    @property
    def bases(self) -> tuple[int, int]:
        """The two random bases (persisted alongside an index)."""
        return (self._base1, self._base2)

    @property
    def length(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Fragment fingerprints
    # ------------------------------------------------------------------
    def fragment(self, i: int, length: int) -> int:
        """The 62-bit fingerprint of ``S[i .. i + length - 1]`` in O(1)."""
        if length <= 0 or i < 0 or i + length > self._n:
            raise ParameterError(
                f"fragment ({i}, {length}) out of range for n={self._n}"
            )
        j = i + length
        f1 = (self._prefix1[j] - self._prefix1[i] * self._pow1[length]) % _MOD1
        f2 = (self._prefix2[j] - self._prefix2[i] * self._pow2[length]) % _MOD2
        return (int(f1) << 31) | int(f2)

    def all_windows(self, length: int) -> np.ndarray:
        """Fingerprints of every window ``S[i .. i + length - 1]``, vectorised.

        Returns an ``int64`` array of ``n - length + 1`` combined keys.
        This is the bulk kernel of the length-band miners
        (:mod:`repro.core.mining`).
        """
        if length <= 0 or length > self._n:
            raise ParameterError(f"window length {length} out of range")
        count = self._n - length + 1
        starts = self._prefix1[:count]
        ends = self._prefix1[length : length + count]
        f1 = (ends - starts * self._pow1[length]) % _MOD1
        starts = self._prefix2[:count]
        ends = self._prefix2[length : length + count]
        f2 = (ends - starts * self._pow2[length]) % _MOD2
        return (f1 << np.int64(31)) | f2

    def fragments(self, positions: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Fingerprints of ``S[p .. p + l - 1]`` per (position, length) pair.

        The vectorised twin of :meth:`fragment` for ragged batches —
        one gather per prefix/power table instead of a Python call per
        fragment (this is the bulk kernel behind the approximate
        miner's merge keys).
        """
        positions = np.asarray(positions, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if positions.size and (
            int(positions.min()) < 0
            or int(lengths.min()) <= 0
            or int((positions + lengths).max()) > self._n
        ):
            raise ParameterError("fragment (position, length) pairs out of range")
        ends = positions + lengths
        f1 = (self._prefix1[ends] - self._prefix1[positions] * self._pow1[lengths]) % _MOD1
        f2 = (self._prefix2[ends] - self._prefix2[positions] * self._pow2[lengths]) % _MOD2
        return (f1 << np.int64(31)) | f2

    def windows_at(self, positions: np.ndarray, length: int) -> np.ndarray:
        """Fingerprints of the windows starting at *positions*, vectorised.

        The USI table build keys ``H`` with these, one call per mined
        length.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) + length > self._n
        ):
            raise ParameterError("window positions out of range")
        ends = positions + length
        f1 = (self._prefix1[ends] - self._prefix1[positions] * self._pow1[length]) % _MOD1
        f2 = (self._prefix2[ends] - self._prefix2[positions] * self._pow2[length]) % _MOD2
        return (f1 << np.int64(31)) | f2

    # ------------------------------------------------------------------
    # Pattern fingerprints (text-independent input)
    # ------------------------------------------------------------------
    def of_code_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Fingerprints for a batch of equal-length patterns, vectorised.

        *matrix* has one pattern per row; returns one combined key per
        row, identical to calling :meth:`of_codes` on each row.  This
        is the bulk kernel behind ``UsiIndex.query_batch``.
        """
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2:
            raise ParameterError("expected a 2-D pattern matrix")
        f1 = np.zeros(len(matrix), dtype=np.int64)
        f2 = np.zeros(len(matrix), dtype=np.int64)
        for column in range(matrix.shape[1]):
            c = matrix[:, column] + 1
            f1 = (f1 * self._base1 + c) % _MOD1
            f2 = (f2 * self._base2 + c) % _MOD2
        return (f1 << np.int64(31)) | f2

    def of_codes(self, codes: "Sequence[int] | np.ndarray") -> int:
        """The fingerprint an occurrence of *codes* would have in the text.

        This is the O(m) query-side computation: hashing an arbitrary
        pattern with the same bases/moduli so it can be looked up in a
        fingerprint-keyed hash table.
        """
        f1 = 0
        f2 = 0
        for c in codes:
            c1 = int(c) + 1
            f1 = (f1 * self._base1 + c1) % _MOD1
            f2 = (f2 * self._base2 + c1) % _MOD2
        return (f1 << 31) | f2


def fingerprint_of(codes: "Sequence[int] | np.ndarray", seed: int = 0) -> int:
    """Fingerprint of a standalone code sequence (convenience for tests)."""
    return KarpRabinFingerprinter(np.asarray(codes, dtype=np.int64), seed=seed).of_codes(codes)
