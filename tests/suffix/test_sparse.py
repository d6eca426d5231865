"""Tests for the sparse suffix array."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.strings.alphabet import Alphabet
from repro.suffix.lce import FingerprintLce, SuffixArrayLce, naive_lce
from repro.suffix.sparse import PREFIX_KEY_LETTERS, SparseSuffixArray
from repro.suffix.suffix_array import SuffixArray

from tests.conftest import texts_mixed

#: The largest letter code a Karp-Rabin fingerprinter accepts.
MAX_CODE = (1 << 31) - 3


def _sparse(text: str, positions) -> SparseSuffixArray:
    codes = Alphabet.from_text(text).encode(text).astype(np.int64)
    return SparseSuffixArray(codes, positions, FingerprintLce(codes))


def naive_sorted(text: str, positions) -> list[int]:
    return sorted(positions, key=lambda i: text[i:])


def fibonacci_codes(n: int) -> np.ndarray:
    """The first *n* letters of the Fibonacci word abaababaab... as 0/1."""
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return np.frombuffer(b[:n].encode(), dtype=np.uint8).astype(np.int64) - ord("a")


def family_codes(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Repeat-rich and extreme texts: the sparse sort's hard cases."""
    if family == "unary":
        return np.zeros(n, dtype=np.int64)
    if family == "period2":
        return np.arange(n, dtype=np.int64) % 2
    if family == "a^n b":
        return np.concatenate((np.zeros(n - 1, dtype=np.int64), [1]))
    if family == "fibonacci":
        return fibonacci_codes(n)
    if family == "max-alphabet":
        return rng.permutation(n).astype(np.int64)
    # Two letters at the top of the code range: the packed key holds
    # the fewest letters per word.
    return rng.choice([0, MAX_CODE], size=n).astype(np.int64)


@st.composite
def sparse_cases(draw) -> "tuple[np.ndarray, list[int]]":
    """A text (random or from a hard family, shorter or longer than
    the prefix key) and a sample of its positions: a stride, or an
    arbitrary subset."""
    family = draw(st.sampled_from(
        ["random", "unary", "period2", "a^n b", "fibonacci", "max-alphabet", "top-codes"]
    ))
    n = draw(st.one_of(st.integers(1, PREFIX_KEY_LETTERS - 1),
                       st.integers(PREFIX_KEY_LETTERS, 90)))
    if family == "random":
        text = draw(texts_mixed(max_size=90))
        codes = Alphabet.from_text(text).encode(text).astype(np.int64)
    else:
        codes = family_codes(family, n, np.random.default_rng(draw(st.integers(0, 2**16))))
    n = len(codes)
    if draw(st.booleans()):
        stride = draw(st.integers(1, max(1, n // 2)))
        positions = list(range(draw(st.integers(0, stride - 1)), n, stride))
    else:
        positions = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return codes, positions


def naive_sparse(codes: np.ndarray, positions) -> "tuple[list[int], list[int]]":
    order = sorted(positions, key=lambda i: tuple(codes[i:].tolist()))
    slcp = [0] * min(1, len(order)) + [naive_lce(codes, a, b) for a, b in zip(order, order[1:])]
    return order, slcp


class TestSorting:
    def test_all_positions_equals_full_sa(self):
        text = "MISSISSIPPI"
        ssa = _sparse(text, range(len(text)))
        assert ssa.positions == naive_sorted(text, range(len(text)))

    def test_subset(self):
        text = "BANANA"
        ssa = _sparse(text, [0, 2, 4])
        assert ssa.positions == naive_sorted(text, [0, 2, 4])

    def test_strided_sample(self):
        text = "ABRACADABRAABRACADABRA"
        positions = list(range(0, len(text), 3))
        assert _sparse(text, positions).positions == naive_sorted(text, positions)

    def test_repetitive_text_ties(self):
        # All suffixes share long prefixes: exercises the LCE tie-breaker.
        text = "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"  # 32 A's > prefix key width
        positions = [0, 5, 10, 15]
        assert _sparse(text, positions).positions == naive_sorted(text, positions)

    def test_single_position(self):
        assert _sparse("ABC", [1]).positions == [1]

    def test_empty_sample(self):
        assert _sparse("ABC", []).positions == []

    @given(sparse_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_property(self, case):
        codes, positions = case
        ssa = SparseSuffixArray(codes, positions, FingerprintLce(codes))
        order, slcp = naive_sparse(codes, positions)
        assert ssa.positions == order
        assert ssa.slcp == slcp

    @given(sparse_cases())
    @settings(max_examples=100, deadline=None)
    def test_both_oracles_agree_property(self, case):
        codes, positions = case
        index = SuffixArray(codes)
        by_fingerprint = SparseSuffixArray(codes, positions, FingerprintLce(codes))
        by_suffix_array = SparseSuffixArray(
            codes, positions, SuffixArrayLce(codes, index.sa, index.lcp)
        )
        assert by_fingerprint.positions == by_suffix_array.positions
        assert by_fingerprint.slcp == by_suffix_array.slcp

    def test_arrays_match_lists(self):
        ssa = _sparse("ABRACADABRA", [0, 3, 5, 7, 10])
        assert ssa.positions_array.dtype == np.int64
        assert ssa.positions_array.tolist() == ssa.positions
        assert ssa.slcp_array.tolist() == ssa.slcp
        with pytest.raises(ValueError):
            ssa.positions_array[0] = 1


class TestRounds:
    """The multikey quicksort halves its runs: O(log m) batched passes."""

    @pytest.mark.parametrize("family", ["unary", "period2", "a^n b", "fibonacci"])
    def test_lce_batch_calls_are_logarithmic(self, family):
        n = 50_000
        codes = family_codes(family, n, np.random.default_rng(0))
        oracle = FingerprintLce(codes)
        calls = []
        batch = oracle.lce_batch

        def counted(i, j, lo=0):
            calls.append(len(i))
            return batch(i, j, lo)

        oracle.lce_batch = counted
        ssa = SparseSuffixArray(codes, np.arange(n), oracle)
        m = len(ssa)
        assert 0 < len(calls) <= math.ceil(math.log2(m)) + 2
        # Spot-check the order and the LCP on a few neighbours.
        positions = ssa.positions_array
        for rank in (1, m // 3, m // 2, m - 1):
            a, b = int(positions[rank - 1]), int(positions[rank])
            ell = naive_lce(codes, a, b)
            assert ssa.slcp[rank] == ell
            # Suffix a sorts first: a proper prefix of b, or smaller at ell.
            assert a + ell == n or (b + ell < n and codes[a + ell] < codes[b + ell])


class TestSlcp:
    def test_matches_naive(self):
        text = "ABRACADABRA"
        positions = [0, 3, 5, 7]
        ssa = _sparse(text, positions)
        order = ssa.positions
        for idx in range(1, len(order)):
            a, b = text[order[idx - 1]:], text[order[idx]:]
            k = 0
            while k < min(len(a), len(b)) and a[k] == b[k]:
                k += 1
            assert ssa.slcp[idx] == k
        assert ssa.slcp[0] == 0

    def test_suffix_at_rank(self):
        text = "BANANA"
        ssa = _sparse(text, [0, 2, 4])
        assert ssa.suffix_at_rank(0) == ssa.positions[0]

    def test_nbytes_scales_with_sample(self):
        small = _sparse("ABABABAB", [0, 4])
        large = _sparse("ABABABAB", [0, 2, 4, 6])
        assert small.nbytes() < large.nbytes()


class TestValidation:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(ParameterError):
            _sparse("ABC", [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            _sparse("ABC", [3])
        with pytest.raises(ParameterError):
            _sparse("ABC", [-1])
