"""Tests for LCP construction, sparse-table RMQ and the LCE oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.strings.alphabet import Alphabet
from repro.suffix.lce import FingerprintLce, SuffixArrayLce, naive_lce
from repro.suffix.lcp import lcp_array_kasai
from repro.suffix.rmq import SparseTableRmq
from repro.suffix.suffix_array import SuffixArray

from tests.conftest import texts_mixed


def _encode(text: str) -> np.ndarray:
    return Alphabet.from_text(text).encode(text)


def naive_lcp(text: str, sa: list[int]) -> list[int]:
    out = [0] * len(sa)
    for j in range(1, len(sa)):
        a, b = text[sa[j - 1]:], text[sa[j]:]
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        out[j] = k
    return out


class TestLcp:
    @pytest.mark.parametrize("text", ["BANANA", "MISSISSIPPI", "AAAA", "ABAB", "A"])
    def test_matches_naive(self, text):
        codes = _encode(text)
        index = SuffixArray(codes)
        assert lcp_array_kasai(codes, index.sa).tolist() == naive_lcp(
            text, index.sa.tolist()
        )

    def test_lcp0_is_zero(self):
        codes = _encode("BANANA")
        index = SuffixArray(codes)
        assert int(index.lcp[0]) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lcp_array_kasai(_encode("AB"), np.asarray([0], dtype=np.int64))

    @given(texts_mixed(max_size=60))
    def test_matches_naive_property(self, text):
        codes = _encode(text)
        index = SuffixArray(codes)
        assert index.lcp.tolist() == naive_lcp(text, index.sa.tolist())


class TestRmq:
    def test_min_queries(self):
        values = [5, 3, 8, 1, 9, 2]
        rmq = SparseTableRmq(values)
        for lo in range(6):
            for hi in range(lo, 6):
                assert rmq.query(lo, hi) == min(values[lo : hi + 1])

    def test_max_queries(self):
        values = [5, 3, 8, 1, 9, 2]
        rmq = SparseTableRmq(values, maximum=True)
        for lo in range(6):
            for hi in range(lo, 6):
                assert rmq.query(lo, hi) == max(values[lo : hi + 1])

    def test_single_element(self):
        assert SparseTableRmq([42]).query(0, 0) == 42

    def test_floats(self):
        rmq = SparseTableRmq([0.5, 0.1, 0.9])
        assert rmq.query(0, 2) == pytest.approx(0.1)

    def test_bad_range(self):
        rmq = SparseTableRmq([1, 2, 3])
        with pytest.raises(ParameterError):
            rmq.query(2, 1)
        with pytest.raises(ParameterError):
            rmq.query(0, 3)

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            SparseTableRmq(np.zeros((2, 2)))

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=60),
        st.data(),
    )
    def test_matches_min_property(self, values, data):
        rmq = SparseTableRmq(values)
        lo = data.draw(st.integers(0, len(values) - 1))
        hi = data.draw(st.integers(lo, len(values) - 1))
        assert rmq.query(lo, hi) == min(values[lo : hi + 1])

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=60),
        st.booleans(),
        st.data(),
    )
    def test_query_batch_matches_scalar_property(self, values, maximum, data):
        # Mixed span lengths in one batch: several table levels at once.
        rmq = SparseTableRmq(values, maximum=maximum)
        n = len(values)
        los = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=20))
        his = [data.draw(st.integers(lo, n - 1)) for lo in los]
        got = rmq.query_batch(np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64))
        assert got.tolist() == [rmq.query(lo, hi) for lo, hi in zip(los, his)]

    def test_query_batch_bad_range(self):
        rmq = SparseTableRmq([1, 2, 3])
        with pytest.raises(ParameterError):
            rmq.query_batch(np.asarray([2]), np.asarray([1]))
        with pytest.raises(ParameterError):
            rmq.query_batch(np.asarray([0]), np.asarray([3]))
        with pytest.raises(ParameterError):
            rmq.query_batch(np.asarray([-1]), np.asarray([0]))


class TestLce:
    @pytest.mark.parametrize("text", ["BANANA", "ABABABAB", "AAAA", "ABCDEF"])
    def test_both_oracles_match_naive(self, text):
        codes = _encode(text).astype(np.int64)
        index = SuffixArray(codes)
        fp_lce = FingerprintLce(codes)
        sa_lce = SuffixArrayLce(codes, index.sa, index.lcp)
        n = len(codes)
        for i in range(n):
            for j in range(n):
                want = naive_lce(codes, i, j)
                assert fp_lce.lce(i, j) == want, (text, i, j)
                assert sa_lce.lce(i, j) == want, (text, i, j)

    def test_lce_of_suffix_with_itself(self):
        codes = _encode("BANANA").astype(np.int64)
        assert FingerprintLce(codes).lce(2, 2) == 4

    def test_out_of_range_positions_give_zero(self):
        codes = _encode("AB").astype(np.int64)
        assert FingerprintLce(codes).lce(5, 0) == 0

    def test_compare_suffixes_matches_lexicographic(self):
        text = "MISSISSIPPI"
        codes = _encode(text).astype(np.int64)
        oracle = FingerprintLce(codes)
        for i in range(len(text)):
            for j in range(len(text)):
                got = oracle.compare_suffixes(i, j)
                want = (text[i:] > text[j:]) - (text[i:] < text[j:])
                assert np.sign(got) == want

    def test_long_repetitive_lce_exceeds_direct_scan(self):
        # Force the binary-search path (> _DIRECT_SCAN letters equal).
        codes = np.zeros(200, dtype=np.int64)
        assert FingerprintLce(codes).lce(0, 50) == 150

    @pytest.mark.parametrize("text", ["BANANA", "ABABABAB", "AAAA", "ABCDEF", "A"])
    def test_both_batch_oracles_match_naive(self, text):
        # Every pair at once, with i == j and the pairs that run to the
        # end of the text among them.
        codes = _encode(text).astype(np.int64)
        index = SuffixArray(codes)
        n = len(codes)
        i, j = (grid.ravel() for grid in np.meshgrid(np.arange(n), np.arange(n)))
        want = [naive_lce(codes, a, b) for a, b in zip(i.tolist(), j.tolist())]
        assert FingerprintLce(codes).lce_batch(i, j).tolist() == want
        assert SuffixArrayLce(codes, index.sa, index.lcp).lce_batch(i, j).tolist() == want

    def test_batch_lower_bound_starts_the_search(self):
        # Unary text: every pair shares all letters of the shorter suffix.
        codes = np.zeros(300, dtype=np.int64)
        i = np.asarray([0, 10, 299, 150])
        j = np.asarray([100, 10, 0, 149])
        want = [200, 290, 1, 150]
        assert FingerprintLce(codes).lce_batch(i, j, lo=1).tolist() == want
        assert FingerprintLce(codes).lce_batch(i, j, lo=np.asarray([150, 0, 1, 100])).tolist() == want

    def test_batch_out_of_range_and_empty(self):
        codes = _encode("ABAB").astype(np.int64)
        index = SuffixArray(codes)
        for oracle in (FingerprintLce(codes), SuffixArrayLce(codes, index.sa, index.lcp)):
            assert oracle.lce_batch(np.asarray([5, 0, 4]), np.asarray([0, 5, 4])).tolist() == [0, 0, 0]
            assert oracle.lce_batch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).tolist() == []

    @given(texts_mixed(max_size=50), st.data())
    def test_batch_oracles_property(self, text, data):
        codes = _encode(text).astype(np.int64)
        index = SuffixArray(codes)
        n = len(codes)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
        i = np.asarray([a for a, _ in pairs], dtype=np.int64)
        j = np.asarray([b for _, b in pairs], dtype=np.int64)
        want = [naive_lce(codes, a, b) for a, b in pairs]
        assert FingerprintLce(codes).lce_batch(i, j).tolist() == want
        assert SuffixArrayLce(codes, index.sa, index.lcp).lce_batch(i, j).tolist() == want

    @given(texts_mixed(max_size=50), st.data())
    def test_fingerprint_lce_property(self, text, data):
        codes = _encode(text).astype(np.int64)
        oracle = FingerprintLce(codes)
        i = data.draw(st.integers(0, len(codes) - 1))
        j = data.draw(st.integers(0, len(codes) - 1))
        assert oracle.lce(i, j) == naive_lce(codes, i, j)
