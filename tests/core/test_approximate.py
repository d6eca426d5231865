"""Tests for Approximate-Top-K (Section VI)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximate import ApproximateTopK
from repro.core.exact_topk import exact_top_k
from repro.datasets.registry import load
from repro.errors import ParameterError
from repro.strings.occurrences import naive_occurrences, naive_substring_frequencies

from tests.conftest import texts_mixed


class TestExactness:
    def test_s1_is_exact(self):
        """One round samples everything: identical to Exact-Top-K."""
        text = "ABRACADABRAABRACADABRA"
        for k in (1, 5, 10):
            approx = ApproximateTopK(text, k=k, s=1).mine()
            exact = exact_top_k(text, k)
            assert sorted(m.frequency for m in approx) == sorted(
                m.frequency for m in exact
            )

    @given(texts_mixed(max_size=40), st.integers(1, 12))
    @settings(max_examples=30)
    def test_s1_matches_exact_property(self, text, k):
        approx = ApproximateTopK(text, k=k, s=1).mine()
        exact = exact_top_k(text, k)
        assert sorted(m.frequency for m in approx) == sorted(
            m.frequency for m in exact
        )


class TestOneSidedError:
    @given(texts_mixed(max_size=50), st.integers(1, 10), st.integers(1, 6))
    @settings(max_examples=40)
    def test_frequencies_never_overestimated_property(self, text, k, s):
        """The Theorem 3 invariant: reported <= true frequency, always."""
        s = min(s, len(text))
        miner = ApproximateTopK(text, k=k, s=s)
        for mined in miner.mine():
            substring = text[mined.position : mined.position + mined.length]
            true_freq = len(naive_occurrences(text, substring))
            assert mined.frequency <= true_freq, (text, substring)

    def test_reported_substrings_actually_occur(self):
        text = "ABABABCCCABAB"
        for mined in ApproximateTopK(text, k=5, s=3).mine():
            assert mined.position + mined.length <= len(text)
            assert mined.frequency >= 1


class TestAccuracyOnRepetitiveText:
    def test_hot_substrings_found(self):
        """A very frequent motif must survive sampling."""
        text = "XYZ" * 60 + "Q"
        mined = ApproximateTopK(text, k=3, s=4).mine()
        contents = {
            text[m.position : m.position + m.length] for m in mined
        }
        assert contents & {"X", "Y", "Z"}

    def test_more_rounds_degrade_gracefully(self):
        text = ("ABCDE" * 40) + "XY"
        exact_freqs = sorted(m.frequency for m in exact_top_k(text, 5))
        for s in (1, 2, 4):
            approx = sorted(
                m.frequency for m in ApproximateTopK(text, k=5, s=s).mine()
            )
            # Sampled frequency sums can only shrink.
            assert all(a <= e for a, e in zip(approx, exact_freqs))


class TestParameters:
    def test_bad_k(self):
        with pytest.raises(ParameterError):
            ApproximateTopK("AB", k=0, s=1)

    def test_bad_s(self):
        with pytest.raises(ParameterError):
            ApproximateTopK("AB", k=1, s=0)
        with pytest.raises(ParameterError):
            ApproximateTopK("AB", k=1, s=3)

    def test_stats_recorded(self):
        miner = ApproximateTopK("ABABABAB", k=2, s=2)
        miner.mine()
        assert miner.stats.rounds == 2
        assert len(miner.stats.sample_sizes) == 2
        assert sum(miner.stats.sample_sizes) == 8
        assert miner.stats.peak_auxiliary_bytes > 0

    def test_sample_space_shrinks_with_s(self):
        text = "AB" * 200
        small_s = ApproximateTopK(text, k=4, s=2)
        small_s.mine()
        large_s = ApproximateTopK(text, k=4, s=8)
        large_s.mine()
        assert large_s.stats.peak_auxiliary_bytes < small_s.stats.peak_auxiliary_bytes

    def test_deterministic_given_seed(self):
        text = "ABRACADABRA" * 4
        a = ApproximateTopK(text, k=5, s=3, seed=1).mine()
        b = ApproximateTopK(text, k=5, s=3, seed=1).mine()
        assert a == b

    def test_mined_set_pinned_on_xml(self):
        # The miner's output on a seeded XML text, pinned as a digest of
        # every (position, length, frequency) it reports: a change to
        # the sparse sort, its LCP or the merge that moves any answer
        # fails here.  The XML text's long tag runs tie on the 24-letter
        # prefix key, so the multikey tie sort runs in every round.
        ws = load("XML", n=30_000, seed=5)
        mined = ApproximateTopK(ws, k=300, s=6, seed=0).mine()
        payload = ";".join(f"{m.position},{m.length},{m.frequency}" for m in mined)
        assert len(mined) == 300
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "c5ee58c72b841863f7d0f2bb122ae0033a029f40948f447fc60b0cc5d374b335"
        )
