"""Tests for the dynamic (append-only) USI index (Section X)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicUsiIndex
from repro.core.naive import naive_global_utility
from repro.core.usi import UsiIndex
from repro.errors import ParameterError
from repro.strings.weighted import WeightedString


def _rebuilt_equivalent(dyn: DynamicUsiIndex, k: int) -> UsiIndex:
    return UsiIndex.build(dyn.to_weighted_string(), k=k)


class TestAppendSemantics:
    def test_append_grows_length(self):
        dyn = DynamicUsiIndex(WeightedString.uniform("ABAB"), k=3)
        dyn.append("A", 1.0)
        assert dyn.length == 5
        assert dyn.tail_length == 1

    def test_query_sees_appended_occurrences(self):
        dyn = DynamicUsiIndex(WeightedString.uniform("ABAB"), k=3)
        before = dyn.query("AB")
        dyn.append("A", 1.0)
        dyn.append("B", 1.0)
        after = dyn.query("AB")
        assert after == pytest.approx(before + 2.0)

    def test_boundary_crossing_occurrence_counted(self):
        # Pattern 'BA' appears only across the old/new boundary.
        dyn = DynamicUsiIndex(WeightedString("AAB", [1, 1, 5]), k=2)
        dyn.append("A", 7.0)
        assert dyn.query("BA") == pytest.approx(12.0)

    def test_matches_full_rebuild(self):
        ws = WeightedString("ABCABC", [1, 2, 3, 1, 2, 3])
        dyn = DynamicUsiIndex(ws, k=4)
        for letter, utility in [("A", 1.5), ("B", 2.5), ("C", 0.5), ("A", 1.0)]:
            dyn.append(letter, utility)
        rebuilt = _rebuilt_equivalent(dyn, k=4)
        for pattern in ("A", "AB", "ABC", "CA", "BCA", "CABC"):
            assert dyn.query(pattern) == pytest.approx(rebuilt.query(pattern))

    def test_pattern_longer_than_text_zero(self):
        dyn = DynamicUsiIndex(WeightedString.uniform("AB"), k=2)
        assert dyn.query("ABABAB") == 0.0

    def test_extend_batch(self):
        dyn = DynamicUsiIndex(WeightedString.uniform("AB"), k=2)
        dyn.extend("ABAB", [1.0] * 4)
        assert dyn.length == 6
        full = dyn.to_weighted_string()
        assert full.text() == "ABABAB"

    def test_extend_length_mismatch(self):
        dyn = DynamicUsiIndex(WeightedString.uniform("AB"), k=2)
        with pytest.raises(ParameterError):
            dyn.extend("AB", [1.0])

    def test_novel_letter_rejected(self):
        dyn = DynamicUsiIndex(WeightedString.uniform("AB"), k=2)
        with pytest.raises(Exception):
            dyn.append("Z", 1.0)


class TestRebuildPolicy:
    def test_rebuild_triggered_past_threshold(self):
        dyn = DynamicUsiIndex(
            WeightedString.uniform("AB" * 40), k=4, rebuild_fraction=0.05
        )
        # MIN_TAIL=64 dominates; push beyond it.
        for _ in range(70):
            dyn.append("A", 1.0)
        assert dyn.rebuild_count >= 1
        assert dyn.tail_length < 70

    def test_queries_correct_across_rebuild(self):
        base = WeightedString.uniform("AB" * 40)
        dyn = DynamicUsiIndex(base, k=4, rebuild_fraction=0.05)
        appended = "ABAAB" * 14  # 70 letters: forces a rebuild
        for letter in appended:
            dyn.append(letter, 1.0)
        full = dyn.to_weighted_string()
        for pattern in ("AB", "AAB", "BA"):
            assert dyn.query(pattern) == pytest.approx(
                naive_global_utility(full, pattern)
            )

    def test_tail_of_equal_length_after_rebuild_is_reread(self):
        # The tail array is cached by tail length; a rebuild empties the
        # tail, so a new tail of the old length must not reuse it.
        dyn = DynamicUsiIndex(WeightedString.uniform("AB" * 4), k=2)
        for _ in range(64):
            dyn.append("A", 1.0)
        assert dyn.query("AAA") == pytest.approx(3.0 * 62)
        dyn.append("A", 1.0)  # past MIN_TAIL: rebuild, tail emptied
        assert dyn.rebuild_count == 1 and dyn.tail_length == 0
        for _ in range(64):
            dyn.append("B", 1.0)
        full = dyn.to_weighted_string()
        for pattern in ("BBB", "AAB", "AAA"):
            assert dyn.query(pattern) == pytest.approx(naive_global_utility(full, pattern))

    def test_invalid_fraction(self):
        with pytest.raises(ParameterError):
            DynamicUsiIndex(WeightedString.uniform("AB"), k=2, rebuild_fraction=0.0)


class TestAgainstNaive:
    @given(
        st.text(alphabet="AB", min_size=2, max_size=20),
        st.lists(
            st.tuples(st.sampled_from("AB"), st.floats(0, 5, allow_nan=False, width=32)),
            min_size=0,
            max_size=10,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_dynamic_equals_naive_property(self, text, appends, k):
        from repro.strings.alphabet import Alphabet

        ws = WeightedString.uniform(text, alphabet=Alphabet("AB"))
        dyn = DynamicUsiIndex(ws, k=k)
        for letter, utility in appends:
            dyn.append(letter, utility)
        full = dyn.to_weighted_string()
        for pattern in {text[:2], "AB", "BA", text[-1]}:
            if pattern:
                assert dyn.query(pattern) == pytest.approx(
                    naive_global_utility(full, pattern), abs=1e-6
                ), pattern

    def test_min_aggregator_merges_across_boundary(self):
        ws = WeightedString("ABAB", [5.0, 5.0, 1.0, 1.0])
        dyn = DynamicUsiIndex(ws, k=3, aggregator="min")
        dyn.append("A", 0.1)
        dyn.append("B", 0.1)
        full = dyn.to_weighted_string()
        assert dyn.query("AB") == pytest.approx(
            naive_global_utility(full, "AB", "min")
        )

    def test_avg_aggregator_merges_across_boundary(self):
        ws = WeightedString("ABAB", [2.0, 2.0, 4.0, 4.0])
        dyn = DynamicUsiIndex(ws, k=3, aggregator="avg")
        dyn.append("A", 6.0)
        dyn.append("B", 6.0)
        full = dyn.to_weighted_string()
        assert dyn.query("AB") == pytest.approx(
            naive_global_utility(full, "AB", "avg")
        )
