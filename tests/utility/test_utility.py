"""Tests for utility functions and the PSW array."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.utility.functions import (
    GlobalUtility,
    PrefixSumLocalUtility,
    RangeMaxLocalUtility,
    RangeMinLocalUtility,
    make_global_utility,
)
from repro.utility.prefix_sums import PswArray


class TestPswArray:
    def test_local_utility_matches_direct_sum(self):
        w = [0.9, 1, 3, 2, 0.7]
        psw = PswArray(w)
        for i in range(5):
            for length in range(1, 5 - i + 1):
                assert psw.local_utility(i, length) == pytest.approx(
                    sum(w[i : i + length])
                )

    def test_prefix_utility_is_paper_psw(self):
        w = [1.0, 2.0, 3.0]
        psw = PswArray(w)
        assert psw.prefix_utility(0) == pytest.approx(1.0)
        assert psw.prefix_utility(2) == pytest.approx(6.0)

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, size=50)
        psw = PswArray(w)
        positions = np.asarray([0, 3, 17, 40])
        batch = psw.local_utilities(positions, 5)
        for pos, value in zip(positions.tolist(), batch.tolist()):
            assert value == pytest.approx(psw.local_utility(pos, 5))

    def test_out_of_range(self):
        psw = PswArray([1.0, 2.0])
        with pytest.raises(ParameterError):
            psw.local_utility(0, 3)
        with pytest.raises(ParameterError):
            psw.local_utility(-1, 1)
        with pytest.raises(ParameterError):
            psw.local_utilities(np.asarray([1]), 2)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            PswArray([])

    def test_append_extends(self):
        psw = PswArray([1.0])
        psw.append(2.0)
        psw.append(3.0)
        assert psw.length == 3
        assert psw.local_utility(0, 3) == pytest.approx(6.0)
        assert psw.local_utility(2, 1) == pytest.approx(3.0)

    def test_appends_interleaved_with_queries(self):
        psw = PswArray([1.0, 1.0])
        assert psw.local_utility(0, 2) == pytest.approx(2.0)
        psw.append(5.0)
        assert psw.local_utility(1, 2) == pytest.approx(6.0)

    def test_nbytes(self):
        assert PswArray([1.0, 2.0]).nbytes() == 24  # (n + 1) float64

    @given(st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=1, max_size=40),
           st.data())
    def test_sliding_window_property(self, w, data):
        """u(i..j) equals u(i..i') + u(i'+1..j): the class-U property."""
        psw = PswArray(w)
        n = len(w)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i, n - 1))
        split = data.draw(st.integers(i, j))
        whole = psw.local_utility(i, j - i + 1)
        left = psw.local_utility(i, split - i + 1)
        right = psw.local_utility(split + 1, j - split) if split < j else 0.0
        assert whole == pytest.approx(left + right, abs=1e-6)


class TestRangeLocalUtilities:
    def test_min(self):
        u = RangeMinLocalUtility([3.0, 1.0, 2.0])
        assert u.local_utility(0, 3) == 1.0
        assert u.local_utility(2, 1) == 2.0

    def test_max(self):
        u = RangeMaxLocalUtility([3.0, 1.0, 2.0])
        assert u.local_utility(0, 3) == 3.0
        assert u.local_utility(1, 2) == 2.0

    def test_vectorised(self):
        u = RangeMinLocalUtility([5.0, 4.0, 3.0, 2.0, 1.0])
        np.testing.assert_allclose(
            u.local_utilities(np.asarray([0, 2]), 2), [4.0, 2.0]
        )

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            RangeMinLocalUtility([1.0]).local_utility(0, 2)
        with pytest.raises(ParameterError):
            RangeMinLocalUtility([1.0, 2.0]).local_utilities(np.asarray([0, 1]), 2)
        with pytest.raises(ParameterError):
            RangeMaxLocalUtility([1.0, 2.0]).local_utilities(np.asarray([0]), 0)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50),
        st.sampled_from([RangeMinLocalUtility, RangeMaxLocalUtility]),
    )
    def test_vectorised_matches_scalar_property(self, values, cls):
        u = cls(values)
        n = len(values)
        for length in range(1, n + 1):
            positions = np.arange(n - length + 1, dtype=np.int64)
            batch = u.local_utilities(positions, length)
            assert batch.tolist() == [u.local_utility(int(p), length) for p in positions]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            RangeMaxLocalUtility([])


class TestGlobalUtility:
    def test_sum(self):
        assert GlobalUtility("sum").aggregate([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_min_max_avg(self):
        values = np.asarray([4.0, 1.0, 3.0])
        assert GlobalUtility("min").aggregate(values) == 1.0
        assert GlobalUtility("max").aggregate(values) == 4.0
        assert GlobalUtility("avg").aggregate(values) == pytest.approx(8.0 / 3)

    def test_identity_on_empty(self):
        for name in ("sum", "min", "max", "avg"):
            assert GlobalUtility(name).aggregate([]) == 0.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            GlobalUtility("median")

    def test_make_global_utility_passthrough(self):
        u = GlobalUtility("min")
        assert make_global_utility(u) is u
        assert make_global_utility("max").name == "max"

    def test_grouped_sum(self):
        groups = np.asarray([0, 1, 0, 1])
        values = np.asarray([1.0, 2.0, 3.0, 4.0])
        out = GlobalUtility("sum").grouped_aggregate(groups, values, 2)
        np.testing.assert_allclose(out, [4.0, 6.0])

    def test_grouped_min_max_avg(self):
        groups = np.asarray([0, 1, 0, 1])
        values = np.asarray([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(
            GlobalUtility("min").grouped_aggregate(groups, values, 2), [1.0, 2.0]
        )
        np.testing.assert_allclose(
            GlobalUtility("max").grouped_aggregate(groups, values, 2), [3.0, 4.0]
        )
        np.testing.assert_allclose(
            GlobalUtility("avg").grouped_aggregate(groups, values, 2), [2.0, 3.0]
        )

    def test_running_state_roundtrip(self):
        for name, expect in [("sum", 6.0), ("min", 1.0), ("max", 3.0), ("avg", 2.0)]:
            u = GlobalUtility(name)
            state = u.fresh_state()
            for v in [1.0, 2.0, 3.0]:
                state = u.push(state, v)
            assert u.finalize(state) == pytest.approx(expect)

    def test_running_state_empty_is_identity(self):
        u = GlobalUtility("min")
        assert u.finalize(u.fresh_state()) == u.identity

    @given(st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=1, max_size=30))
    def test_grouped_matches_flat_property(self, values):
        """One group must equal plain aggregation for every aggregator."""
        arr = np.asarray(values, dtype=np.float64)
        groups = np.zeros(len(arr), dtype=np.int64)
        for name in ("sum", "min", "max", "avg"):
            u = GlobalUtility(name)
            grouped = u.grouped_aggregate(groups, arr, 1)
            assert grouped[0] == pytest.approx(u.aggregate(arr), abs=1e-9)


class TestPrefixSumAlias:
    def test_alias_is_psw(self):
        assert issubclass(PrefixSumLocalUtility, PswArray)
