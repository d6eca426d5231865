"""The hash table H: read off the miners' suffix-array intervals.

Every value stored in ``H`` must be the value the miss path (the
kernel's batch gather after locate) computes for the same pattern, bit
for bit, and within float noise of the brute-force oracle; ``H`` must
hold exactly the mined substrings.  The intervals the miners hand to
the table build must be the true SA intervals of their substrings, and
one length group must never gather more than ``n`` occurrences.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approximate import ApproximateTopK
from repro.core.naive import naive_global_utility
from repro.core.topk_oracle import TopKOracle
from repro.core.usi import UsiIndex
from repro.datasets.scenarios import make_pathological, make_read_collection
from repro.strings.collection import CollectionUsiIndex
from repro.strings.occurrences import naive_occurrences
from repro.strings.weighted import WeightedString
from repro.suffix.suffix_array import SuffixArray
from repro.utility.prefix_sums import PswArray

AGGREGATORS = ("sum", "min", "max", "avg")
LOCALS = ("sum", "product", "min", "max")
MINERS = ("exact", "approximate")
APPROXIMATE_ROUNDS = 2


def _mined(index: UsiIndex, k: int, miner: str) -> "list[tuple[int, int]]":
    """The ``(position, length)`` witnesses the build mined."""
    ws = index.weighted_string
    if miner == "exact":
        positions, lengths, _ = TopKOracle(SuffixArray(ws.codes)).top_k_arrays(k)
    else:
        mined = ApproximateTopK(
            ws, k=k, s=APPROXIMATE_ROUNDS, fingerprinter=index.kernel.fingerprinter
        ).mine()
        positions = [m.position for m in mined]
        lengths = [m.length for m in mined]
    return list(zip(np.asarray(positions).tolist(), np.asarray(lengths).tolist()))


def _check_table(ws: WeightedString, index: UsiIndex, k: int, miner: str,
                 aggregator: str, local: str) -> None:
    """H holds exactly the mined substrings, each valued as the miss path would."""
    table = dict(index.top_cached())
    fingerprinter = index.kernel.fingerprinter
    psw = index.kernel.psw(local)
    codes = np.asarray(ws.codes, dtype=np.int64)
    mined = _mined(index, k, miner)
    substrings = {(p, l): codes[p : p + l] for p, l in mined}
    assert set(table) == {fingerprinter.fragment(p, l) for p, l in mined}
    for (p, l), pattern in substrings.items():
        value = table[fingerprinter.fragment(p, l)]
        assert value == pytest.approx(
            naive_global_utility(ws, pattern, aggregator, local), rel=1e-9, abs=1e-9
        ), (p, l)
        miss_path = index.kernel.batch_utilities([pattern], index.utility, psw=psw)[0]
        assert value == miss_path, (p, l, value, miss_path)


def _node_depth(sa: SuffixArray, lb: int, rb: int) -> int:
    """String depth of the suffix-tree node spanning ``SA[lb .. rb]``."""
    if rb > lb:
        return int(sa.lcp[lb + 1 : rb + 1].min())
    return sa.length - int(sa.sa[lb])


def _build(ws: WeightedString, k: int, miner: str, aggregator: str, local: str) -> UsiIndex:
    return UsiIndex.build(ws, k=k, miner=miner, s=APPROXIMATE_ROUNDS,
                          aggregator=aggregator, local=local)


@st.composite
def _corpora(draw) -> WeightedString:
    """Random, unary and period-2 texts with non-dyadic positive utilities."""
    shape = draw(st.sampled_from(["random", "unary", "period2"]))
    size = draw(st.integers(min_value=2, max_value=36))
    if shape == "random":
        text = draw(st.text(alphabet="ABC", min_size=size, max_size=size))
    elif shape == "unary":
        text = "A" * size
    else:
        text = ("AB" * size)[:size]
    utilities = draw(st.lists(
        st.floats(min_value=0.1, max_value=1.9, allow_nan=False),
        min_size=size, max_size=size,
    ))
    return WeightedString(text, utilities)


class TestTableEqualsMissPath:
    @pytest.mark.parametrize("miner", MINERS)
    @pytest.mark.parametrize("local", LOCALS)
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ws=_corpora(), data=st.data())
    def test_hypothesis_texts(self, aggregator, local, miner, ws, data):
        n = ws.length
        k = data.draw(st.integers(min_value=1, max_value=n * (n + 1) // 2))
        index = _build(ws, k, miner, aggregator, local)
        _check_table(ws, index, k, miner, aggregator, local)

    @pytest.mark.parametrize("miner", MINERS)
    @pytest.mark.parametrize("local", LOCALS)
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_pathological_scenario(self, aggregator, local, miner):
        corpus = make_pathological(600, seed=3)
        rng = np.random.default_rng(3)
        ws = WeightedString(corpus.codes, rng.uniform(0.5, 1.5, size=corpus.length),
                            corpus.alphabet)
        index = _build(ws, 60, miner, aggregator, local)
        _check_table(ws, index, 60, miner, aggregator, local)

    @pytest.mark.parametrize("miner", MINERS)
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    def test_collection(self, aggregator, miner):
        collection = make_read_collection(800, seed=5)
        wrapped = CollectionUsiIndex(collection, k=80, miner=miner,
                                     s=APPROXIMATE_ROUNDS, aggregator=aggregator)
        _check_table(collection.combined, wrapped.index, 80, miner, aggregator, "sum")

    def test_seeded_dna_sums_in_sa_order(self):
        """Sums over many occurrences: H must accumulate in the miss path's
        (SA) order, not in text order, or the last ULP differs."""
        rng = np.random.default_rng(7)
        ws = WeightedString(rng.integers(0, 4, size=5_000),
                            rng.uniform(0.5, 1.5, size=5_000))
        index = UsiIndex.build(ws, k=200)
        table = dict(index.top_cached())
        assert len(table) == 200
        codes = np.asarray(ws.codes, dtype=np.int64)
        positions, lengths, _ = TopKOracle(SuffixArray(ws.codes)).top_k_arrays(200)
        patterns = [codes[p : p + l] for p, l in zip(positions.tolist(), lengths.tolist())]
        miss_path = index.kernel.batch_utilities(patterns, index.utility)
        fingerprinter = index.kernel.fingerprinter
        stored = [table[fingerprinter.of_codes(pattern)] for pattern in patterns]
        differing = sum(a != b for a, b in zip(stored, miss_path))
        assert differing == 0, f"{differing} of 200 H entries differ from the miss path"


class TestBuildIntervals:
    @staticmethod
    def _capture(monkeypatch) -> list:
        """Record every ``(lengths, lbs, rbs)`` the build hands to the table."""
        calls = []
        original = UsiIndex._build_table

        def spy(lengths, lbs, rbs, *rest):
            calls.append((np.asarray(lengths), np.asarray(lbs), np.asarray(rbs)))
            return original(lengths, lbs, rbs, *rest)

        monkeypatch.setattr(UsiIndex, "_build_table", staticmethod(spy))
        return calls

    @pytest.mark.parametrize("text", ["ABABABCBCBCAB", "MISSISSIPPI", "AAAAAAA"])
    def test_exact_intervals_are_sa_intervals(self, monkeypatch, text):
        """Every K, up to all distinct substrings: clipped nodes and leaves."""
        ws = WeightedString.uniform(text)
        sa = SuffixArray(ws.codes)
        oracle = TopKOracle(sa)
        calls = self._capture(monkeypatch)
        total = oracle.distinct_substring_count
        saw_clipped = saw_leaf = False
        for k in range(1, total + 1):
            UsiIndex.build(ws, k=k)
            lengths, lbs, rbs = calls[-1]
            positions, mined_lengths, freqs = oracle.top_k_arrays(k)
            assert len(lengths) == k
            assert np.array_equal(lengths, mined_lengths)
            for p, l, lb, rb, f in zip(positions.tolist(), lengths.tolist(),
                                       lbs.tolist(), rbs.tolist(), freqs.tolist()):
                pattern = ws.codes[p : p + l]
                assert sa.interval(pattern) == (lb, rb)
                assert rb - lb + 1 == f == len(naive_occurrences(ws.codes, pattern))
            saw_leaf |= bool(np.any(rbs == lbs))
            # The K-th substring sits mid-edge: its node's longer
            # substrings were clipped away.
            saw_clipped |= int(lengths[-1]) < _node_depth(sa, int(lbs[-1]), int(rbs[-1]))
        assert saw_leaf
        # a^n has one letter per edge, so no node is ever clipped there.
        assert saw_clipped or text == "AAAAAAA"

    def test_approximate_intervals_are_sa_intervals(self, monkeypatch):
        rng = np.random.default_rng(2)
        ws = WeightedString(rng.integers(0, 3, size=400), rng.uniform(0.5, 1.5, size=400))
        calls = self._capture(monkeypatch)
        index = UsiIndex.build(ws, k=50, miner="approximate", s=4)
        lengths, lbs, rbs = calls[-1]
        mined = ApproximateTopK(ws, k=50, s=4, fingerprinter=index.kernel.fingerprinter).mine()
        sa = SuffixArray(ws.codes)
        assert len(lengths) == len(mined) == 50
        for m, l, lb, rb in zip(mined, lengths.tolist(), lbs.tolist(), rbs.tolist()):
            assert l == m.length
            assert sa.interval(ws.codes[m.position : m.position + m.length]) == (lb, rb)
            # Sampled frequencies are lower bounds of the true ones.
            assert rb - lb + 1 >= m.frequency

    @pytest.mark.parametrize("miner", MINERS)
    def test_unary_all_substrings_bounded_per_call(self, monkeypatch, miner):
        """K = n on a^n mines all n substrings (sum freq = n(n+1)/2), yet
        no single local-utility gather sees more than n positions."""
        n = 300
        rng = np.random.default_rng(4)
        ws = WeightedString("A" * n, rng.uniform(0.5, 1.5, size=n))
        sizes = []
        original = PswArray.local_utilities

        def counting(self, positions, length):
            sizes.append(len(positions))
            return original(self, positions, length)

        monkeypatch.setattr(PswArray, "local_utilities", counting)
        index = UsiIndex.build(ws, k=n, miner=miner, s=APPROXIMATE_ROUNDS)
        monkeypatch.setattr(PswArray, "local_utilities", original)
        assert index.hash_table_size == n
        assert sum(sizes) == n * (n + 1) // 2
        assert max(sizes) <= n
        for length in range(1, n + 1, 7):
            assert index.is_cached("A" * length)
            assert index.query("A" * length) == pytest.approx(
                naive_global_utility(ws, "A" * length), rel=1e-9
            )
