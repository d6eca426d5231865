"""Ablations: the substitutions listed in README.md ("Substitutions
relative to the paper") and other design choices.

Not paper figures — these quantify the reproduction's own engineering
decisions so a downstream user can revisit them:

* suffix-array construction: numpy prefix doubling vs pure-Python SA-IS;
* locate backend: suffix-array binary search vs suffix-tree descent;
* the full USI locate backend triple: SA vs FM-index vs suffix tree;
* top-K oracle with vs without leaf edges;
* LCE oracle: fingerprint binary search vs exact SA+LCP+RMQ;
* Approximate-Top-K round-capacity factor (accuracy knob).
"""

from __future__ import annotations

import numpy as np

from repro.core.approximate import ApproximateTopK
from repro.core.topk_oracle import TopKOracle
from repro.eval.harness import measure_call
from repro.eval.metrics import evaluate_miner
from repro.eval.reporting import format_table
from repro.suffix.lce import FingerprintLce, SuffixArrayLce
from repro.suffix.suffix_array import SuffixArray
from repro.suffix_tree.navigation import SuffixTreeNavigator
from repro.suffix_tree.ukkonen import SuffixTree

from benchmarks.conftest import save_report


def test_ablation_sa_construction(hum_bundle, benchmark):
    """Prefix doubling (vectorised) vs SA-IS (pure Python, O(n))."""
    codes = hum_bundle.ws.codes

    def run():
        doubling = measure_call(
            lambda: SuffixArray(codes, algorithm="doubling", with_lcp=False),
            trace_memory=False,
        )
        sais = measure_call(
            lambda: SuffixArray(codes, algorithm="sais", with_lcp=False),
            trace_memory=False,
        )
        return doubling, sais

    (doubling_index, doubling_s, _), (sais_index, sais_s, _) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    np.testing.assert_array_equal(doubling_index.sa, sais_index.sa)
    save_report(
        "ablation_sa_construction",
        format_table(
            ["algorithm", "seconds"],
            [("doubling (numpy)", round(doubling_s, 3)),
             ("SA-IS (pure python)", round(sais_s, 3))],
            title="Ablation: suffix array construction backend (HUM)",
        ),
    )
    assert doubling_s < sais_s  # the reason doubling is the default


def test_ablation_locate_backend(hum_bundle, benchmark):
    """SA binary search vs suffix-tree descent for locate queries."""
    ws = hum_bundle.ws
    tree = SuffixTree.from_codes(ws.codes)
    navigator = SuffixTreeNavigator(tree)
    index = hum_bundle.index
    rng = np.random.default_rng(1)
    patterns = []
    for _ in range(300):
        length = int(rng.integers(3, 12))
        start = int(rng.integers(0, ws.length - length))
        patterns.append(ws.codes[start : start + length].astype(np.int64))

    def run():
        _, sa_seconds, _ = measure_call(
            lambda: [index.occurrences(p) for p in patterns], trace_memory=False
        )
        _, st_seconds, _ = measure_call(
            lambda: [navigator.occurrences(p) for p in patterns], trace_memory=False
        )
        return sa_seconds, st_seconds

    sa_seconds, st_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    for pattern in patterns[:40]:
        np.testing.assert_array_equal(
            np.sort(index.occurrences(pattern)), navigator.occurrences(pattern)
        )
    save_report(
        "ablation_locate_backend",
        format_table(
            ["backend", "seconds / 300 locates"],
            [("suffix array (binary search)", round(sa_seconds, 4)),
             ("suffix tree (descent)", round(st_seconds, 4))],
            title="Ablation: locate backend (identical occurrence sets)",
        ),
    )


def test_ablation_oracle_leaves(hum_bundle, benchmark):
    """Leaf edges in the oracle: required for K beyond repeated substrings."""
    index = hum_bundle.index

    def run():
        with_leaves = TopKOracle(index, include_leaves=True)
        without = TopKOracle(index, include_leaves=False)
        return with_leaves, without

    with_leaves, without = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_oracle_leaves",
        format_table(
            ["variant", "triplets", "distinct substrings", "bytes"],
            [
                ("with leaves", with_leaves.triplet_count,
                 with_leaves.distinct_substring_count, with_leaves.nbytes()),
                ("internal only", without.triplet_count,
                 without.distinct_substring_count, without.nbytes()),
            ],
            title="Ablation: oracle leaf edges (coverage vs size)",
        ),
    )
    assert with_leaves.distinct_substring_count > without.distinct_substring_count
    # The frequent prefix is identical: leaves only add frequency-1 tails.
    k = 50
    assert [m.frequency for m in with_leaves.top_k(k)] == [
        m.frequency for m in without.top_k(k)
    ]


def test_ablation_lce_oracles(hum_bundle, benchmark):
    """Fingerprint LCE vs exact SA+LCP+RMQ LCE: same answers."""
    codes = hum_bundle.ws.codes.astype(np.int64)
    index = hum_bundle.index
    rng = np.random.default_rng(2)
    pairs = rng.integers(0, len(codes), size=(400, 2))

    def run():
        fp = FingerprintLce(codes)
        exact = SuffixArrayLce(codes, index.sa, index.lcp)
        _, fp_seconds, _ = measure_call(
            lambda: [fp.lce(int(i), int(j)) for i, j in pairs], trace_memory=False
        )
        _, sa_seconds, _ = measure_call(
            lambda: [exact.lce(int(i), int(j)) for i, j in pairs], trace_memory=False
        )
        return fp, exact, fp_seconds, sa_seconds

    fp, exact, fp_seconds, sa_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    for i, j in pairs[:100]:
        assert fp.lce(int(i), int(j)) == exact.lce(int(i), int(j))
    save_report(
        "ablation_lce_oracles",
        format_table(
            ["oracle", "seconds / 400 queries"],
            [("fingerprint (O(log n), no SA needed)", round(fp_seconds, 4)),
             ("SA+LCP+RMQ (O(1), needs full SA)", round(sa_seconds, 4))],
            title="Ablation: LCE oracle backends agree",
        ),
    )


def test_ablation_locate_backend_usi(hum_bundle, benchmark):
    """USI locate backends (SA / FM / ST): same answers, size/speed trade."""
    from repro.core.usi import UsiIndex
    from repro.datasets.workloads import build_w1

    bundle = hum_bundle
    k = max(20, bundle.default_k)
    queries = build_w1(bundle.ws, bundle.oracle, 200,
                       length_range=bundle.spec.query_length_range, seed=9)

    def run():
        sa_index = UsiIndex.build(bundle.ws, k=k)
        fm_index = UsiIndex.build(bundle.ws, k=k, locate_backend="fm")
        st_index = UsiIndex.build(bundle.ws, k=k, locate_backend="st")
        _, sa_seconds, _ = measure_call(
            lambda: [sa_index.query(q) for q in queries], trace_memory=False
        )
        _, fm_seconds, _ = measure_call(
            lambda: [fm_index.query(q) for q in queries], trace_memory=False
        )
        _, st_seconds, _ = measure_call(
            lambda: [st_index.query(q) for q in queries], trace_memory=False
        )
        return sa_index, fm_index, st_index, sa_seconds, fm_seconds, st_seconds

    sa_index, fm_index, st_index, sa_seconds, fm_seconds, st_seconds = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    for query in queries[:30]:
        assert abs(sa_index.query(query) - fm_index.query(query)) < 1e-6
        assert abs(sa_index.query(query) - st_index.query(query)) < 1e-6
    save_report(
        "ablation_usi_locate_backend",
        format_table(
            ["backend", "query seconds / 200", "index KiB"],
            [("suffix array", round(sa_seconds, 4), sa_index.nbytes() // 1024),
             ("FM-index", round(fm_seconds, 4), fm_index.nbytes() // 1024),
             ("suffix tree", round(st_seconds, 4), st_index.nbytes() // 1024)],
            title="Ablation: USI locate backend (identical answers)",
        ),
    )


def test_ablation_round_capacity(hum_bundle, benchmark):
    """The AT round-capacity knob: accuracy vs per-round work."""
    bundle = hum_bundle
    k = max(20, bundle.default_k)

    def sweep():
        rows = []
        for capacity in (1.0, 2.0, 4.0, 8.0):
            miner = ApproximateTopK(
                bundle.ws, k=k, s=bundle.spec.default_s, round_capacity=capacity
            )
            results, seconds, _ = measure_call(miner.mine, trace_memory=False)
            scores = evaluate_miner(results, bundle.index, k, oracle=bundle.oracle)
            rows.append(
                (capacity, round(scores.accuracy_percent, 1), round(seconds, 3))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_report(
        "ablation_round_capacity",
        format_table(
            ["round capacity", "accuracy %", "seconds"], rows,
            title="Ablation: AT round-capacity factor on HUM",
        ),
    )
    # Larger capacity never hurts accuracy (and 4x is the default).
    assert rows[-1][1] >= rows[0][1] - 1e-9
