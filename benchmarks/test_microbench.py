"""Substrate micro-benchmarks (classic pytest-benchmark usage).

Not paper figures: per-operation timings of the kernels every
experiment rests on, so performance regressions in the substrates are
caught where they happen rather than as noise in the figure suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.karp_rabin import KarpRabinFingerprinter
from repro.succinct.fm_index import FmIndex
from repro.succinct.wavelet import WaveletTree
from repro.suffix.doubling import suffix_array_doubling
from repro.suffix.lcp import lcp_array_kasai
from repro.suffix.suffix_array import SuffixArray


@pytest.fixture(scope="module")
def dna_codes():
    rng = np.random.default_rng(0)
    return rng.integers(0, 4, size=20_000, dtype=np.int64)


@pytest.fixture(scope="module")
def dna_index(dna_codes):
    return SuffixArray(dna_codes)


def test_bench_suffix_array_doubling(dna_codes, benchmark):
    sa = benchmark(lambda: suffix_array_doubling(dna_codes))
    assert len(sa) == len(dna_codes)


def test_bench_lcp_kasai(dna_codes, dna_index, benchmark):
    lcp = benchmark(lambda: lcp_array_kasai(dna_codes, dna_index.sa))
    assert len(lcp) == len(dna_codes)


def test_bench_sa_locate(dna_index, benchmark):
    pattern = dna_index.codes[100:108]

    def run():
        return dna_index.occurrences(pattern)

    occurrences = benchmark(run)
    assert occurrences.size >= 1


def test_bench_kr_window_fingerprints(dna_codes, benchmark):
    fp = KarpRabinFingerprinter(dna_codes)
    windows = benchmark(lambda: fp.all_windows(8))
    assert len(windows) == len(dna_codes) - 7


def test_bench_kr_pattern_fingerprint(dna_codes, benchmark):
    fp = KarpRabinFingerprinter(dna_codes)
    pattern = dna_codes[50:58]
    key = benchmark(lambda: fp.of_codes(pattern))
    assert key == fp.fragment(50, 8)


def test_bench_wavelet_rank(dna_codes, benchmark):
    wt = WaveletTree(dna_codes[:5_000], sigma=4)

    def run():
        total = 0
        for i in range(0, 5_000, 50):
            total += wt.rank(2, i)
        return total

    assert benchmark(run) >= 0


def test_bench_fm_count(benchmark):
    rng = np.random.default_rng(1)
    codes = rng.integers(0, 4, size=5_000, dtype=np.int64)
    fm = FmIndex(codes)
    pattern = codes[200:208]
    count = benchmark(lambda: fm.count(pattern))
    assert count >= 1


# ----------------------------------------------------------------------
# The kernel batch-locate path (the PR-3 acceptance benchmark)
# ----------------------------------------------------------------------
def _best_of(runs: int, fn):
    """Best wall-clock of *runs* executions (noise-robust timing)."""
    import time

    best = float("inf")
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_bench_batch_locate_vectorised_speedup():
    """1,000 patterns on a 100k-char text: batch kernel >= 5x the loop.

    The per-pattern loop is the pre-kernel query path (one pure-Python
    binary search per pattern); the vectorised kernel builds the
    SA-order prefix-key array (timed: it is reset before every run) and
    answers every interval with two ``np.searchsorted`` calls.  Also
    emits ``BENCH_kernel.json`` (machine-readable build/QPS/size
    figures) under ``results/`` when ``REPRO_WRITE_RESULTS=1``, which
    CI uploads as an artifact.
    """
    import json
    import os
    import pathlib
    import time

    import repro
    from repro import TextKernel, WeightedString

    rng = np.random.default_rng(7)
    n, batch, length = 100_000, 1_000, 8
    codes = rng.integers(0, 4, size=n, dtype=np.int64)
    ws = WeightedString(codes, rng.uniform(0.5, 1.5, size=n))

    t0 = time.perf_counter()
    kernel = TextKernel.build(ws)
    kernel_build_seconds = time.perf_counter() - t0

    starts = rng.integers(0, n - length + 1, size=batch)
    patterns = [codes[s : s + length] for s in starts]
    matrix = np.vstack(patterns)
    suffix = kernel.suffix

    def locate_loop():
        return [suffix.interval(pattern) for pattern in patterns]

    def locate_batch():
        suffix._prefix_keys = None  # cold every run: key build included
        return suffix.interval_batch(matrix)

    loop_answers, loop_seconds = _best_of(3, locate_loop)
    (lb, rb), batch_seconds = _best_of(3, locate_batch)

    assert [(int(a), int(b)) for a, b in zip(lb, rb)] == loop_answers
    speedup = loop_seconds / batch_seconds
    assert speedup >= 5.0, (
        f"batch locate is only {speedup:.1f}x the per-pattern loop "
        f"({batch_seconds * 1e3:.1f} ms vs {loop_seconds * 1e3:.1f} ms)"
    )

    # Warm batch-utility QPS through the full kernel path.
    kernel.batch_utilities([p for p in matrix], "sum")  # prime the prefix keys
    t0 = time.perf_counter()
    kernel.batch_utilities([p for p in matrix], "sum")
    warm_seconds = time.perf_counter() - t0
    batch_qps = batch / warm_seconds if warm_seconds else float("inf")

    # Per-backend incremental build cost and size over the shared kernel.
    backends = {}
    for name in ("usi", "oracle", "bsl1"):
        t0 = time.perf_counter()
        index = repro.build(ws, k=50, backend=name, kernel=kernel)
        backends[name] = {
            "build_seconds": round(time.perf_counter() - t0, 6),
            "nbytes": index.nbytes(),
        }

    report = {
        "n": n,
        "batch": batch,
        "pattern_length": length,
        "kernel_build_seconds": round(kernel_build_seconds, 6),
        "locate_loop_seconds": round(loop_seconds, 6),
        "locate_batch_seconds": round(batch_seconds, 6),
        "locate_speedup": round(speedup, 2),
        "warm_batch_qps": round(batch_qps, 1),
        "kernel_nbytes": kernel.nbytes(),
        "backends": backends,
    }
    print("\nBENCH_kernel: " + json.dumps(report, indent=2))
    if os.environ.get("REPRO_WRITE_RESULTS") == "1":
        results = pathlib.Path(__file__).resolve().parent.parent / "results"
        results.mkdir(exist_ok=True)
        (results / "BENCH_kernel.json").write_text(json.dumps(report, indent=2) + "\n")
