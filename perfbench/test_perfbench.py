"""Tests of the benchmark's own reference and checks.

The reference must equal brute force on tiny corpora, and every check
must fail on a perturbed answer, a reordered response and a document
missing after a reopen.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, reference
from perfbench.common import stop_process, tree_peak_rss_mb
from perfbench.inputs import UTILITY_GRID
from perfbench.wl_ingest import document_reference, reopen_problems

ROOT = Path(__file__).resolve().parent.parent


def tiny_corpus(seed: int, n: int = 80, sigma: int = 3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, sigma, size=n), rng.choice(UTILITY_GRID, size=n), rng


def distinct(patterns):
    return list({tuple(int(c) for c in p): None for p in patterns})


@pytest.mark.parametrize("seed", range(6))
def test_reference_equals_brute_force(seed):
    codes, weights, rng = tiny_corpus(seed)
    present = [codes[s : s + m] for m in range(1, 7) for s in rng.integers(0, len(codes) - m, size=4)]
    absent = [rng.integers(0, 4, size=int(m)) for m in rng.integers(1, 9, size=10)]
    patterns = distinct(present + absent + [codes])
    utilities, counts = reference.window_answers(codes, weights, patterns)
    for pattern, utility, count in zip(patterns, utilities, counts):
        assert (utility, count) == reference.brute_force(codes, weights, pattern)


def test_reference_by_document_equals_brute_force():
    _, _, rng = tiny_corpus(7)
    docs = rng.integers(0, 4, size=(6, 12))
    weights = rng.choice(UTILITY_GRID, size=docs.shape)
    patterns = distinct([docs[d, s : s + m] for d in range(6) for m in (1, 2, 3, 5) for s in (0, 4)])
    cumulative_utility, cumulative_count = document_reference(docs, weights, patterns)
    for d in range(6):
        for slot, pattern in enumerate(patterns):
            by_doc = [reference.brute_force(docs[j], weights[j], pattern) for j in range(d + 1)]
            assert cumulative_utility[d, slot] == sum(u for u, _ in by_doc)
            assert cumulative_count[d, slot] == sum(c for _, c in by_doc)


def test_compare_values_fails_on_perturbed_reordered_and_missing_answers():
    expected = np.asarray([1.5, 2.25, 0.0, 3.0])
    assert checks.compare_values(expected.tolist(), expected, "batch") == []
    perturbed = expected.copy()
    perturbed[1] += 1 / 16
    assert checks.compare_values(perturbed, expected, "batch")
    assert checks.compare_values(expected[[1, 0, 2, 3]], expected, "batch")
    assert checks.compare_values(expected[:3], expected, "batch")


def test_query_response_check_fails_on_perturbed_reordered_or_miscounted_rows():
    expected = {"ab": [2.0, 1], "b": [1.0, 2]}
    rows = [{"pattern": "ab", "utility": 2.0, "count": 1},
            {"pattern": "b", "utility": 1.0, "count": 2}]

    def check(rows, with_count=True):
        body = json.dumps({"index": "bundle", "results": rows}).encode()
        return checks.check_query_response(body, ["ab", "b"], with_count, expected, "request")

    assert check(rows) == []
    assert check([dict(rows[0], utility=2.0625), rows[1]])
    assert check(rows[::-1])
    assert check([rows[0], dict(rows[1], count=3)])
    assert check(rows[:1])
    assert checks.check_query_response(b"not json", ["ab"], False, expected, "request")


def _live_index(directory: Path, docs: np.ndarray, weights: np.ndarray):
    from repro.ingest.live import LiveIndex
    from repro.strings.alphabet import Alphabet

    live = LiveIndex.create(directory, Alphabet.dna(), k=5, seal_chars=1 << 20)
    for codes, utilities in zip(docs, weights):
        live.append_document("".join("ACGT"[c] for c in codes), utilities)
    live.close()
    return LiveIndex


def test_reopen_check_fails_when_an_acknowledged_document_is_missing(tmp_path):
    rng = np.random.default_rng(3)
    docs = rng.integers(0, 4, size=(5, 40))
    weights = rng.choice(UTILITY_GRID, size=docs.shape)
    pool_codes = [docs[d, s : s + 3] for d in range(5) for s in (0, 9)]
    pool_codes = [np.asarray(p) for p in distinct(pool_codes)]
    pool = ["".join("ACGT"[c] for c in p) for p in pool_codes]
    cumulative_utility, cumulative_count = document_reference(docs, weights, pool_codes)

    live_cls = _live_index(tmp_path / "whole", docs, weights)
    reopened = live_cls.open(tmp_path / "whole")
    assert reopen_problems(reopened, pool, cumulative_utility, cumulative_count, len(docs)) == []

    shutil.copytree(tmp_path / "whole", tmp_path / "lossy")
    segment = sorted((tmp_path / "lossy" / "wal").iterdir())[-1]
    lines = segment.read_bytes().splitlines(keepends=True)
    segment.write_bytes(b"".join(lines[:-1]))  # the last acknowledged record is lost
    lossy = live_cls.open(tmp_path / "lossy")
    assert reopen_problems(lossy, pool, cumulative_utility, cumulative_count, len(docs))


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "library_w1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_layers_not_reached_read_zero_only_as_counts_ratios_or_sizes():
    """A workload reports 0 for a layer it never reaches; no time may
    default to 0, since it would read the same on every run."""
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(layers.NOT_REACHED) <= set(declared)
    assert not {name for name in layers.NOT_REACHED if declared[name] in ("s", "ms")}


def test_tree_peak_rss_counts_the_children():
    parent = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys, time; "
         "child = subprocess.Popen([sys.executable, '-c', 'b = bytearray(64 << 20); "
         "import time; time.sleep(30)']); time.sleep(30)"],
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 20
        while tree_peak_rss_mb(parent.pid) < 64 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert tree_peak_rss_mb(parent.pid) >= 64
    finally:
        stop_process(parent)
