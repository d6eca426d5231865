"""library_w1: the paper's query experiment as in-process library use.

``repro.build(..., backend="usi")`` builds the exact-miner (UET) index
over a 1M-char HUM-like DNA text with K = n/50, then batches of the W1
mix go through ``query_batch``.  The W1 tail (10% of each batch) is
random substrings of lengths 4..64, so every batch locates patterns in
dozens of length buckets.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import layers
from perfbench.checks import compare_values
from perfbench.common import peak_rss_mb
from perfbench.inputs import (
    DNA_LETTERS, decode, frequent_substrings, hum_like_dna, rng_for, utilities, w1_batches,
)
from perfbench.reference import window_answers

N = 1_000_000
K = N // 50
BATCH_SIZE = 1_000
BATCHES = 2


def prepare(seed: int, out) -> None:
    codes = hum_like_dna(rng_for(seed, "library_w1.text"), N)
    weights = utilities(rng_for(seed, "library_w1.utilities"), N)
    pool = frequent_substrings(codes, K)
    batches = w1_batches(rng_for(seed, "library_w1.batches"), codes, pool, BATCHES, BATCH_SIZE)
    flat = [pattern for batch in batches for pattern in batch]
    distinct: dict[bytes, int] = {}
    slots = [distinct.setdefault(p.tobytes(), len(distinct)) for p in flat]
    patterns = [np.frombuffer(key, dtype=np.int64) for key in distinct]
    reference, _counts = window_answers(codes, weights, patterns)
    np.savez(
        out / "inputs.npz",
        codes=codes,
        weights=weights,
        lengths=np.asarray([len(p) for p in flat], dtype=np.int64),
        patterns=np.concatenate(flat).astype(np.int8),
        expected=reference[np.asarray(slots)],
    )


def run(ctx) -> dict:
    work = ctx.prepare()
    with ctx.own():
        data = np.load(work / "inputs.npz")
        text = decode(data["codes"], DNA_LETTERS)
        weights = data["weights"]
        bounds = np.concatenate(([0], np.cumsum(data["lengths"])))
        flat = [decode(data["patterns"][a:b], DNA_LETTERS) for a, b in zip(bounds[:-1], bounds[1:])]
        batches = [flat[i * BATCH_SIZE : (i + 1) * BATCH_SIZE] for i in range(BATCHES)]
        expected = data["expected"].reshape(BATCHES, BATCH_SIZE)

    import repro
    from repro.strings.alphabet import Alphabet
    from repro.strings.weighted import WeightedString

    tracer = ctx.tracer
    built: list = []
    if tracer is not None:
        layers.wrap_build(tracer, built)
        layers.wrap_query(tracer)
        tracer.install()
    ws = WeightedString(text, weights, Alphabet.dna())
    with ctx.span("api.build"):
        index = repro.build(ws, k=K, backend="usi")
    if tracer is not None:
        tracer.uninstall()

    problems: list[str] = []
    attempted = 0

    def one_pass(label: str) -> float:
        nonlocal attempted
        busy = 0.0
        for b, batch in enumerate(batches):
            t0 = time.perf_counter()
            answers = index.query_batch(batch)
            busy += time.perf_counter() - t0
            attempted += len(batch)
            with ctx.own():
                problems.extend(compare_values(answers, expected[b], f"{label} batch {b}"))
        return busy

    # Warm-up: one pass fills the program's lazy tables and caches.  It is
    # program time before the measured phase, so it counts in setup_s.
    one_pass("warm-up")
    setup_s = ctx.setup_seconds()

    if tracer is None:
        cpu_per_pattern = []
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds:
            b = len(cpu_per_pattern) % BATCHES
            t0 = time.process_time()
            answers = index.query_batch(batches[b])
            cpu_per_pattern.append((time.process_time() - t0) / len(batches[b]))
            attempted += len(batches[b])
            problems.extend(compare_values(answers, expected[b],
                                           f"round {len(cpu_per_pattern)} batch {b}"))
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            # Every batch spans the same lengths, so rounds cost alike; the
            # median round is robust to a burst of contention from the
            # machine's other tenants during one of them.
            "cpu_ms_per_op": float(np.median(cpu_per_pattern)) * 1e3,
        }
        return {"problems": problems, "attempted": attempted, "failed": 0, "metrics": metrics}

    inner = index.inner
    untraced = one_pass("untraced")
    mark = tracer.mark()
    hits, misses = inner.hash_hits, inner.hash_misses
    tracer.install()
    traced = one_pass("traced")
    tracer.uninstall()
    hits, misses = inner.hash_hits - hits, inner.hash_misses - misses
    metrics = layers.build_metrics(tracer, built)
    metrics.update(layers.query_metrics(tracer, mark))
    metrics.update(layers.layer_self_metrics(tracer))
    metrics.update({
        "core.hash_hit_ratio": hits / (hits + misses),
        "core.uncached_lengths_per_batch": float(np.mean(
            [layers.uncached_lengths(batch, inner.is_cached) for batch in batches])),
        "trace.overhead_s": traced - untraced,
    })
    ctx.write_trace({"untraced_pass_s": untraced, "traced_pass_s": traced,
                     "suffix.key_build_s": tracer.total("suffix.packed_window_keys", mark)})
    return {"problems": problems, "attempted": attempted, "failed": 0,
            "metrics": layers.complete(metrics)}
