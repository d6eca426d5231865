"""live_ingest: the write path beside reads.

A durable ``LiveIndex`` whose WAL is on local disk without fsync (how
``usi serve --live`` runs without ``--wal-sync``), with its ``Compactor``
on the background thread.  One writer appends 256-char DNA documents and
queries a 16-pattern batch after every 8 appends -- 130 documents per
second of ``--seconds``, whatever the program's speed -- while 32K-char
memtables are sealed, rebuilt into cold shards and installed.  Then the
index is closed and reopened.  Every answer, during ingest and after the
reopen, is checked against the reference summed over the acknowledged
documents.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import layers
from perfbench.checks import compare_values, expected_after
from perfbench.common import peak_rss_mb
from perfbench.inputs import (
    DNA_LETTERS, UTILITY_GRID, decode, dna_documents, dna_patterns, rng_for,
)
from perfbench.reference import window_answers

DOC_LENGTH = 256
APPENDS_PER_QUERY = 8
QUERY_BATCH = 16
POOL = 64
PATTERN_LENGTHS = (4, 12)
SEAL_CHARS = 32_768
#: ``usi serve --live``'s default top-K for live shard builds.
K = 100
DOC_BLOCK = 512
PROBE_REPEATS = 5
#: The write rate (docs/s) a run is sized for: it appends
#: ``--seconds`` x this many documents whatever the program's speed, so
#: every run, and every version of the program, ends in the same state.
SIZED_RATE = 130
#: Documents left in the WAL after the final compaction; the reopen
#: replays exactly these.
REPLAY_DOCS = 64
REOPENS = 5


def reopen_problems(reopened, pool: list[str], cumulative_utility, cumulative_count,
                    documents: int) -> list[str]:
    """After a reopen, every pool pattern must answer as the reference
    over all *documents* acknowledged before the close."""
    slots = np.arange(len(pool))
    problems = compare_values(reopened.query_batch(pool),
                              expected_after(cumulative_utility, documents, slots),
                              "after reopen")
    problems += compare_values([reopened.count(p) for p in pool],
                               expected_after(cumulative_count, documents, slots),
                               "counts after reopen")
    return problems


def document_reference(codes: np.ndarray, weights: np.ndarray, pool_codes: list) -> tuple:
    """Reference answers accumulated over documents: row ``d`` covers
    documents ``0..d`` (occurrences never span documents, so a live
    index's answer is a sum over its documents)."""
    documents = len(codes)
    separator = np.full((documents, 1), 4, dtype=np.int64)
    text = np.hstack([codes.astype(np.int64), separator]).ravel()
    text_weights = np.hstack([weights, np.zeros((documents, 1))]).ravel()
    group = np.repeat(np.arange(documents), codes.shape[1] + 1)
    utility, count = window_answers(text, text_weights, pool_codes, group=group, groups=documents)
    return np.cumsum(utility, axis=0), np.cumsum(count, axis=0)


def _wrap_layers(tracer, wal_sizes: dict, built: list) -> None:
    from repro.core.dynamic import DynamicUsiIndex
    from repro.ingest.live import LiveIndex
    from repro.ingest.memtable import MemtableDelta
    from repro.ingest.wal import WriteAheadLog

    def wal_size(wal, *args, **kwargs) -> None:
        active = wal.segments()[-1]
        wal_sizes[active.name] = active.stat().st_size

    layers.wrap_build(tracer, built)
    layers.wrap_query(tracer)
    tracer.wrap(LiveIndex, "append_document", "ingest.LiveIndex.append_document")
    tracer.wrap(WriteAheadLog, "append", "ingest.WriteAheadLog.append", after=wal_size)
    tracer.wrap(MemtableDelta, "add_document", "ingest.MemtableDelta.add_document")
    tracer.wrap(DynamicUsiIndex, "extend", "core.DynamicUsiIndex.extend")
    tracer.wrap(LiveIndex, "query_batch", "ingest.LiveIndex.query_batch")
    tracer.wrap(DynamicUsiIndex, "query_batch", "core.DynamicUsiIndex.query_batch")
    tracer.wrap(LiveIndex, "build_shard", "ingest.LiveIndex.build_shard")
    tracer.wrap(LiveIndex, "install_shard", "ingest.LiveIndex.install_shard")
    tracer.wrap(LiveIndex, "open", "ingest.LiveIndex.open")
    tracer.wrap(LiveIndex, "close", "ingest.LiveIndex.close")
    tracer.count_yields(WriteAheadLog, "replay", "ingest.replay_records")


def run(ctx) -> dict:
    from repro.ingest import Compactor, LiveIndex
    from repro.strings.alphabet import Alphabet

    seed = ctx.seed
    rounds = max(1, round(ctx.seconds * SIZED_RATE / APPENDS_PER_QUERY))
    documents = rounds * APPENDS_PER_QUERY + REPLAY_DOCS
    with ctx.own():
        pool_codes = dna_patterns(rng_for(seed, "live_ingest.patterns"), POOL, PATTERN_LENGTHS)
        pool = [decode(p, DNA_LETTERS) for p in pool_codes]
        document_rng = rng_for(seed, "live_ingest.documents")
        utility_rng = rng_for(seed, "live_ingest.utilities")
        blocks = [dna_documents(document_rng, DOC_BLOCK, DOC_LENGTH)
                  for _ in range(-(-documents // DOC_BLOCK))]
        codes = np.vstack(blocks)[:documents]
        weights = np.vstack([utility_rng.choice(UTILITY_GRID, size=block.shape)
                             for block in blocks])[:documents]
        flat = decode(codes.ravel(), DNA_LETTERS)
        texts = [flat[i : i + DOC_LENGTH] for i in range(0, len(flat), DOC_LENGTH)]
        picks = rng_for(seed, "live_ingest.queries").integers(0, POOL, size=(rounds, QUERY_BATCH))

    tracer = ctx.tracer
    wal_sizes: dict = {}
    built: list = []
    if tracer is not None:
        _wrap_layers(tracer, wal_sizes, built)
        tracer.install()
    directory = ctx.work / "live"
    live = LiveIndex.create(directory, Alphabet.dna(), k=K, seal_chars=SEAL_CHARS)
    compactor = Compactor(live)
    compactor.start()
    setup_s = ctx.setup_seconds()

    appended = 0
    latencies: list[float] = []
    queries: list[tuple] = []
    cpu_start = time.process_time()
    try:
        for slots in picks:
            for _ in range(APPENDS_PER_QUERY):
                live.append_document(texts[appended], weights[appended])
                appended += 1
            batch = [pool[int(s)] for s in slots]
            t0 = time.perf_counter()
            answers = live.query_batch(batch)
            latencies.append(time.perf_counter() - t0)
            queries.append((appended, slots, answers))
    finally:
        compactor.stop()
    stats = live.ingest_stats()
    # Leave the same WAL tail in every run for the reopen to replay:
    # compact what is left, then append REPLAY_DOCS documents.
    live.compact()
    # The writer's and the compactor's CPU time per document, queries
    # included: every run appends and compacts the same documents.
    cpu_ms_per_doc = (time.process_time() - cpu_start) * 1e3 / appended
    for _ in range(REPLAY_DOCS):
        live.append_document(texts[appended], weights[appended])
        appended += 1
    live.close()

    # The fastest of a few reopens: each replays the same WAL tail and
    # loads the same shards, so the others only add the time other
    # tenants of the machine took from it.
    reopen_mark = tracer.mark() if tracer is not None else 0
    reopen_times = []
    for attempt in range(REOPENS):
        t0 = time.perf_counter()
        reopened = LiveIndex.open(directory)
        reopen_times.append(time.perf_counter() - t0)
        if attempt + 1 < REOPENS:
            reopened.close()
    recover_s = min(reopen_times)
    rss = peak_rss_mb()

    cumulative_utility, cumulative_count = document_reference(codes, weights, pool_codes)
    problems: list[str] = []
    for number, (documents, slots, answers) in enumerate(queries):
        problems += compare_values(answers, expected_after(cumulative_utility, documents, slots),
                                   f"query batch {number} after {documents} documents")
    problems += reopen_problems(reopened, pool, cumulative_utility, cumulative_count, appended)
    attempted = appended + len(queries) + 2 * len(pool)

    if tracer is None:
        reopened.close()
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss, "cpu_ms_per_op": cpu_ms_per_doc}
        return {"problems": problems, "attempted": attempted, "failed": 0, "metrics": metrics}

    # Tracing overhead: the same query batch on the reopened index,
    # untraced and then traced.
    tracer.uninstall()
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        reopened.query_batch(pool)
    untraced = time.perf_counter() - t0
    tracer.install()
    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        reopened.query_batch(pool)
    traced = time.perf_counter() - t0
    tracer.uninstall()
    reopened.close()
    attempted += 2 * PROBE_REPEATS

    payload_bytes = appended * DOC_LENGTH * (1 + 8)  # a letter and a float64 utility each
    held = {p: all(shard.is_cached(p) for shard in built) for p in pool}
    hits = sum(shard.hash_hits for shard in built)
    misses = sum(shard.hash_misses for shard in built)
    metrics = layers.build_metrics(tracer, built)
    metrics.update(layers.query_metrics(tracer))
    metrics.update(layers.layer_self_metrics(tracer))
    metrics.update({
        "core.hash_hit_ratio": hits / max(hits + misses, 1),
        "core.uncached_lengths_per_batch": float(np.mean(
            [layers.uncached_lengths([pool[int(s)] for s in slots], held.__getitem__)
             for _documents, slots, _answers in queries])),
        "io.bundle_bytes": sum(path.stat().st_size for path in directory.glob("shard-*.npz")),
        "ingest.wal_bytes_per_byte": sum(wal_sizes.values()) / payload_bytes,
        "ingest.compactions": compactor.compactions,
        "ingest.read_parts": stats["shards"] + stats["frozen_memtables"] + stats["quarantined"] + 1,
        "ingest.replay_records": tracer.counters["ingest.replay_records"] / REOPENS,
        "trace.overhead_s": traced - untraced,
    })
    ctx.write_trace({
        "untraced_probe_s": untraced,
        "traced_probe_s": traced,
        # Times of layers only this workload reaches (see perfbench/layers.py).
        "ingest.wal_append_s": tracer.total("ingest.WriteAheadLog.append"),
        "ingest.memtable_add_s": tracer.total("ingest.MemtableDelta.add_document",
                                              until=reopen_mark),
        "ingest.shard_build_s": tracer.total("ingest.LiveIndex.build_shard"),
        "ingest.memtable_query_s": tracer.total("core.DynamicUsiIndex.query_batch",
                                                until=reopen_mark),
        "ingest.shard_query_s": tracer.total("core.UsiIndex.query_batch", until=reopen_mark),
        "ingest.recover_s": recover_s,
        "ingest.query_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "ingest.query_p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "ingest.self_s": tracer.layer_self_times().get("ingest", 0.0),
    })
    return {"problems": problems, "attempted": attempted, "failed": 0,
            "metrics": layers.complete(metrics)}
