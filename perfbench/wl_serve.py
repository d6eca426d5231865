"""serve_zipf: an approximate-miner bundle served by ``usi serve --async``.

The UAT index over a 250k-char XML-like text is saved as a v3 bundle
and served by ``python -m repro serve --async`` at its CLI defaults, as
a separate process.  One load-generator process (``perfbench.loadgen``)
sends small JSON batches: zipf draws over a frequent vocabulary plus a
5% tail of fresh substrings of lengths 16..20 -- first as an open loop
at a fixed rate well under capacity, then as a closed loop.
"""

from __future__ import annotations

import json
import os
import sys
import time
import urllib.error
import urllib.request

import numpy as np

from perfbench import layers
from perfbench.checks import check_query_response
from perfbench.common import free_port, nproc, peak_rss_mb, tree_peak_rss_mb
from perfbench.inputs import (
    fresh_substrings, rng_for, utilities, vocabulary_candidates, xml_like_text, zipf_requests,
)
from perfbench.reference import window_answers

N = 250_000
K = N // 50
VOCABULARY = 512
BATCH = 4
TAIL_SHARE = 0.05
TAIL_LENGTHS = (16, 20)
ZIPF_EXPONENT = 1.1
COUNT_EVERY = 4
STREAM = 40_000
WARMUP_REQUESTS = 2_000
#: The open loop's fixed rate (requests/s): about an eighth of the closed
#: loop's throughput on a 2-core machine, which the generator holds.
OPEN_RATE = 100.0
OPEN_SHARE = 0.6
OVERHEAD_REQUESTS = 500
CONNECTIONS = 2


def _encode(text: str, letters: str) -> np.ndarray:
    table = np.zeros(256, dtype=np.int64)
    table[np.frombuffer(letters.encode("latin-1"), dtype=np.uint8)] = np.arange(len(letters))
    return table[np.frombuffer(text.encode("latin-1"), dtype=np.uint8)]


def prepare(seed: int, out) -> None:
    text = xml_like_text(rng_for(seed, "serve_zipf.text"), N)
    weights = utilities(rng_for(seed, "serve_zipf.utilities"), N)
    letters = "".join(sorted(set(text)))
    codes = _encode(text, letters)

    candidates = vocabulary_candidates(rng_for(seed, "serve_zipf.vocabulary"), text, 8 * VOCABULARY)
    cand_util, cand_count = window_answers(codes, weights, [_encode(p, letters) for p in candidates])
    ranked = sorted(range(len(candidates)), key=lambda i: (-cand_count[i], candidates[i]))[:VOCABULARY]
    vocabulary = [candidates[i] for i in ranked]
    expected = {candidates[i]: [float(cand_util[i]), int(cand_count[i])] for i in ranked}

    tail_needed = int(STREAM * BATCH * TAIL_SHARE * 1.2)
    tail = fresh_substrings(rng_for(seed, "serve_zipf.tail"), text, tail_needed,
                            TAIL_LENGTHS, set(vocabulary))
    tail_util, tail_count = window_answers(codes, weights, [_encode(p, letters) for p in tail])
    expected.update({p: [float(u), int(c)] for p, u, c in zip(tail, tail_util, tail_count)})

    stream = zipf_requests(rng_for(seed, "serve_zipf.stream"), vocabulary, tail, STREAM,
                           BATCH, TAIL_SHARE, ZIPF_EXPONENT, COUNT_EVERY)
    (out / "text.txt").write_text(text, encoding="latin-1")
    np.save(out / "weights.npy", weights)
    (out / "stream.json").write_text(json.dumps(stream))
    (out / "expected.json").write_text(json.dumps(expected))


def _get(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def _wait_healthy(url: str, server, deadline_s: float = 120.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with code {server.returncode} before it was healthy")
        try:
            if _get(url + "/healthz", timeout=1.0).get("status") == "ok":
                return
        except (urllib.error.URLError, ConnectionError, OSError, ValueError):
            pass
        time.sleep(0.01)
    raise RuntimeError("server did not become healthy in time")


def _server_metrics(stats: dict) -> dict:
    """Per-layer figures the server reports in ``GET /stats``: the
    gateway's counters, and the worker engines' cache counters and query
    profile (seconds per stage, summed over workers)."""
    pool = stats.get("pool") or {}
    hits = misses = 0
    stages: dict[str, float] = {}
    for row in pool.get("worker_engines", []):
        for engine in row.get("engines", {}).values():
            hits += engine["cache_hits"]
            misses += engine["cache_misses"]
            for stage, seconds in engine["profile"]["stages"].items():
                stages[stage] = stages.get(stage, 0.0) + seconds
    return {
        "core.query_batch_self_s": stages.get("encode", 0.0) + stages.get("cache", 0.0),
        "suffix.locate_s": stages.get("locate", 0.0),
        "kernel.gather_s": stages.get("gather", 0.0),
        "gateway.round_trips": pool.get("round_trips", 0),
        "gateway.coalesced": (stats.get("coalescer") or {}).get("followers", 0),
        "gateway.peak_queue_depth": stats["admission"]["peak_depth"],
        "gateway.rejected": stats["admission"]["rejected"],
        "service.engine_hit_ratio": hits / max(hits + misses, 1),
    }


def _engine_p50_ms(stats: dict) -> float:
    """The worker engines' median query latency, weighted by their calls."""
    weighted = calls = 0.0
    for row in (stats.get("pool") or {}).get("worker_engines", []):
        for engine in row.get("engines", {}).values():
            latency = engine["latency"]
            weighted += latency["p50_ms"] * latency["total_calls"]
            calls += latency["total_calls"]
    return weighted / max(calls, 1.0)


def run(ctx) -> dict:
    work = ctx.prepare()
    with ctx.own():
        text = (work / "text.txt").read_text(encoding="latin-1")
        weights = np.load(work / "weights.npy")

    import repro
    from repro.io import save_index
    from repro.strings.weighted import WeightedString

    tracer = ctx.tracer
    built: list = []
    if tracer is not None:
        import repro.io as repro_io

        layers.wrap_build(tracer, built)
        tracer.wrap(repro_io, "save_bundle", "io.save_bundle")
        tracer.install()
    ws = WeightedString(text, weights)
    with ctx.span("api.build"):
        index = repro.build(ws, k=K, backend="uat")
    bundle = work / "bundle.npz"
    t0 = time.perf_counter()
    with ctx.span("io.save_index"):
        save_index(index, bundle, container="v3")
    save_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    bundle_bytes = os.path.getsize(bundle)

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    t0 = time.perf_counter()
    with ctx.span("gateway.start"):
        server = ctx.spawn([sys.executable, "-m", "repro", "serve", "--index", str(bundle),
                            "--async", "--port", str(port)], "server.log", with_program=True)
        try:
            _wait_healthy(url, server)
        except RuntimeError as error:
            raise RuntimeError(f"{error}\n{ctx.log_tail('server.log')}") from None
    start_s = time.perf_counter() - t0
    healthy_setup_s = ctx.setup_seconds()

    closed_seconds = ctx.seconds * (1.0 - OPEN_SHARE)
    results_path = work / "loadgen.json"
    loadgen = ctx.spawn(
        [sys.executable, "-m", "perfbench.loadgen", "--port", str(port),
         "--server-pid", str(server.pid),
         "--stream", str(work / "stream.json"), "--out", str(results_path),
         "--connections", str(min(CONNECTIONS, nproc())), "--warmup", str(WARMUP_REQUESTS),
         "--rate", str(OPEN_RATE), "--open-seconds", str(ctx.seconds * OPEN_SHARE),
         "--closed-seconds", str(closed_seconds), "--trace", "1" if ctx.trace else "0",
         "--overhead-requests", str(OVERHEAD_REQUESTS)],
        "loadgen.log", with_program=False,
    )
    code = loadgen.wait(timeout=150)
    ctx.stop(loadgen)
    if code != 0:
        raise RuntimeError(f"load generator failed ({code}):\n{ctx.log_tail('loadgen.log')}")
    stats = _get(url + "/stats", timeout=30.0) if ctx.trace else None
    # The program's processes: this one (the build) and the server's tree.
    rss = peak_rss_mb() + tree_peak_rss_mb(server.pid)
    ctx.stop(server)

    load = json.loads(results_path.read_text())
    stream = json.loads((work / "stream.json").read_text())
    expected = json.loads((work / "expected.json").read_text())
    problems: list[str] = []
    failed = 0
    patterns_sent = bytes_moved = 0
    for record, payload in zip(load["records"], load["payloads"]):
        phase, slot, _due, _sent, _done, status, out, received = record
        patterns, with_count = stream[slot]
        patterns_sent += len(patterns)
        bytes_moved += out + received
        if status != 200:
            failed += 1
            continue
        problems.extend(check_query_response(payload.encode(), patterns, with_count, expected,
                                             f"{phase} request (stream slot {slot})"))
    records = load["records"]
    closed_done = np.asarray([r[4] for r in records if r[0] == "closed"]) - load["closed_start"]

    if tracer is None:
        metrics = {
            "setup_s": healthy_setup_s + load["warmup_s"],
            "peak_rss_mb": rss,
            # CPU time of the server's process tree (gateway and workers)
            # per request answered in the closed loop.
            "cpu_ms_per_op": load["closed_server_cpu_s"] * 1e3 / len(closed_done),
        }
        return {"problems": problems, "attempted": len(records), "failed": failed,
                "metrics": metrics}

    open_latency = [(r[4] - r[2]) * 1e3 for r in records if r[0] == "open"]
    late = [(r[3] - r[2]) * 1e3 for r in records if r[0] == "open"]
    # Closed-loop throughput: the median over 1-s windows.
    windows = np.bincount(closed_done.astype(np.int64))[: int(load["closed_s"])]
    if windows.size < 2:  # too short a run to window
        windows = np.asarray([closed_done.size / load["closed_s"]])
    sent = [stream[record[1]][0] for record in records]
    cached = {p: index.inner.is_cached(p) for p in {p for batch in sent for p in batch}}
    metrics = layers.build_metrics(tracer, built)
    metrics.update(_server_metrics(stats))
    metrics.update(layers.layer_self_metrics(tracer))
    metrics.update({
        # Base: the patterns sent; the share of them that H holds.
        "core.hash_hit_ratio": float(np.mean([cached[p] for batch in sent for p in batch])),
        "core.uncached_lengths_per_batch": float(np.mean(
            [layers.uncached_lengths(batch, cached.__getitem__) for batch in sent])),
        "io.bundle_bytes": bundle_bytes,
        "gateway.wire_bytes_per_pattern": bytes_moved / patterns_sent,
        "trace.overhead_s": load["overhead_s"],
    })
    ctx.write_trace({
        "loadgen_spans": load["spans"],
        "server_stats": stats,
        # Times of layers only this workload reaches (see perfbench/layers.py).
        "io.save_s": save_s,
        "gateway.start_s": start_s,
        "gateway.self_s": sum(row[3] - row[2] for row in load["spans"]),
        "gateway.query_p50_ms": stats["endpoints"]["query"]["p50_ms"],
        "service.engine_p50_ms": _engine_p50_ms(stats),
        "loadgen.late_p99_ms": float(np.percentile(late, 99)),
        "loadgen.open_p50_ms": float(np.percentile(open_latency, 50)),
        "loadgen.open_p99_ms": float(np.percentile(open_latency, 99)),
        "loadgen.closed_rps": float(np.median(windows)),
    })
    return {"problems": problems, "attempted": len(records), "failed": failed,
            "metrics": layers.complete(metrics)}
