"""Seeded chaos against the full gateway: the three hard invariants.

Each seed deterministically generates a fault storm (hangs, crashes,
crash-loops, slow IPC) and drives real HTTP traffic through it.  The
hardened serving stack must hold, for every seed:

1. **No request hangs**: every response lands well inside the
   gateway-wide deadline plus scheduling slack.
2. **Exact answers**: every 200 body is byte-identical to a
   single-process reference engine over the same bundle — faults may
   cost latency or a clean error, never a wrong answer.
3. **Full recovery**: once the fault plan is cleared, the gateway
   returns to ``/healthz`` ``status: ok`` and keeps answering exactly.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.api import open_index
from repro.faults import chaos_plan
from repro.gateway import AsyncGateway
from repro.service.engine import QueryEngine

from tests.faults.conftest import PATTERNS

#: Gateway-path scenarios only (WAL/compactor storms have their own
#: dedicated tests; a pool-only gateway never hits those sites).
GATEWAY_SCENARIOS = (
    "worker_hang",
    "worker_crash",
    "worker_crash_loop",
    "slow_ipc",
)

CALL_TIMEOUT = 0.5
REQUEST_TIMEOUT = 5.0
#: Deadline plus generous scheduler slack: the "never hangs" invariant.
LATENCY_CEILING = REQUEST_TIMEOUT + 5.0
REQUESTS_PER_SEED = 24
RECOVERY_DEADLINE = 60.0


def _post(url: str, payload: dict, timeout: float):
    request = urllib.request.Request(
        url + "/query",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _expected_body(engine, pattern: str) -> bytes:
    rows = [{"pattern": pattern, "utility": engine.query_batch([pattern])[0]}]
    return json.dumps({"index": "demo", "results": rows}).encode()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_invariants_hold(bundle_path, seed):
    reference = QueryEngine(open_index(bundle_path, mmap=True))
    plan, scenarios = chaos_plan(
        seed, scenarios=GATEWAY_SCENARIOS, hang_seconds=30.0
    )
    faults.install(plan)
    gateway = AsyncGateway(
        paths={"demo": bundle_path},
        workers=2,
        port=0,
        call_timeout=CALL_TIMEOUT,
        request_timeout=REQUEST_TIMEOUT,
        degraded_mode="inline",
    )
    with gateway.start_in_thread() as handle:
        # ------------------------------------------------------------
        # Phase 1 — traffic through the storm.
        # ------------------------------------------------------------
        statuses = []
        for i in range(REQUESTS_PER_SEED):
            pattern = PATTERNS[i % len(PATTERNS)]
            t0 = time.perf_counter()
            status, body = _post(
                handle.url, {"pattern": pattern}, timeout=LATENCY_CEILING + 5
            )
            elapsed = time.perf_counter() - t0
            statuses.append(status)
            # Invariant 1: nothing outlives the deadline (plus slack).
            assert elapsed < LATENCY_CEILING, (
                f"seed {seed} ({scenarios}): request {i} took {elapsed:.1f}s"
            )
            # Invariant 2: a 200 is byte-exact; errors are clean JSON.
            if status == 200:
                assert body == _expected_body(reference, pattern), (
                    f"seed {seed} ({scenarios}): wrong answer for {pattern!r}"
                )
            else:
                assert status in (503, 504), (
                    f"seed {seed} ({scenarios}): unexpected status {status}"
                )
                assert "error" in json.loads(body)
        # Inline degraded mode means the vast majority still answer.
        assert statuses.count(200) >= REQUESTS_PER_SEED // 2

        # ------------------------------------------------------------
        # Phase 2 — the storm ends; the system must heal completely.
        # Workers forked while the plan was installed still carry it,
        # so keep probing: each breaker probe drains one poisoned
        # worker until a clean one closes the breaker.
        # ------------------------------------------------------------
        faults.clear()
        deadline = time.monotonic() + RECOVERY_DEADLINE
        healthy = False
        while time.monotonic() < deadline:
            _post(handle.url, {"pattern": "abra"}, timeout=LATENCY_CEILING)
            with urllib.request.urlopen(
                handle.url + "/healthz", timeout=10
            ) as response:
                health = json.loads(response.read())
            if health["status"] == "ok":
                healthy = True
                break
            time.sleep(0.2)
        # Invariant 3: back to full health, still answering exactly.
        assert healthy, f"seed {seed} ({scenarios}): never recovered: {health}"
        status, body = _post(handle.url, {"pattern": "abra"}, timeout=30)
        assert status == 200
        assert body == _expected_body(reference, "abra")
        # That last request can still kill a worker forked while the
        # plan was installed; the pool respawns it on its own, so poll
        # for the refilled pool instead of reading it once.
        pool = gateway.pool
        while time.monotonic() < deadline and not (
            pool.breaker.state == "closed" and pool.alive_workers == 2
        ):
            time.sleep(0.1)
        assert pool.breaker.state == "closed"
        assert pool.alive_workers == 2
