"""Load generator for serve_zipf, run as its own process.

    python -m perfbench.loadgen --port P --stream FILE --out FILE [...]

Holds at most ``--connections`` keep-alive HTTP/1.1 connections and
sends the request stream (small JSON batches) in three phases:

* warm-up: ``--warmup`` requests, closed loop (fills the worker caches);
* open loop: ``--rate`` requests per second for ``--open-seconds``; each
  request is timed from when it was due, so a stall also delays the
  requests queued behind it, and the lateness of each send is recorded;
* closed loop: every connection sends its next request as soon as the
  previous answer arrives, for ``--closed-seconds``; the CPU time the
  server process tree spends meanwhile is read from ``/proc``.

With ``--trace 1`` it records one span per request and then times
``--overhead-requests`` closed-loop requests untraced and as many traced.
Every response body is kept and written to ``--out`` for checking.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import time

from perfbench.common import process_tree
from perfbench.tracing import Tracer


def tree_cpu_seconds(pid: int) -> float:
    """CPU seconds (user + system) used so far by *pid* and its descendants."""
    ticks = 0
    for current in process_tree(pid):
        try:
            with open(f"/proc/{current}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited meanwhile
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class Connection:
    """One keep-alive connection; reconnects after the server closes it."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def request(self, body: bytes) -> "tuple[int, bytes, int, int]":
        """POST /query; returns ``(status, body, bytes sent, bytes read)``,
        status 0 when the connection failed."""
        head = (
            "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.writer.write(head + body)
            await self.writer.drain()
            status_line = await self.reader.readline()
            received = len(status_line)
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await self.reader.readline()
                received += len(line)
                if line in (b"\r\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
            received += len(payload)
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError) as error:
            self.close()
            return 0, str(error).encode(), len(head) + len(body), 0
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, payload, len(head) + len(body), received

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


class Generator:
    def __init__(self, port: int, stream: list, connections: int, tracer: "Tracer | None") -> None:
        self.stream = stream
        self.bodies = [
            json.dumps({"patterns": patterns, "count": True} if count else {"patterns": patterns}).encode()
            for patterns, count in stream
        ]
        self.connections = [Connection(port) for _ in range(connections)]
        self.cursor = 0
        self.tracer = tracer
        #: ``[phase, stream slot, due, sent, done, status, bytes out, bytes in]``
        self.records: list[list] = []
        self.payloads: list[str] = []

    async def _send(self, connection: Connection, phase: str, due: "float | None") -> None:
        slot = self.cursor % len(self.stream)
        self.cursor += 1
        sent = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("gateway.POST /query", request=len(self.records)):
                status, payload, out, received = await connection.request(self.bodies[slot])
        else:
            status, payload, out, received = await connection.request(self.bodies[slot])
        done = time.perf_counter()
        self.records.append([phase, slot, sent if due is None else due, sent, done, status, out, received])
        self.payloads.append(payload.decode("utf-8", "replace"))

    async def closed(self, phase: str, *, requests: "int | None" = None,
                     seconds: "float | None" = None) -> float:
        """Closed loop until *requests* were sent or *seconds* passed."""
        start = time.perf_counter()
        budget = [requests]

        async def worker(connection: Connection) -> None:
            while True:
                if budget[0] is not None:
                    if budget[0] <= 0:
                        return
                    budget[0] -= 1
                elif time.perf_counter() - start >= seconds:
                    return
                await self._send(connection, phase, None)

        await asyncio.gather(*(worker(c) for c in self.connections))
        return time.perf_counter() - start

    async def open(self, rate: float, seconds: float) -> None:
        """Open loop: request ``i`` is due ``i / rate`` seconds in."""
        total = int(round(rate * seconds))
        issued = [0]
        start = time.perf_counter() + 0.05

        async def worker(connection: Connection) -> None:
            while issued[0] < total:
                due = start + issued[0] / rate
                issued[0] += 1
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                await self._send(connection, "open", due)

        await asyncio.gather(*(worker(c) for c in self.connections))

    def close(self) -> None:
        for connection in self.connections:
            connection.close()


async def drive(args, stream: list) -> dict:
    tracer = Tracer() if args.trace else None
    generator = Generator(args.port, stream, args.connections, tracer)
    try:
        warmup_s = await generator.closed("warmup", requests=args.warmup)
        await generator.open(args.rate, args.open_seconds)
        closed_start = time.perf_counter()
        cpu_start = tree_cpu_seconds(args.server_pid)
        closed_s = await generator.closed("closed", seconds=args.closed_seconds)
        closed_cpu_s = tree_cpu_seconds(args.server_pid) - cpu_start
        overhead = None
        if tracer is not None:
            generator.tracer = None
            untraced = await generator.closed("untraced", requests=args.overhead_requests)
            generator.tracer = tracer
            traced = await generator.closed("traced", requests=args.overhead_requests)
            overhead = traced - untraced
    finally:
        generator.close()
    return {
        "warmup_s": warmup_s,
        "closed_start": closed_start,
        "closed_s": closed_s,
        "closed_server_cpu_s": closed_cpu_s,
        "overhead_s": overhead,
        "records": generator.records,
        "payloads": generator.payloads,
        "spans": tracer.spans if tracer is not None else [],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--server-pid", type=int, required=True,
                        help="the server process; its CPU time (with its "
                             "workers') is read around the closed loop")
    parser.add_argument("--stream", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--connections", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--open-seconds", type=float, required=True)
    parser.add_argument("--closed-seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--overhead-requests", type=int, default=500)
    args = parser.parse_args()
    with open(args.stream) as handle:
        stream = json.load(handle)
    # The generator's own garbage collections would stall its sends and
    # reads; its few allocations per request are freed at exit instead.
    gc.freeze()
    gc.disable()
    result = asyncio.run(drive(args, stream))
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
