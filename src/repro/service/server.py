"""JSON-over-HTTP front-end for the serving subsystem (stdlib only).

Endpoints
---------
``POST /query``
    Body ``{"pattern": "..."}`` or ``{"patterns": [...]}``, plus
    optional ``"index"`` (name; defaults when exactly one index is
    registered) and ``"count": true`` to include occurrence counts.
    Responds ``{"index": ..., "results": [{"pattern", "utility",
    ("count")}]}``.

``POST /ingest``
    Body ``{"doc": "..."}`` plus optional ``"utilities"`` (one float
    per character) and ``"index"``.  Appends the document to a live
    (``dynamic``) index — the ``live`` backend's WAL-first write path —
    and responds ``{"index": ..., "seq": n}``.  400 when the target
    index does not ingest.

``GET /indexes``
    The registry listing: name, residency, pinned, backing path, plus
    each index's backend name and capability flags (``batch`` /
    ``dynamic`` / ``collection`` / ``approximate`` / ``count`` /
    ``persistent``) — any registered backend can be served, not just
    :class:`~repro.core.usi.UsiIndex`.

``GET /stats``
    Server-wide QPS / latency percentiles, a per-endpoint latency
    breakdown (``endpoints``: query vs ingest vs admin), the serving
    ``mode`` (``"threaded"`` here; ``"async"`` on the gateway) and
    worker count, per-engine cache statistics, registry
    load/eviction/replacement counters, and an ``ingest`` section
    (per-live-index generation and compaction counters; empty for
    static registries).

``GET /healthz``
    Structured health probe (shared shape with the async gateway):
    ``{"status": "ok"|"degraded", "workers_alive", "breaker",
    "quarantined", "reasons"}``.  Threaded mode has no worker pool,
    so ``workers_alive`` is 0 and ``breaker`` is ``"closed"``;
    ``degraded`` appears when a live index has quarantined memtables.

The server is a :class:`http.server.ThreadingHTTPServer` — one thread
per in-flight request — which is exactly the concurrency model
:class:`~repro.service.engine.QueryEngine` is built for: immutable
indexes below, a lock only around cache/counter updates.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import IndexLoadError, ReproError
from repro.profiling import merge_profile_dicts
from repro.service.metrics import EndpointMetrics, LatencyRecorder
from repro.service.registry import IndexRegistry
from repro.service.requests import (
    MAX_BATCH,
    MAX_BODY_BYTES,
    RequestError,
    does_not_ingest,
    endpoint_class,
    health_payload,
    parse_ingest_request,
    parse_query_request,
    unsupported_counts,
)


class _Handler(BaseHTTPRequestHandler):
    server_version = "usi-serve/1.0"
    protocol_version = "HTTP/1.1"
    # The handler writes status line, headers, and body as separate
    # unbuffered sends; without TCP_NODELAY, Nagle holds the tail of
    # the response for the client's delayed ACK (~40 ms per request
    # on Linux).  The asyncio gateway gets this from its transport
    # defaults; the threaded server has to ask.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def setup(self) -> None:
        # A connection-level timeout so a client that promises a body
        # and never sends it cannot pin this handler thread forever
        # (the read raises TimeoutError -> 400 instead of hanging).
        self.timeout = getattr(self.server, "request_timeout", 30.0)
        super().setup()

    @property
    def registry(self) -> IndexRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    def _begin_request(self) -> bool:
        """Count this request in-flight; refuse it once draining."""
        condition = self.server.inflight_condition  # type: ignore[attr-defined]
        with condition:
            if self.server.draining:  # type: ignore[attr-defined]
                return False
            self.server.inflight += 1  # type: ignore[attr-defined]
        return True

    def _end_request(self) -> None:
        condition = self.server.inflight_condition  # type: ignore[attr-defined]
        with condition:
            self.server.inflight -= 1  # type: ignore[attr-defined]
            condition.notify_all()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self._record_endpoint()
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, status: int, message: str, retry_after: "int | None" = None
    ) -> None:
        # Error paths may not have drained the request body; under
        # HTTP/1.1 keep-alive the leftover bytes would be parsed as
        # the next request, desyncing the connection. Close instead.
        self.close_connection = True
        body = json.dumps({"error": message}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(int(retry_after)))
        self.send_header("Connection", "close")
        self._record_endpoint()
        self.end_headers()
        self.wfile.write(body)

    def _start_endpoint(self, method: str) -> None:
        self._pending_endpoint = (endpoint_class(method, self.path), time.perf_counter())

    def _record_endpoint(self) -> None:
        """Record the request's latency once, before its response is sent,
        so a client that has read the answer finds it in ``GET /stats``."""
        pending = getattr(self, "_pending_endpoint", None)
        if pending is not None:
            self._pending_endpoint = None
            endpoints: EndpointMetrics = self.server.endpoint_metrics  # type: ignore[attr-defined]
            endpoints.record(pending[0], time.perf_counter() - pending[1])

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        if not self._begin_request():
            self._error(503, "server is shutting down")
            return
        self._start_endpoint("GET")
        try:
            self._do_get()
        finally:
            self._end_request()
            self._record_endpoint()

    def _do_get(self) -> None:
        if self.path == "/indexes":
            self._send_json({"indexes": self.registry.describe()})
        elif self.path == "/stats":
            recorder: LatencyRecorder = self.server.metrics  # type: ignore[attr-defined]
            endpoints: EndpointMetrics = self.server.endpoint_metrics  # type: ignore[attr-defined]
            engines = self.registry.engine_stats()
            self._send_json(
                {
                    "mode": "threaded",
                    "workers": 0,
                    "server": recorder.snapshot().as_dict(),
                    "endpoints": endpoints.snapshot(),
                    "registry": self.registry.stats(),
                    "engines": engines,
                    "ingest": self.registry.ingest_stats(),
                    # Query-stage seconds summed over resident engines
                    # (the serving twin of `usi build --profile`).
                    "profile": merge_profile_dicts(
                        [row.get("profile") for row in engines.values()]
                    ),
                }
            )
        elif self.path == "/healthz":
            self._send_json(health_payload(self.registry))
        else:
            self._error(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        if not self._begin_request():
            self._error(503, "server is shutting down")
            return
        self._start_endpoint("POST")
        try:
            self._do_post()
        finally:
            self._end_request()
            self._record_endpoint()

    def _do_post(self) -> None:
        if self.path == "/query":
            self._do_query()
        elif self.path == "/ingest":
            self._do_ingest()
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _read_json_body(self) -> "dict | None":
        """The request body as a JSON object, or None (error sent).

        A POST without a ``Content-Length`` is refused with 411
        (Length Required) and a malformed one with 400 — never
        guessed at.  Reading the body is bounded by the connection
        timeout, so a client that advertises more bytes than it sends
        gets a 400 instead of pinning this handler thread on a short
        read.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._error(411, "Content-Length required on POST")
            return None
        try:
            length = int(raw_length)
        except ValueError:
            self._error(400, "bad Content-Length")
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, "request body required (JSON)")
            return None
        try:
            body = self.rfile.read(length)
        except (TimeoutError, OSError):
            self._error(400, "request body shorter than Content-Length")
            return None
        if len(body) < length:  # connection closed mid-body
            self._error(400, "request body shorter than Content-Length")
            return None
        try:
            request = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(request, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return request

    def _resolve_engine(self, request: dict):
        """The ``(name, engine)`` a request addresses, or None (error sent)."""
        name = request.get("index") or self.registry.default_name()
        if name is None:
            self._error(
                400,
                "several indexes are registered; name one with 'index'",
            )
            return None
        try:
            return name, self.registry.get(name)
        except KeyError:
            self._error(404, f"unknown index {name!r}")
            return None
        except IndexLoadError as exc:
            # The file may reappear (network mount, recovering disk):
            # transient, so 503 + Retry-After rather than 500.
            self._error(503, str(exc), retry_after=1)
            return None

    def _do_query(self) -> None:
        request = self._read_json_body()
        if request is None:
            return

        try:
            patterns, with_counts = parse_query_request(request)
        except RequestError as error:
            self._error(error.status, error.message)
            return

        resolved = self._resolve_engine(request)
        if resolved is None:
            return
        name, engine = resolved

        if with_counts and not engine.protocol.capabilities.count:
            error = unsupported_counts(name, engine.protocol.backend_name)
            self._error(error.status, error.message)
            return

        utilities = engine.query_batch(patterns)
        results = [
            {"pattern": pattern, "utility": value}
            for pattern, value in zip(patterns, utilities)
        ]
        if with_counts:
            for row, pattern in zip(results, patterns):
                row["count"] = engine.count(pattern)
        self._send_json({"index": name, "results": results})

    def _do_ingest(self) -> None:
        request = self._read_json_body()
        if request is None:
            return

        try:
            doc, utilities = parse_ingest_request(request)
        except RequestError as error:
            self._error(error.status, error.message)
            return

        resolved = self._resolve_engine(request)
        if resolved is None:
            return
        name, engine = resolved

        appender = getattr(engine.protocol, "append_document", None)
        if not callable(appender):
            error = does_not_ingest(name, engine.protocol.backend_name)
            self._error(error.status, error.message)
            return
        try:
            seq = appender(doc, utilities)
        except ReproError as exc:
            self._error(400, str(exc))
            return
        except OSError as exc:
            # WAL write failure (disk full, torn write): the append
            # was not acknowledged and the memtable is untouched, so
            # the client may retry the same document later.
            self._error(503, f"ingest temporarily unavailable: {exc}", retry_after=1)
            return
        self._send_json({"index": name, "seq": int(seq)})


class UsiServer:
    """The serving front-end: a registry behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); read it back from
    :attr:`port`.  Use as a context manager or call :meth:`start` /
    :meth:`shutdown` explicitly.

    Examples
    --------
    >>> registry = IndexRegistry()                      # doctest: +SKIP
    >>> registry.register("corpus", index)              # doctest: +SKIP
    >>> with UsiServer(registry, port=0) as server:     # doctest: +SKIP
    ...     print(server.url)
    """

    def __init__(
        self,
        registry: IndexRegistry,
        host: str = "127.0.0.1",
        port: int = 8642,
        metrics: "LatencyRecorder | None" = None,
        verbose: bool = False,
        request_timeout: float = 30.0,
    ) -> None:
        self.registry = registry
        self.metrics = metrics if metrics is not None else registry.metrics
        self.endpoint_metrics = EndpointMetrics()
        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.registry = registry  # type: ignore[attr-defined]
        self._http.metrics = self.metrics  # type: ignore[attr-defined]
        self._http.endpoint_metrics = self.endpoint_metrics  # type: ignore[attr-defined]
        self._http.request_timeout = float(request_timeout)  # type: ignore[attr-defined]
        self._http.verbose = verbose  # type: ignore[attr-defined]
        # In-flight request tracking for graceful shutdown.
        self._http.inflight = 0  # type: ignore[attr-defined]
        self._http.inflight_condition = threading.Condition()  # type: ignore[attr-defined]
        self._http.draining = False  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None
        self._serving = False
        self._shutdown_lock = threading.Lock()
        self._shutting_down = False
        self._shutdown_thread: "threading.Thread | None" = None
        self._previous_handlers: dict = {}

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "UsiServer":
        """Serve on a daemon thread and return immediately."""
        if self._thread is not None:
            return self
        self._serving = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="usi-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Serve on the calling thread (the CLI path).

        With *install_signal_handlers* (the default, effective only on
        the main thread) SIGINT and SIGTERM trigger a **graceful**
        shutdown: the listener stops accepting, in-flight requests
        finish, and the registry closes — instead of the process dying
        mid-response.
        """
        if install_signal_handlers:
            self.install_signal_handlers()
        self._serving = True
        try:
            self._http.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self._serving = False
            self._restore_signal_handlers()
            # A signal-triggered graceful shutdown drains on a helper
            # thread; wait for it so the process exits cleanly.
            shutdown_thread = self._shutdown_thread
            if shutdown_thread is not None:
                shutdown_thread.join(timeout=30)
            self._http.server_close()

    # ------------------------------------------------------------------
    # Shutdown paths
    # ------------------------------------------------------------------
    def install_signal_handlers(self, signals=(signal.SIGINT, signal.SIGTERM)) -> None:
        """Route SIGINT/SIGTERM to :meth:`graceful_shutdown`.

        Only the main thread may install handlers; elsewhere this is a
        no-op (tests and embedded servers call
        :meth:`graceful_shutdown` directly).
        """
        for signum in signals:
            try:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._handle_signal
                )
            except ValueError:  # not the main thread
                self._previous_handlers.clear()
                return

    def _restore_signal_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self._previous_handlers.clear()

    def _handle_signal(self, signum, frame) -> None:  # pragma: no cover - signals
        # serve_forever runs on this thread; draining inline would
        # deadlock on the serve loop, so delegate to a helper thread.
        if self._shutdown_thread is None:
            self._shutdown_thread = threading.Thread(
                target=self.graceful_shutdown, name="usi-shutdown", daemon=True
            )
            self._shutdown_thread.start()

    def graceful_shutdown(self, timeout: float = 10.0) -> None:
        """Finish in-flight requests, then close server and registry.

        New requests are refused with 503 the moment draining starts;
        requests already being answered get up to *timeout* seconds to
        complete.  Idempotent and safe from any thread except the
        serve loop itself (signal handlers delegate to a helper
        thread for exactly that reason).
        """
        with self._shutdown_lock:
            if self._shutting_down:
                return
            self._shutting_down = True
        condition = self._http.inflight_condition  # type: ignore[attr-defined]
        with condition:
            self._http.draining = True  # type: ignore[attr-defined]
        if self._serving:
            self._http.shutdown()  # stop accepting; unblocks serve_forever
        deadline = time.monotonic() + timeout
        with condition:
            while self._http.inflight > 0:  # type: ignore[attr-defined]
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                condition.wait(remaining)
        self.registry.close()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
            self._thread = None
        self._http.server_close()

    def shutdown(self) -> None:
        """Immediate stop (the historical API): no drain, no registry close."""
        if self._serving:
            self._http.shutdown()
        self._serving = False
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._http.server_close()

    def __enter__(self) -> "UsiServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
