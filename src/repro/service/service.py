"""GraphService: the snapshot-isolated asyncio serving layer.

One service owns one :class:`~repro.session.session.GraphSession` and
exposes it over HTTP/JSON (see :mod:`repro.service.wire` for the payload
shapes).  The concurrency contract is the point of the module:

* **Reads pin a snapshot.**  Every query batch pins the session once
  (:meth:`GraphSession.pin`), executes against that immutable
  ``(compiled CSR base, overlay slice)`` pair in a worker thread, and
  releases the pin.  Compaction rebinds the live store's base — it never
  mutates the arrays a pinned snapshot holds — so many readers proceed
  while the writer moves the graph forward.  Batches pinned at one version
  share the session's read state of that version (one store snapshot, one
  set of warm matchers); its lock lets their evaluations run one at a time.
* **One writer.**  Updates apply in the event-loop thread, serialised by
  the loop itself (and by the session lock against in-process callers).
  Pinning also happens in the loop thread, so a pin can never observe a
  half-applied batch.
* **Batching.**  The dispatcher drains up to ``batch_max`` queued reads
  and serves them from a single pinned snapshot — the service-side analogue
  of :meth:`GraphSession.execute_many`.
* **Admission control.**  Beyond ``max_inflight`` queued reads the service
  fails fast with :class:`~repro.exceptions.OverloadedError` (HTTP 503,
  ``retryable: true``) instead of building an unbounded queue.

Endpoints (all JSON, all stamped with ``schema_version``)::

    GET    /v1/health               liveness + graph version
    GET    /v1/stats                session/store/service counters
    POST   /v1/query                {"query": {...}} -> one result
    POST   /v1/batch                {"queries": [...]} -> results, one pin
    POST   /v1/update               {"updates": [[op, u, v, color], ...]}
    POST   /v1/watch                open a subscription -> {"watch_id": ...}
    GET    /v1/watch/<id>/next      long-poll one update event
    GET    /v1/watch/<id>/stream    the same events as SSE frames
    DELETE /v1/watch/<id>           close a subscription
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import (
    OverloadedError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from repro.service import http as shttp
from repro.service.wire import decode_query, error_envelope, ok_envelope
from repro.session.defaults import DEFAULT_MAX_INFLIGHT
from repro.session.session import GraphSession

__all__ = ["ServiceConfig", "GraphService", "ServiceHandle"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`GraphService`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`GraphService.address`); the defaults suit tests and the CLI's
    local serving mode.
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Queued-read ceiling before requests are rejected with a 503.
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Largest number of reads served from one pinned snapshot.
    batch_max: int = 8
    #: Dispatcher tasks (and worker threads) executing read batches.
    read_concurrency: int = 4
    #: Events buffered per watch subscriber before the oldest is dropped.
    watch_buffer: int = 256
    #: Default / maximum long-poll wait in seconds.
    poll_default: float = 10.0
    poll_ceiling: float = 30.0


class _Watch:
    """One subscription: an asyncio queue fed by the writer path."""

    __slots__ = ("id", "queue", "dropped")

    def __init__(self, watch_id: int, buffer: int):
        self.id = watch_id
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=buffer)
        self.dropped = 0

    def publish(self, event: Dict[str, Any]) -> None:
        while True:
            try:
                self.queue.put_nowait(event)
                return
            except asyncio.QueueFull:
                with contextlib.suppress(asyncio.QueueEmpty):
                    self.queue.get_nowait()
                    self.dropped += 1


class GraphService:
    """Serve one session over asyncio HTTP with snapshot-isolated reads."""

    def __init__(self, session: GraphSession, config: Optional[ServiceConfig] = None):
        self.session = session
        self.config = config or ServiceConfig()
        self.address: Optional[shttp.Address] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._dispatchers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        self._watches: Dict[int, _Watch] = {}
        self._next_watch_id = 1
        self._inflight = 0
        self.counters: Dict[str, int] = {
            "requests": 0,
            "queries": 0,
            "batches": 0,
            "updates": 0,
            "rejected": 0,
            "errors": 0,
        }

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> shttp.Address:
        """Bind the listening socket and launch the dispatcher tasks."""
        if self._server is not None:
            raise ServiceError("the service is already running")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.read_concurrency,
            thread_name_prefix="repro-serve",
        )
        self._dispatchers = [
            self._loop.create_task(self._dispatch_loop())
            for _ in range(self.config.read_concurrency)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        """Stop accepting, cancel dispatchers, release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = self._dispatchers + [
            task for task in self._connections if not task.done()
        ]
        for task in pending:
            task.cancel()
        for task in pending:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:
                # Teardown races (a connection dying mid-cancel) must not
                # abort shutdown, but they are still errors worth counting.
                self.counters["errors"] += 1
        self._dispatchers = []
        self._connections.clear()
        for watch in list(self._watches.values()):
            watch.publish({"type": "shutdown"})
        self._watches.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    def run_in_thread(self) -> "ServiceHandle":
        """Boot the service on a fresh loop in a daemon thread.

        The in-process form used by tests, the load generator and the CLI's
        ``--load-burst`` mode: returns once the socket is bound.
        """
        started = threading.Event()
        failure: List[BaseException] = []
        handle = ServiceHandle(self)

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            handle.loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover - bind failures
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop())
                loop.close()

        thread = threading.Thread(target=runner, name="repro-service", daemon=True)
        handle.thread = thread
        thread.start()
        started.wait()
        if failure:
            raise failure[0]
        return handle

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await shttp.read_request(reader)
                except ProtocolError as exc:
                    self.counters["errors"] += 1
                    shttp.write_json(writer, 400, error_envelope(exc), keep_alive=False)
                    break
                if request is None:
                    break
                self.counters["requests"] += 1
                keep_open = await self._route(request, writer)
                await writer.drain()
                if not keep_open:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels open connections; exit quietly.  On 3.11+
            # the cancellation must also be uncancelled, else the task is
            # re-marked cancelled on return and the stdlib stream
            # done-callback logs a spurious CancelledError at shutdown.
            if task is not None:
                getattr(task, "uncancel", lambda: None)()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass  # the peer vanishing mid-close is routine
            except Exception:
                # Anything else failing to close the transport is a real
                # error; count it rather than suppressing it silently.
                self.counters["errors"] += 1

    async def _route(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns False when the connection must close."""
        method, path = request.method, request.path
        try:
            if path == "/v1/health" and method == "GET":
                shttp.write_json(writer, 200, self._health())
            elif path == "/v1/stats" and method == "GET":
                shttp.write_json(writer, 200, self._stats())
            elif path == "/v1/query" and method == "POST":
                shttp.write_json(writer, 200, await self._serve_query(request))
            elif path == "/v1/batch" and method == "POST":
                shttp.write_json(writer, 200, await self._serve_batch(request))
            elif path == "/v1/update" and method == "POST":
                shttp.write_json(writer, 200, self._serve_update(request))
            elif path == "/v1/watch" and method == "POST":
                shttp.write_json(writer, 200, self._open_watch())
            elif path.startswith("/v1/watch/"):
                return await self._route_watch(request, writer)
            else:
                self.counters["errors"] += 1
                status = 404
                error = ProtocolError(f"no route for {method} {path}")
                shttp.write_json(writer, status, error_envelope(error))
        except OverloadedError as exc:
            self.counters["rejected"] += 1
            shttp.write_json(writer, 503, error_envelope(exc))
        except ReproError as exc:
            self.counters["errors"] += 1
            shttp.write_json(writer, 400, error_envelope(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.counters["errors"] += 1
            shttp.write_json(writer, 500, error_envelope(exc))
        return True

    # -- plain endpoints ---------------------------------------------------------

    def _health(self) -> Dict[str, Any]:
        graph = self.session.graph
        return ok_envelope(
            status="serving",
            graph=graph.name,
            version=graph.version,
            nodes=graph.num_nodes,
            edges=graph.num_edges,
        )

    def _stats(self) -> Dict[str, Any]:
        session = self.session.counters()
        # JSON object keys are strings: (kind, algorithm) -> "kind/algorithm".
        session["plans_chosen"] = {
            "/".join(key): count for key, count in session["plans_chosen"].items()
        }
        return ok_envelope(
            version=self.session.graph.version,
            session=session,
            store=self.session.store_stats(),
            service={**self.counters, "inflight": self._inflight,
                     "watches": len(self._watches)},
        )

    # -- the read path -----------------------------------------------------------

    def _admit(self, count: int) -> None:
        if self._inflight + count > self.config.max_inflight:
            raise OverloadedError(
                f"read queue is full ({self._inflight} inflight, "
                f"limit {self.config.max_inflight}); retry later"
            )
        self._inflight += count

    async def _submit_reads(
        self, entries: List[Tuple[str, Any]]
    ) -> Tuple[int, List[Dict[str, Any]]]:
        """Queue decoded reads and await their results (one future each)."""
        assert self._queue is not None and self._loop is not None
        self._admit(len(entries))
        futures = [self._loop.create_future() for _ in entries]
        for (kind, query), future in zip(entries, futures):
            self._queue.put_nowait((kind, query, future))
        try:
            payloads = await asyncio.gather(*futures)
        finally:
            self._inflight -= len(entries)
        version = payloads[0]["version"] if payloads else self.session.graph.version
        return version, payloads

    async def _serve_query(self, request: Request) -> Dict[str, Any]:
        body = request.json()
        if not isinstance(body, dict):
            raise ProtocolError("expected a JSON object with a 'query' member")
        kind, query = decode_query(body.get("query", body))
        version, payloads = await self._submit_reads([(kind, query)])
        self.counters["queries"] += 1
        return ok_envelope(version=version, kind=kind, result=payloads[0]["result"])

    async def _serve_batch(self, request: Request) -> Dict[str, Any]:
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("queries"), list):
            raise ProtocolError("expected a JSON object with a 'queries' array")
        entries = [decode_query(item) for item in body["queries"]]
        if not entries:
            return ok_envelope(version=self.session.graph.version, results=[])
        version, payloads = await self._submit_reads(entries)
        self.counters["queries"] += len(entries)
        return ok_envelope(
            version=version,
            results=[
                {"kind": kind, "result": payload["result"]}
                for (kind, _), payload in zip(entries, payloads)
            ],
        )

    async def _dispatch_loop(self) -> None:
        """Drain the read queue in batches, one pinned snapshot per batch."""
        assert self._queue is not None and self._loop is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                # Pin in the loop thread: updates also apply here, so the pin
                # always observes a fully applied (or not yet applied) batch.
                snapshot = self.session.pin()
                self.counters["batches"] += 1
                try:
                    results = await self._loop.run_in_executor(
                        self._executor, self._execute_batch, snapshot, batch
                    )
                finally:
                    snapshot.release()
            except Exception as exc:  # noqa: BLE001 - reported to every waiter
                # The pin or the executor hand-off failed: the whole batch
                # fails with it, and the dispatcher lives on — no request is
                # left awaiting a future nobody will resolve.
                self.counters["errors"] += 1
                results = [exc] * len(batch)
            for (_, _, future), outcome in zip(batch, results):
                if future.cancelled():
                    continue
                if isinstance(outcome, Exception):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)

    @staticmethod
    def _execute_batch(snapshot: Any, batch: List[Tuple[str, Any, Any]]) -> List[Any]:
        """Run one pinned batch in a worker thread (exceptions per-entry)."""
        outcomes: List[Any] = []
        for _kind, query, _future in batch:
            try:
                result = snapshot.execute(query)
                outcomes.append(
                    {"version": snapshot.version, "result": result.to_dict()}
                )
            except Exception as exc:  # noqa: BLE001 - reported per entry
                outcomes.append(exc)
        return outcomes

    # -- the write path ----------------------------------------------------------

    def _serve_update(self, request: Request) -> Dict[str, Any]:
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("updates"), list):
            raise ProtocolError("expected a JSON object with an 'updates' array")
        updates: List[Tuple[str, Any, Any, str]] = []
        for entry in body["updates"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                raise ProtocolError(
                    "each update must be a [op, source, target, color] quadruple"
                )
            op = entry[0]
            if op not in ("add", "remove"):
                raise ProtocolError(f"unknown update op {op!r}")
            updates.append((op, entry[1], entry[2], str(entry[3])))
        # Applied in the event-loop thread: serialised against pinning above.
        delta = self.session.apply_updates(updates)
        self.counters["updates"] += 1
        version = self.session.graph.version
        event = {
            "type": "update",
            "version": version,
            "inserted": [list(edge) for edge in delta.inserted],
            "deleted": [list(edge) for edge in delta.deleted],
            "new_nodes": list(delta.new_nodes),
            "net_changes": delta.net_changes,
        }
        for watch in self._watches.values():
            watch.publish(event)
        return ok_envelope(version=version, net_changes=delta.net_changes)

    # -- watch subscriptions -----------------------------------------------------

    def _open_watch(self) -> Dict[str, Any]:
        watch = _Watch(self._next_watch_id, self.config.watch_buffer)
        self._next_watch_id += 1
        self._watches[watch.id] = watch
        return ok_envelope(watch_id=watch.id, version=self.session.graph.version)

    def _find_watch(self, token: str) -> _Watch:
        try:
            watch = self._watches[int(token)]
        except (KeyError, ValueError):
            raise ProtocolError(f"unknown watch {token!r}") from None
        return watch

    async def _route_watch(self, request: Request, writer: asyncio.StreamWriter) -> bool:
        parts = request.path.split("/")
        # /v1/watch/<id>[/next|/stream] -> ["", "v1", "watch", id, ...]
        if len(parts) == 4 and request.method == "DELETE":
            watch = self._find_watch(parts[3])
            del self._watches[watch.id]
            shttp.write_json(writer, 200, ok_envelope(closed=watch.id))
            return True
        if len(parts) == 5 and parts[4] == "next" and request.method == "GET":
            watch = self._find_watch(parts[3])
            timeout = shttp.parse_timeout(
                request, self.config.poll_default, self.config.poll_ceiling
            )
            try:
                event = await asyncio.wait_for(watch.queue.get(), timeout)
            except asyncio.TimeoutError:
                event = None
            shttp.write_json(
                writer, 200, ok_envelope(event=event, dropped=watch.dropped)
            )
            return True
        if len(parts) == 5 and parts[4] == "stream" and request.method == "GET":
            watch = self._find_watch(parts[3])
            shttp.start_event_stream(writer)
            shttp.write_event(
                writer, ok_envelope(type="hello", version=self.session.graph.version)
            )
            await writer.drain()
            try:
                while watch.id in self._watches:
                    try:
                        event = await asyncio.wait_for(
                            watch.queue.get(), self.config.poll_ceiling
                        )
                    except asyncio.TimeoutError:
                        event = {"type": "keepalive"}
                    shttp.write_event(writer, event)
                    await writer.drain()
                    if event.get("type") == "shutdown":
                        break
            except (ConnectionError, asyncio.CancelledError):
                pass
            return False  # the stream owns the connection until it closes
        raise ProtocolError(f"no route for {request.method} {request.path}")


class ServiceHandle:
    """A service running on a background thread (see ``run_in_thread``)."""

    def __init__(self, service: GraphService):
        self.service = service
        self.thread: Optional[threading.Thread] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def address(self) -> shttp.Address:
        assert self.service.address is not None
        return self.service.address

    def call(self, coro) -> Any:
        """Run one coroutine on the service loop from any thread."""
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the loop and join the thread (idempotent)."""
        loop, thread = self.loop, self.thread
        if loop is None or thread is None or not thread.is_alive():
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout)
        if thread.is_alive():  # pragma: no cover - diagnostics only
            raise ServiceError("service thread did not stop in time")

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


Request = shttp.Request
