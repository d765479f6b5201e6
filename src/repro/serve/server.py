""":class:`SolveService` — the persistent, crash-isolated solve server.

One acceptor process, three kinds of threads plus (by default) a pool
of forked executor workers:

* the **acceptor** owns the unix-domain listening socket and spawns a
  short-lived handler per connection;
* **handlers** read one request, admit it to the
  :class:`repro.serve.queue.AdmissionQueue` (or answer a retriable
  rejection), block on the ticket, and write the response;
* **dispatchers** pull compatible batches through the
  :class:`repro.serve.batcher.Batcher` and execute them — on the
  forked children of :class:`repro.serve.executor.ExecutorPool`
  (``executor="subprocess"``, the default: a native crash, OOM kill or
  hang takes out one child, not the service), or in-process through a
  shared :class:`repro.serve.runner.RequestRunner`
  (``executor="thread"``, the PR-5 behaviour kept for platforms
  without fork and for the overhead benchmark).  Both paths run the
  same runner code, so results are bit-identical.

Admission is priority-aware (see :mod:`repro.serve.queue`): the queue
sheds the newest lowest-priority ticket to admit more urgent work
under saturation, meters per-client token-bucket quotas, and bounds
how long any ticket can be bypassed.  Requests carry an idempotency
``id``: a retry of an in-flight request joins its ticket, and a retry
of a completed one returns the cached response instead of re-solving.

Graceful drain (SIGTERM, or an admin ``drain`` message): admission
closes, queued-but-unstarted tickets are answered with the retriable
``rejected-draining`` status, in-flight batches run to completion and
their responses are delivered, then the dispatchers exit, executor
children are retired and the socket is unlinked.  Nothing already
being computed is discarded.

Every request that executes gets a run manifest (plus trace
artifacts) written through :mod:`repro.observe` under
``results_dir/req-<id>/``; service-level health lands in the
``serve.*`` spans/counters of the service observer (see
``docs/SERVING.md`` for the metric names and
``docs/OBSERVABILITY.md`` for the manifest schema).
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.templates import has_template
from repro.observe.manifest import environment_info
from repro.observe.observer import as_observer
from repro.parallel.pymp import fork_available
from repro.serve.batcher import Batch, Batcher
from repro.serve.executor import ExecutorPool
from repro.serve.protocol import (
    PRIORITY_CLASSES,
    STATUS_DRAINING,
    STATUS_INVALID,
    STATUS_QUEUE_FULL,
    STATUS_QUOTA,
    ProtocolError,
    Request,
    Response,
    parse_address,
    recv_message,
    send_message,
)
from repro.serve.queue import (
    AdmissionQueue,
    QueueDraining,
    QueueFull,
    QuotaExceeded,
    Ticket,
)
from repro.serve.runner import RequestRunner
from repro.utils import logging as rlog

#: How long blocked socket/queue polls sleep between liveness checks.
_POLL_SECONDS = 0.1

#: Listen backlog, independent of admission depth: a full backlog
#: makes unix connects fail with EAGAIN before admission can answer.
_LISTEN_BACKLOG = 128

#: Status → rejection counter name (see ``serve.*`` metric family).
_REJECT_COUNTERS = {
    STATUS_QUEUE_FULL: "serve.rejected.queue_full",
    STATUS_DRAINING: "serve.rejected.draining",
    STATUS_QUOTA: "serve.rejected.quota",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`SolveService` needs to run.

    ``strategy``/``num_workers`` configure the engines (the default
    ``single`` strategy avoids forking *inside* an executor; forked
    strategies work but are the operator's informed choice).
    ``serve_workers`` is the number of executor slots.  ``executor``
    picks the execution host: ``"subprocess"`` (default; falls back to
    ``"thread"`` where fork is unavailable) isolates solves in forked
    children supervised by ``stall_timeout``/``term_grace`` and
    salvages a dying worker's batch up to ``max_salvage`` times per
    request; ``"thread"`` runs solves in-process.  ``max_deadline``
    caps any per-request budget; ``None`` accepts the request's own
    value unchanged.  ``quota_rate``/``quota_burst`` meter per-client
    admission, ``max_queue_seconds`` triggers load shedding on
    estimated wait, ``max_bypass_age`` bounds priority/batching
    starvation and ``idempotency_cache`` sizes the completed-response
    LRU.  ``faults`` (a ``FaultPlan``/``FaultInjector``) arms the
    serve chaos hooks inside executor children.  ``catalog_path``
    auto-ingests every executed request's run manifest into the SQLite
    run catalog (:mod:`repro.observe.catalog`) as it finalizes.
    ``tcp`` additionally binds a ``HOST:PORT`` stream listener beside
    the unix socket (same framing; port ``0`` picks an ephemeral port,
    observable as :attr:`SolveService.tcp_address`) — the transport
    the fleet front and remote clients use.
    """

    socket_path: Path
    results_dir: Path
    tcp: str | None = None
    max_queue_depth: int = 64
    max_batch: int = 8
    serve_workers: int = 1
    strategy: str = "single"
    num_workers: int = 4
    max_deadline: float | None = None
    observer: object | None = None
    executor: str = "subprocess"
    stall_timeout: float = 30.0
    term_grace: float = 1.0
    max_salvage: int = 1
    quota_rate: float | None = None
    quota_burst: float = 8.0
    max_queue_seconds: float | None = None
    max_bypass_age: float = 5.0
    idempotency_cache: int = 128
    faults: object | None = None
    catalog_path: Path | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "socket_path", Path(self.socket_path))
        object.__setattr__(self, "results_dir", Path(self.results_dir))
        if self.tcp is not None:
            kind, _ = parse_address(self.tcp)
            if kind != "tcp":
                raise ValueError(
                    f"tcp must be a HOST:PORT spec, got {self.tcp!r}"
                )
        if self.serve_workers < 1:
            raise ValueError(
                f"serve_workers must be >= 1, got {self.serve_workers}"
            )
        if self.executor not in ("thread", "subprocess"):
            raise ValueError(
                f"executor must be 'thread' or 'subprocess', "
                f"got {self.executor!r}"
            )


class SolveService:
    """A running (or startable) solve service bound to a unix socket.

    Lifecycle::

        service = SolveService(ServiceConfig(socket_path, results_dir))
        service.start()           # binds + spawns acceptor/executors
        ...                       # clients connect and submit
        service.request_drain()   # e.g. from a SIGTERM handler
        service.wait()            # until drained and stopped
        service.stop()            # idempotent final cleanup

    ``start()``/``stop()`` are safe to call from the main thread while
    handlers and dispatchers run; ``request_drain()`` is
    async-signal-safe enough for a Python signal handler (it only sets
    events and resolves tickets).
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.observer = as_observer(config.observer)
        #: The execution host actually in effect (subprocess falls back
        #: to thread where fork is unavailable).
        self.executor_mode = (
            "subprocess"
            if config.executor == "subprocess" and fork_available()
            else "thread"
        )
        self.queue = AdmissionQueue(
            max_depth=config.max_queue_depth,
            on_depth=self._on_depth,
            max_bypass_age=config.max_bypass_age,
            max_queue_seconds=config.max_queue_seconds,
            quota_rate=config.quota_rate,
            quota_burst=config.quota_burst,
            on_shed=self._on_shed,
        )
        self.batcher = Batcher(self.queue, max_batch=config.max_batch)
        self.pool: ExecutorPool | None = None
        self._runner: RequestRunner | None = None
        if self.executor_mode == "thread":
            self._runner = RequestRunner(
                config.results_dir,
                strategy=config.strategy,
                num_workers=config.num_workers,
                max_deadline=config.max_deadline,
                pool_engines=(config.serve_workers == 1),
                observer=self.observer,
            )
        self._sock: socket.socket | None = None
        self._tcp_sock: socket.socket | None = None
        #: ``(host, port)`` actually bound when ``config.tcp`` is set
        #: (resolves port 0 to the kernel's pick); None otherwise.
        self.tcp_address: tuple[str, int] | None = None
        self._acceptors: list[threading.Thread] = []
        self._acceptor: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self._handlers: set[threading.Thread] = set()
        self._handlers_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._drained = threading.Event()
        self._started_at = time.monotonic()
        self._requests_seen = 0
        self._shed_counts = {name: 0 for name in PRIORITY_CLASSES}
        self._quota_rejections = 0
        self._idempotent_hits = 0
        self._idempotency_lock = threading.Lock()
        self._inflight: dict[str, Ticket] = {}
        self._completed: OrderedDict[str, Response] = OrderedDict()
        self._catalog: object | None = None  # opened lazily on first ingest

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and spawn executors, acceptor and dispatchers.

        Executor children fork first, while the process is still
        single-threaded — the acceptor/handler threads only exist
        afterwards, so the initial pool avoids fork-with-locks hazards
        entirely (respawns after a crash do fork from a threaded
        parent; see :meth:`repro.serve.executor.ExecutorPool.start`).
        The manifest environment is sampled here too, once, so every
        executor child inherits it and no request pays for it.
        """
        if self._sock is not None:
            raise RuntimeError("service already started")
        path = self.config.socket_path
        path.parent.mkdir(parents=True, exist_ok=True)
        self.config.results_dir.mkdir(parents=True, exist_ok=True)
        environment_info()
        if self.executor_mode == "subprocess":
            self.pool = ExecutorPool(
                self.config.serve_workers,
                self.config.results_dir,
                strategy=self.config.strategy,
                num_workers=self.config.num_workers,
                max_deadline=self.config.max_deadline,
                stall_timeout=self.config.stall_timeout,
                term_grace=self.config.term_grace,
                max_salvage=self.config.max_salvage,
                observer=self.observer,
                faults=self.config.faults,
                on_response=self._on_executed,
            )
            self.pool.start()
        if path.exists():
            # A previous instance that died uncleanly leaves its socket
            # file behind; binding over it requires the unlink.
            path.unlink()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(str(path))
        sock.listen(_LISTEN_BACKLOG)
        sock.settimeout(_POLL_SECONDS)
        self._sock = sock
        if self.config.tcp is not None:
            _, target = parse_address(self.config.tcp)
            tcp_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            tcp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp_sock.bind(target)
            tcp_sock.listen(_LISTEN_BACKLOG)
            tcp_sock.settimeout(_POLL_SECONDS)
            self._tcp_sock = tcp_sock
            self.tcp_address = tcp_sock.getsockname()[:2]
        self._started_at = time.monotonic()
        self._acceptors = []
        for listener, name in (
            (self._sock, "serve-acceptor"),
            (self._tcp_sock, "serve-acceptor-tcp"),
        ):
            if listener is None:
                continue
            acceptor = threading.Thread(
                target=self._accept_loop, args=(listener,), name=name,
                daemon=True,
            )
            acceptor.start()
            self._acceptors.append(acceptor)
        self._acceptor = self._acceptors[0]
        for rank in range(self.config.serve_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(rank,),
                name=f"serve-dispatch-{rank}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        rlog.info(
            "serve.started",
            socket=str(path),
            workers=self.config.serve_workers,
            max_batch=self.config.max_batch,
            executor=self.executor_mode,
        )

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; returns immediately).

        New submissions are rejected with ``rejected-draining``,
        queued-but-unstarted tickets are resolved with the same
        retriable status, and dispatchers exit once in-flight batches
        finish.  :meth:`wait` observes completion.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        self.observer.count("serve.drains")
        self.observer.event("serve.draining", queued=self.queue.depth())
        abandoned = self.queue.drain()
        for ticket in abandoned:
            self._reject(ticket.request, STATUS_DRAINING, ticket=ticket)
        rlog.info("serve.draining", rejected_queued=len(abandoned))

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the drain completed; True when it did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in self._workers:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            worker.join(remaining)
            if worker.is_alive():
                return False
        self._drained.set()
        return True

    def stop(self) -> None:
        """Drain, join every thread, retire executors, unlink the socket."""
        self.request_drain()
        self.wait()
        if self.pool is not None:
            self.pool.stop()
        self._stopped.set()
        for acceptor in self._acceptors:
            acceptor.join(timeout=5.0)
        self._acceptors = []
        self._acceptor = None
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout=5.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._tcp_sock is not None:
            self._tcp_sock.close()
            self._tcp_sock = None
            self.tcp_address = None
        try:
            self.config.socket_path.unlink()
        except FileNotFoundError:
            pass
        if self._catalog is not None:
            self._catalog.close()
            self._catalog = None
        rlog.info("serve.stopped", requests=self._requests_seen)

    @property
    def draining(self) -> bool:
        """True once a drain has been requested."""
        return self._stopping.is_set()

    # -- admission callbacks -------------------------------------------------

    def _on_depth(self, depth: int) -> None:
        """Mirror queue depth (total and per class) into gauges."""
        self.observer.gauge("serve.queue_depth", float(depth))
        for name, count in self.queue.depths().items():
            self.observer.gauge(f"serve.queue_depth.{name}", float(count))

    def _on_shed(self, ticket: Ticket) -> None:
        """Resolve a load-shed ticket with the retriable rejection."""
        priority = ticket.request.priority
        self._shed_counts[priority] = self._shed_counts.get(priority, 0) + 1
        self.observer.count(f"serve.shed.{priority}")
        ticket.try_resolve(
            Response(
                id=ticket.request.id or "",
                status=STATUS_QUEUE_FULL,
                error=(
                    "shed to admit higher-priority work under overload; "
                    "retry later"
                ),
                queue_seconds=ticket.queue_seconds(),
            )
        )

    def _on_executed(self, ticket: Ticket, response: Response) -> None:
        """Per-delivery bookkeeping: feed the queue's load estimator."""
        if response.elapsed_seconds > 0.0:
            self.queue.note_service_time(response.elapsed_seconds)
        self._ingest_manifest(response)

    def _ingest_manifest(self, response: Response) -> None:
        """Index the finished request's manifest into the run catalog.

        Active only with ``catalog_path`` configured; the Catalog's own
        lock serializes the dispatcher threads and WAL mode keeps
        concurrent external readers/ingesters safe.  Ingest failures
        are counted, never allowed to fail the request — the manifest
        file on disk remains the source of truth either way.
        """
        if self.config.catalog_path is None or not response.manifest_path:
            return
        try:
            if self._catalog is None:
                from repro.observe.catalog import Catalog

                self._catalog = Catalog(self.config.catalog_path)
            if self._catalog.ingest([Path(response.manifest_path)]).ingested:
                self.observer.count("serve.catalog.ingested")
        except Exception as exc:  # noqa: BLE001 - never fail the request
            self.observer.count("serve.catalog.errors")
            rlog.info("serve.catalog_error", error=str(exc))

    # -- acceptor / handlers -------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        """Accept connections until stopped; one handler thread each.

        Accepting continues through a drain, so late clients get their
        ``rejected-draining`` reply instead of waiting in the backlog.
        """
        while not self._stopped.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - socket closed under us
                break
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            with self._handlers_lock:
                self._handlers.add(handler)
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        """Serve one connection: read one message, answer, close."""
        try:
            with conn:
                conn.settimeout(60.0)
                try:
                    message = recv_message(conn)
                except ProtocolError as exc:
                    send_message(
                        conn,
                        Response(
                            id="", status=STATUS_INVALID, error=str(exc)
                        ).to_dict(),
                    )
                    return
                if message is None:
                    return
                reply = self._dispatch(message)
                send_message(conn, reply)
        except OSError:
            # The client went away mid-reply; its problem, not ours.
            pass
        finally:
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    def _dispatch(self, message: dict) -> dict:
        """Route one decoded message to its handler; returns the reply."""
        kind = message.get("kind", "solve")
        if kind == "ping":
            return {
                "kind": "pong",
                "draining": self.draining,
                "uptime_seconds": time.monotonic() - self._started_at,
                "pid": os.getpid(),
            }
        if kind == "stats":
            snapshot = (
                self.observer.metrics.snapshot()
                if self.observer.metrics is not None
                else {}
            )
            now = time.monotonic()
            return {
                "kind": "stats",
                # Server-side monotonic clock + uptime: pollers (e.g.
                # `parma runs watch`) difference successive replies to
                # turn raw counters into rates without trusting their
                # own wall clock against the service's.
                "server_monotonic": now,
                "uptime_seconds": now - self._started_at,
                "queue_depth": self.queue.depth(),
                "queue_depths": self.queue.depths(),
                "estimated_queue_seconds": self.queue.estimated_queue_seconds(),
                "draining": self.draining,
                "requests": self._requests_seen,
                "executor": self.executor_mode,
                "shed": dict(self._shed_counts),
                "quota_rejections": self._quota_rejections,
                "idempotent_hits": self._idempotent_hits,
                "worker_respawns": (
                    self.pool.respawns if self.pool is not None else 0
                ),
                "requests_salvaged": (
                    self.pool.salvaged if self.pool is not None else 0
                ),
                "metrics": snapshot,
            }
        if kind == "drain":
            self.request_drain()
            return {"kind": "draining"}
        if kind != "solve":
            return Response(
                id=str(message.get("id") or ""),
                status=STATUS_INVALID,
                error=f"unknown message kind {kind!r}",
            ).to_dict()
        return self._handle_solve(message)

    def _handle_solve(self, message: dict) -> dict:
        """Admit a solve request, wait for its ticket, return the reply.

        Client-supplied ids are idempotency keys: a duplicate of a
        completed request answers from the cache, a duplicate of an
        in-flight request joins the existing ticket, and only then does
        a fresh ticket enter admission.
        """
        try:
            request = Request.from_dict(message)
            request.z_array()  # shape-check before admission
        except ValueError as exc:
            self.observer.count("serve.rejected.invalid")
            return Response(
                id=str(message.get("id") or ""),
                status=STATUS_INVALID,
                error=str(exc),
            ).to_dict()
        if request.id is None:
            request = dataclasses.replace(request, id=uuid.uuid4().hex[:12])
        self._requests_seen += 1
        self.observer.count("serve.requests")
        assert request.id is not None
        with self._idempotency_lock:
            cached = self._completed.get(request.id)
            if cached is not None:
                self._completed.move_to_end(request.id)
                joined = None
            else:
                joined = self._inflight.get(request.id)
        if cached is not None:
            self._idempotent_hits += 1
            self.observer.count("serve.idempotent_hits")
            return cached.to_dict()
        if joined is not None:
            self._idempotent_hits += 1
            self.observer.count("serve.idempotent_hits")
            response = joined.wait()
            assert response is not None
            return response.to_dict()
        try:
            ticket = self.queue.submit(request)
        except QueueFull as exc:
            return self._reject(request, STATUS_QUEUE_FULL, error=str(exc))
        except QueueDraining as exc:
            return self._reject(request, STATUS_DRAINING, error=str(exc))
        except QuotaExceeded as exc:
            self._quota_rejections += 1
            return self._reject(request, STATUS_QUOTA, error=str(exc))
        with self._idempotency_lock:
            self._inflight[request.id] = ticket
        response = ticket.wait()
        assert response is not None  # tickets are always resolved
        with self._idempotency_lock:
            self._inflight.pop(request.id, None)
            if not response.retriable:
                self._completed[request.id] = response
                while len(self._completed) > self.config.idempotency_cache:
                    self._completed.popitem(last=False)
        return response.to_dict()

    def _reject(
        self,
        request: Request,
        status: str,
        error: str = "",
        ticket: Ticket | None = None,
    ) -> dict:
        """Build (and deliver, for queued tickets) a retriable rejection."""
        self.observer.count(
            _REJECT_COUNTERS.get(status, "serve.rejected.draining")
        )
        response = Response(
            id=request.id or "",
            status=status,
            error=error or "service is draining; retry against the next instance",
        )
        if ticket is not None:
            ticket.try_resolve(response)
        return response.to_dict()

    # -- dispatchers ---------------------------------------------------------

    def _worker_loop(self, rank: int) -> None:
        """Pull batches until the queue is drained empty, then exit."""
        while True:
            batch = self.batcher.next_batch(timeout=_POLL_SECONDS)
            if batch is None:
                if self._stopping.is_set() and self.queue.depth() == 0:
                    return
                continue
            self._execute_batch(rank, batch)

    def _execute_batch(self, rank: int, batch: Batch) -> None:
        """Run one compatible batch on this dispatcher's execution host."""
        self.observer.count("serve.batches")
        self.observer.observe_hist("serve.batch_size", float(batch.size))
        if self.pool is not None:
            with self.observer.span(
                "serve.batch",
                n=batch.n,
                size=batch.size,
                executor="subprocess",
            ):
                self.pool.run_batch(rank, list(batch.tickets))
            return
        warm = has_template(batch.n)
        with self.observer.span(
            "serve.batch",
            n=batch.n,
            size=batch.size,
            cache_warm=warm,
        ):
            for index, ticket in enumerate(batch.tickets):
                # One formation pass per batch: the head member's
                # formation stage builds (or finds) the per-n template,
                # and every member behind it only stamps values into
                # the shared structure.  The head of a cold batch is
                # labelled cold — its latency covers the build.
                self._execute_ticket(ticket, batch, warm or index > 0)

    def _execute_ticket(self, ticket: Ticket, batch: Batch, warm: bool) -> None:
        """Execute one request in-process and resolve its ticket."""
        assert self._runner is not None
        queue_seconds = ticket.queue_seconds()
        self.observer.observe_hist("serve.queue_wait_seconds", queue_seconds)
        response = self._runner.run(
            ticket.request,
            batch_size=batch.size,
            warm=warm,
            queue_seconds=queue_seconds,
        )
        ticket.try_resolve(response)
        self._on_executed(ticket, response)
