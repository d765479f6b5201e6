""":class:`ExecutorPool` — forked, supervised solve executor workers.

Crash isolation for the solve service: instead of executing batches on
threads inside the acceptor process (where one native fault — a BLAS
segfault, an OOM kill — takes down every queued request), the service
forks a small pool of executor children.  Each child owns a private
:class:`repro.serve.runner.RequestRunner` (and therefore its own warm
engine pool and template caches) and speaks a framed channel over an
inherited ``socketpair``:

* parent → child: ``{"kind": "batch", "requests": [Request, ...],
  "queue_seconds": [...], "batch_size": N}``
* child → parent: one ``{"kind": "result", "index": i, "response":
  Response, "metrics": {...}}`` per member, then ``{"kind":
  "batch-done"}``.

The channel is a :mod:`repro.parallel.codec` frame stream — the same
header, size bound and exact-read as the JSON client protocol — with
the :data:`~repro.parallel.codec.PICKLE` serializer: both ends are the
same trusted codebase, pickling skips four JSON passes per request
(the benchmarked difference between the subprocess path clearing and
missing its < 5 % overhead gate), and binary floats round-trip
bit-exactly by construction.  The *client* socket stays JSON.

The children are one :class:`repro.resilience.workers.WorkerGroup`:
each spawn gets a fresh heartbeat row, ticked by the child at each
request boundary, and a per-slot generation the serve fault hooks key
on.  The dispatching parent retires a child through the group's
SIGTERM → SIGKILL ladder when its heartbeat age exceeds
``stall_timeout`` (or the in-flight request's capped ``Deadline``
plus grace), then respawns the slot and either
*salvages* the batch's unresolved tickets onto the fresh child (at
most ``max_salvage`` times per ticket) or resolves them with the
retriable ``worker-lost`` status.  Crashes, clean EOFs and corrupt
frames all funnel into the same loss path, which is what the serve
chaos modes of :mod:`repro.resilience.faults` exercise.
"""

from __future__ import annotations

import os
import select
import signal
import socket
from pathlib import Path
from typing import Callable

from repro.observe import Observer
from repro.observe.observer import as_observer
from repro.parallel import codec
from repro.resilience.faults import FaultInjector, FaultPlan, as_injector
from repro.resilience.supervise import Deadline
from repro.resilience.workers import Child, WorkerGroup
from repro.serve.protocol import STATUS_WORKER_LOST, Response
from repro.serve.queue import Ticket
from repro.serve.runner import RequestRunner
from repro.utils import logging as rlog

#: Parent-side readability poll between heartbeat checks.
_POLL_SECONDS = 0.1


def _recv_frame(sock: socket.socket) -> dict | None:
    """Read one executor-channel message; None on clean EOF."""
    message = codec.recv_frame(sock, codec.PICKLE)
    if message is not None and not isinstance(message, dict):
        raise codec.ProtocolError("executor frame must unpickle to a dict")
    return message


class ExecutorPool:
    """A fixed set of executor slots, each backed by a forked child.

    One dispatcher thread drives one slot at a time through
    :meth:`run_batch`; the pool itself owns spawning, supervision,
    loss handling and salvage.  Metrics land on ``observer``
    (``serve.worker_respawns``, ``serve.requests_salvaged``,
    ``serve.worker_lost`` plus everything the children snapshot back);
    ``on_response`` fires in the parent for every delivered response
    so the service can feed its queue-seconds load estimator.
    """

    def __init__(
        self,
        slots: int,
        results_dir: str | Path,
        *,
        strategy: str = "single",
        num_workers: int = 4,
        max_deadline: float | None = None,
        stall_timeout: float = 30.0,
        term_grace: float = 1.0,
        max_salvage: int = 1,
        observer: object | None = None,
        faults: FaultInjector | FaultPlan | None = None,
        on_response: Callable[[Ticket, Response], None] | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self.results_dir = Path(results_dir)
        self.strategy = strategy
        self.num_workers = num_workers
        self.max_deadline = max_deadline
        self.stall_timeout = float(stall_timeout)
        self.term_grace = float(term_grace)
        self.max_salvage = int(max_salvage)
        self.observer = as_observer(observer)
        self.faults = as_injector(faults)
        self.on_response = on_response
        self.group = WorkerGroup(self.slots, self._child_main, term_grace=term_grace)
        self.respawns = 0
        self.salvaged = 0
        self.lost_responses = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fork the initial child for every slot.

        Called before the service spawns its acceptor/handler threads:
        forking from a still-single-threaded process sidesteps the
        classic fork-with-locks hazards; later *respawns* do fork from
        a threaded parent, which CPython's at-fork lock reinit makes
        survivable for the narrow executor code path.
        """
        for slot in range(self.slots):
            self._spawn(slot)

    def stop(self) -> None:
        """Retire every child: EOF first (clean exit), escalate if needed."""
        self.group.stop()

    def _spawn(self, slot: int) -> Child:
        """Fork a fresh executor child into ``slot``."""
        child = self.group.spawn(slot)
        child.sock.settimeout(self.stall_timeout)
        if child.generation > 0:
            self.respawns += 1
            self.observer.count("serve.worker_respawns")
        rlog.info(
            "serve.executor_spawned",
            slot=slot,
            pid=child.pid,
            generation=child.generation,
        )
        return child

    def _lose(self, child: Child, reason: str) -> None:
        """Kill + forget the slot's child after any loss signal."""
        self.observer.count("serve.worker_lost")
        code = self.group.kill(child)
        self.observer.event(
            "serve.worker_lost", slot=child.slot, reason=reason, exit_code=code
        )
        rlog.info(
            "serve.worker_lost",
            slot=child.slot,
            pid=child.pid,
            reason=reason,
            exit_code=code,
        )

    # -- dispatch ------------------------------------------------------------

    def run_batch(self, slot: int, tickets: list[Ticket]) -> None:
        """Execute a batch on ``slot``, salvaging across worker loss.

        Every ticket ends resolved: with its solve response, or — after
        ``max_salvage`` re-dispatches onto fresh children — with the
        retriable ``worker-lost`` status.
        """
        pending = list(tickets)
        while pending:
            if self._attempt(slot, pending):
                return
            lost = [t for t in pending if not t.resolved]
            if not lost:
                return
            pending = []
            for ticket in lost:
                ticket.salvage_count += 1
                if ticket.salvage_count <= self.max_salvage:
                    self.salvaged += 1
                    self.observer.count("serve.requests_salvaged")
                    pending.append(ticket)
                else:
                    self.lost_responses += 1
                    self.observer.count("serve.responses.worker_lost")
                    ticket.try_resolve(
                        Response(
                            id=ticket.request.id or "",
                            status=STATUS_WORKER_LOST,
                            error=(
                                "executor worker died while running this "
                                "request; retry with the same request id"
                            ),
                            queue_seconds=ticket.queue_seconds(),
                        )
                    )

    def _attempt(self, slot: int, tickets: list[Ticket]) -> bool:
        """One dispatch of ``tickets`` to the slot's (live) child.

        True when the child answered ``batch-done``; False after any
        loss (the child is already killed and the slot left empty for
        the next attempt to respawn).
        """
        child = self.group.current(slot) or self._spawn(slot)
        job = {
            "kind": "batch",
            "requests": [t.request for t in tickets],
            "queue_seconds": [t.queue_seconds() for t in tickets],
            "batch_size": len(tickets),
        }
        for ticket in tickets:
            self.observer.observe_hist(
                "serve.queue_wait_seconds", ticket.queue_seconds()
            )
        try:
            codec.send_frame(child.sock, job, codec.PICKLE)
        except OSError:
            self._lose(child, reason="send-failed")
            return False
        unresolved = {index: t for index, t in enumerate(tickets)}
        while True:
            try:
                ready, _, _ = select.select([child.sock], [], [], _POLL_SECONDS)
            except OSError:  # pragma: no cover - socket died under select
                ready = []
            if not ready:
                limit = self._stall_limit(unresolved)
                if self.group.age(child) > limit:
                    self._lose(child, reason="stall")
                    return False
                continue
            try:
                message = _recv_frame(child.sock)
            except (codec.ProtocolError, OSError):
                self._lose(child, reason="protocol")
                return False
            if message is None:
                self._lose(child, reason="eof")
                return False
            kind = message.get("kind")
            if kind == "batch-done":
                return True
            if kind != "result":  # pragma: no cover - unknown frame kind
                self._lose(child, reason=f"unexpected-{kind}")
                return False
            index = int(message.get("index", -1))
            ticket = unresolved.pop(index, None)
            response = message.get("response")
            if not isinstance(response, Response):
                self._lose(child, reason="bad-response")
                return False
            metrics = message.get("metrics")
            if metrics and self.observer.metrics is not None:
                self.observer.metrics.merge(metrics)
            if ticket is not None:
                ticket.try_resolve(response)
                if self.on_response is not None:
                    self.on_response(ticket, response)

    def _stall_limit(self, unresolved: dict[int, Ticket]) -> float:
        """Heartbeat-age bound for the request currently in flight.

        The child ticks at request boundaries, so "age" is "seconds
        inside the current request".  A deadline-bearing request gets
        its capped budget plus the kill grace (the child's own engine
        normally answers ``deadline-exceeded`` well before this); the
        stall timeout is the ceiling either way.
        """
        if not unresolved:
            return self.stall_timeout
        current = unresolved[min(unresolved)]
        deadline = Deadline.capped(current.request.deadline, self.max_deadline)
        if deadline is None:
            return self.stall_timeout
        return min(self.stall_timeout, deadline.seconds + self.term_grace + 1.0)

    # -- child side ----------------------------------------------------------

    def _child_main(self, child: Child) -> None:  # pragma: no cover - child
        """Request loop of one executor child; exits via ``os._exit``.

        The child is single-threaded: a private runner (warm engine pool),
        the inherited heartbeat row ticked at request boundaries, and a
        metrics registry snapshotted back with every result so the parent's
        ``stats`` stay a running total across the whole pool.
        """
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        from repro.core.templates import has_template

        board, faults = self.group.board, self.faults
        sock, row, generation = child.sock, child.row, child.generation
        runner = RequestRunner(
            self.results_dir,
            strategy=self.strategy,
            num_workers=self.num_workers,
            max_deadline=self.max_deadline,
            pool_engines=True,
            observer=Observer(),
        )
        ordinal = 0  # requests served since this child forked
        while True:
            try:
                message = _recv_frame(sock)
            except (codec.ProtocolError, OSError):
                os._exit(1)
            if message is None:  # parent closed the channel: clean retirement
                os._exit(0)
            if message.get("kind") != "batch":
                continue
            requests = message.get("requests") or []
            queue_seconds = message.get("queue_seconds") or []
            batch_size = int(message.get("batch_size", len(requests)))
            warm_head = True
            for index, request in enumerate(requests):
                board.tick(row)
                if index == 0:
                    # Warmth is a property of *this child's* caches.
                    warm_head = has_template(request.n)
                if faults is not None:
                    faults.on_serve_request(ordinal, generation)
                response = runner.run(
                    request,
                    batch_size=batch_size,
                    warm=warm_head or index > 0,
                    queue_seconds=float(
                        queue_seconds[index] if index < len(queue_seconds) else 0.0
                    ),
                )
                snapshot = (
                    runner.observer.metrics.snapshot()
                    if runner.observer.metrics is not None
                    else {}
                )
                if runner.observer.metrics is not None:
                    runner.observer.metrics.clear()
                payload = {
                    "kind": "result",
                    "index": index,
                    "response": response,
                    "metrics": snapshot,
                }
                fate = (
                    faults.serve_frame_fate(ordinal, generation)
                    if faults is not None
                    else "ok"
                )
                ordinal += 1
                try:
                    if fate == "drop":
                        sock.close()
                        os._exit(75)
                    frame = codec.encode_frame(payload, codec.PICKLE)
                    if fate == "corrupt":
                        # An impossible length prefix: the parent's framing
                        # layer rejects it deterministically.
                        frame = (
                            codec.frame_header(codec.MAX_MESSAGE_BYTES + 1)
                            + frame[codec.HEADER_BYTES:]
                        )
                    sock.sendall(frame)
                except OSError:
                    os._exit(1)
                board.tick(row)
            try:
                codec.send_frame(sock, {"kind": "batch-done"}, codec.PICKLE)
            except OSError:
                os._exit(1)
