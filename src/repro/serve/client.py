""":class:`SolveClient` — the library/CLI client for the solve service.

One request per connection, deliberately: a unix-domain connect is
microseconds, and connection-per-request means the client needs no
multiplexing, the server needs no per-connection session state, and a
dead peer is detected by the OS instead of a heartbeat layer.

Retrying is opt-in and bounded: construct the client with
``retries``/``backoff`` and :meth:`SolveClient.submit` resubmits on
retriable responses (queue full, draining, quota, worker lost — see
:attr:`repro.serve.protocol.Response.retriable`) and on connection
failures, with deterministic seeded jitter from
:class:`repro.resilience.retry.RetryPolicy`.  Every submit carries an
idempotency ``id`` (client-assigned when absent), so all attempts
share one key: a retry of a request the service already completed
returns the cached response instead of re-solving, and a retry of an
in-flight one joins its ticket.

When the transport fails, :class:`ServeConnectionError` says *where*:
``request_sent`` (did the request frame leave?), ``acked`` (did any
reply bytes arrive?) and ``frame_offset`` (how far into the reply
frame the stream broke).  ``safe_to_retry`` is True only when the
request never left — any other failure is "outcome unknown", which is
still safe to resubmit *with the same id* thanks to server-side
idempotency.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

import numpy as np

from repro.resilience.retry import RetryPolicy
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    connect_address,
    format_address,
    parse_address,
    recv_message,
    send_message,
)
from repro.utils.rng import derive_seed


class ServeConnectionError(ConnectionError):
    """The transport to the service failed (connect, send or receive).

    Attributes
    ----------
    request_sent:
        True when the request frame was fully handed to the kernel
        before the failure — the service may have executed it.
    acked:
        True when at least one reply byte arrived, i.e. the service
        definitely received (and started answering) the request.
    frame_offset:
        How many bytes into the reply frame the stream broke (0 when
        no reply bytes arrived).
    """

    def __init__(
        self,
        message: str,
        *,
        request_sent: bool = False,
        acked: bool = False,
        frame_offset: int = 0,
    ) -> None:
        super().__init__(message)
        self.request_sent = request_sent
        self.acked = acked
        self.frame_offset = frame_offset

    @property
    def safe_to_retry(self) -> bool:
        """True when the request provably never reached the service.

        A False value means "outcome unknown" — resubmitting is still
        sound when the request carries an idempotency ``id`` (the
        service dedupes), but blind resubmission without one could
        solve twice.
        """
        return not self.request_sent


class SolveClient:
    """Submit parametrization requests to a running :class:`SolveService`.

    Parameters
    ----------
    socket_path:
        Where the service listens: a unix-domain socket path, or a
        TCP ``HOST:PORT`` / ``tcp://HOST:PORT`` spec for a fleet
        front (see :func:`repro.serve.protocol.parse_address`).
    timeout:
        Per-request socket timeout in seconds.  This must cover the
        request's *queue wait plus solve time*; the default is
        generous because a deadline-bounded request should be bounded
        by its own ``deadline``, not the transport.
    retries:
        How many times :meth:`submit` resubmits after a retriable
        response or a connection failure (0 = never, the default).
    backoff:
        Base backoff in seconds between attempts (exponential, capped;
        see :class:`repro.resilience.retry.RetryPolicy`).
    jitter:
        Jitter fraction in [0, 1]; the actual delay is scaled by a
        deterministic factor drawn from the request id, so a fleet of
        retrying clients de-synchronizes without losing
        reproducibility.
    """

    def __init__(
        self,
        socket_path: str | Path,
        timeout: float = 300.0,
        *,
        retries: int = 0,
        backoff: float = 0.1,
        jitter: float = 0.5,
    ) -> None:
        kind, _ = parse_address(socket_path)
        # Unix specs keep the Path type callers have always seen;
        # "HOST:PORT" stays a string so it round-trips verbatim.
        self.socket_path = (
            socket_path if kind == "tcp" else Path(socket_path)
        )
        self.address = format_address(socket_path)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.jitter = float(jitter)

    # -- transport -----------------------------------------------------------

    def _roundtrip(self, message: dict) -> dict:
        """Connect, send one message, read one reply, disconnect."""
        sent = False
        try:
            sock = connect_address(self.socket_path, timeout=self.timeout)
        except (
            FileNotFoundError,
            ConnectionRefusedError,
            BlockingIOError,  # unix connect with the listen backlog full
            socket.timeout,
            socket.gaierror,
        ) as exc:
            kind, _ = parse_address(self.socket_path)
            hint = (
                f"start one with `parma fleet --listen {self.address}` "
                f"or `parma serve --tcp {self.address}`"
                if kind == "tcp"
                else f"start one with `parma serve --socket {self.address}`"
            )
            raise ServeConnectionError(
                f"cannot reach a solve service on {self.address}: {exc} "
                f"({hint})"
            ) from exc
        try:
            try:
                send_message(sock, message)
            except OSError as exc:
                raise ServeConnectionError(
                    f"send to {self.address} failed: {exc}"
                ) from exc
            sent = True
            try:
                reply = recv_message(sock)
            except ProtocolError as exc:
                raise ServeConnectionError(
                    f"reply stream from {self.address} broke "
                    f"{exc.bytes_read} byte(s) into the frame: {exc}",
                    request_sent=True,
                    acked=exc.bytes_read > 0,
                    frame_offset=exc.bytes_read,
                ) from exc
            except OSError as exc:
                raise ServeConnectionError(
                    f"receive from {self.address} failed: {exc}",
                    request_sent=True,
                ) from exc
        finally:
            sock.close()
        if reply is None:
            raise ServeConnectionError(
                "service closed the connection without replying",
                request_sent=sent,
            )
        return reply

    # -- requests ------------------------------------------------------------

    def submit(self, request: Request) -> Response:
        """Send one solve request; retry per the client's policy.

        The request gets a client-assigned idempotency ``id`` when it
        carries none, so every retry attempt shares the same key.
        Returns the final response (which may still be retriable once
        ``retries`` is exhausted); re-raises the last
        :class:`ServeConnectionError` when no attempt got an answer.
        """
        import dataclasses
        import uuid

        if request.id is None:
            request = dataclasses.replace(request, id=uuid.uuid4().hex[:12])
        policy = RetryPolicy(
            max_retries=self.retries,
            backoff_seconds=self.backoff,
            jitter=self.jitter,
            jitter_seed=derive_seed(0, "serve-client", request.id or ""),
        )
        message = request.to_dict()
        last_error: ServeConnectionError | None = None
        response: Response | None = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                delay = policy.delay(attempt - 1)
                if delay > 0.0:
                    time.sleep(delay)
            try:
                response = Response.from_dict(self._roundtrip(message))
            except ServeConnectionError as exc:
                last_error = exc
                continue
            if not response.retriable:
                return response
        if response is not None:
            return response
        assert last_error is not None
        raise last_error

    def solve(
        self,
        z: np.ndarray,
        voltage: float = 5.0,
        hour: float = 0.0,
        **knobs,
    ) -> Response:
        """Convenience wrapper: build a :class:`Request` from an array.

        ``knobs`` are forwarded to :class:`repro.serve.protocol.
        Request` (``solver``, ``deadline``,
        ``threshold_sigmas``, ``validate``, ``solver_kwargs``,
        ``want_field``, ``id``, ``priority``, ``client_id``).
        """
        request = Request(
            z=np.asarray(z, dtype=np.float64).tolist(),
            voltage=float(voltage),
            hour=float(hour),
            **knobs,
        )
        return self.submit(request)

    def ping(self) -> dict:
        """Liveness probe; returns the service's ``pong`` payload."""
        return self._roundtrip({"kind": "ping"})

    def stats(self) -> dict:
        """Service health snapshot: queue depth, counters, drain state."""
        return self._roundtrip({"kind": "stats"})

    def drain(self) -> dict:
        """Ask the service to drain gracefully (admin operation)."""
        return self._roundtrip({"kind": "drain"})

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> bool:
        """Poll :meth:`ping` until the service answers; True when it did."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                self.ping()
                return True
            except (ServeConnectionError, ProtocolError, OSError):
                time.sleep(interval)
        return False
