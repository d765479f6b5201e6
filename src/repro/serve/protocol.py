"""Wire protocol for the solve service: framing, schema, status codes.

One message is one :mod:`repro.parallel.codec` frame — a 4-byte
big-endian length prefix followed by that many bytes of UTF-8 JSON,
bounded by :data:`MAX_MESSAGE_BYTES`.  JSON keeps the protocol debuggable (``socat``
against the socket shows readable requests) and — because Python's
``json`` serializes floats with shortest round-tripping ``repr`` — a
resistance field survives the wire *bit-identically*, which the
integration tests assert against standalone ``parma solve``.

Statuses map onto process exit codes so ``parma submit`` behaves like
the batch CLI it replaces: ``ok`` → 0, ``failed`` → 1, ``invalid`` →
2, ``deadline-exceeded`` → 94 (the same
:data:`repro.resilience.supervise.DEADLINE_EXIT_CODE` the batch
``--deadline`` path uses), and every retriable rejection — queue
full, draining, quota exhausted, executor worker lost — → 75
(``EX_TEMPFAIL``; the request holds no partial server-side state and
may be retried verbatim, carrying the same idempotency ``id``).  See
``docs/SERVING.md`` for the full table.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field

import numpy as np

from repro.parallel import codec
from repro.parallel.codec import MAX_MESSAGE_BYTES as MAX_MESSAGE_BYTES
from repro.parallel.codec import ProtocolError
from repro.resilience.supervise import DEADLINE_EXIT_CODE


# -- statuses -----------------------------------------------------------------

#: Request ran to a converged result; manifest written.
STATUS_OK = "ok"
#: Request ran and failed (solver exhausted, validation error, ...).
STATUS_FAILED = "failed"
#: Request was malformed and never admitted (bad shape, unknown knob).
STATUS_INVALID = "invalid"
#: The per-request wall-clock budget expired mid-run.
STATUS_DEADLINE = "deadline-exceeded"
#: Admission control: the bounded queue was at depth; retry later.
STATUS_QUEUE_FULL = "rejected-queue-full"
#: Admission control: the service is draining (SIGTERM); retry against
#: the next instance.
STATUS_DRAINING = "rejected-draining"
#: The executor worker running the request died (segfault, OOM kill,
#: stall past ``--stall-timeout``) before producing a result.  The
#: service itself survived; a retry re-runs the solve from scratch.
STATUS_WORKER_LOST = "worker-lost"
#: Admission control: the client's token-bucket quota was empty.
STATUS_QUOTA = "rejected-quota"

#: Statuses a client may retry verbatim.  Admission rejections never
#: touched an engine; ``worker-lost`` means the executor died before a
#: result frame was written, so no partial server-side state survives
#: and a retry (same idempotency ``id``) duplicates no work.
RETRIABLE_STATUSES = frozenset(
    {STATUS_QUEUE_FULL, STATUS_DRAINING, STATUS_WORKER_LOST, STATUS_QUOTA}
)

# -- priority classes ---------------------------------------------------------

#: Latency-sensitive work: dequeued ahead of ``batch`` and never shed
#: while lower-priority tickets remain.
PRIORITY_INTERACTIVE = "interactive"
#: Throughput work (the default): first to be shed under overload.
PRIORITY_BATCH = "batch"

#: All priority classes, most urgent first.  Index order is the
#: dequeue order and the *reverse* of the shedding order.
PRIORITY_CLASSES = (PRIORITY_INTERACTIVE, PRIORITY_BATCH)

#: Exit status ``parma submit`` returns for retriable rejections
#: (sysexits.h ``EX_TEMPFAIL``, the conventional "try again" code,
#: distinct from 1/2 failures and the deadline's 94).
RETRIABLE_EXIT_CODE = 75

_EXIT_FOR_STATUS = {
    STATUS_OK: 0,
    STATUS_FAILED: 1,
    STATUS_INVALID: 2,
    STATUS_DEADLINE: DEADLINE_EXIT_CODE,
    STATUS_QUEUE_FULL: RETRIABLE_EXIT_CODE,
    STATUS_DRAINING: RETRIABLE_EXIT_CODE,
    STATUS_WORKER_LOST: RETRIABLE_EXIT_CODE,
    STATUS_QUOTA: RETRIABLE_EXIT_CODE,
}


def exit_status_for(status: str) -> int:
    """Process exit status ``parma submit`` maps a response status to."""
    try:
        return _EXIT_FOR_STATUS[status]
    except KeyError:
        raise ValueError(f"unknown response status {status!r}") from None


# -- schema -------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One parametrization request as it crosses the wire.

    The measurement travels inline (``z`` as nested lists) so the
    server never dereferences client-side paths; ``deadline`` is a
    per-request wall-clock budget in seconds, capped by the service's
    ``max_deadline`` at admission (see
    :meth:`repro.resilience.supervise.Deadline.capped`).  ``priority``
    selects the admission class (one of :data:`PRIORITY_CLASSES`) and
    ``client_id`` keys per-client token-bucket quotas (empty string =
    unmetered).  ``id`` doubles as the idempotency key: a retried
    request carrying the same ``id`` joins the in-flight ticket or
    returns the cached completed response instead of re-solving.
    """

    z: list
    voltage: float = 5.0
    hour: float = 0.0
    solver: str = "nested"
    threshold_sigmas: float = 3.0
    validate: str = "strict"
    deadline: float | None = None
    solver_kwargs: dict = field(default_factory=dict)
    want_field: bool = True
    id: str | None = None
    priority: str = PRIORITY_BATCH
    client_id: str = ""

    @property
    def n(self) -> int:
        """Device side length implied by the inline measurement."""
        return len(self.z)

    def z_array(self) -> np.ndarray:
        """The measurement as a float64 ndarray (shape-checked)."""
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] != z.shape[1] or z.shape[0] < 2:
            raise ValueError(
                f"z must be a square matrix with n >= 2, got shape {z.shape}"
            )
        return z

    def to_dict(self) -> dict:
        """The JSON-ready ``solve`` message for this request."""
        return {
            "kind": "solve",
            "id": self.id,
            "z": self.z,
            "voltage": self.voltage,
            "hour": self.hour,
            "solver": self.solver,
            "threshold_sigmas": self.threshold_sigmas,
            "validate": self.validate,
            "deadline": self.deadline,
            "solver_kwargs": dict(self.solver_kwargs),
            "want_field": self.want_field,
            "priority": self.priority,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, message: dict) -> "Request":
        """Parse a ``solve`` message; raises ``ValueError`` when malformed."""
        if not isinstance(message, dict):
            raise ValueError("request must be a JSON object")
        z = message.get("z")
        if not isinstance(z, list) or not z:
            raise ValueError("request field 'z' must be a non-empty list")
        kwargs = message.get("solver_kwargs") or {}
        if not isinstance(kwargs, dict):
            raise ValueError("request field 'solver_kwargs' must be an object")
        priority = str(message.get("priority", PRIORITY_BATCH))
        if priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority {priority!r}; "
                f"expected one of {PRIORITY_CLASSES}"
            )
        return cls(
            z=z,
            voltage=float(message.get("voltage", 5.0)),
            hour=float(message.get("hour", 0.0)),
            solver=str(message.get("solver", "nested")),
            threshold_sigmas=float(message.get("threshold_sigmas", 3.0)),
            validate=str(message.get("validate", "strict")),
            deadline=(
                None if message.get("deadline") is None
                else float(message["deadline"])
            ),
            solver_kwargs=dict(kwargs),
            want_field=bool(message.get("want_field", True)),
            id=(None if message.get("id") is None else str(message["id"])),
            priority=priority,
            client_id=str(message.get("client_id", "")),
        )


@dataclass(frozen=True)
class Response:
    """What the service answers for one request.

    ``manifest_path`` points at the per-request run manifest written
    through :mod:`repro.observe` (absent for rejected/invalid
    requests); ``batch_size`` and ``cache_warm`` describe how the
    request was executed (how many compatible requests shared its
    formation pass, and whether the per-``n`` template was already
    resident); ``queue_seconds``/``elapsed_seconds`` split latency
    into waiting and working.
    """

    id: str
    status: str
    summary: str = ""
    error: str = ""
    manifest_path: str | None = None
    num_regions: int = 0
    resistance: list | None = None
    events: tuple[str, ...] = ()
    batch_size: int = 0
    cache_warm: bool = False
    queue_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the request ran to a converged result."""
        return self.status == STATUS_OK

    @property
    def retriable(self) -> bool:
        """True when the request may be resubmitted verbatim."""
        return self.status in RETRIABLE_STATUSES

    @property
    def exit_status(self) -> int:
        """The process exit status this response maps to."""
        return exit_status_for(self.status)

    def resistance_array(self) -> np.ndarray | None:
        """The recovered field as an ndarray (None when not carried)."""
        if self.resistance is None:
            return None
        return np.asarray(self.resistance, dtype=np.float64)

    def to_dict(self) -> dict:
        """The JSON-ready response message."""
        return {
            "kind": "result",
            "id": self.id,
            "status": self.status,
            "exit_status": self.exit_status,
            "summary": self.summary,
            "error": self.error,
            "manifest_path": self.manifest_path,
            "num_regions": self.num_regions,
            "resistance": self.resistance,
            "events": list(self.events),
            "batch_size": self.batch_size,
            "cache_warm": self.cache_warm,
            "queue_seconds": self.queue_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, message: dict) -> "Response":
        """Parse a ``result`` message; raises ``ValueError`` when malformed."""
        if not isinstance(message, dict) or "status" not in message:
            raise ValueError("response must be a JSON object with a status")
        status = str(message["status"])
        exit_status_for(status)  # reject unknown statuses early
        return cls(
            id=str(message.get("id", "")),
            status=status,
            summary=str(message.get("summary", "")),
            error=str(message.get("error", "")),
            manifest_path=message.get("manifest_path"),
            num_regions=int(message.get("num_regions", 0)),
            resistance=message.get("resistance"),
            events=tuple(message.get("events") or ()),
            batch_size=int(message.get("batch_size", 0)),
            cache_warm=bool(message.get("cache_warm", False)),
            queue_seconds=float(message.get("queue_seconds", 0.0)),
            elapsed_seconds=float(message.get("elapsed_seconds", 0.0)),
        )


# -- framing ------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    """Frame a JSON-able dict as length-prefixed UTF-8 bytes."""
    return codec.encode_frame(message, codec.JSON)


def send_message(sock: socket.socket, message: dict) -> None:
    """Write one framed message to a connected socket."""
    codec.send_frame(sock, message, codec.JSON)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed message; None when the peer closed cleanly."""
    message = codec.recv_frame(sock, codec.JSON)
    if message is not None and not isinstance(message, dict):
        raise ProtocolError("message payload must be a JSON object")
    return message


# -- addresses ----------------------------------------------------------------


def parse_address(spec: object) -> tuple[str, object]:
    """Classify a listen/connect spec as TCP or unix-domain.

    ``HOST:PORT`` — an all-digit port after the last colon, no ``/``
    anywhere — means TCP, as does an explicit ``tcp://HOST:PORT``
    prefix.  Everything else is a filesystem path to a unix-domain
    socket.  Returns ``("tcp", (host, port))`` or ``("unix", path)``.

    An empty TCP host (``:7433``) resolves to ``127.0.0.1``: the safe
    default for a protocol with no authentication (see the security
    note in ``docs/SERVING.md``).  IPv6 literals are not parsed — put
    a resolver name or an IPv4 address in the host part.

    A ``(host, port)`` pair — the form ``getsockname`` returns and
    :attr:`SolveService.tcp_address` holds after binding port 0 — is
    accepted as TCP directly.
    """
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        host, port = spec
        return ("tcp", (str(host) or "127.0.0.1", int(port)))
    text = str(spec)
    explicit = text.startswith("tcp://")
    if explicit:
        text = text[len("tcp://"):]
    if "/" not in text and ":" in text:
        host, _, port = text.rpartition(":")
        if port.isdigit():
            return ("tcp", (host or "127.0.0.1", int(port)))
    if explicit:
        raise ValueError(f"malformed tcp address {spec!r} (want HOST:PORT)")
    return ("unix", str(spec))


def format_address(spec: object) -> str:
    """A human-readable rendering of a parsed or raw address spec."""
    kind, target = parse_address(spec)
    if kind == "tcp":
        host, port = target
        return f"{host}:{port}"
    return str(target)


def connect_address(spec: object, timeout: float | None = None) -> socket.socket:
    """Open a stream connection to ``spec``.

    TCP or unix, per :func:`parse_address`.  Raises the underlying
    ``OSError`` family untranslated — callers own the retry/error
    story.
    """
    kind, target = parse_address(spec)
    family = socket.AF_INET if kind == "tcp" else socket.AF_UNIX
    sock = socket.socket(family, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(target if kind == "tcp" else str(target))
    except BaseException:
        sock.close()
        raise
    return sock
