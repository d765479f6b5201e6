"""Request batching: coalesce compatible requests into one formation pass.

Two requests are *compatible* — and may share a batch — when they
agree on what the formation stage depends on: the device side ``n``.
A batch then pays the per-``n`` template lookup, the Jacobian-structure
derivation and the Laplacian-pinv factorisation once, and every member
after the first is stamped/solved against warm caches (the measured
win is the ``serve.latency.{cold,warm}`` histogram split; see
``docs/SERVING.md``).

The coalescing policy is deliberately simple, work-conserving and
starvation-free:

1. block for the *oldest* ticket (strict FIFO head);
2. sweep in every ticket already queued with the same
   :func:`batch_key`, up to ``max_batch`` — never wait for more, so a
   lone request is dispatched the moment it is admitted;
3. never reorder across keys — a ticket only jumps the queue when the
   head of the queue already committed its key.

Solver knobs (method, threshold, per-request deadline) intentionally
do **not** participate in the key: they differ per member and are
honoured per member during execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.serve.queue import AdmissionQueue, Ticket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.serve.protocol import Request

#: Upper bound any service places on one batch (queue depth aside).
MAX_BATCH_LIMIT = 256


def batch_key(request: "Request") -> int:
    """The compatibility key for one request: its device side ``n``."""
    return request.n


@dataclass(frozen=True)
class Batch:
    """An ordered group of compatible tickets executed as one pass."""

    #: Device side length shared by every member (the batch key).
    n: int
    tickets: tuple[Ticket, ...]

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return len(self.tickets)


class Batcher:
    """Pulls tickets off an :class:`AdmissionQueue` in compatible batches.

    Parameters
    ----------
    queue:
        The admission queue to consume.
    max_batch:
        Hard cap on members per batch (1 disables coalescing).
    """

    def __init__(self, queue: AdmissionQueue, max_batch: int = 8) -> None:
        if not 1 <= max_batch <= MAX_BATCH_LIMIT:
            raise ValueError(
                f"max_batch must be in [1, {MAX_BATCH_LIMIT}], got {max_batch}"
            )
        self.queue = queue
        self.max_batch = int(max_batch)

    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """Block for the next batch; None on timeout or drained-empty.

        The head ticket commits the batch key, and the compatible
        tickets already queued join it; nothing waits for later ones.
        """
        head = self.queue.take(timeout=timeout)
        if head is None:
            return None
        key = batch_key(head.request)
        followers = self.queue.take_matching(
            lambda req: batch_key(req) == key, self.max_batch - 1
        )
        return Batch(n=key, tickets=(head, *followers))
