"""Process lifecycle: the one fork / beat / reap / kill primitive.

Every layer that runs work in forked children — the pymp regions and
their :class:`repro.resilience.supervise.Supervisor`, the serve
executor, the elastic formation pool, the fleet's shard processes and
the MPI-like launcher — goes through this module for the parts of a
child's life that must not differ between them:

* :class:`HeartbeatBoard` — per-worker progress rows in anonymous
  shared memory, so the parent can tell *slow* from *dead*;
* :func:`kill_process` — the SIGTERM → grace → SIGKILL ladder, always
  ending in a reap;
* :func:`reap_children` — a completion-order (``WNOHANG`` + backoff)
  join of a fixed set of children, with a hook for watchdogs;
* :class:`WorkerGroup` — slots of long-lived children, each with a
  framed ``socketpair`` channel, a per-slot generation counter and a
  fresh heartbeat row per spawned child; it offers a non-blocking exit
  poll, a stall check against the board, kill, respawn, drain and stop.

Callers keep only their policy on top: salvage (executor), leases,
quarantine and resize (elastic), routing (fleet).  This is the only
module that calls ``os.waitpid``, and — apart from the body-returning
fork of :class:`repro.parallel.pymp.Parallel` — the only one that
forks.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
import traceback
from typing import Callable, Sequence

import numpy as np

#: Backoff bounds (seconds) of the reap and stop polls: start fine, so
#: a fault-free join costs about what a blocking ``waitpid`` does, and
#: back off while the children are genuinely busy.
_NAP_MIN = 0.001
_NAP_MAX = 0.05


class HeartbeatBoard:
    """Per-worker progress slots in anonymous shared memory.

    One row per worker: ``[items_done, items_assigned, last_beat
    (monotonic seconds), state]``.  Rows live in anonymous
    ``MAP_SHARED`` mappings (:func:`repro.parallel.pymp.shared_array`),
    so each mapping must be created *before* the fork of any worker
    that will write to it; a tick is two array stores plus one
    ``time.monotonic`` call — cheap enough for per-item use.
    ``dump()`` serialises a snapshot for error payloads and events.

    The board is *growable*: :meth:`grow` appends a fresh shared
    segment of rows (again, pre-fork) so a :class:`WorkerGroup` can
    give every spawned child its own row.  Existing rows — and the
    mappings already inherited by running children — are untouched,
    so pre-growth workers keep beating into the same memory.
    """

    STATE_STARTING = 0.0
    STATE_RUNNING = 1.0
    STATE_DONE = 2.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._segments: list[np.ndarray] = [self._segment(workers)]

    @staticmethod
    def _segment(rows: int) -> np.ndarray:
        # Imported here: repro.parallel imports this module at load time.
        from repro.parallel.pymp import shared_array

        segment = shared_array((int(rows), 4), dtype=np.float64)
        segment[:, 2] = time.monotonic()
        return segment

    @property
    def workers(self) -> int:
        """Total rows across all segments (grows with :meth:`grow`)."""
        return sum(seg.shape[0] for seg in self._segments)

    def grow(self, extra: int = 1) -> int:
        """Append ``extra`` rows in a new shared segment; return the
        index of the first new row.

        Must be called in the parent *before* forking the workers that
        will own the new rows — children forked earlier cannot see the
        new mapping (and never need to: rows are single-writer).
        """
        if extra < 1:
            raise ValueError(f"extra must be >= 1, got {extra}")
        first_new = self.workers
        self._segments.append(self._segment(extra))
        return first_new

    def _row(self, worker: int) -> np.ndarray:
        if worker < 0:
            raise IndexError(f"worker index must be >= 0, got {worker}")
        for seg in self._segments:
            rows = seg.shape[0]
            if worker < rows:
                return seg[worker]
            worker -= rows
        raise IndexError(f"worker {worker + self.workers} out of range")

    # -- worker side ---------------------------------------------------------

    def assign(self, worker: int, total: int) -> None:
        row = self._row(worker)
        row[1] = float(total)
        row[2] = time.monotonic()
        row[3] = self.STATE_RUNNING

    def provisional_assign(self, worker: int, amount: float) -> None:
        """Parent-side estimate of a share size, pre-fork.

        Overwritten by the worker's own :meth:`assign` once it knows
        its exact share; keeps ``progress()`` denominators meaningful
        from the first poll."""
        self._row(worker)[1] = float(amount)

    def tick(self, worker: int, advance: int = 1) -> None:
        row = self._row(worker)
        row[0] += float(advance)
        row[2] = time.monotonic()

    def mark_done(self, worker: int) -> None:
        row = self._row(worker)
        row[2] = time.monotonic()
        row[3] = self.STATE_DONE

    # -- parent side ---------------------------------------------------------

    def items_done(self, worker: int) -> int:
        return int(self._row(worker)[0])

    def is_done(self, worker: int) -> bool:
        return self._row(worker)[3] == self.STATE_DONE

    def age(self, worker: int, now: float | None = None) -> float:
        """Seconds since the worker's last heartbeat."""
        now = time.monotonic() if now is None else now
        return now - float(self._row(worker)[2])

    def progress(self) -> tuple[int, int]:
        """(items done, items assigned) across the whole board."""
        done = sum(float(seg[:, 0].sum()) for seg in self._segments)
        assigned = sum(float(seg[:, 1].sum()) for seg in self._segments)
        return int(done), int(assigned)

    def dump(self, now: float | None = None) -> dict[int, dict[str, float]]:
        """Snapshot per-rank progress for error payloads and events."""
        now = time.monotonic() if now is None else now
        out: dict[int, dict[str, float]] = {}
        w = 0
        for seg in self._segments:
            for i in range(seg.shape[0]):
                out[w] = {
                    "items_done": float(seg[i, 0]),
                    "items_assigned": float(seg[i, 1]),
                    "age_seconds": round(now - float(seg[i, 2]), 4),
                    "done": bool(seg[i, 3] == self.STATE_DONE),
                }
                w += 1
        return out


def _reap(pid: int, block: bool = False) -> int | None:
    """``pid``'s exit code if it has exited (reaping it), else None.

    Negative codes are signal numbers.  A child someone else already
    reaped reads as a clean exit: no status survives to report.
    """
    try:
        wpid, status = os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:  # pragma: no cover - stolen reap
        return 0
    if wpid == 0:
        return None
    return os.waitstatus_to_exitcode(status)


def kill_process(
    pid: int, term_grace: float = 1.0, poll_interval: float = 0.02
) -> int:
    """SIGTERM, wait ``term_grace`` seconds, SIGKILL; returns the exit code.

    The one escalation ladder every layer retires a child with — the
    region :class:`repro.resilience.supervise.Supervisor` and
    :class:`WorkerGroup` (so the serve executor, the elastic pool, the
    fleet's shards and the MPI launcher): polite first (atexit/finally
    blocks get to run), forceful after the grace window, and always
    reaped — the return value is the child's exit code (negative signal
    number when it died to a signal).
    """
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pass
    t_end = time.monotonic() + term_grace
    while True:
        code = _reap(pid)
        if code is not None:
            return code
        if time.monotonic() >= t_end:
            break
        time.sleep(min(poll_interval, 0.01))
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - reaped elsewhere
        pass
    return _reap(pid, block=True)


def reap_children(
    pids: Sequence[int],
    *,
    watch: Callable[[dict[int, int], list[tuple[int, int]]], None] | None = None,
    max_nap: float = _NAP_MAX,
) -> list[tuple[int, int]]:
    """Reap ``pids`` in *completion* order; return the failures.

    Rank ``i + 1`` is ``pids[i]`` (rank 0 is a region's parent).  A
    blocking rank-ordered join would let a hung rank 1 mask rank 3's
    crash diagnostics forever, so each sweep polls every pending child
    without blocking and sleeps with backoff (up to ``max_nap``) only
    while nothing exits.  After every sweep that leaves children
    pending, ``watch(pending, failures)`` may retire ranks itself
    (popping them from ``pending`` and appending their ``(rank,
    code)``), which is how the supervisor's watchdog and deadline plug
    in.  Returns the nonzero ``(rank, exit_code)`` pairs sorted by rank.
    """
    pending = {rank + 1: pid for rank, pid in enumerate(pids)}
    failures: list[tuple[int, int]] = []
    nap = _NAP_MIN
    while pending:
        progressed = False
        for rank in sorted(pending):
            code = _reap(pending[rank])
            if code is None:
                continue
            del pending[rank]
            progressed = True
            if code != 0:
                failures.append((rank, code))
        if pending and watch is not None:
            watch(pending, failures)
        if progressed:
            nap = _NAP_MIN
        elif pending:
            time.sleep(nap)
            nap = min(nap * 2.0, max_nap)
    failures.sort(key=lambda rc: rc[0])
    return failures


class Child:
    """One member of a :class:`WorkerGroup`.

    In the parent it is the handle (``sock`` is the parent end of the
    channel); inside the forked child it is what ``main`` receives
    (``sock`` is the child end, ``row`` the heartbeat row to tick).
    ``generation`` counts earlier spawns into the same slot (0 = the
    original); ``ident`` numbers every spawn of the group from 1.
    """

    __slots__ = (
        "slot",
        "generation",
        "ident",
        "row",
        "sock",
        "pid",
        "draining",
        "exit_code",
    )

    def __init__(
        self, slot: int, generation: int, ident: int, row: int, sock: socket.socket
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.ident = ident
        self.row = row
        self.sock = sock
        self.pid: int | None = None
        self.draining = False
        self.exit_code: int | None = None

    def __repr__(self) -> str:
        return (
            f"Child(slot={self.slot}, generation={self.generation}, "
            f"ident={self.ident}, pid={self.pid})"
        )


class WorkerGroup:
    """Slots of forked children running ``main(child)``.

    ``children`` lists the members not yet reaped, in spawn order; a
    slot has at most one non-draining member (:meth:`current`), and a
    draining member may outlive its slot's successor — it has its own
    heartbeat row, so the two never share one.  Thread-safe: the serve
    executor drives each slot from its own dispatcher thread.
    """

    def __init__(
        self,
        slots: int,
        main: Callable[[Child], object],
        *,
        term_grace: float = 1.0,
        poll_interval: float = 0.02,
    ) -> None:
        # Rows exist before the first fork so every child shares them.
        self.board = HeartbeatBoard(slots)
        self.main = main
        self.term_grace = float(term_grace)
        self.poll_interval = float(poll_interval)
        self.children: list[Child] = []
        self.spawned = 0
        self._generations: dict[int, int] = {}
        self._next_row = 0
        self._lock = threading.RLock()

    def current(self, slot: int) -> Child | None:
        """The slot's live, non-draining member, if any."""
        with self._lock:
            for child in self.children:
                if child.slot == slot and not child.draining:
                    return child
        return None

    def spawn(self, slot: int) -> Child:
        """Fork a fresh member into ``slot`` (which must be vacant)."""
        with self._lock:
            if self.current(slot) is not None:
                raise ValueError(f"slot {slot} already has a live member")
            generation = self._generations.get(slot, 0)
            self._generations[slot] = generation + 1
            self.spawned += 1
            if self._next_row < self.board.workers:
                row = self._next_row
            else:
                row = self.board.grow(1)
            self._next_row = row + 1
            self.board.assign(row, 0)  # a fresh heartbeat, pre-fork
            parent_sock, child_sock = socket.socketpair()
            child = Child(slot, generation, self.spawned, row, child_sock)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child process, exits via os._exit
                code = 1
                try:
                    parent_sock.close()
                    # Drop siblings' parent ends, so closing one is an EOF.
                    for sibling in self.children:
                        sibling.sock.close()
                    self.main(child)
                    code = 0
                except BaseException:
                    traceback.print_exc(file=sys.stderr)
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(code)
            child_sock.close()
            child.sock = parent_sock
            child.pid = pid
            self.children.append(child)
            return child

    def poll(self) -> list[Child]:
        """Reap every member that has exited, without blocking.

        Returns the reaped members with ``exit_code`` set; they leave
        ``children`` and their channels are closed.
        """
        exited = []
        with self._lock:  # reap and forget together: no signal after reap
            for child in list(self.children):
                code = _reap(child.pid)
                if code is not None:
                    child.exit_code = code
                    self._forget(child)
                    exited.append(child)
        return exited

    def age(self, child: Child, now: float | None = None) -> float:
        """Seconds since ``child``'s last heartbeat."""
        return self.board.age(child.row, now)

    def stalled(self, limit: float, now: float | None = None) -> list[Child]:
        """Members not marked done whose heartbeat is older than ``limit``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            members = list(self.children)
        return [
            child
            for child in members
            if not self.board.is_done(child.row)
            and self.board.age(child.row, now) > limit
        ]

    def kill(self, child: Child) -> int:
        """Retire ``child`` through :func:`kill_process`; its exit code."""
        self._forget(child)
        child.exit_code = kill_process(
            child.pid, term_grace=self.term_grace, poll_interval=self.poll_interval
        )
        return child.exit_code

    def respawn(self, child: Child) -> Child:
        """Kill ``child`` if it still runs, then spawn its slot afresh."""
        if child in self.children:
            self.kill(child)
        return self.spawn(child.slot)

    def signal(self, child: Child, signum: int) -> None:
        """Deliver ``signum`` to a member not yet reaped (fault drills);
        the next :meth:`poll` reaps it if it dies.  A reaped member's
        pid may already belong to another process, so it is skipped."""
        with self._lock:
            if child in self.children:
                os.kill(child.pid, signum)

    def drain(self, child: Child) -> None:
        """Let ``child`` finish its current work, then exit.

        Half-closes the channel: the child's next read sees EOF, while
        the results it still writes keep arriving.  The slot is free
        for a successor at once.
        """
        child.draining = True
        try:
            child.sock.shutdown(socket.SHUT_WR)
        except OSError:  # pragma: no cover - peer already gone
            pass

    def stop(self, grace: float | None = None) -> None:
        """Retire every member: EOF on each channel, then up to
        ``grace`` seconds (default ``term_grace``) of clean exits, then
        :func:`kill_process` for whoever is left."""
        grace = self.term_grace if grace is None else grace
        with self._lock:
            for child in self.children:
                child.sock.close()
        t_end = time.monotonic() + grace
        nap = _NAP_MIN
        while self.children and time.monotonic() < t_end:
            if not self.poll():
                time.sleep(nap)
                nap = min(nap * 2.0, _NAP_MAX)
        for child in list(self.children):
            self.kill(child)

    def _forget(self, child: Child) -> None:
        with self._lock:
            child.sock.close()
            if child in self.children:
                self.children.remove(child)
