"""The worker-group primitive: a stateful property test plus unit cases.

Every example forks real processes, so the machine stays small: at
most three slots, about ten steps, and a few live children at a time.
"""

import os
import select
import signal
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.parallel import codec
from repro.parallel.pymp import fork_available
from repro.resilience.workers import WorkerGroup, kill_process, reap_children

pytestmark = pytest.mark.skipif(not fork_available(), reason="requires os.fork")

MAX_SLOTS = 3
#: Heartbeat age past which a silenced child must count as stalled.
STALL = 0.15
BEAT = 0.01


def _beat_until_eof(board, child) -> None:
    """Child body: beat every ``BEAT`` seconds until the channel EOFs;
    on ``"hang"``, acknowledge and go silent (alive, no heartbeat)."""
    while True:
        board.tick(child.row, 0)
        if not select.select([child.sock], [], [], BEAT)[0]:
            continue
        message = codec.recv_frame(child.sock, codec.PICKLE)
        if message is None:
            return
        if message == "hang":
            codec.send_frame(child.sock, "hung", codec.PICKLE)
            while True:
                time.sleep(1.0)


def _assert_no_children(pids=()) -> None:
    """No zombie anywhere, and none of ``pids`` still running.

    In a process without other children ``waitpid(-1, WNOHANG)``
    raises; a test session may also hold unrelated live helpers (such
    as multiprocessing's resource tracker), which read as ``(0, 0)``.
    """
    try:
        reaped = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    assert reaped == (0, 0), f"a zombie was left behind: {reaped}"
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _wait_reaped(group, child, timeout: float = 5.0) -> list:
    """Poll until ``child`` is reaped; returns everything reaped."""
    reaped = []
    t_end = time.monotonic() + timeout
    while child.exit_code is None:
        assert time.monotonic() < t_end, f"{child} never exited"
        reaped += group.poll()
        time.sleep(0.005)
    return reaped


class WorkerGroupMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.group = self._new_group()
        self.active: set[int] = set()
        self.last_generation: dict[int, int] = {}
        self.last_ident = 0
        self.pids: list[int] = []

    def _new_group(self) -> WorkerGroup:
        return WorkerGroup(
            MAX_SLOTS,
            lambda child: _beat_until_eof(self.group.board, child),
            term_grace=0.1,
            poll_interval=0.01,
        )

    def _note_spawn(self, child) -> None:
        assert child.generation > self.last_generation.get(child.slot, -1)
        assert child.ident > self.last_ident
        self.last_generation[child.slot] = child.generation
        self.last_ident = child.ident
        self.active.add(child.slot)
        self.pids.append(child.pid)

    def _check_reaped(self, reaped) -> None:
        for child in reaped:
            if child.draining:
                assert child.exit_code == 0  # drained at the channel EOF

    @rule(slot=st.integers(0, MAX_SLOTS - 1))
    def spawn(self, slot):
        if slot in self.active:
            with pytest.raises(ValueError):
                self.group.spawn(slot)
            return
        self._note_spawn(self.group.spawn(slot))

    @rule(slot=st.integers(0, MAX_SLOTS - 1))
    def sigkill_and_respawn(self, slot):
        child = self.group.current(slot)
        if child is None:
            return
        self.group.signal(child, signal.SIGKILL)
        self._check_reaped(_wait_reaped(self.group, child))
        assert child.exit_code == -signal.SIGKILL
        assert child not in self.group.children
        self.active.discard(slot)
        self._note_spawn(self.group.spawn(slot))

    @rule(slot=st.integers(0, MAX_SLOTS - 1))
    def silence_and_respawn(self, slot):
        child = self.group.current(slot)
        if child is None:
            return
        child.sock.settimeout(5.0)
        codec.send_frame(child.sock, "hang", codec.PICKLE)
        assert codec.recv_frame(child.sock, codec.PICKLE) == "hung"
        time.sleep(STALL * 1.5)  # its last beat came before the ack
        assert child in self.group.stalled(STALL)
        replacement = self.group.respawn(child)
        assert child.exit_code is not None  # killed and reaped
        self._note_spawn(replacement)

    @rule(slot=st.integers(0, MAX_SLOTS - 1))
    def drain(self, slot):
        child = self.group.current(slot)
        if child is None:
            return
        self.group.drain(child)
        assert self.group.current(slot) is None
        self.active.discard(slot)

    @rule()
    def poll(self):
        reaped = self.group.poll()
        assert all(child.draining for child in reaped)
        self._check_reaped(reaped)

    @rule()
    def stop(self):
        self.group.stop()
        assert not self.group.children
        _assert_no_children(self.pids)
        self.group = self._new_group()
        self.active.clear()
        self.last_generation.clear()
        self.last_ident = 0

    @invariant()
    def one_live_child_per_active_slot(self):
        for slot in range(MAX_SLOTS):
            live = [
                c for c in self.group.children if c.slot == slot and not c.draining
            ]
            assert len(live) == (1 if slot in self.active else 0)

    @invariant()
    def no_two_live_children_share_a_row(self):
        rows = [child.row for child in self.group.children]
        assert len(rows) == len(set(rows))

    def teardown(self):
        self.group.stop()
        _assert_no_children(self.pids)


WorkerGroupMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)
TestWorkerGroupMachine = WorkerGroupMachine.TestCase


class TestPrimitives:
    def test_reap_children_reports_failures_by_rank(self):
        pids = []
        for code in (0, 3, 0, 5):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                os._exit(code)
            pids.append(pid)
        assert reap_children(pids) == [(2, 3), (4, 5)]
        _assert_no_children(pids)

    def test_kill_process_escalates_past_an_ignored_sigterm(self):
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(1.0)
        time.sleep(0.05)
        assert kill_process(pid, term_grace=0.1) == -signal.SIGKILL

    def test_drained_child_still_delivers_its_results(self):
        def main(child):
            while codec.recv_frame(child.sock, codec.PICKLE) is not None:
                pass
            codec.send_frame(child.sock, "bye", codec.PICKLE)

        group = WorkerGroup(1, main, term_grace=0.1)
        child = group.spawn(0)
        group.drain(child)
        successor = group.spawn(0)  # the slot is free at once
        assert successor.row != child.row
        child.sock.settimeout(5.0)
        assert codec.recv_frame(child.sock, codec.PICKLE) == "bye"
        _wait_reaped(group, child)
        assert child.exit_code == 0
        group.stop()
        _assert_no_children([child.pid, successor.pid])

    def test_failing_main_exits_nonzero(self):
        def main(child):
            raise RuntimeError("boom")

        group = WorkerGroup(1, main)
        child = group.spawn(0)
        _wait_reaped(group, child)
        assert child.exit_code == 1

    def test_threads_churning_their_own_slots(self):
        """The serve executor drives each slot from its own dispatcher
        thread: concurrent spawns must never share an id or a row."""
        group = WorkerGroup(
            2, lambda child: codec.recv_frame(child.sock, codec.PICKLE),
            term_grace=0.5,
        )
        spawned = []
        lock = threading.Lock()

        def churn(slot):
            for _ in range(3):
                child = group.spawn(slot)
                with lock:
                    spawned.append(child)
                group.kill(child)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
            group.stop()
        assert len(spawned) == 12
        assert len({child.ident for child in spawned}) == 12
        assert len({child.row for child in spawned}) == 12
        for slot in range(4):
            generations = [c.generation for c in spawned if c.slot == slot]
            assert generations == [0, 1, 2]
        _assert_no_children([child.pid for child in spawned])
