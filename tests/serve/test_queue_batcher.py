"""Admission-queue and batcher unit tests (no sockets, no engines)."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import Batch, Batcher, batch_key
from repro.serve.protocol import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    Request,
    Response,
)
from repro.serve.queue import (
    AdmissionQueue,
    QueueDraining,
    QueueFull,
    QuotaExceeded,
    Ticket,
    TokenBucket,
)


def _request(
    n: int = 4,
    rid: str | None = None,
    priority: str = PRIORITY_BATCH,
    client_id: str = "",
):
    return Request(
        z=[[1000.0] * n for _ in range(n)],
        id=rid,
        priority=priority,
        client_id=client_id,
    )


def _age(ticket: Ticket, seconds: float) -> None:
    """Pretend the ticket was admitted ``seconds`` ago."""
    ticket.enqueued_at -= seconds


class TestTicket:
    def test_resolve_wakes_waiter(self):
        ticket = Ticket(_request())
        response = Response(id="x", status="ok")

        def resolver():
            time.sleep(0.02)
            ticket.resolve(response)

        thread = threading.Thread(target=resolver)
        thread.start()
        assert ticket.wait(timeout=5.0) == response
        thread.join()
        assert ticket.resolved

    def test_wait_timeout_returns_none(self):
        assert Ticket(_request()).wait(timeout=0.01) is None

    def test_double_resolve_is_an_error(self):
        ticket = Ticket(_request())
        ticket.resolve(Response(id="x", status="ok"))
        with pytest.raises(RuntimeError, match="resolved twice"):
            ticket.resolve(Response(id="x", status="ok"))

    def test_try_resolve_is_first_wins(self):
        ticket = Ticket(_request())
        first = Response(id="x", status="ok")
        second = Response(id="x", status="worker-lost")
        assert ticket.try_resolve(first)
        assert not ticket.try_resolve(second)
        assert ticket.wait(timeout=1.0) == first

    @settings(deadline=None, max_examples=20)
    @given(racers=st.integers(min_value=2, max_value=8))
    def test_concurrent_resolve_exactly_once(self, racers):
        # The satellite property: a dying worker's salvage path and the
        # drain path may race to resolve the same ticket — exactly one
        # wins, and the delivered response is the winner's.
        ticket = Ticket(_request())
        barrier = threading.Barrier(racers)
        wins: list[int] = []
        lock = threading.Lock()

        def racer(rank: int) -> None:
            response = Response(id=str(rank), status="ok")
            barrier.wait()
            if ticket.try_resolve(response):
                with lock:
                    wins.append(rank)

        threads = [
            threading.Thread(target=racer, args=(r,)) for r in range(racers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(wins) == 1
        delivered = ticket.wait(timeout=1.0)
        assert delivered is not None
        assert delivered.id == str(wins[0])


class TestAdmissionQueue:
    def test_fifo_order(self):
        queue = AdmissionQueue(max_depth=8)
        for i in range(3):
            queue.submit(_request(rid=str(i)))
        assert [queue.take().request.id for _ in range(3)] == ["0", "1", "2"]

    def test_depth_bound_rejects(self):
        queue = AdmissionQueue(max_depth=2)
        queue.submit(_request())
        queue.submit(_request())
        with pytest.raises(QueueFull, match="depth bound"):
            queue.submit(_request())

    def test_take_timeout(self):
        queue = AdmissionQueue(max_depth=2)
        start = time.monotonic()
        assert queue.take(timeout=0.05) is None
        assert time.monotonic() - start < 2.0

    def test_drain_rejects_new_and_returns_queued(self):
        queue = AdmissionQueue(max_depth=8)
        queue.submit(_request(rid="a"))
        queue.submit(_request(rid="b"))
        abandoned = queue.drain()
        assert [t.request.id for t in abandoned] == ["a", "b"]
        assert queue.depth() == 0
        assert queue.draining
        with pytest.raises(QueueDraining):
            queue.submit(_request())
        # Second drain is a no-op.
        assert queue.drain() == []

    def test_take_returns_none_once_drained_empty(self):
        queue = AdmissionQueue(max_depth=4)
        queue.drain()
        assert queue.take(timeout=5.0) is None  # returns fast, no block

    def test_drain_wakes_blocked_taker(self):
        queue = AdmissionQueue(max_depth=4)
        result: list = ["unset"]

        def taker():
            result[0] = queue.take(timeout=10.0)

        thread = threading.Thread(target=taker)
        thread.start()
        time.sleep(0.05)
        queue.drain()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result[0] is None

    def test_take_matching_preserves_order_of_rest(self):
        queue = AdmissionQueue(max_depth=8)
        for rid, n in [("a", 4), ("b", 5), ("c", 4), ("d", 5)]:
            queue.submit(_request(n=n, rid=rid))
        taken = queue.take_matching(lambda req: req.n == 5, limit=10)
        assert [t.request.id for t in taken] == ["b", "d"]
        assert [queue.take().request.id for _ in range(2)] == ["a", "c"]

    def test_on_depth_callback_mirrors_depth(self):
        seen: list[int] = []
        queue = AdmissionQueue(max_depth=4, on_depth=seen.append)
        queue.submit(_request())
        queue.submit(_request())
        queue.take()
        assert seen == [1, 2, 1]

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_depth=0)


class TestPriorityAdmission:
    def test_interactive_dequeues_before_batch(self):
        queue = AdmissionQueue(max_depth=8)
        queue.submit(_request(rid="b1", priority=PRIORITY_BATCH))
        queue.submit(_request(rid="i1", priority=PRIORITY_INTERACTIVE))
        queue.submit(_request(rid="b2", priority=PRIORITY_BATCH))
        queue.submit(_request(rid="i2", priority=PRIORITY_INTERACTIVE))
        order = [queue.take().request.id for _ in range(4)]
        assert order == ["i1", "i2", "b1", "b2"]

    def test_aged_batch_ticket_bypasses_priority(self):
        queue = AdmissionQueue(max_depth=8, max_bypass_age=0.5)
        old = queue.submit(_request(rid="old-batch", priority=PRIORITY_BATCH))
        _age(old, 10.0)
        queue.submit(_request(rid="fresh-int", priority=PRIORITY_INTERACTIVE))
        # The anti-starvation bound: the aged batch ticket goes first.
        assert queue.take().request.id == "old-batch"
        assert queue.take().request.id == "fresh-int"

    def test_depths_counts_per_class(self):
        queue = AdmissionQueue(max_depth=8)
        queue.submit(_request(priority=PRIORITY_BATCH))
        queue.submit(_request(priority=PRIORITY_INTERACTIVE))
        queue.submit(_request(priority=PRIORITY_BATCH))
        assert queue.depths() == {
            PRIORITY_INTERACTIVE: 1,
            PRIORITY_BATCH: 2,
        }

    def test_interactive_sheds_newest_batch_when_full(self):
        shed: list[Ticket] = []
        queue = AdmissionQueue(max_depth=2, on_shed=shed.append)
        queue.submit(_request(rid="b-old", priority=PRIORITY_BATCH))
        queue.submit(_request(rid="b-new", priority=PRIORITY_BATCH))
        ticket = queue.submit(_request(rid="i", priority=PRIORITY_INTERACTIVE))
        assert ticket.request.id == "i"
        assert [t.request.id for t in shed] == ["b-new"]
        assert queue.depth() == 2
        remaining = [queue.take().request.id for _ in range(2)]
        assert remaining == ["i", "b-old"]

    def test_batch_overflow_still_queue_full(self):
        # Equal-priority saturation never churns queued work.
        queue = AdmissionQueue(max_depth=1)
        queue.submit(_request(rid="b1", priority=PRIORITY_BATCH))
        with pytest.raises(QueueFull, match="depth bound"):
            queue.submit(_request(rid="b2", priority=PRIORITY_BATCH))

    def test_interactive_overflow_with_no_batch_victim_rejects(self):
        queue = AdmissionQueue(max_depth=1)
        queue.submit(_request(rid="i1", priority=PRIORITY_INTERACTIVE))
        with pytest.raises(QueueFull):
            queue.submit(_request(rid="i2", priority=PRIORITY_INTERACTIVE))

    def test_queue_seconds_threshold_triggers_shedding(self):
        shed: list[Ticket] = []
        queue = AdmissionQueue(
            max_depth=64, max_queue_seconds=0.1, on_shed=shed.append
        )
        queue.note_service_time(1.0)  # every queued item ~1s of work
        queue.submit(_request(rid="b", priority=PRIORITY_BATCH))
        assert queue.estimated_queue_seconds() == pytest.approx(1.0)
        # Saturated on estimated wait, nowhere near the depth bound:
        # batch arrivals bounce, interactive sheds its way in.
        with pytest.raises(QueueFull):
            queue.submit(_request(rid="b2", priority=PRIORITY_BATCH))
        queue.submit(_request(rid="i", priority=PRIORITY_INTERACTIVE))
        assert [t.request.id for t in shed] == ["b"]

    def test_service_time_ewma_moves(self):
        queue = AdmissionQueue(max_depth=4)
        queue.note_service_time(1.0)
        queue.note_service_time(2.0)
        queue.submit(_request())
        est = queue.estimated_queue_seconds()
        assert 1.0 < est < 2.0


class TestQuotas:
    def test_token_bucket_spends_and_refills(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        t0 = time.monotonic()
        assert bucket.try_take(t0)
        assert bucket.try_take(t0)
        assert not bucket.try_take(t0)  # burst exhausted
        assert bucket.try_take(t0 + 0.2)  # 0.2s * 10/s = 2 tokens back

    def test_token_bucket_validates(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)

    def test_quota_rejects_chatty_client(self):
        queue = AdmissionQueue(max_depth=64, quota_rate=0.001, quota_burst=2.0)
        queue.submit(_request(rid="1", client_id="alice"))
        queue.submit(_request(rid="2", client_id="alice"))
        with pytest.raises(QuotaExceeded, match="alice"):
            queue.submit(_request(rid="3", client_id="alice"))
        # Distinct clients meter independently; anonymous is unmetered.
        queue.submit(_request(rid="4", client_id="bob"))
        for rid in ("5", "6", "7"):
            queue.submit(_request(rid=rid))

    def test_no_quota_configured_admits_everything(self):
        queue = AdmissionQueue(max_depth=64)
        for i in range(20):
            queue.submit(_request(rid=str(i), client_id="alice"))


class TestTakeMatchingFairness:
    def test_compatible_stream_cannot_starve_aged_incompatible(self):
        # The satellite regression: a stream of compatible (n=4)
        # requests behind an *aged* incompatible (n=5) head must not be
        # swept past it — the FIFO-age bound holds.
        queue = AdmissionQueue(max_depth=16, max_bypass_age=0.5)
        old = queue.submit(_request(n=5, rid="starved"))
        _age(old, 10.0)
        for rid in ("a", "b", "c"):
            queue.submit(_request(n=4, rid=rid))
        taken = queue.take_matching(lambda req: req.n == 4, limit=10)
        assert taken == []  # nothing may overtake the aged head
        assert queue.take().request.id == "starved"
        # With the aged head gone the stream coalesces normally.
        taken = queue.take_matching(lambda req: req.n == 4, limit=10)
        assert [t.request.id for t in taken] == ["a", "b", "c"]

    def test_young_incompatible_head_is_bypassed(self):
        queue = AdmissionQueue(max_depth=16, max_bypass_age=60.0)
        queue.submit(_request(n=5, rid="young"))
        queue.submit(_request(n=4, rid="a"))
        queue.submit(_request(n=4, rid="b"))
        taken = queue.take_matching(lambda req: req.n == 4, limit=10)
        assert [t.request.id for t in taken] == ["a", "b"]
        assert queue.take().request.id == "young"

    def test_sweep_stops_at_aged_ticket_mid_queue(self):
        queue = AdmissionQueue(max_depth=16, max_bypass_age=0.5)
        queue.submit(_request(n=4, rid="a"))
        aged = queue.submit(_request(n=5, rid="aged"))
        _age(aged, 10.0)
        queue.submit(_request(n=4, rid="behind"))
        taken = queue.take_matching(lambda req: req.n == 4, limit=10)
        # "a" is ahead of the aged ticket and may be taken; "behind"
        # must stay queued behind it.
        assert [t.request.id for t in taken] == ["a"]
        assert queue.take().request.id == "aged"
        assert queue.take().request.id == "behind"


class TestBatcher:
    def test_batch_key(self):
        assert batch_key(_request(n=4)) == 4
        assert batch_key(_request(n=5)) == 5

    def test_coalesces_same_key(self):
        queue = AdmissionQueue(max_depth=16)
        batcher = Batcher(queue, max_batch=8)
        for rid in "abc":
            queue.submit(_request(n=4, rid=rid))
        batch = batcher.next_batch(timeout=1.0)
        assert isinstance(batch, Batch)
        assert [t.request.id for t in batch.tickets] == ["a", "b", "c"]
        assert batch.size == 3 and batch.n == 4

    def test_different_keys_stay_separate(self):
        queue = AdmissionQueue(max_depth=16)
        batcher = Batcher(queue, max_batch=8)
        queue.submit(_request(n=4, rid="a"))
        queue.submit(_request(n=5, rid="x"))
        queue.submit(_request(n=4, rid="b"))
        first = batcher.next_batch(timeout=1.0)
        assert [t.request.id for t in first.tickets] == ["a", "b"]
        second = batcher.next_batch(timeout=1.0)
        assert [t.request.id for t in second.tickets] == ["x"]
        assert second.n == 5

    def test_max_batch_cap(self):
        queue = AdmissionQueue(max_depth=16)
        batcher = Batcher(queue, max_batch=2)
        for rid in "abcd":
            queue.submit(_request(n=4, rid=rid))
        assert batcher.next_batch(timeout=1.0).size == 2
        assert batcher.next_batch(timeout=1.0).size == 2

    def test_timeout_returns_none(self):
        queue = AdmissionQueue(max_depth=4)
        batcher = Batcher(queue, max_batch=4)
        assert batcher.next_batch(timeout=0.05) is None

    def test_bad_knobs_rejected(self):
        queue = AdmissionQueue(max_depth=4)
        with pytest.raises(ValueError):
            Batcher(queue, max_batch=0)
