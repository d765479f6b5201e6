"""Open-loop load generator: requests are due on a fixed schedule.

Request ``i`` of a phase at ``rate`` req/s is due at ``t0 + i / rate``
whether or not earlier requests have been answered (an open loop of
independent users).  At most ``threads`` requests are in flight, one
connection per thread, so when the service falls behind the requests
wait in the generator; every latency is measured from the request's
due time, which charges that wait to the service, and the time a
request left after its due time is reported as generator lateness.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from perfbench.common import SLO_P95_MS


@dataclass
class Outcome:
    """One request of a phase: when it was due, sent and answered."""

    index: int
    due: float
    sent: float
    done: float
    response: object | None = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """From due time to answer (includes generator wait)."""
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3

    @property
    def roundtrip_ms(self) -> float:
        """Client send to decoded reply."""
        return (self.done - self.sent) * 1e3


@dataclass
class Phase:
    """A finished phase: its rate and every request's outcome."""

    name: str
    rate: float
    outcomes: list[Outcome] = field(default_factory=list)
    #: Outcome index -> reason, for requests whose output failed a check.
    problems: dict[int, str] = field(default_factory=dict)
    #: Requests left unsent because the phase had already missed the SLO.
    abandoned: int = 0

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return len(self.problems)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    def ok_outcomes(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.index not in self.problems]

    def latencies_ms(self) -> list[float]:
        """Latency from due time of every request that passed its checks."""
        return [o.latency_ms for o in self.ok_outcomes()]

    def lateness_ms(self) -> list[float]:
        return [o.lateness_ms for o in self.outcomes]

    def backlog_grew(self) -> bool:
        """Whether the generator fell further behind during the phase.

        Compares the median lateness of the last quarter of requests
        with the first quarter's: growth by more than one inter-arrival
        interval means requests arrive faster than they are served.
        """
        ordered = sorted(self.outcomes, key=lambda o: o.index)
        quarter = max(1, len(ordered) // 4)
        first = statistics.median(o.lateness_ms for o in ordered[:quarter])
        last = statistics.median(o.lateness_ms for o in ordered[-quarter:])
        return last - first > 1e3 / self.rate

    def over_slo(self) -> int:
        """Requests that missed the latency limit; failures count as misses."""
        return self.failed + sum(
            1 for ms in self.latencies_ms() if ms > SLO_P95_MS
        )

    def meets_slo(self) -> bool:
        """p95 within the limit (at most 5 % miss) and no growing backlog."""
        return (
            self.sent > 0
            and self.abandoned == 0
            and self.over_slo() <= 0.05 * self.sent
            and not self.backlog_grew()
        )


def run_phase(
    name: str,
    submit: Callable[[object], object],
    payloads: Sequence[object],
    rate: float,
    *,
    threads: int,
    check: Callable[[object], str | None],
    stop_on_slo_miss: bool = False,
    start_delay: float = 0.05,
) -> Phase:
    """Send ``payloads`` at ``rate`` req/s; block until all are answered.

    ``submit`` sends one payload and returns the reply (raising on a
    transport failure); ``check`` returns why a reply fails its output
    check, or None.  A raised exception is a failed request.  With
    ``stop_on_slo_miss``, sending stops once more than 5 % of the
    phase's requests have missed the latency limit: the phase has
    failed its SLO and the rest would only deepen the backlog.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    phase = Phase(name=name, rate=float(rate))
    lock = threading.Lock()
    cursor = [0]
    misses = [0]
    allowed = 0.05 * len(payloads)
    t0 = time.perf_counter() + start_delay

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(payloads):
                    return
                if stop_on_slo_miss and misses[0] > allowed:
                    phase.abandoned = len(payloads) - index
                    cursor[0] = len(payloads)
                    return
                cursor[0] += 1
            due = t0 + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                reply = submit(payloads[index])
                error = ""
            except Exception as exc:  # a transport failure is a failed request
                reply, error = None, f"{type(exc).__name__}: {exc}"
            outcome = Outcome(
                index=index, due=due, sent=sent, done=time.perf_counter(),
                response=reply, error=error,
            )
            problem = error or check(reply)
            with lock:
                phase.outcomes.append(outcome)
                if problem:
                    phase.problems[index] = problem
                if problem or outcome.latency_ms > SLO_P95_MS:
                    misses[0] += 1

    workers = [
        threading.Thread(target=sender, name=f"loadgen-{i}", daemon=True)
        for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    phase.outcomes.sort(key=lambda o: o.index)
    return phase
