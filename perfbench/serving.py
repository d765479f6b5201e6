"""Workload ``serve-small``: open-loop traffic to one solve service.

The service is ``parma serve`` at its shipped defaults (subprocess
executor, 50 ms linger, one serve worker, ``single`` strategy), started
as a child process and reached over its unix socket.  Traffic is a
distinct simulated device per request, equal shares of n = 8, 12 and 16
in seeded order, one interactive request per three batch ones.  At
these sizes the solve is a few milliseconds, so nearly all of a
request's time is request-path tax: framing, admission and linger, the
executor hop and the manifest finalize.

The untraced run sends a fixed 6 req/s phase of 204 requests (34 s),
whatever ``--seconds`` says, and reports its median latency from due
time as ``latency_ms``.

The traced run measures the same 6 req/s traffic three times: on
``parma serve``, on ``parma serve --trace`` with client-side spans
(204 requests, enough for a p95 with ten samples beyond it), and
through a two-shard ``SolveFleet`` front over TCP.  The fleet pass
stands in for the ``serve-fleet`` workload, which is not run on its
own (see ``perfbench/README.md``).  The traced 6 req/s phase is also
the first step of a rate ladder: the rate doubles in 3 s steps until a
step misses the SLO, and three bisection steps narrow ``serve.max_rps``.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import common
from perfbench.common import NPROC, Tally, print_phase
from perfbench.loadgen import Phase, run_phase

SIZES = (8, 12, 16)
FIXED_RATE = 6.0
#: 204 requests at 6 req/s: enough for a p95 with ten samples beyond it.
FIXED_REQUESTS = 204
LADDER_STEP_SECONDS = 3.0
#: The ladder's last step; a service meeting the SLO there reports it.
MAX_LADDER_RATE = 96.0
REFINE_STEPS = 3
THREADS = min(2, NPROC)


def make_requests(seed: int, tag: str, count: int, sizes=SIZES) -> list:
    """``count`` requests, each a distinct simulated device (seeded)."""
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import WetLabConfig, run_campaign
    from repro.serve import PRIORITY_BATCH, PRIORITY_INTERACTIVE, Request
    from repro.utils.rng import derive_seed

    rng = np.random.default_rng(derive_seed(seed, "serve", tag))
    ns = rng.permutation(np.resize(sizes, count))
    hours = rng.choice((0.0, 6.0, 12.0, 24.0), size=count)
    interactive = rng.permutation(count) % 4 == 0
    requests = []
    for i in range(count):
        device_seed = derive_seed(seed, "serve-device", tag, i)
        run = run_campaign(
            paper_like_spec(int(ns[i]), seed=device_seed),
            WetLabConfig(hours=(float(hours[i]),)),
            seed=device_seed,
        )
        m = run.campaign.measurements[0]
        requests.append(
            Request(
                z=m.z_kohm.tolist(),
                voltage=m.voltage,
                hour=m.hour,
                priority=PRIORITY_INTERACTIVE if interactive[i] else PRIORITY_BATCH,
            )
        )
    return requests


class ResponseCheck:
    """Output check for a serve reply."""

    def __init__(self) -> None:
        self.limit = common.saturation_kohm()

    def __call__(self, response) -> str | None:
        if response is None:
            return "no reply"
        if not response.ok:
            return f"status {response.status}"
        return common.field_problem(response.resistance_array(), self.limit)

    @staticmethod
    def converged(response) -> bool:
        """The service answered ``ok`` for a solve it says converged."""
        return (
            response is not None
            and response.ok
            and "converged=True" in response.summary
        )


def tally_phase(tally: Tally, phase: Phase) -> None:
    for outcome in phase.outcomes:
        problem = phase.problems.get(outcome.index)
        tally.record(problem, converged=ResponseCheck.converged(outcome.response))


def report_phase(phase: Phase) -> None:
    """Per-phase generator report: sent/ok/failed, lateness, samples."""
    lat = phase.latencies_ms()
    quantiles = {q: common.percentile(lat, q) for q in (0.5, 0.9, 0.95)}
    late = phase.lateness_ms()
    print_phase(
        phase.name,
        rate=phase.rate,
        sent=phase.sent,
        succeeded=phase.succeeded,
        failed=phase.failed,
        samples=len(lat),
        **{
            f"p{round(q * 100)}_ms": "n/a" if v is None else round(v, 2)
            for q, v in quantiles.items()
        },
        late_median_ms=statistics.median(late) if late else 0.0,
        late_max_ms=max(late) if late else 0.0,
        over_slo=phase.over_slo(),
        backlog_grew=phase.backlog_grew(),
    )


class ServeProcess:
    """``parma serve`` at its shipped defaults, as a child process.

    The load generator and the service are separate processes, as they
    are for a real client.  ``trace_dir`` passes ``--trace``: the
    service then writes its spans there when it drains.
    """

    def __init__(self, work: Path, trace_dir: Path | None = None) -> None:
        from repro.serve import SolveClient

        work.mkdir(parents=True, exist_ok=True)
        self.trace_dir = trace_dir
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", str(work / "s.sock"),
            "--results", str(work / "results"),
            "--workers", str(min(4, NPROC)),
        ]
        if trace_dir is not None:
            command += ["--trace", str(trace_dir)]
        self.log = open(work / "serve.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=common.python_env(),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = SolveClient(work / "s.sock", timeout=120.0)
        try:
            self._wait_ready(work / "serve.log")
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, log: Path, timeout: float = 60.0) -> None:
        from repro.serve import ServeConnectionError

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"parma serve exited with {self.proc.returncode}: "
                    f"{log.read_text(errors='replace')[-2000:]}"
                )
            try:
                self.client.ping()
                return
            except (ServeConnectionError, OSError):
                time.sleep(0.01)
        raise RuntimeError("parma serve did not become ready")

    def stop(self) -> None:
        """Drain with SIGTERM, as an operator would; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_fleet(work: Path, observer=None):
    """A two-shard ``SolveFleet`` (fleet defaults) on TCP, and a client."""
    from repro.serve import FleetConfig, SolveClient, SolveFleet

    fleet = SolveFleet(
        FleetConfig(
            listen="127.0.0.1:0",
            results_dir=work / "fleet",
            shards=min(2, NPROC),
            num_workers=min(4, NPROC),
            observer=observer,
        )
    )
    fleet.start()
    host, port = fleet.tcp_address
    client = SolveClient(f"{host}:{port}", timeout=120.0)
    if not client.wait_ready(timeout=30.0):
        fleet.stop()
        raise RuntimeError("solve fleet did not become ready")
    return fleet, client


def warm(client, warmups, check: ResponseCheck) -> None:
    """One request per device size: builds each size's caches."""
    for request in warmups:
        problem = check(client.submit(request))
        if problem is not None:
            raise RuntimeError(f"warm-up request failed: {problem}")


def run(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    # Relative to the checkout (the working directory), so that unix
    # socket paths stay short wherever the checkout lives.
    work = common.OUT_DIR.relative_to(common.ROOT) / f"serve-{seed}-{os.getpid()}"
    try:
        if trace:
            return _run_traced(seed, seconds, work)
        return _run_untraced(seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _warmup_requests(seed: int, tag: str) -> list:
    return [
        make_requests(seed, f"{tag}-warm-{n}", 1, sizes=(n,))[0] for n in SIZES
    ]


def _run_untraced(seed: int, work: Path) -> tuple[Tally, dict]:
    check = ResponseCheck()
    tally = Tally()
    fixed = make_requests(seed, "fixed", FIXED_REQUESTS)
    setups: list[float] = []
    for rep in range(3):
        warmups = _warmup_requests(seed, f"setup{rep}")
        start = time.perf_counter()
        service = ServeProcess(work / f"svc{rep}")
        try:
            warm(service.client, warmups, check)
        except BaseException:
            service.stop()
            raise
        setups.append(time.perf_counter() - start)
        if rep < 2:
            service.stop()
    print_phase("setup", runs=len(setups), seconds=[round(s, 4) for s in setups])
    try:
        print_phase("settle", seconds=common.settle_disk(work))
        fixed_phase = run_phase(
            "fixed-6rps", service.client.submit, fixed, FIXED_RATE,
            threads=THREADS, check=check,
        )
        report_phase(fixed_phase)
        tally_phase(tally, fixed_phase)
    finally:
        service.stop()
    return tally, {
        "setup_s": common.median(setups),
        "latency_ms": _percentile(fixed_phase, 0.5),
    }


def _percentile(phase: Phase, q: float) -> float:
    """A latency percentile of a phase; raises without enough samples."""
    latencies = phase.latencies_ms()
    value = common.percentile(latencies, q)
    if value is None:
        raise RuntimeError(
            f"{phase.name}: {len(latencies)} successful requests are too "
            f"few for p{round(q * 100)}"
        )
    return value


def _ladder(client, seed: int, check, tally: Tally, passed: bool) -> float:
    """The highest rate meeting the SLO; ``passed`` says whether the
    6 req/s phase that starts the ladder met it.

    The rate doubles until a step misses the SLO; then
    :data:`REFINE_STEPS` bisection steps between the last passing and
    the first failing rate narrow the answer, so a service whose
    capacity sits near a doubling step does not flip between two rates
    a factor of two apart.
    """

    def step(rate: float) -> bool:
        count = int(round(rate * LADDER_STEP_SECONDS))
        phase = run_phase(
            f"ladder-{rate:g}rps", client.submit,
            make_requests(seed, f"ladder-{rate:g}", count), rate,
            threads=THREADS, check=check, stop_on_slo_miss=True,
        )
        report_phase(phase)
        tally_phase(tally, phase)
        return phase.meets_slo()

    if not passed:
        return 0.0
    best, failed = FIXED_RATE, None
    while failed is None and best < MAX_LADDER_RATE:
        if step(best * 2):
            best *= 2
        else:
            failed = best * 2
    for _ in range(REFINE_STEPS if failed is not None else 0):
        middle = (best + failed) / 2
        if step(middle):
            best = middle
        else:
            failed = middle
    return best


def _traced_submit(client, observer):
    """Submit inside a client span, with the reply's queue and exec time
    as synthesized child spans: the span's self time is the tax."""

    def submit(request):
        with observer.span("bench.serve.request", n=request.n):
            sent = time.perf_counter()
            response = client.submit(request)
            if response.ok:
                observer.add_span("serve.queue", sent, response.queue_seconds)
                observer.add_span(
                    "serve.exec",
                    sent + response.queue_seconds,
                    response.elapsed_seconds,
                )
        return response

    return submit


def _run_traced(seed: int, seconds: float, work: Path) -> tuple[Tally, dict]:
    from repro.observe import read_jsonl

    check = ResponseCheck()
    tally = Tally()
    per_phase = max(20, int(FIXED_RATE * max(5.0, (seconds - 24.0) / 2.0)))

    # A: untraced service and client (baseline for the tracing overhead).
    service = ServeProcess(work / "plain")
    try:
        warm(service.client, _warmup_requests(seed, "plain"), check)
        plain = run_phase(
            "plain-6rps", service.client.submit,
            make_requests(seed, "plain", per_phase), FIXED_RATE,
            threads=THREADS, check=check,
        )
    finally:
        service.stop()
    report_phase(plain)
    tally_phase(tally, plain)

    # B: the same traffic, traced in the service (--trace) and the client.
    client_obs = common.observer("serve-small", seed, "client")
    service = ServeProcess(
        work / "traced", trace_dir=common.trace_dir("serve-small", seed) / "service"
    )
    try:
        warm(service.client, _warmup_requests(seed, "traced"), check)
        traced = run_phase(
            "traced-6rps", _traced_submit(service.client, client_obs),
            make_requests(seed, "traced", FIXED_REQUESTS), FIXED_RATE,
            threads=THREADS, check=check,
        )
        report_phase(traced)
        tally_phase(tally, traced)
        service_stats = service.client.stats()
        max_rps = _ladder(
            service.client, seed, check, tally, passed=traced.meets_slo()
        )
    finally:
        service.stop()
    service_spans = read_jsonl(service.trace_dir / "trace.jsonl")

    # C: the same traffic through a fleet front (TCP, two shards).
    fleet_obs = common.observer("serve-small", seed, "fleet")
    fleet, client = start_fleet(work, observer=fleet_obs)
    try:
        warm(client, _warmup_requests(seed, "fleet"), check)
        fleet_phase = run_phase(
            "fleet-6rps", _traced_submit(client, client_obs),
            make_requests(seed, "fleet", per_phase), FIXED_RATE,
            threads=THREADS, check=check,
        )
        fleet_stats = client.stats()
    finally:
        fleet.stop()
    report_phase(fleet_phase)
    tally_phase(tally, fleet_phase)

    finalize_ms = _finalize_ms(seed, work / "finalize", tally, check)

    ok = [o.response for o in traced.ok_outcomes()]
    traced_rt = [o.roundtrip_ms for o in traced.ok_outcomes()]
    fleet_rt = [o.roundtrip_ms for o in fleet_phase.ok_outcomes()]
    routed = fleet_stats["fleet"]["routed"]
    gauges = service_stats["metrics"]
    metrics = {
        "serve.p50_ms": _percentile(traced, 0.5),
        "serve.queue_ms": common.median(r.queue_seconds * 1e3 for r in ok),
        "serve.batch_size": statistics.fmean(r.batch_size for r in ok),
        "serve.exec_ms": common.median(r.elapsed_seconds * 1e3 for r in ok),
        "serve.cache_warm_ratio": statistics.fmean(
            1.0 if r.cache_warm else 0.0 for r in ok
        ),
        "serve.tax_ms": common.median(
            o.roundtrip_ms
            - (o.response.queue_seconds + o.response.elapsed_seconds) * 1e3
            for o in traced.ok_outcomes()
        ),
        "observe.finalize_ms": finalize_ms,
        "serve.p95_ms": _percentile(traced, 0.95),
        "serve.max_rps": max_rps,
        "fleet.forward_ms": common.median(fleet_rt) - common.median(traced_rt),
        "fleet.shard_skew": max(routed) / statistics.fmean(routed),
        "fleet.reroutes": float(fleet_stats["fleet"]["reroutes"]),
        "executor.respawns": float(
            service_stats["worker_respawns"]
            + fleet_stats["worker_respawns"]
            + fleet_stats["fleet"]["shard_respawns"]
        ),
        **common.template_metrics(
            {
                key: gauges[f"cache.pair-template.{key}"]["value"]
                for key in ("hits", "misses", "build_seconds")
            }
        ),
        "trace.overhead_ratio": (
            common.median(traced.latencies_ms())
            / common.median(plain.latencies_ms())
        ),
    }
    spans = list(client_obs.spans) + service_spans + list(fleet_obs.spans)
    common.print_self_times(client_obs.spans, "client")
    common.print_self_times(service_spans, "service")
    common.write_spans(spans, "serve-small", seed)
    return tally, metrics


def _finalize_ms(seed: int, work: Path, tally: Tally, check: ResponseCheck) -> float:
    """Median wall time of ``Observer.finalize`` for a served-size request.

    Each observer first records one real parametrization (n=12), so the
    manifest and trace it writes have a request's usual size.
    """
    from repro.core.engine import ParmaEngine
    from repro.observe import Observer

    engine = ParmaEngine(strategy="single", num_workers=1)
    times = []
    for i, request in enumerate(make_requests(seed, "finalize", 9, sizes=(12,))):
        obs = Observer(trace_dir=work / f"req-{i}")
        engine.observer = obs
        result = engine.parametrize(request.z_array(), voltage=request.voltage)
        engine.observer = None
        tally.record(
            common.field_problem(result.resistance, check.limit),
            converged=result.solve.converged,
        )
        start = time.perf_counter()
        obs.finalize(config={"command": "serve", "n": request.n})
        times.append((time.perf_counter() - start) * 1e3)
    return common.median(times)
