"""Workload ``formation-n64``: form and persist the paper's 64x64 system.

The full joint-constraint system of one 64x64 device (33,554,432
terms, the paper's own device) is formed and written as binary part
files through ``ParmaEngine.form`` with the default strategy at
``nproc`` workers (two large part files).  No solver runs; templates,
fork/reap and the atomic write path are the whole cost.  Formation rate
is the paper's own metric.  The traced run also forms it through
``run_elastic_formation`` with two workers (512 small chunk commits).

An untraced run makes persisted passes back to back until ``--seconds``
are up (at least five) and reports the median pass time.

Every pass is read back from disk.  The first pass of each kind is
decoded and must match a ``single``-strategy reference formed at
set-up: term count, payload bytes and checksum, and the file sizes must
add up to the bytes the pass reported.  Later passes must be byte for
byte the same as that decoded pass, or they are decoded again.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from perfbench import common
from perfbench.common import NPROC, Tally, print_phase

N = 64
#: Fewest persisted default-strategy passes of an untraced run (it
#: makes passes until ``--seconds`` are up), and rounds of the traced
#: run (each: plain and traced in-memory passes, a traced persisted
#: pass and a traced elastic pass).
MIN_ROUNDS = 5
TRACED_ROUNDS = 2
ELASTIC_WORKERS = min(2, NPROC)

SETUP_CODE = (
    "from repro.core.engine import ParmaEngine\n"
    "import repro.parallel.elastic\n"
    f"ParmaEngine(num_workers={min(4, NPROC)}).warm({N})\n"
)


@dataclass(frozen=True)
class OnDisk:
    """What a set of part files holds, read back block by block."""

    terms: int
    checksum: float
    payload_bytes: int
    file_bytes: int


def read_back(part_files, directory: Path) -> OnDisk:
    """Decode every block of every part file (payload excludes headers)."""
    from repro.io.equations_io import read_blocks_binary

    terms = payload = size = 0
    checksum = 0.0
    for name in part_files:
        path = Path(name) if os.path.isabs(name) else directory / name
        size += path.stat().st_size
        with open(path, "rb") as fh:
            for block in read_blocks_binary(fh):
                terms += block.num_terms
                checksum += block.checksum()
                payload += block.nbytes()
    return OnDisk(terms, checksum, payload, size)


def check_pass(report, directory: Path, reference: OnDisk) -> str | None:
    """Why a persisted pass does not match the reference, or None."""
    disk = read_back(report.part_files, directory)
    if disk.file_bytes != report.bytes_written:
        return f"file bytes {disk.file_bytes} != reported {report.bytes_written}"
    if report.terms_formed != reference.terms or disk.terms != reference.terms:
        return f"terms {report.terms_formed}/{disk.terms} != {reference.terms}"
    if disk.payload_bytes != reference.payload_bytes:
        return f"payload bytes {disk.payload_bytes} != {reference.payload_bytes}"
    if report.checksum != reference.checksum or disk.checksum != reference.checksum:
        return f"checksum {report.checksum}/{disk.checksum} != {reference.checksum}"
    return None


def digest(part_files, directory: Path) -> str:
    """SHA-256 over the part files' bytes, in order."""
    sha = hashlib.sha256()
    for name in part_files:
        path = Path(name) if os.path.isabs(name) else directory / name
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                sha.update(chunk)
    return sha.hexdigest()


def make_measurement(seed: int):
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import WetLabConfig, run_campaign
    from repro.utils.rng import derive_seed

    device_seed = derive_seed(seed, "formation-device")
    run = run_campaign(
        paper_like_spec(N, seed=device_seed),
        WetLabConfig(hours=(0.0,)),
        seed=device_seed,
    )
    return run.campaign.measurements[0]


def reference(measurement, work: Path) -> OnDisk:
    """The ``single``-strategy system, persisted once and read back."""
    from repro.core.engine import ParmaEngine

    directory = work / "reference"
    report = ParmaEngine(strategy="single", num_workers=1).form(
        measurement, output_dir=directory
    )
    try:
        return read_back(report.part_files, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _span(observer, name: str):
    """A benchmark-side span around a public call (traced run only)."""
    return observer.span(name) if observer is not None else nullcontext()


class Passes:
    """The two persisted passes, each timed, checked and cleaned up."""

    def __init__(self, measurement, work: Path, ref: OnDisk, tally: Tally):
        from repro.core.engine import ParmaEngine

        self.measurement = measurement
        self.work = work
        self.ref = ref
        self.tally = tally
        self.engine = ParmaEngine(num_workers=min(4, NPROC))
        self.engine.warm(N)
        #: Pass kind -> digest of an output that passed the full check.
        self.verified: dict[str, str] = {}

    def strategy(self, observer=None):
        """Default strategy, persisted; returns (wall seconds, report)."""
        directory = self.work / "strategy"
        self.engine.observer = observer
        with _span(observer, "bench.form.persisted"):
            start = time.perf_counter()
            report = self.engine.form(self.measurement, output_dir=directory)
            wall = time.perf_counter() - start
        self.engine.observer = None
        self._check("strategy", report, directory)
        return wall, report

    def in_memory(self, observer=None):
        """Default strategy without persisting (traced run only)."""
        self.engine.observer = observer
        with _span(observer, "bench.form.in_memory"):
            report = self.engine.form(self.measurement)
        self.engine.observer = None
        problem = None
        if report.terms_formed != self.ref.terms or report.checksum != self.ref.checksum:
            problem = "in-memory formation does not match the reference"
        self.tally.record(problem, against_reference=True)
        return report

    def elastic(self, observer=None):
        """Elastic dispatch with small chunk commits; (wall, report)."""
        from repro.parallel.elastic import run_elastic_formation

        directory = self.work / "elastic"
        with _span(observer, "bench.form.elastic"):
            start = time.perf_counter()
            report = run_elastic_formation(
                self.measurement.z_kohm,
                workers=ELASTIC_WORKERS,
                voltage=self.measurement.voltage,
                output_dir=directory,
                observer=observer,
            )
            wall = time.perf_counter() - start
        self._check("elastic", report, directory)
        return wall, report

    def _check(self, kind: str, report, directory: Path) -> None:
        """Decode and compare a pass with the reference, once per kind.

        Later passes of the same kind are compared byte for byte (by
        digest) with the pass that was decoded; any difference sends
        them through the full check again.
        """
        try:
            sha = digest(report.part_files, directory)
            problem = None
            if self.verified.get(kind) != sha:
                problem = check_pass(report, directory, self.ref)
                if problem is None:
                    self.verified[kind] = sha
            self.tally.record(problem, against_reference=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)


def _rounds(deadline: float, minimum: int):
    """Yield round numbers until ``deadline`` (``perf_counter`` time)
    has passed and at least ``minimum`` rounds have run.

    The passes run back to back.  Each writes 575 MB with fsync; on the
    reference host a pass that starts after the disk has sat idle for a
    few seconds takes about 1.4 s instead of about 0.85 s, at random,
    so spacing the passes out makes their times bimodal.
    """
    index = 0
    while index < minimum or time.perf_counter() < deadline:
        yield index
        index += 1


def run(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    work = common.OUT_DIR / f"formation-{seed}-{os.getpid()}"
    try:
        if trace:
            return _run_traced(seed, work)
        return _run_untraced(seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_untraced(seed: int, seconds: float, work: Path):
    deadline = time.perf_counter() + seconds
    setups = [common.process_setup_seconds(SETUP_CODE) for _ in range(3)]
    print_phase("setup", runs=len(setups), seconds=[round(s, 4) for s in setups])
    measurement = make_measurement(seed)
    ref = reference(measurement, work)
    tally = Tally()
    passes = Passes(measurement, work, ref, tally)
    strategy_walls = []
    for index in _rounds(deadline, MIN_ROUNDS):
        wall, report = passes.strategy()
        strategy_walls.append(wall)
        print_phase(
            "round", round=index, strategy_s=wall,
            strategy_parts=len(report.part_files),
        )
    print_phase(
        "formation", rounds=len(strategy_walls), terms=ref.terms, failed=tally.failed,
        terms_per_s=ref.terms / common.median(strategy_walls),
    )
    return tally, {
        "setup_s": common.median(setups),
        "latency_ms": 1e3 * common.median(strategy_walls),
    }


def _run_traced(seed: int, work: Path):
    from repro.core import cache_stats, clear_template_cache
    from repro.observe import get_observer, set_observer

    measurement = make_measurement(seed)
    ref = reference(measurement, work)
    tally = Tally()
    obs = common.observer("formation-n64", seed, "formation")
    previous = get_observer()
    clear_template_cache()
    set_observer(obs)
    try:
        with obs.span("bench.engine.warm", n=N):
            passes = Passes(measurement, work, ref, tally)
    finally:
        set_observer(previous)
    plain_walls, traced_walls, persisted_walls, elastic_walls = [], [], [], []
    memory, persisted, elastic = [], [], []
    for _ in range(TRACED_ROUNDS):
        plain_walls.append(passes.in_memory().elapsed_seconds)
        set_observer(obs)
        try:
            memory.append(passes.in_memory(observer=obs))
            traced_walls.append(memory[-1].elapsed_seconds)
            persisted_wall, persisted_report = passes.strategy(observer=obs)
            persisted_walls.append(persisted_wall)
            persisted.append(persisted_report)
            elastic_wall, elastic_report = passes.elastic(observer=obs)
            elastic_walls.append(elastic_wall)
            elastic.append(elastic_report)
        finally:
            set_observer(previous)
    in_memory_s = common.median(r.elapsed_seconds for r in memory)
    write_s = common.median(r.elapsed_seconds for r in persisted) - in_memory_s
    per_worker = [float(x) for x in persisted[-1].per_worker_terms]
    metrics = {
        "formation.terms_per_s": ref.terms / common.median(persisted_walls),
        "strategy.form_s": in_memory_s,
        "formation.worker_imbalance": max(per_worker) / statistics.fmean(per_worker),
        "io.write_s": write_s,
        "io.mb_per_s": persisted[-1].bytes_written / 1e6 / write_s,
        "elastic.terms_per_s": ref.terms / common.median(elastic_walls),
        "elastic.chunk_ms": common.median(
            1e3 * r.elapsed_seconds * ELASTIC_WORKERS / r.chunks_completed
            for r in elastic
        ),
        "elastic.leases_reassigned": float(sum(r.leases_reassigned for r in elastic)),
        **common.template_metrics(cache_stats()),
        "trace.overhead_ratio": (
            common.median(traced_walls) / common.median(plain_walls)
        ),
    }
    print_phase("traced-formation", rounds=TRACED_ROUNDS, failed=tally.failed)
    common.print_self_times(obs.spans, "formation")
    common.write_spans(obs.spans, "formation-n64", seed)
    return tally, metrics
