"""Shared pieces of the benchmark: metric names, output checks, the
percentile rule, set-up timing, the result line and the trace report.

Every workload module builds a :class:`Tally` of operations attempted
and failed, a ``{name: value}`` metric dict whose names are declared in
:data:`END_TO_END` / :data:`PER_LAYER` (the same names, with the same
units, as ``BENCHMARK.json``), and hands both to :func:`result_line`.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave spans and scratch files (ignored by git).
OUT_DIR = ROOT / ".perfbench-out"

#: Load-generator threads/connections and the program's own worker,
#: shard and executor counts are capped at the host's CPU count.
NPROC = max(1, os.cpu_count() or 1)

#: Latency limit for the serve rate ladder (p95 of a step, from due time).
SLO_P95_MS = 250.0

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: End-to-end metrics: name -> unit (mirrors ``BENCHMARK.json``).  Every
#: workload reports each of them: ``latency_ms`` is the wall time of one
#: checked operation of the workload (a request from its due time, a
#: campaign timepoint, a persisted formation pass).
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
}

#: Per-layer metrics of the traced run: name -> unit.  The first four
#: are the workloads' own figures, measured on the traced pass.  A
#: traced run reports every one; a layer its workload does not run
#: reads 0 (see :func:`complete_layers`).
PER_LAYER = {
    "serve.p50_ms": "ms",
    "campaign.timepoints_per_s": "1/s",
    "campaign.median_rel_err": "ratio",
    "formation.terms_per_s": "1/s",
    "serve.queue_ms": "ms",
    "serve.batch_size": "count",
    "serve.exec_ms": "ms",
    "serve.cache_warm_ratio": "ratio",
    "serve.tax_ms": "ms",
    "observe.finalize_ms": "ms",
    "serve.p95_ms": "ms",
    "serve.max_rps": "1/s",
    "fleet.forward_ms": "ms",
    "fleet.shard_skew": "ratio",
    "fleet.reroutes": "count",
    "executor.respawns": "count",
    "engine.form_s": "s",
    "engine.solve_s": "s",
    "engine.detect_s": "s",
    "solver.iterations": "count",
    "solver.iteration_ms": "ms",
    "solver.lm_rescues": "count",
    "solver.refine_fallbacks": "count",
    "solver.jacobian_ms": "ms",
    "forward.factor_ms": "ms",
    "solver.unconverged": "count",
    "degrade.escalations": "count",
    "forward.factor_hit_ratio": "ratio",
    "forward.pinv_materializations": "count",
    "templates.build_ms": "ms",
    "templates.hit_ratio": "ratio",
    "strategy.form_s": "s",
    "formation.worker_imbalance": "ratio",
    "io.write_s": "s",
    "io.mb_per_s": "MB/s",
    "elastic.terms_per_s": "1/s",
    "elastic.chunk_ms": "ms",
    "elastic.leases_reassigned": "count",
    "trace.overhead_ratio": "ratio",
}


def saturation_kohm() -> float:
    """The engine's own saturation limit (default ``saturation_kohm``)."""
    from repro.core.engine import ParmaEngine

    return float(
        inspect.signature(ParmaEngine).parameters["saturation_kohm"].default
    )


def field_problem(field_kohm, limit_kohm: float) -> str | None:
    """Why a recovered resistance field is non-physical, or None.

    A field passes when every cell is finite, positive and at most the
    engine's saturation limit.
    """
    if field_kohm is None:
        return "no field returned"
    arr = np.asarray(field_kohm, dtype=np.float64)
    if arr.size == 0:
        return "empty field"
    if not np.all(np.isfinite(arr)):
        return "non-finite field"
    if float(arr.min()) <= 0.0:
        return f"non-positive field (min {float(arr.min()):.3g} kOhm)"
    if float(arr.max()) > limit_kohm:
        return f"field above {limit_kohm:.0e} kOhm (max {float(arr.max()):.3g})"
    return None


@dataclass
class Tally:
    """Operations attempted and failed.

    ``incorrect`` counts outputs that differ from a deterministic
    reference (a formation pass against the ``single``-strategy
    system): those make the run's ``correct`` false.  A non-physical
    solver field is a failed operation, not an incorrect run; among
    them, ``converged_failures`` counts the ones the program reported
    as a converged solve.
    """

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    converged_failures: int = 0
    reasons: dict = field(default_factory=dict)

    def record(
        self,
        problem: str | None,
        *,
        converged: bool = False,
        against_reference: bool = False,
    ) -> bool:
        """Count one operation; returns True when it passed."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if against_reference:
            self.incorrect += 1
        elif converged:
            self.converged_failures += 1
        reason = problem.split(" (")[0]
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return False


def percentile(values, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or None without enough samples.

    The value is reported only when at least :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond its rank, so a p95 needs 200 samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return None
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_SAMPLES_BEYOND:
        return None
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def python_env() -> dict:
    """Environment for a child interpreter that imports ``repro`` from src."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def process_setup_seconds(code: str, timeout: float = 60.0) -> float:
    """Wall time of a fresh interpreter running ``code`` to completion.

    This is what a CLI invocation pays before its first real work:
    interpreter start, package import, engine construction and the
    per-``n`` cache warm-up that ``code`` performs.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=python_env(),
        check=True,
        timeout=timeout,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def settle_disk(directory: Path, *, target_ms: float = 1.0,
                max_seconds: float = 20.0) -> float:
    """Wait until small fsyncs in ``directory`` are quick again.

    A run that measures per-request fsyncs (every served request writes
    its manifest) should not start while the disk still absorbs an
    earlier run's writes.  Probes a 4 KiB write+fsync every 50 ms and
    returns once the median of the last eight is at most ``target_ms``,
    or after ``max_seconds``; returns the seconds waited.
    """
    directory.mkdir(parents=True, exist_ok=True)
    probe = directory / "settle.probe"
    start = time.perf_counter()
    recent: list[float] = []
    try:
        while time.perf_counter() - start < max_seconds:
            began = time.perf_counter()
            with open(probe, "wb") as fh:
                fh.write(b"\0" * 4096)
                fh.flush()
                os.fsync(fh.fileno())
            recent = (recent + [(time.perf_counter() - began) * 1e3])[-8:]
            if len(recent) == 8 and statistics.median(recent) <= target_ms:
                break
            time.sleep(0.05)
    finally:
        probe.unlink(missing_ok=True)
    return time.perf_counter() - start


def template_metrics(stats) -> dict:
    """``templates.*`` from a ``TemplateCacheStats``-shaped object or dict."""
    get = stats.get if isinstance(stats, dict) else lambda k: getattr(stats, k)
    lookups = float(get("hits")) + float(get("misses"))
    return {
        "templates.build_ms": float(get("build_seconds")) * 1e3,
        "templates.hit_ratio": float(get("hits")) / lookups if lookups else 0.0,
    }


def print_phase(name: str, **fields) -> None:
    """One human-readable report line (never the last line of output)."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    print(f"[{name}] " + " ".join(parts), flush=True)


def print_self_times(spans, label: str) -> None:
    """Self time per span name (layer) of a traced run, largest first."""
    from repro.observe import phase_rollup

    rollup = phase_rollup(spans)
    rows = sorted(rollup.items(), key=lambda kv: -kv[1]["self"])
    print(f"[self-time {label}] layer count total_s self_s", flush=True)
    for name, entry in rows:
        print(
            f"[self-time {label}] {name} {int(entry['count'])} "
            f"{entry['total']:.4f} {entry['self']:.4f}",
            flush=True,
        )


def trace_dir(workload: str, seed: int) -> Path:
    """Where a traced run keeps its observers' spools and its spans."""
    return OUT_DIR / "traces" / f"{workload}-seed{seed}"


def observer(workload: str, seed: int, label: str):
    """An ``Observer`` whose fork spool stays inside the checkout."""
    from repro.observe import Observer

    return Observer(trace_dir=trace_dir(workload, seed) / label)


def write_spans(spans, workload: str, seed: int) -> Path:
    """Write a traced run's in-memory spans once, at the end of the run."""
    from repro.observe import write_jsonl

    path = trace_dir(workload, seed) / "spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(spans, path)
    return path


def complete_layers(workload: str, metrics: dict) -> dict:
    """Every per-layer metric, 0 for the layers ``workload`` does not run.

    Prints each metric with the end-to-end metric it should move; a
    layer the traced run did not exercise is marked as such.
    """
    full = {}
    for name, unit in PER_LAYER.items():
        if name in metrics:
            full[name] = metrics[name]
            note = PREDICTIONS[name]
        else:
            full[name] = 0.0
            note = f"not exercised by {workload} (reads 0)"
        print(
            f"[predicts {workload}] {name}={full[name]:.6g} {unit} -> {note}",
            flush=True,
        )
    return full


#: Per-layer metric -> the end-to-end metric(s) it should move, and where.
PREDICTIONS = {
    "serve.p50_ms": "latency_ms on serve-small (the same figure, traced)",
    "campaign.timepoints_per_s": (
        "latency_ms on campaign-n40 (1000 / latency_ms, traced)"
    ),
    "campaign.median_rel_err": (
        "no timed metric: solution quality on campaign-n40"
    ),
    "formation.terms_per_s": (
        "latency_ms on formation-n64 (terms per persisted pass, traced)"
    ),
    "serve.queue_ms": "latency_ms on serve-small (and serve.max_rps)",
    "serve.batch_size": "latency_ms on serve-small (and serve.max_rps)",
    "serve.exec_ms": "latency_ms on serve-small (small share)",
    "serve.cache_warm_ratio": "latency_ms on serve-small (small share)",
    "serve.tax_ms": "latency_ms on serve-small",
    "observe.finalize_ms": "latency_ms on serve-small",
    "serve.p95_ms": (
        "no gated metric: the tail of serve-small's 6 req/s latency, "
        "set by the host's fsync spikes"
    ),
    "serve.max_rps": (
        "no gated metric: the service's capacity at the SLO, from the "
        "traced run's rate ladder"
    ),
    "fleet.forward_ms": "fleet p50 latency (fleet pass of serve-small traced)",
    "fleet.shard_skew": "fleet latency and max rate (fleet pass)",
    "fleet.reroutes": "fleet latency and max rate (fleet pass)",
    "executor.respawns": "latency_ms on serve-small (and serve.p95_ms)",
    "engine.form_s": "latency_ms on campaign-n40",
    "engine.solve_s": "latency_ms on campaign-n40",
    "engine.detect_s": "latency_ms on campaign-n40",
    "solver.iterations": "latency_ms on campaign-n40",
    "solver.iteration_ms": "latency_ms on campaign-n40",
    "solver.lm_rescues": "latency_ms on campaign-n40",
    "solver.refine_fallbacks": "latency_ms on campaign-n40",
    "solver.jacobian_ms": "latency_ms on campaign-n40",
    "forward.factor_ms": "latency_ms on campaign-n40",
    "solver.unconverged": (
        "failed share and campaign.median_rel_err on campaign-n40"
    ),
    "degrade.escalations": (
        "failed share and campaign.median_rel_err on campaign-n40"
    ),
    "forward.factor_hit_ratio": "latency_ms on campaign-n40",
    "forward.pinv_materializations": (
        "latency_ms on campaign-n40"
    ),
    "templates.build_ms": "setup_s on every workload",
    "templates.hit_ratio": "setup_s on every workload",
    "strategy.form_s": "latency_ms on formation-n64",
    "formation.worker_imbalance": "latency_ms on formation-n64",
    "io.write_s": "latency_ms on formation-n64",
    "io.mb_per_s": "latency_ms on formation-n64",
    "elastic.terms_per_s": (
        "no gated metric: the elastic pass of formation-n64, whose "
        "512 fsyncs track the host's disk latency"
    ),
    "elastic.chunk_ms": "elastic.terms_per_s on formation-n64",
    "elastic.leases_reassigned": "elastic.terms_per_s on formation-n64",
    "trace.overhead_ratio": "nothing (cost of tracing itself)",
}


def result_line(tally: Tally, metrics: dict, *, trace: bool) -> str:
    """The final JSON line: correctness, counts and metrics with units."""
    units = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(units):
        raise KeyError(
            f"metrics {sorted(metrics)} are not the declared {sorted(units)}"
        )
    out = {}
    for name, value in metrics.items():
        if value is None or not math.isfinite(float(value)):
            raise ValueError(f"metric {name!r} has no finite value: {value!r}")
        out[name] = {"value": float(value), "unit": units[name]}
    return json.dumps(
        {
            "correct": tally.incorrect == 0,
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": out,
        }
    )
