""":class:`RequestRunner` — the per-request solve pipeline, host-agnostic.

Both execution hosts — the in-process executor threads of
:class:`repro.serve.server.SolveService` and the forked subprocess
workers of :class:`repro.serve.executor.ExecutorPool` — run requests
through this one class, which is what makes the two paths
bit-identical: same engine construction, same ``Measurement``
fallback for dirty payloads, same per-request
:class:`repro.observe.Observer` manifest under
``results_dir/req-<id>/``, same status mapping.

The runner owns a pool of :class:`repro.core.engine.ParmaEngine`
keyed on solver knobs so the per-``n`` pair template, the
Jacobian-structure cache and the Laplacian-pinv LRU stay warm across
requests.  ``pool_engines=False`` (used when several threads share
one runner) hands out throwaway engines instead, because the observer
handle and deadline are mutable engine state.

Service-level counters (``serve.responses.*``, ``serve.latency.*``)
and each request's merged metric registry land in the runner's
``observer`` — the service observer in-process, or a plain registry
the executor child snapshots back over its pipe.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.engine import ParmaEngine
from repro.observe import Observer
from repro.observe.observer import MANIFEST_FILE_NAME, as_observer
from repro.resilience.supervise import Deadline, DeadlineExceeded
from repro.serve.protocol import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    Request,
    Response,
)


class RequestRunner:
    """Executes solve requests against a warm engine pool.

    One instance per execution host (service process or executor
    child).  :meth:`run` never raises: every outcome — converged,
    failed, deadline-exceeded, unexpected exception — comes back as a
    :class:`repro.serve.protocol.Response`.
    """

    def __init__(
        self,
        results_dir: str | Path,
        *,
        strategy: str = "single",
        num_workers: int = 4,
        max_deadline: float | None = None,
        pool_engines: bool = True,
        observer: object | None = None,
    ) -> None:
        self.results_dir = Path(results_dir)
        self.strategy = strategy
        self.num_workers = num_workers
        self.max_deadline = max_deadline
        self.pool_engines = pool_engines
        self.observer = as_observer(observer)
        self._engines: dict[tuple, ParmaEngine] = {}

    def engine_for(
        self, request: Request, deadline: Deadline | None
    ) -> ParmaEngine:
        """A pooled engine for the request's knobs (fresh when deadlined).

        Engines are stateless between calls, so one per knob
        combination serves every matching request; a per-request
        deadline (and the observer handle) is mutable engine state, so
        deadlined requests — and every request when the runner is
        shared across threads (``pool_engines=False``) — get a
        throwaway.  Engine construction is cheap; the expensive state
        (templates, pinv LRU, Jacobian structure) is process-global
        either way.
        """
        key = (request.solver, request.threshold_sigmas, request.validate)
        if deadline is not None or not self.pool_engines:
            return ParmaEngine(
                strategy=self.strategy,
                num_workers=self.num_workers,
                solver=request.solver,
                threshold_sigmas=request.threshold_sigmas,
                validate=request.validate,
                deadline=deadline,
            )
        engine = self._engines.get(key)
        if engine is None:
            engine = ParmaEngine(
                strategy=self.strategy,
                num_workers=self.num_workers,
                solver=request.solver,
                threshold_sigmas=request.threshold_sigmas,
                validate=request.validate,
            )
            self._engines[key] = engine
        return engine

    def warm(self, n: int) -> None:
        """Prewarm the per-``n`` formation template (best-effort)."""
        try:
            ParmaEngine(strategy="single").warm(n)
        except Exception:  # noqa: BLE001 - warming is advisory
            pass

    def run(
        self,
        request: Request,
        *,
        batch_size: int,
        warm: bool,
        queue_seconds: float,
    ) -> Response:
        """Execute one request; always returns a :class:`Response`."""
        started = time.perf_counter()
        try:
            return self._run(request, batch_size, warm, queue_seconds, started)
        except Exception as exc:  # noqa: BLE001 - hosts need a response
            self.observer.count("serve.responses.failed")
            return Response(
                id=request.id or "",
                status=STATUS_FAILED,
                error=f"{type(exc).__name__}: {exc}",
                batch_size=batch_size,
                cache_warm=warm,
                queue_seconds=queue_seconds,
                elapsed_seconds=time.perf_counter() - started,
            )

    def _fold_request_metrics(self, request_observer: Observer) -> None:
        """Aggregate a finished request's registry into the runner's.

        Per-request observers own their formation/solve/cache counters
        (they land in that request's manifest); merging them here keeps
        the host's running totals covering every request served.
        """
        if self.observer.metrics is not None:
            self.observer.metrics.merge(request_observer.metrics.snapshot())

    def _run(
        self,
        request: Request,
        batch_size: int,
        warm: bool,
        queue_seconds: float,
        started: float,
    ) -> Response:
        """The per-request pipeline: engine, observer, manifest, response."""
        from repro.mea.dataset import Measurement, MeasurementValidationError
        from repro.resilience.degrade import SolverDegradationError

        deadline = Deadline.capped(request.deadline, self.max_deadline)
        engine = self.engine_for(request, deadline)
        request_dir = self.results_dir / f"req-{request.id}"
        obs = Observer(trace_dir=request_dir)
        engine.observer = obs
        config = {
            "command": "serve",
            "request_id": request.id,
            "n": request.n,
            "hour": request.hour,
            "solver": request.solver,
            "strategy": self.strategy,
            "validate": request.validate,
            "batch_size": batch_size,
            "cache_warm": warm,
            "queue_seconds": queue_seconds,
        }
        z = request.z_array()
        try:
            measurement: Measurement | object
            try:
                measurement = Measurement(
                    z_kohm=z, voltage=request.voltage, hour=request.hour
                )
            except ValueError:
                # Dirty acquisitions cannot satisfy Measurement's own
                # invariants; hand the raw array to the engine's
                # validate policy (strict will name the channel).
                measurement = z
            with obs.span("run", command="serve", n=request.n):
                result = engine.parametrize(
                    measurement,
                    solver_kwargs=request.solver_kwargs or None,
                    voltage=request.voltage,
                    hour=request.hour,
                )
        except DeadlineExceeded as exc:
            config["status"] = "deadline"
            obs.finalize(config=config)
            self._fold_request_metrics(obs)
            self.observer.count("serve.responses.deadline")
            return Response(
                id=request.id or "",
                status=STATUS_DEADLINE,
                error=str(exc),
                manifest_path=str(request_dir / MANIFEST_FILE_NAME),
                batch_size=batch_size,
                cache_warm=warm,
                queue_seconds=queue_seconds,
                elapsed_seconds=time.perf_counter() - started,
            )
        except (SolverDegradationError, MeasurementValidationError) as exc:
            self.observer.count("serve.responses.failed")
            return Response(
                id=request.id or "",
                status=STATUS_FAILED,
                error=str(exc),
                batch_size=batch_size,
                cache_warm=warm,
                queue_seconds=queue_seconds,
                elapsed_seconds=time.perf_counter() - started,
            )
        finally:
            engine.observer = None
        elapsed = time.perf_counter() - started
        failed = (
            result.degradation is not None
            and result.degradation.degraded
            and not result.solve.converged
        )
        degraded = result.degradation is not None and result.degradation.degraded
        # Stamped before finalize so the manifest (and hence the run
        # catalog's `status` column) records the request's outcome.
        config["status"] = "failed" if failed else "degraded" if degraded else "ok"
        obs.finalize(config=config)
        self._fold_request_metrics(obs)
        bucket = (
            "serve.latency.warm_seconds" if warm else "serve.latency.cold_seconds"
        )
        self.observer.observe_hist(bucket, elapsed)
        self.observer.count(
            "serve.responses.failed" if failed else "serve.responses.ok"
        )
        return Response(
            id=request.id or "",
            status=STATUS_FAILED if failed else STATUS_OK,
            summary=result.summary(),
            error=(
                "solve did not converge even after degradation" if failed else ""
            ),
            manifest_path=str(request_dir / MANIFEST_FILE_NAME),
            num_regions=result.detection.num_regions,
            resistance=(
                result.resistance.tolist() if request.want_field else None
            ),
            events=result.events,
            batch_size=batch_size,
            cache_warm=warm,
            queue_seconds=queue_seconds,
            elapsed_seconds=elapsed,
        )
