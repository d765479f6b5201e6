"""Heterogeneous-cluster scheduling and simulation (paper §VII).

The paper's first future-work item is extending Parma to "a cluster of
heterogeneous nodes".  This module does that for the scheduling layer:

* :func:`lpt_schedule_speeds` — speed-aware LPT: tasks go to the
  worker that would *finish them earliest* given per-worker speed
  factors (the natural generalization of the deterministic plan of
  §IV-C.1; for uniform speeds it reduces exactly to
  :func:`~repro.parallel.workstealing.lpt_schedule`);
* :class:`HeterogeneousCluster` — a rank pool with mixed speed
  classes (e.g. old 2.0 GHz nodes next to new 3.5 GHz ones), strong-
  scaling simulation on it, and the *naive-vs-aware* comparison that
  quantifies what speed-blind scheduling loses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.parallel.simcluster import ClusterModel
from repro.parallel.workstealing import Assignment
from repro.utils.validation import require_positive


def lpt_schedule_speeds(
    costs: Sequence[float], speeds: Sequence[float]
) -> Assignment:
    """Speed-aware deterministic LPT over heterogeneous workers.

    ``speeds[w]`` is worker w's relative throughput (1.0 = reference).
    Tasks are taken in decreasing cost order; each goes to the worker
    whose current finish time *plus this task's scaled cost* is
    smallest (ties: lower worker index).  Loads are reported in
    reference-time units (wall-clock on that worker).
    """
    costs_arr = np.asarray(costs, dtype=np.float64)
    speeds_arr = np.asarray(speeds, dtype=np.float64)
    if np.any(costs_arr < 0):
        raise ValueError("task costs must be non-negative")
    if len(speeds_arr) < 1 or np.any(speeds_arr <= 0):
        raise ValueError("speeds must be positive and non-empty")
    workers = len(speeds_arr)
    worker_of = np.empty(len(costs_arr), dtype=np.int64)
    finish = np.zeros(workers, dtype=np.float64)
    order = np.argsort(-costs_arr, kind="stable")
    for task in order:
        candidate_finish = finish + costs_arr[task] / speeds_arr
        w = int(np.argmin(candidate_finish))
        worker_of[task] = w
        finish[w] = candidate_finish[w]
    return Assignment(
        worker_of=worker_of,
        loads=finish,
        makespan=float(finish.max(initial=0.0)),
    )


def blind_schedule_speeds(
    costs: Sequence[float], speeds: Sequence[float]
) -> Assignment:
    """Speed-*blind* LPT executed on heterogeneous workers.

    The plan assumes uniform workers (classic LPT by load), then the
    wall-clock is what the mixed-speed machines actually deliver — the
    baseline a heterogeneity-aware planner is judged against.
    """
    from repro.parallel.workstealing import lpt_schedule

    speeds_arr = np.asarray(speeds, dtype=np.float64)
    plan = lpt_schedule(costs, len(speeds_arr))
    finish = plan.loads / speeds_arr
    return Assignment(
        worker_of=plan.worker_of,
        loads=finish,
        makespan=float(finish.max(initial=0.0)),
    )


@dataclass(frozen=True)
class HeterogeneousCluster:
    """A pool of ranks drawn from named speed classes.

    ``classes`` maps a label to ``(count, speed)``; e.g.
    ``{"old": (16, 1.0), "new": (16, 1.8)}``.
    """

    classes: dict[str, tuple[int, float]]
    model: ClusterModel

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("cluster needs at least one speed class")
        for label, (count, speed) in self.classes.items():
            if count < 1:
                raise ValueError(f"class {label!r} has no ranks")
            require_positive(speed, f"speed of class {label!r}")

    def speeds(self) -> np.ndarray:
        out: list[float] = []
        for label in sorted(self.classes):
            count, speed = self.classes[label]
            out.extend([speed] * count)
        return np.asarray(out)

    @property
    def num_ranks(self) -> int:
        return int(sum(c for c, _ in self.classes.values()))

    def total_speed(self) -> float:
        return float(sum(c * s for c, s in self.classes.values()))

    def simulate(
        self, task_costs: Sequence[float], aware: bool = True
    ) -> "HeterogeneousPoint":
        """Makespan of the workload on this cluster.

        ``aware=False`` uses the speed-blind plan.  Startup and the
        result reduction follow the homogeneous model (they are
        latency-bound, not speed-bound).
        """
        costs = np.asarray(task_costs, dtype=np.float64)
        serial = self.model.serial_fraction * float(costs.sum())
        par = costs * (1.0 - self.model.serial_fraction)
        speeds = self.speeds()
        plan = (
            lpt_schedule_speeds(par, speeds)
            if aware
            else blind_schedule_speeds(par, speeds)
        )
        p = self.num_ranks
        depth = math.ceil(math.log2(p)) if p > 1 else 0
        startup = self.model.startup_per_rank * (depth + 1) if p > 1 else 0.0
        per_rank_bytes = self.model.result_bytes_per_task * len(costs) / p
        comm = depth * (self.model.alpha + self.model.beta * per_rank_bytes)
        return HeterogeneousPoint(
            compute_time=plan.makespan,
            startup_time=startup,
            comm_time=comm,
            serial_time=serial,
            plan=plan,
        )

    def awareness_gain(self, task_costs: Sequence[float]) -> float:
        """Speed-blind makespan / aware makespan (>= ~1)."""
        blind = self.simulate(task_costs, aware=False).total
        aware = self.simulate(task_costs, aware=True).total
        return blind / aware


@dataclass(frozen=True)
class HeterogeneousPoint:
    compute_time: float
    startup_time: float
    comm_time: float
    serial_time: float
    plan: Assignment

    @property
    def total(self) -> float:
        return (
            self.compute_time
            + self.startup_time
            + self.comm_time
            + self.serial_time
        )


def ideal_heterogeneous_time(
    task_costs: Sequence[float], speeds: Sequence[float]
) -> float:
    """Lower bound: total work / total speed (perfect divisibility)."""
    costs = np.asarray(task_costs, dtype=np.float64)
    speeds_arr = np.asarray(speeds, dtype=np.float64)
    return float(costs.sum() / speeds_arr.sum())
