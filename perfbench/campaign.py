"""Workload ``campaign-n40``: wet-lab days through ``run_pipeline``.

Each day is a distinct simulated 40x40 device measured at 0/6/12/24 h
with the default 0.5 % instrument noise, parametrized the way
``parma monitor`` runs it: default (``pymp``) strategy at ``nproc``
workers, nested solver, warm start and degradation on.  The solve is
nearly all of the wall time, so the dense Gauss-Newton step, the
Laplacian factor cache and the degradation ladder dominate; serving is
absent and formation is about 1 %.

The days are a fixed panel, the same in every run; ``--seed`` sets the
order in which a run parametrizes them.  A day's cost swings two- to
three-fold with its noise draw, because the solver's convergence
verdict flips under small perturbations, so a few days drawn afresh per
seed cannot give a steady rate within one run.  A run covers
``max(2, seconds // 11)`` panel days.

Every timepoint's field is checked against the engine's saturation
limit: today many n=40 timepoints come back unconverged with fields far
above it, and those count as failed.
"""

from __future__ import annotations

import statistics
import time
import warnings

import numpy as np

from perfbench import common
from perfbench.common import NPROC, Tally, print_phase

N = 40
MIN_DAYS = 2
#: Nominal wall time of one n=40 day on the reference host; a run of
#: ``--seconds`` covers ``max(MIN_DAYS, seconds // DAY_SECONDS)`` days.
DAY_SECONDS = 11.0
#: Seeds the panel of days, which is the same for every ``--seed``
#: (see the module docstring for why).
PANEL_SEED = 40

#: What ``parma monitor`` pays before its first solve.
SETUP_CODE = (
    "import repro.core.pipeline\n"
    "from repro.core.engine import ParmaEngine\n"
    f"ParmaEngine(num_workers={min(4, NPROC)}).warm({N})\n"
)


def make_day(day: int):
    """Panel day ``day``: one device read at 0/6/12/24 h, with its truth.

    Returns ``(campaign, ground_truth)`` from ``run_campaign`` with the
    default 0.5 % instrument noise.
    """
    from repro.mea.synthetic import paper_like_spec
    from repro.mea.wetlab import run_campaign
    from repro.utils.rng import derive_seed

    day_seed = derive_seed(PANEL_SEED, "campaign-day", day)
    run = run_campaign(paper_like_spec(N, seed=day_seed), seed=day_seed)
    return run.campaign, run.ground_truth


def day_order(seed: int, days: int) -> list[int]:
    """The order in which a run parametrizes the panel's days."""
    from repro.utils.rng import derive_seed

    rng = np.random.default_rng(derive_seed(seed, "campaign-order"))
    return [int(day) for day in rng.permutation(days)]


def make_engine():
    from repro.core.engine import ParmaEngine

    engine = ParmaEngine(num_workers=min(4, NPROC))
    engine.warm(N)
    return engine


def relative_error(estimate, truth) -> float:
    """Median |R^ - R| / R over the cells (NaN counts as infinitely wrong)."""
    err = np.abs(np.asarray(estimate) - truth) / truth
    return float(np.median(np.where(np.isnan(err), np.inf, err)))


def run_day(engine, day, tally: Tally, limit: float, observer=None):
    """Parametrize one day; returns (wall seconds, results, errors)."""
    from repro.core.pipeline import run_pipeline

    campaign, ground_truth = day
    timepoints = len(campaign)
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_pipeline(
                campaign, engine=engine, warm_start=True, observer=observer
            )
    except Exception as exc:  # a raising day fails all of its timepoints
        wall = time.perf_counter() - start
        for _ in range(timepoints):
            tally.record(f"raised {type(exc).__name__}")
        return wall, (), []
    wall = time.perf_counter() - start
    errors = []
    for result, truth in zip(out.results, ground_truth):
        tally.record(
            common.field_problem(result.resistance, limit),
            converged=result.solve.converged,
        )
        errors.append(relative_error(result.resistance, truth))
    return wall, out.results, errors


def report_day(label: str, day: int, wall: float, results) -> None:
    print_phase(
        label,
        day=day,
        wall_s=wall,
        timepoints=len(results),
        converged=sum(1 for r in results if r.solve.converged),
        rungs=",".join(
            r.degradation.rung_used if r.degradation else "-" for r in results
        ),
    )


def run(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    if trace:
        return _run_traced(seed)
    setups = [common.process_setup_seconds(SETUP_CODE) for _ in range(3)]
    print_phase("setup", runs=len(setups), seconds=[round(s, 4) for s in setups])
    limit = common.saturation_kohm()
    engine = make_engine()
    tally = Tally()
    walls: list[float] = []
    errors: list[float] = []
    days = max(MIN_DAYS, int(seconds // DAY_SECONDS))
    panel = [make_day(day) for day in range(days)]
    for day in day_order(seed, len(panel)):
        wall, results, day_errors = run_day(engine, panel[day], tally, limit)
        report_day("day", day, wall, results)
        walls.append(wall)
        errors.extend(day_errors)
    print_phase(
        "campaign",
        days=len(walls),
        timepoints=tally.attempted,
        failed=tally.failed,
        failed_share=tally.failed / tally.attempted,
        reasons=tally.reasons,
        timepoints_per_s=tally.attempted / sum(walls),
        median_rel_err=common.median(errors),
    )
    return tally, {
        "setup_s": common.median(setups),
        "latency_ms": 1e3 * sum(walls) / tally.attempted,
    }


def _clear_caches() -> None:
    from repro.core import clear_jacobian_cache, clear_template_cache
    from repro.kirchhoff import clear_laplacian_cache

    clear_template_cache()
    clear_jacobian_cache()
    clear_laplacian_cache()


def _run_traced(seed: int) -> tuple[Tally, dict]:
    """The same day twice, cold caches each time: untraced, then traced."""
    from repro.core import cache_stats
    from repro.kirchhoff import laplacian_cache_stats
    from repro.observe import get_observer, set_observer

    limit = common.saturation_kohm()
    index = day_order(seed, MIN_DAYS)[0]
    day = make_day(index)
    tally = Tally()

    _clear_caches()
    plain_wall = run_day(make_engine(), day, tally, limit)[0]

    _clear_caches()
    obs = common.observer("campaign-n40", seed, "campaign")
    previous = get_observer()
    set_observer(obs)
    try:
        with obs.span("bench.campaign"):
            with obs.span("bench.engine.warm", n=N):
                engine = make_engine()
            with obs.span("bench.pipeline", day=index):
                traced_wall, results, errors = run_day(
                    engine, day, tally, limit, observer=obs
                )
        report_day("traced-day", index, traced_wall, results)
        factor_stats = laplacian_cache_stats()
        template_stats = cache_stats()
        factor_ms, jacobian_ms = _direct_calls(day[1], obs)
    finally:
        set_observer(previous)
    snapshot = obs.metrics.snapshot()

    def counter(name: str) -> float:
        return float(snapshot.get(name, {}).get("value", 0.0))

    iteration_hist = snapshot.get("solver.iteration.seconds", {})
    lookups = factor_stats.hits + factor_stats.misses
    metrics = {
        "campaign.timepoints_per_s": len(results) / traced_wall,
        "campaign.median_rel_err": common.median(errors),
        "engine.form_s": statistics.fmean(r.laps["formation"] for r in results),
        "engine.solve_s": statistics.fmean(r.laps["solve"] for r in results),
        "engine.detect_s": statistics.fmean(r.laps["detect"] for r in results),
        "solver.iterations": statistics.fmean(r.solve.iterations for r in results),
        "solver.iteration_ms": (
            1e3 * iteration_hist["sum"] / iteration_hist["count"]
            if iteration_hist.get("count") else 0.0
        ),
        "solver.lm_rescues": counter("solver.gn.lm_rescues"),
        "solver.refine_fallbacks": counter("solver.gn.refine_fallbacks"),
        "solver.jacobian_ms": jacobian_ms,
        "forward.factor_ms": factor_ms,
        "solver.unconverged": float(
            sum(1 for r in results if not r.solve.converged)
        ),
        "degrade.escalations": counter("degrade.rung_transitions"),
        "forward.factor_hit_ratio": factor_stats.hits / lookups if lookups else 0.0,
        "forward.pinv_materializations": float(
            factor_stats.pinv_materializations
        ),
        **common.template_metrics(template_stats),
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    print_phase(
        "traced-campaign",
        timepoints=tally.attempted,
        failed=tally.failed,
        plain_wall_s=plain_wall,
        traced_wall_s=traced_wall,
    )
    common.print_self_times(obs.spans, "campaign")
    common.write_spans(obs.spans, "campaign-n40", seed)
    return tally, metrics


def _direct_calls(fields, obs) -> tuple[float, float]:
    """Median cold factorisation and Jacobian time on the true fields."""
    from repro.core.solver import nested_jacobian
    from repro.kirchhoff import clear_laplacian_cache
    from repro.kirchhoff.forward import laplacian_factor_cached

    factor_ms, jacobian_ms = [], []
    for field in fields:
        clear_laplacian_cache()
        with obs.span("bench.forward.factor"):
            start = time.perf_counter()
            laplacian_factor_cached(field)
            factor_ms.append((time.perf_counter() - start) * 1e3)
        with obs.span("bench.solver.jacobian"):
            start = time.perf_counter()
            nested_jacobian(field)
            jacobian_ms.append((time.perf_counter() - start) * 1e3)
    return common.median(factor_ms), common.median(jacobian_ms)
