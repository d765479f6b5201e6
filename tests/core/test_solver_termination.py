"""Structured termination reasons and the singular-Jacobian exit."""

import io
import sys

import numpy as np
import pytest

from repro.core import solver as solver_mod
from repro.core.engine import ParmaEngine
from repro.core.regularized import solve_regularized
from repro.core.solver import SolveResult, solve, solve_nested
from repro.io.textformat import load_campaign, save_campaign
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import WetLabConfig, quick_device_data, run_campaign
from repro.observe import Observer
from repro.utils import logging as rlog


def _uniform_start(z: np.ndarray) -> np.ndarray:
    m, n = z.shape
    return np.full((m, n), float(np.median(z) * m * n / (m + n - 1)))


def _counter(obs: Observer, name: str) -> float:
    return float(obs.metrics.snapshot().get(name, {}).get("value", 0.0))


class TestSingularExit:
    @pytest.mark.parametrize("n", [6, 8])
    def test_dead_column_stops_before_any_step(self, n, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a singular solve must not attempt a step")

        monkeypatch.setattr(solver_mod, "_lm_rescue", unreachable)
        monkeypatch.setattr(solver_mod, "_gn_step", unreachable)
        _, z = quick_device_data(n, seed=11)
        r0 = _uniform_start(z)
        r0[2, 3] = 1e300  # one resistor run off: its column T²/R is ~0
        obs = Observer()
        result = solve_nested(z, r0=r0, observer=obs)
        assert result.termination == "singular"
        assert not result.converged
        assert result.iterations == 1
        np.testing.assert_allclose(result.r_estimate, r0, rtol=1e-12)
        assert _counter(obs, "solver.gn.singular_exits") == 1.0

    @pytest.mark.parametrize("noise", [0.0, 0.005])
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_never_fires_on_paper_like_devices(self, n, noise):
        for seed in range(4):
            _, z = quick_device_data(n, seed=seed, noise_rel=noise)
            obs = Observer()
            result = solve_nested(z, observer=obs)
            assert _counter(obs, "solver.gn.singular_exits") == 0.0
            assert result.termination != "singular"
            if result.converged:
                assert result.termination in ("residual", "step")


class TestTerminationReasons:
    def test_default_keeps_old_constructors_loading(self):
        result = SolveResult(
            r_estimate=np.ones((2, 2)),
            method="nested",
            iterations=1,
            residual_norm=0.0,
            elapsed_seconds=0.0,
            converged=True,
        )
        assert result.termination == ""

    def test_max_iter(self):
        _, z = quick_device_data(6, seed=2)
        result = solve_nested(z, max_iter=2)
        assert not result.converged
        assert result.termination == "max_iter"

    def test_regularized_stops_on_relative_optimality(self, tmp_path):
        # The 8x8 lambda=1e-3 optimum where max|grad| stalls at 1.1e-12,
        # above the absolute tol, and every damped step fails.
        run = run_campaign(
            paper_like_spec(8, seed=3), WetLabConfig(noise_rel=0.0), seed=3
        )
        path = tmp_path / "campaign.txt"
        save_campaign(run.campaign, path)  # as ``parma simulate`` writes it
        z = load_campaign(path).at_hour(0.0).z_kohm
        result = solve_regularized(z, 1e-3)
        assert result.converged
        assert result.termination in ("gradient", "step")

    @pytest.mark.parametrize("n", [4, 8])
    def test_regularized_reason_matches_verdict(self, n):
        for seed in range(4):
            _, z = quick_device_data(n, seed=seed)
            result = solve_regularized(z, 1e-3)
            expected = (
                ("gradient", "step") if result.converged
                else ("no_descent", "max_iter")
            )
            assert result.termination in expected

    @pytest.mark.parametrize("method", ["bounded", "full"])
    def test_least_squares_solvers_report_scipy_reason(self, method):
        _, z = quick_device_data(4, seed=1)
        result = solve(z, method=method)
        assert result.converged
        assert result.termination in ("gradient", "cost", "step")
        starved = solve(z, method=method, max_nfev=1)
        assert not starved.converged
        assert starved.termination == "max_iter"


class TestReasonReachesTheRecords:
    @pytest.fixture()
    def log_buffer(self):
        buf = io.StringIO()
        rlog.configure("info", stream=buf)
        yield buf
        rlog._state["level"] = 0
        rlog._state["stream"] = sys.stderr

    def test_span_and_log_record(self, log_buffer):
        _, z = quick_device_data(6, seed=5)
        obs = Observer()
        result = ParmaEngine(strategy="single", observer=obs).parametrize(z)
        assert result.solve.termination == "residual"
        solve_spans = [s for s in obs.spans if s.name == "solve"]
        assert [s.attrs["termination"] for s in solve_spans] == ["residual"]
        solved = [
            line for line in log_buffer.getvalue().splitlines()
            if "event=parma.solved" in line
        ]
        assert len(solved) == 1 and "termination=residual" in solved[0]
