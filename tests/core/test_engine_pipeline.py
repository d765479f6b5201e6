"""Tests for ParmaEngine and the campaign pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.anomaly.metrics import score_mask
from repro.core.engine import ParmaEngine
from repro.core.pipeline import run_pipeline
from repro.mea.synthetic import anomaly_mask, paper_like_spec
from repro.mea.wetlab import WetLabConfig, run_campaign, simulate_measurement
from repro.mea.synthetic import FieldSpec, generate_field


@pytest.fixture(scope="module")
def noise_free_run():
    spec = paper_like_spec(8, num_anomalies=1, seed=13)
    return spec, run_campaign(spec, WetLabConfig(noise_rel=0.0), seed=13)


class TestEngine:
    def test_parametrize_recovers_truth(self, noise_free_run):
        _, run = noise_free_run
        engine = ParmaEngine(strategy="single")
        result = engine.parametrize(run.campaign.measurements[0])
        err = result.solve.max_relative_error(run.ground_truth[0])
        assert err < 1e-6
        assert result.formation.terms_formed == 2 * 8**4
        assert set(result.laps) == {"formation", "solve", "detect"}

    def test_detects_planted_anomaly(self, noise_free_run):
        spec, run = noise_free_run
        engine = ParmaEngine(strategy="single", threshold_sigmas=3.0)
        result = engine.parametrize(run.campaign.measurements[0])
        truth = anomaly_mask(spec)
        score = score_mask(result.detection.mask, truth)
        # The blob's cosine falloff leaves edge pixels barely elevated,
        # so recall captures the core (not the rim) at high precision.
        assert score.recall >= 0.4
        assert score.precision >= 0.9

    def test_strategy_choice_does_not_change_solution(self, noise_free_run):
        _, run = noise_free_run
        meas = run.campaign.measurements[0]
        r_single = ParmaEngine(strategy="single").parametrize(meas)
        r_pymp = ParmaEngine(strategy="pymp", num_workers=2).parametrize(meas)
        np.testing.assert_allclose(
            r_single.resistance, r_pymp.resistance, rtol=1e-9
        )

    def test_equations_persisted(self, noise_free_run, tmp_path):
        _, run = noise_free_run
        engine = ParmaEngine(strategy="pymp", num_workers=2)
        result = engine.parametrize(
            run.campaign.measurements[0], output_dir=tmp_path
        )
        assert result.formation.bytes_written > 0
        assert len(list(tmp_path.iterdir())) == 2

    def test_summary_mentions_key_facts(self, noise_free_run):
        _, run = noise_free_run
        engine = ParmaEngine(strategy="single")
        text = engine.parametrize(run.campaign.measurements[0]).summary()
        assert "8x8" in text and "converged=True" in text

    def test_full_solver_option(self):
        spec = FieldSpec(n=3, noise_rel=0.0)
        r = generate_field(spec)
        meas = simulate_measurement(r, WetLabConfig(noise_rel=0.0))
        result = ParmaEngine(strategy="single", solver="full").parametrize(meas)
        assert result.solve.method == "full"
        np.testing.assert_allclose(result.resistance, r, rtol=1e-4)


class TestPipeline:
    def test_campaign_all_timepoints(self, noise_free_run):
        _, run = noise_free_run
        out = run_pipeline(run.campaign, engine=ParmaEngine(strategy="single"))
        assert out.hours == (0.0, 6.0, 12.0, 24.0)
        assert out.resistance_series().shape == (4, 8, 8)
        assert out.total_formation_terms() == 4 * 2 * 8**4

    def test_drift_detects_growth(self, noise_free_run):
        spec, run = noise_free_run
        out = run_pipeline(
            run.campaign,
            engine=ParmaEngine(strategy="single"),
            growth_threshold=0.10,
        )
        assert out.drift_detection is not None
        assert out.drift_detection.num_regions >= 1
        # The growing region overlaps the planted blob.
        truth = anomaly_mask(spec)
        overlap = out.drift_detection.mask & truth
        assert overlap.any()

    def test_no_drift_on_static_field(self):
        spec = FieldSpec(n=6, noise_rel=0.05)  # no anomalies
        run = run_campaign(spec, WetLabConfig(noise_rel=0.0), seed=3)
        out = run_pipeline(run.campaign, engine=ParmaEngine(strategy="single"))
        assert out.drift_detection.num_regions == 0

    def test_summary_structure(self, noise_free_run):
        _, run = noise_free_run
        out = run_pipeline(run.campaign, engine=ParmaEngine(strategy="single"))
        text = out.summary()
        assert text.count("Parma 8x8") == 4
        assert "drift" in text


class TestWarmStart:
    def test_warm_start_reduces_iterations(self, noise_free_run):
        _, run = noise_free_run
        engine = ParmaEngine(strategy="single")
        warm = run_pipeline(run.campaign, engine=engine, warm_start=True)
        cold = run_pipeline(run.campaign, engine=engine, warm_start=False)
        warm_iters = sum(r.solve.iterations for r in warm.results[1:])
        cold_iters = sum(r.solve.iterations for r in cold.results[1:])
        assert warm_iters <= cold_iters
        # And the answers agree regardless of the seed point.
        np.testing.assert_allclose(
            warm.resistance_series(), cold.resistance_series(), rtol=1e-6
        )

    def test_first_timepoint_never_warm(self, noise_free_run):
        _, run = noise_free_run
        engine = ParmaEngine(strategy="single")
        warm = run_pipeline(run.campaign, engine=engine, warm_start=True)
        cold = run_pipeline(run.campaign, engine=engine, warm_start=False)
        assert warm.results[0].solve.iterations == \
            cold.results[0].solve.iterations

    def test_unconverged_timepoint_seeds_no_warm_start(self, noise_free_run):
        _, run = noise_free_run
        engine = ParmaEngine(strategy="single")
        real = engine.parametrize
        warm_seeded = []

        def spy(meas, **kwargs):
            warm_seeded.append("r0" in kwargs["solver_kwargs"])
            result = real(meas, **kwargs)
            if meas.hour == 6.0:  # report this solve as unconverged
                solve = replace(result.solve, converged=False)
                result = replace(result, solve=solve)
            return result

        engine.parametrize = spy
        run_pipeline(run.campaign, engine=engine, warm_start=True)
        # 0 h cold; 6 h warm from 0 h; 12 h cold after the unconverged
        # 6 h solve; 24 h warm from the converged 12 h field.
        assert warm_seeded == [False, True, False, True]


class TestRegularizedEngine:
    def test_engine_with_regularized_solver(self):
        spec = paper_like_spec(6, num_anomalies=1, seed=91)
        run = run_campaign(spec, WetLabConfig(noise_rel=0.01), seed=91)
        engine = ParmaEngine(strategy="single", solver="regularized")
        result = engine.parametrize(
            run.campaign.measurements[0], solver_kwargs={"lam": 1e-3}
        )
        assert result.solve.method == "regularized"
        assert np.all(result.resistance > 0)

    def test_unknown_solver_name_raises(self):
        spec = paper_like_spec(4, num_anomalies=0, seed=92)
        run = run_campaign(spec, WetLabConfig(noise_rel=0.0), seed=92)
        engine = ParmaEngine(strategy="single", solver="quantum")
        with pytest.raises(ValueError, match="unknown method"):
            engine.parametrize(run.campaign.measurements[0])
