"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time

import numpy as np
import pytest

from perfbench import common, formation, run, serving
from perfbench.loadgen import Phase, Outcome, run_phase

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_names_use_only_allowed_characters(spec):
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)


def test_declared_metrics_match_benchmark_json(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert set(common.PREDICTIONS) == set(common.PER_LAYER)


def test_percentile_needs_ten_samples_beyond_it():
    assert common.percentile(range(199), 0.95) is None
    assert common.percentile(range(200), 0.95) == 189.0  # 10 values above
    assert common.percentile(range(19), 0.5) is None
    assert common.percentile(range(20), 0.5) == 9.0
    assert common.percentile([], 0.5) is None


def _planted_response(field, summary="converged=True"):
    from repro.serve import Response

    return Response(id="x", status="ok", summary=summary, resistance=field)


def test_planted_non_physical_field_is_counted_as_failed():
    good = np.full((8, 8), 3_000.0)
    planted = good.copy()
    planted[3, 4] = 1e290
    check = serving.ResponseCheck()
    phase = Phase(name="planted", rate=6.0)
    for index, field in enumerate((good, planted)):
        response = _planted_response(field.tolist())
        phase.outcomes.append(Outcome(index, 0.0, 0.0, 0.01, response))
        problem = check(response)
        if problem:
            phase.problems[index] = problem
    tally = common.Tally()
    serving.tally_phase(tally, phase)
    assert (tally.attempted, tally.failed) == (2, 1)
    # The service said "ok, converged" for a non-physical field.
    assert tally.converged_failures == 1
    # A failed solve is a counted failure, not an incorrect run.
    line = json.loads(common.result_line(tally, E2E, trace=False))
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 2, 1)


#: Placeholder values for every end-to-end metric.
E2E = {name: 1.5 for name in common.END_TO_END}


def test_result_line_holds_every_declared_metric_with_its_unit():
    line = json.loads(common.result_line(common.Tally(1), E2E, trace=False))
    assert line["metrics"] == {
        name: {"value": 1.5, "unit": unit}
        for name, unit in common.END_TO_END.items()
    }
    with pytest.raises(KeyError):
        common.result_line(common.Tally(1), {"setup_s": 1.0}, trace=False)
    layers = common.complete_layers("campaign-n40", {"engine.solve_s": 2.0})
    line = json.loads(common.result_line(common.Tally(1), layers, trace=True))
    assert set(line["metrics"]) == set(common.PER_LAYER)
    assert line["metrics"]["engine.solve_s"]["value"] == 2.0
    assert line["metrics"]["serve.queue_ms"] == {"value": 0.0, "unit": "ms"}


def test_field_check_rejects_non_finite_and_non_positive_cells():
    limit = common.saturation_kohm()
    field = np.full((4, 4), 3_000.0)
    assert common.field_problem(field, limit) is None
    for bad in (np.inf, np.nan, 0.0, -1.0, 2 * limit):
        planted = field.copy()
        planted[1, 2] = bad
        assert common.field_problem(planted, limit) is not None, bad
    assert common.field_problem(None, limit) is not None


def test_formation_mismatch_with_the_reference_makes_the_run_incorrect(tmp_path):
    from dataclasses import replace

    from repro.core.engine import ParmaEngine
    from repro.mea.dataset import Measurement
    from repro.mea.wetlab import quick_device_data

    _, z = quick_device_data(4, seed=1)
    report = ParmaEngine(strategy="single", num_workers=1).form(
        Measurement(z_kohm=z), output_dir=tmp_path
    )
    reference = formation.read_back(report.part_files, tmp_path)
    assert formation.check_pass(report, tmp_path, reference) is None
    planted = replace(reference, checksum=reference.checksum + 1.0)
    problem = formation.check_pass(report, tmp_path, planted)
    assert problem is not None
    tally = common.Tally()
    tally.record(problem, against_reference=True)
    assert json.loads(common.result_line(tally, E2E, trace=False))["correct"] is False


class StallingServer:
    """A unix-socket stub of the solve service; request hour 2 stalls."""

    def __init__(self, path, stall: float) -> None:
        self.stall = stall
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(str(path))
        self.sock.listen(8)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        from repro.serve.protocol import Response, recv_message, send_message

        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                message = recv_message(conn)
                if message.get("hour") == 2.0:
                    time.sleep(self.stall)
                reply = Response(id=message.get("id") or "", status="ok")
                send_message(conn, reply.to_dict())

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=5)


def test_latency_counts_from_due_time_behind_a_stall(tmp_path):
    from repro.serve import Request, SolveClient

    server = StallingServer(tmp_path / "stub.sock", stall=0.6)
    try:
        client = SolveClient(tmp_path / "stub.sock", timeout=10)
        requests = [
            Request(z=[[1.0, 1.0], [1.0, 1.0]], hour=float(i)) for i in range(10)
        ]
        phase = run_phase(
            "stall", client.submit, requests, rate=20.0, threads=1,
            check=lambda response: None,
        )
    finally:
        server.close()
    out = {o.index: o for o in phase.outcomes}
    assert phase.sent == 10 and phase.failed == 0
    assert out[2].latency_ms >= 600
    # Request 3 was due 50 ms after the stalled one but could only leave
    # once it returned: its latency includes the wait in the generator.
    assert out[3].lateness_ms >= 500
    assert out[3].roundtrip_ms < 200
    assert out[3].latency_ms >= out[3].lateness_ms + out[3].roundtrip_ms - 1e-6
    assert max(phase.lateness_ms()) >= 500
    assert phase.over_slo() >= 3
    assert not phase.meets_slo()


def test_ladder_step_stops_sending_after_missing_the_slo():
    def slow(request):
        time.sleep(0.3)
        return request

    phase = run_phase(
        "slow", slow, list(range(40)), rate=40.0, threads=2,
        check=lambda reply: None, stop_on_slo_miss=True,
    )
    assert phase.abandoned > 0
    assert phase.sent + phase.abandoned == 40
    assert not phase.meets_slo()
