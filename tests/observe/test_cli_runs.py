"""`parma runs`: catalog CLI roundtrip, producer wiring, live watch."""

import json

import pytest

from repro.cli import main
from tests.observe.test_catalog import make_manifest, write_manifest_dir


@pytest.fixture()
def campaign_file(tmp_path):
    path = tmp_path / "campaign.txt"
    assert main([
        "simulate", "--n", "8", "--seed", "3", "--noise", "0.0",
        "--out", str(path),
    ]) == 0
    return path


class TestProducerWiring:
    def test_solve_catalog_autoingest(self, campaign_file, tmp_path, capsys):
        db = tmp_path / "cat.db"
        code = main([
            "solve", str(campaign_file), "--strategy", "single",
            "--trace", str(tmp_path / "run"),
            "--catalog", str(db), "--bench-tag", "solver",
        ])
        assert code == 0
        assert "1 ingested" in capsys.readouterr().out
        assert main(["runs", "list", "--db", str(db), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["kind"] == "solve"
        assert rows[0]["status"] == "ok"
        assert rows[0]["bench"] == "solver"

    def test_solve_catalogs_termination_counter(
        self, campaign_file, tmp_path, capsys
    ):
        db = tmp_path / "cat.db"
        run_dir = tmp_path / "run"
        assert main([
            "solve", str(campaign_file), "--strategy", "single",
            "--trace", str(run_dir), "--catalog", str(db),
        ]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        reasons = [
            name for name in manifest["metrics"]
            if name.startswith("solver.termination.")
        ]
        assert len(reasons) == 1
        assert manifest["metrics"][reasons[0]]["value"] == 1
        capsys.readouterr()
        assert main([
            "runs", "query",
            "SELECT name, value FROM metrics "
            "WHERE name LIKE 'solver.termination.%'",
            "--db", str(db), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"name": reasons[0], "value": 1}
        ]

    def test_catalog_requires_trace(self, campaign_file, tmp_path, capsys):
        code = main([
            "solve", str(campaign_file), "--strategy", "single",
            "--catalog", str(tmp_path / "cat.db"),
        ])
        assert code == 2
        assert "--catalog requires --trace" in capsys.readouterr().err

    def test_bench_tag_requires_trace(self, campaign_file, capsys):
        code = main([
            "solve", str(campaign_file), "--strategy", "single",
            "--bench-tag", "solver",
        ])
        assert code == 2
        assert "--bench-tag requires --trace" in capsys.readouterr().err

    def test_monitor_status_stamped(self, campaign_file, tmp_path):
        run_dir = tmp_path / "run"
        assert main([
            "monitor", str(campaign_file), "--strategy", "single",
            "--trace", str(run_dir),
        ]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["status"] == "ok"


class TestRoundtrip:
    @pytest.fixture()
    def db(self, tmp_path):
        runs = tmp_path / "runs"
        for i, solve_s in enumerate([0.1, 0.2, 0.3]):
            write_manifest_dir(
                runs,
                f"r{i}",
                make_manifest(
                    run_id=f"run-{i}",
                    started=1000.0 + i,
                    phases={
                        "solve": {
                            "count": 1, "total": solve_s, "self": solve_s
                        }
                    },
                    extra={"bench": "solver"} if i == 2 else None,
                ),
            )
        db = tmp_path / "cat.db"
        assert main(["runs", "ingest", str(runs), "--db", str(db)]) == 0
        return db

    def test_ingest_reports_counts(self, db, tmp_path, capsys):
        capsys.readouterr()
        runs = tmp_path / "runs"
        assert main(["runs", "ingest", str(runs), "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "0 ingested, 3 already cataloged" in out

    def test_list_table(self, db, capsys):
        capsys.readouterr()
        assert main(["runs", "list", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "run-2" in out and "run-0" in out
        assert "solve" in out

    def test_show(self, db, capsys):
        capsys.readouterr()
        assert main(["runs", "show", "run-1", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "run run-1 [solve] status=ok" in out
        assert "== phases ==" in out

    def test_stats(self, db, capsys):
        capsys.readouterr()
        assert main([
            "runs", "stats", "--db", str(db),
            "--group-by", "n,backend", "--metric", "solve_seconds", "--json",
        ]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["count"] == 3
        assert entries[0]["p50"] == pytest.approx(0.2)

    def test_stats_groups_by_n_and_solver_by_default(self, tmp_path, capsys):
        runs = tmp_path / "by-solver"
        for i, solver in enumerate(["nested", "nested", "bounded"]):
            write_manifest_dir(
                runs,
                f"r{i}",
                make_manifest(run_id=f"s-{i}", started=i, solver=solver),
            )
        db = tmp_path / "by-solver.db"
        assert main(["runs", "ingest", str(runs), "--db", str(db)]) == 0
        capsys.readouterr()
        assert main(["runs", "stats", "--db", str(db), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        groups = {(e["n"], e["solver"]): e["count"] for e in entries}
        assert groups == {(10, "nested"): 2, (10, "bounded"): 1}
        assert all(set(e) >= {"n", "solver"} for e in entries)
        assert not any("backend" in e for e in entries)

    def test_query_and_rejection(self, db, capsys):
        capsys.readouterr()
        assert main([
            "runs", "query", "SELECT COUNT(*) AS c FROM runs",
            "--db", str(db), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == [{"c": 3}]
        assert main([
            "runs", "query", "DELETE FROM runs", "--db", str(db),
        ]) == 2
        assert "only SELECT" in capsys.readouterr().err

    def test_regress_pass_and_fail(self, db, tmp_path, capsys):
        bench = tmp_path / "BENCH_solver.json"
        bench.write_text(json.dumps({
            "benchmark": "solver_fastpath",
            "sizes": [{"n": 10, "fast_cold_seconds": 0.25}],
        }))
        capsys.readouterr()
        # the bench-tagged run (run-2, 0.3 s) is within 1.5x of 0.25 s
        assert main([
            "runs", "regress", "--db", str(db), "--bench", str(bench),
        ]) == 0
        assert "[ok  ] solver n=10" in capsys.readouterr().out
        # a 2x-inflated baseline comparison must exit nonzero
        bench.write_text(json.dumps({
            "benchmark": "solver_fastpath",
            "sizes": [{"n": 10, "fast_cold_seconds": 0.15}],
        }))
        assert main([
            "runs", "regress", "--db", str(db), "--bench", str(bench),
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_regress_empty_gate_fails(self, db, tmp_path, capsys):
        bench = tmp_path / "BENCH_formation.json"
        bench.write_text(json.dumps({
            "benchmark": "formation_cache",
            "sizes": [{"n": 10, "cached_seconds": 0.1}],
        }))
        capsys.readouterr()
        assert main([
            "runs", "regress", "--db", str(db), "--bench", str(bench),
        ]) == 1
        assert "no bench-tagged runs" in capsys.readouterr().err


class TestWatch:
    def test_watch_frames_against_live_service(self, tmp_path, capsys):
        from repro.observe import Observer
        from repro.serve import ServiceConfig, SolveClient, SolveService

        config = ServiceConfig(
            socket_path=tmp_path / "watch.sock",
            results_dir=tmp_path / "results",
            observer=Observer(),
        )
        svc = SolveService(config)
        svc.start()
        try:
            assert SolveClient(config.socket_path).wait_ready(timeout=10.0)
            capsys.readouterr()
            code = main([
                "runs", "watch", "--socket", str(config.socket_path),
                "--iterations", "2", "--interval", "0.05", "--no-clear",
            ])
        finally:
            svc.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("parma serve — up") == 2
        assert "queue depth" in out
        assert "rates over the last" in out

    def test_watch_no_service(self, tmp_path, capsys):
        code = main([
            "runs", "watch", "--socket", str(tmp_path / "absent.sock"),
            "--iterations", "1",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
