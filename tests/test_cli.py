"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect"])
        assert args.dataset == "smd"
        assert args.threshold == "best_f1"


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "smd" in out and "j-d2" in out

    def test_analyze_data(self, capsys):
        assert main(["analyze-data", "--dataset", "smd", "--services", "3",
                     "--length", "256"]) == 0
        out = capsys.readouterr().out
        assert "diversity" in out and "recommended window" in out

    def test_detect_small(self, capsys):
        assert main(["detect", "--dataset", "smd", "--services", "2",
                     "--length", "256", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "AVERAGE" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--dataset", "smd", "--services", "2",
                     "--length", "256", "--epochs", "1",
                     "--baselines", "VAE"]) == 0
        out = capsys.readouterr().out
        assert "MACE" in out and "VAE" in out

    def test_compare_unknown_baseline(self, capsys):
        assert main(["compare", "--baselines", "Nope", "--services", "2",
                     "--length", "256"]) == 2


class TestAnalysisCommands:
    def test_lint_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violating_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert main(["lint", str(bad)]) == 1
        assert "REP101" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP101" in out and "REP104" in out

    def test_lint_select(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert main(["lint", str(bad), "--select", "REP104"]) == 0

    def test_analyze_effects_gate_passes(self, capsys):
        # one gate over the model graphs and the determinism roots: the
        # committed analysis_baseline.json must match exactly
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "analysis clean" in out
        assert "MaceTrainer.fit" in out and "TranAD" in out

    def test_analyze_effects_json_matches_golden_baseline(self, capsys):
        import json

        assert main(["analyze", "--json",
                     "--baseline", "analysis_baseline.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unaudited"] == []
        assert payload["new_audited"] == []
        assert payload["vanished"] == []
        golden = json.loads(
            open("analysis_baseline.json", encoding="utf-8").read())
        assert golden["audited"]  # committed baseline is non-empty
        # every reported finding is audited and fingerprint-covered
        assert payload["summary"]["audited"] >= len(golden["audited"])
        assert all(f["suppressed"] for f in payload["effects"])
        assert all(f["suppressed"] for m in payload["models"]
                   for f in m["findings"])
        assert all(row["found"] for row in payload["roots"])

    def test_analyze_effects_update_baseline_roundtrip(self, tmp_path,
                                                       capsys):
        import json

        target = tmp_path / "analysis_baseline.json"
        assert main(["analyze", "--update-baseline",
                     "--baseline", str(target)]) == 0
        written = json.loads(target.read_text(encoding="utf-8"))
        committed = json.loads(
            open("analysis_baseline.json", encoding="utf-8").read())
        assert written == committed

    def test_analyze_effects_vanished_fails(self, tmp_path, capsys):
        import json

        committed = json.loads(
            open("analysis_baseline.json", encoding="utf-8").read())
        committed["audited"].append("DET999|ghost|x|y|z.py")
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(committed), encoding="utf-8")
        assert main(["analyze", "--baseline", str(doctored)]) == 1
        assert "VANISHED" in capsys.readouterr().out

    def test_analyze_rejects_version_1_baseline(self, tmp_path, capsys):
        import json

        old = tmp_path / "old.json"
        old.write_text(json.dumps({"version": 1, "accepted_warnings": []}),
                       encoding="utf-8")
        assert main(["analyze", "--baseline", str(old)]) == 2
        assert "expected 2" in capsys.readouterr().err

    def test_check_model_defaults(self, capsys):
        assert main(["check-model"]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "N" in out

    def test_check_model_concrete_batch(self, capsys):
        assert main(["check-model", "--batch", "16", "--features", "5"]) == 0
        assert "16" in capsys.readouterr().out

    def test_check_model_negative_batch_rejected(self, capsys):
        assert main(["check-model", "--batch", "-5"]) == 1
        assert "non-negative" in capsys.readouterr().err

    def test_check_model_bad_config(self, capsys):
        # num-bases 0 collapses the spectrum below the characterization
        # kernel — the contract must fail and name the layer, not crash.
        assert main(["check-model", "--num-bases", "0"]) == 1
        err = capsys.readouterr().err
        assert "contract violation" in err
        assert "characterization.conv" in err


class TestObsCommand:
    def _run_dir(self, tmp_path):
        from repro.obs.events import EventLog

        with EventLog(tmp_path / "events.jsonl") as log:
            log.emit("epoch", epoch=1, loss=0.5, grad_norm=1.0,
                     seconds=0.2, nonfinite=0)
        return tmp_path

    def test_obs_report_renders(self, tmp_path, capsys):
        directory = self._run_dir(tmp_path)
        assert main(["obs", "report", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "epoch timeline" in out

    def test_obs_report_missing_dir(self, tmp_path, capsys):
        code = main(["obs", "report", "--dir", str(tmp_path / "absent")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["obs"])

    def test_train_fleet_parser_accepts_obs_flag(self):
        args = build_parser().parse_args(
            ["train-fleet", "--obs", "--dir", "/tmp/x"])
        assert args.obs is True
        args = build_parser().parse_args(["train-fleet"])
        assert args.obs is False


class TestServeCommand:
    """Golden-file coverage for the serving-gateway CLI.

    The serve pipeline is seeded end to end (fleet synthesis, shard
    placement, fault plan, worker kill), so its rendered output is
    bitwise stable and committed as ``golden_serve.txt``.
    """

    ARGS = ["serve", "--services", "4", "--history", "64",
            "--updates", "12", "--fault-rate", "1.0",
            "--fault-seed", "1", "--kill", "svc-0:10"]

    def test_matches_golden_output(self, capsys):
        from pathlib import Path

        assert main(self.ARGS) == 0
        golden = (Path(__file__).parent / "golden_serve.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_bad_kill_spec(self, capsys):
        assert main(["serve", "--services", "2", "--history", "64",
                     "--updates", "4", "--kill", "nocolon"]) == 2
        assert "bad --kill" in capsys.readouterr().err

    def test_history_below_calibration_floor(self, capsys):
        assert main(["serve", "--services", "2", "--history", "16",
                     "--updates", "4"]) == 2
        assert "calibration floor" in capsys.readouterr().err

    def test_kill_with_non_integer_applies(self, capsys):
        assert main(["serve", "--services", "2", "--history", "64",
                     "--updates", "4", "--kill", "svc-0:abc"]) == 2
        assert "bad --kill 'svc-0:abc'" in capsys.readouterr().err

    def test_kill_for_unknown_service(self, capsys):
        # svc-9 does not exist among 2 services; it used to hash onto a
        # real shard and kill that shard's worker instead.
        assert main(["serve", "--services", "2", "--history", "64",
                     "--updates", "3", "--kill", "svc-9:1"]) == 2
        captured = capsys.readouterr()
        assert "unknown service 'svc-9'" in captured.err
        assert "ok:" not in captured.out

    @pytest.mark.parametrize("rate", ["1.5", "-0.1"])
    def test_fault_rate_out_of_range(self, capsys, rate):
        assert main(["serve", "--services", "2", "--history", "64",
                     "--updates", "4", "--fault-rate", rate]) == 2
        assert "--fault-rate must be in [0, 1]" in capsys.readouterr().err

    def test_obs_report_renders_gateway_section(self, tmp_path, capsys):
        # the gateway leaves events.jsonl + metrics.jsonl behind; the
        # obs report must reconstruct the serving story from those alone
        assert main(["serve", "--services", "2", "--history", "64",
                     "--updates", "4", "--workers", "1",
                     "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "serving gateway" in out
        assert "drained cleanly" in out


def _serving_run_dir(path):
    """A deterministic run directory exercising the console/trace surfaces.

    Everything is tick-clocked and seeded — event timestamps, trace ids,
    histogram contents — so the rendered console and report are
    byte-identical across runs and committed as golden files.
    """
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.propagate import TraceContext, TraceLog
    from repro.runtime.health import HealthState

    registry = MetricsRegistry()
    ack = registry.histogram("gateway.ack_seconds")
    tick_box = [0]
    log = EventLog(path / "events.jsonl",
                   clock=lambda: float(tick_box[0]))
    traces = TraceLog(path / "spans.jsonl")
    for tick in range(1, 31):
        tick_box[0] = tick
        seconds = 0.2 if 10 <= tick < 20 else 0.004   # the fault window
        context = TraceContext.mint(0, "svc-0", tick)
        ack.observe(seconds, exemplar=context.trace_id)
        traces.record("gateway.submit", context, seconds,
                      service="svc-0", sequence=tick, shard="shard-0",
                      degraded=False)
        child = context.child("worker.update", qualifier="0:1")
        traces.record("worker.update", child, seconds / 2,
                      parent_span_id=context.span_id, depth=1,
                      service="svc-0", sequence=tick, shard="shard-0",
                      incarnation=0, replay=False, duplicate=False)
    registry.counter("gateway.accepted", tenant="default").inc(30)
    registry.gauge("gateway.queue_depth", shard="shard-0").set(3)
    wait = registry.histogram("gateway.queue_wait_seconds", shard="shard-0")
    for value in (0.001, 0.002, 0.004):
        wait.observe(value)
    registry.histogram("serving.update_seconds",
                       service="svc-0").observe(0.004)
    registry.histogram("serving.update_seconds",
                       service="svc-1").observe(0.004)
    # The exact payload ServingRuntime._report_transitions emits.
    log.emit("health_transition", service="svc-1",
             from_state=HealthState.HEALTHY.value,
             to_state=HealthState.DEGRADED.value, tick=30,
             ticks_in_state=30, transition_count=1, last_transition_tick=0)
    registry.dump(path / "metrics.jsonl")
    log.close()
    traces.close()
    return path


class TestObsGoldens:
    """Byte-identical console and report output for a synthetic serving
    run."""

    def test_obs_top_once_matches_golden(self, tmp_path, capsys):
        from pathlib import Path

        directory = _serving_run_dir(tmp_path)
        assert main(["obs", "top", "--dir", str(directory), "--once"]) == 0
        golden = (Path(__file__).parent / "golden_obs_top.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_obs_report_matches_golden(self, tmp_path, capsys):
        from pathlib import Path

        directory = _serving_run_dir(tmp_path)
        assert main(["obs", "report", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        golden = (Path(__file__).parent /
                  "golden_obs_report.txt").read_text()
        assert out == golden
        # The exemplar drill-down links the p99 to its trace tree.
        assert "latency exemplars" in out
        assert "worst gateway.ack_seconds trace:" in out


class TestObsTopOnServingRuntime:
    """The console reads the health events a real ServingRuntime writes."""

    def test_quarantined_service_shows_its_state(self, tmp_path, capsys):
        from repro.obs.events import EventLog, install_event_log
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime.faults import FaultInjector, FaultyDetector
        from repro.runtime.gateway.traffic import (
            ZScoreDetector,
            make_fleet_series,
        )
        from repro.runtime.serving import ServingRuntime

        fleet = make_fleet_series(2, history_len=96, updates=3)
        service_ids = sorted(fleet)
        detector = FaultyDetector(
            ZScoreDetector().fit(
                service_ids, [fleet[sid][:96] for sid in service_ids]),
            FaultInjector(seed=0, raise_prob=0.0))
        registry = MetricsRegistry()
        runtime = ServingRuntime(detector, window=16, registry=registry)
        with EventLog(tmp_path / "events.jsonl",
                      clock=lambda: 0.0) as log:
            previous = install_event_log(log)
            try:
                for sid in service_ids:
                    runtime.start_service(sid, fleet[sid][:96])
                # An outage on svc-1: its three updates fail to score,
                # the third trips the breaker (failure_threshold 3).
                detector.fail_services.add("svc-1")
                for sid in service_ids:
                    for row in fleet[sid][96:]:
                        runtime.update(sid, row)
            finally:
                install_event_log(previous)
        registry.dump(tmp_path / "metrics.jsonl")

        assert main(["obs", "top", "--dir", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "services (2): healthy 1  quarantined 1" in out
        assert "  svc-1          quarantined  since tick 3" in out


class TestTrafficCommand:
    """The traffic preview is pure planning — no workers — and seeded."""

    ARGS = ["traffic", "--services", "4", "--history", "64",
            "--updates", "12", "--fault-rate", "1.0", "--fault-seed", "1"]

    def test_matches_golden_output(self, capsys):
        from pathlib import Path

        assert main(self.ARGS) == 0
        golden = (Path(__file__).parent / "golden_traffic.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_fault_rate_out_of_range(self, capsys):
        assert main(["traffic", "--services", "3", "--history", "64",
                     "--updates", "5", "--fault-rate", "1.5"]) == 2
        captured = capsys.readouterr()
        assert "--fault-rate must be in [0, 1]" in captured.err
        assert captured.out == ""

    def test_fault_free_preview_has_no_faults(self, capsys):
        assert main(["traffic", "--services", "3", "--history", "64",
                     "--updates", "5"]) == 0
        out = capsys.readouterr().out
        assert "fault rate 0" in out
        # every fault column entry is the "-" placeholder
        for line in out.splitlines()[3:]:
            assert " - " in line
