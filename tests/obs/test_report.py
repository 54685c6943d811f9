"""`repro obs report`: render a run's story from JSONL artifacts alone.

Two layers: a synthetic run directory exercising every section of the
renderer cheaply, and one real (tiny) fleet run with observability on,
proving the whole chain — worker instrumentation → JSONL artifacts →
offline report — holds together.
"""

import json

import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_run, render_report


def _write_spans(path, records):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in records), encoding="utf-8")


@pytest.fixture
def synthetic_run(tmp_path):
    """A fleet-shaped run directory written entirely by hand."""
    # Orchestrator-level events.
    with EventLog(tmp_path / "events.jsonl", clock=lambda: 0.0) as log:
        log.emit("attempt_start", group="g0", attempt=1)
        log.emit("attempt_end", group="g0", attempt=1, outcome="crash",
                 seconds=0.4, exitcode=137)
        log.emit("retry", group="g0", attempt=1, backoff_seconds=0.05)
        log.emit("attempt_start", group="g0", attempt=2)
        log.emit("attempt_end", group="g0", attempt=2, outcome="done",
                 seconds=1.2, exitcode=0)
        log.emit("group_done", group="g0", epochs=2, final_loss=0.125)
        log.emit("attempt_start", group="g1", attempt=1)
        log.emit("attempt_end", group="g1", attempt=1, outcome="diverged",
                 seconds=0.8, exitcode=0)
        log.emit("group_failed", group="g1", error="diverged for good")

    # Group g0: worker-side artifacts.
    group = tmp_path / "g0"
    group.mkdir()
    with EventLog(group / "events.jsonl", clock=lambda: 1.0) as log:
        log.emit("epoch", epoch=1, loss=0.5, grad_norm=1.25, seconds=0.6,
                 nonfinite=0)
        log.emit("epoch", epoch=2, loss=0.125, grad_norm=0.75, seconds=0.55,
                 nonfinite=1)
        log.emit("checkpoint_rewind", epoch=2, rewound_to=1,
                 reason="non-finite", loss=float("nan"), lr=1e-3)
    registry = MetricsRegistry()
    registry.counter("trainer.batches").inc(12)
    registry.dump(group / "metrics.jsonl")
    _write_spans(group / "spans.jsonl", [
        {"name": "fit", "path": "fit", "depth": 0, "start": 0.0,
         "seconds": 1.2},
        {"name": "epoch", "path": "fit/trainer.epoch", "depth": 1,
         "start": 0.0, "seconds": 0.6},
        {"name": "epoch", "path": "fit/trainer.epoch", "depth": 1,
         "start": 0.6, "seconds": 0.55},
    ])
    (group / "result.json").write_text(json.dumps(
        {"status": "done", "rewinds": 1, "nonfinite_batches": 1}))
    return tmp_path


class TestSyntheticRun:
    def test_load_run_partitions_artifacts(self, synthetic_run):
        telemetry = load_run(synthetic_run)
        assert telemetry.groups == ["g0"]
        assert len(telemetry.fleet_events) == 9
        assert len(telemetry.group_events["g0"]) == 3
        assert len(telemetry.spans) == 3
        assert telemetry.metrics.get("trainer.batches").value == 12

    def test_report_renders_all_sections(self, synthetic_run):
        report = render_report(synthetic_run)
        assert "fleet attempts" in report
        assert "epoch timeline" in report
        assert "phase breakdown" in report
        # Two epochs of fit/trainer.epoch: 1.150 s total, 575.000 ms mean.
        assert "575.000" in report

    def test_attempt_table_story(self, synthetic_run):
        report = render_report(synthetic_run)
        assert "crash->done" in report       # g0's attempt outcomes
        assert "diverged" in report          # g1's only attempt
        assert "failed" in report            # g1 terminal status

    def test_epoch_timeline_values(self, synthetic_run):
        report = render_report(synthetic_run)
        assert "0.125000" in report          # g0 epoch-2 loss
        assert "fit/trainer.epoch" in report

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")

    def test_empty_directory_reports_nothing(self, tmp_path):
        assert "no telemetry artifacts" in render_report(tmp_path)


class TestFlatRun:
    def test_single_process_layout(self, tmp_path):
        """A flat directory (no group subdirs) still renders."""
        with EventLog(tmp_path / "events.jsonl") as log:
            log.emit("epoch", epoch=1, loss=0.3, grad_norm=1.0,
                     seconds=0.2, nonfinite=0)
        _write_spans(tmp_path / "spans.jsonl", [
            {"name": "fit", "path": "fit", "depth": 0, "start": 0.0,
             "seconds": 0.2},
        ])
        report = render_report(tmp_path)
        assert "epoch timeline" in report
        assert "phase breakdown" in report


class TestTornFinalLines:
    """metrics.jsonl and spans.jsonl get the event log's torn-write
    stance: a process killed mid-dump must not take the report down."""

    def test_torn_metrics_line_skipped(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("gateway.accepted").inc(7)
        registry.dump(tmp_path / "metrics.jsonl")
        with open(tmp_path / "metrics.jsonl", "a", encoding="utf-8") as f:
            f.write('{"kind": "histogram", "name": "gateway.ack')  # torn
        telemetry = load_run(tmp_path)
        assert telemetry.metrics.collect("gateway.accepted")[0].value == 7.0
        render_report(tmp_path)  # and the renderer stays up

    def test_torn_spans_line_skipped(self, tmp_path):
        _write_spans(tmp_path / "spans.jsonl", [
            {"name": "fit", "path": "fit", "depth": 0, "start": 0.0,
             "seconds": 0.2},
        ])
        with open(tmp_path / "spans.jsonl", "a", encoding="utf-8") as f:
            f.write('{"name": "fit", "pa')
        telemetry = load_run(tmp_path)
        assert len(telemetry.spans) == 1
        assert "phase breakdown" in render_report(tmp_path)


class TestRealFleetRun:
    def test_obs_enabled_fleet_run_is_reportable(self, tmp_path):
        from repro.core import MaceConfig
        from repro.data import load_dataset
        from repro.runtime import FleetConfig, FleetJob, train_fleet

        dataset = load_dataset("smd", num_services=2, train_length=192,
                               test_length=64, seed=9)
        jobs = [FleetJob("group0",
                         tuple(s.service_id for s in dataset),
                         tuple(s.train for s in dataset))]
        config = MaceConfig(window=40, num_bases=4, channels=2, epochs=2,
                            train_stride=16, gamma_time=3, gamma_freq=3,
                            kernel_freq=4, kernel_time=3, subspace_stride=8,
                            batch_size=32)
        fleet = FleetConfig(workers=1, timeout=120.0, max_attempts=2,
                            observability=True)
        report = train_fleet(jobs, config, tmp_path, fleet)
        assert len(report.done) == 1

        # Worker artifacts landed next to the group's checkpoints.
        group_dir = tmp_path / "group0"
        for name in ("events.jsonl", "metrics.jsonl", "spans.jsonl"):
            assert (group_dir / name).is_file(), name

        # Worker metrics rode home through result.json.
        merged = report.merged_metrics()
        assert merged.get("trainer.batches").value > 0
        assert merged.get("trainer.epoch_seconds").count == config.epochs

        # And the offline report tells the whole story from JSONL alone.
        text = render_report(tmp_path)
        assert "fleet attempts" in text
        assert "epoch timeline" in text
        assert "phase breakdown" in text
        assert "trainer.epoch/trainer.batch" in text
        assert "group0" in text
