"""Crash-safe checkpoints: kill-and-resume equivalence, atomicity, typed
errors, and streaming-state snapshots."""

import json

import numpy as np
import pytest

from repro.core import MaceTrainer, StreamingDetector
from repro.nn.optim import Adam
from repro.nn.serialization import load_state, save_state
from repro.runtime import (
    CheckpointError,
    Checkpointer,
    FaultInjector,
    load_streaming_state,
    load_training_checkpoint,
    restore_trainer,
    save_streaming_state,
)
from tests.runtime.conftest import fast_config


class SimulatedKill(BaseException):
    """Stands in for SIGKILL: not an Exception, nothing may catch it."""


class KillingCheckpointer(Checkpointer):
    """Checkpoints normally, then kills the process after a given epoch."""

    def __init__(self, directory, kill_after_epoch, **kwargs):
        super().__init__(directory, **kwargs)
        self.kill_after_epoch = kill_after_epoch

    def after_epoch(self, trainer, optimizer, epoch):
        path = super().after_epoch(trainer, optimizer, epoch)
        if epoch == self.kill_after_epoch:
            raise SimulatedKill(f"killed after epoch {epoch}")
        return path


def _fit_args(dataset):
    return [s.service_id for s in dataset], [s.train for s in dataset]


class TestResumeEquivalence:
    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_killed_run_resumes_bitwise_identical(self, runtime_dataset,
                                                  tmp_path, kill_after):
        """SIGKILL at an arbitrary epoch, resume, same final weights."""
        ids, trains = _fit_args(runtime_dataset)
        config = fast_config(epochs=3)

        reference = MaceTrainer(config).fit(ids, trains)
        expected = reference.model.state_dict()

        killer = KillingCheckpointer(tmp_path, kill_after_epoch=kill_after)
        with pytest.raises(SimulatedKill):
            MaceTrainer(config).fit(ids, trains, checkpointer=killer)

        latest = Checkpointer(tmp_path).latest()
        assert latest is not None
        resumed = MaceTrainer(config).fit(ids, trains, resume=latest)
        actual = resumed.model.state_dict()
        assert set(actual) == set(expected)
        for name in expected:
            np.testing.assert_array_equal(actual[name], expected[name],
                                          err_msg=name)

    def test_history_restored_across_resume(self, runtime_dataset, tmp_path):
        ids, trains = _fit_args(runtime_dataset)
        config = fast_config(epochs=3)
        reference = MaceTrainer(config).fit(ids, trains)

        killer = KillingCheckpointer(tmp_path, kill_after_epoch=1)
        with pytest.raises(SimulatedKill):
            MaceTrainer(config).fit(ids, trains, checkpointer=killer)
        resumed = MaceTrainer(config).fit(
            ids, trains, resume=Checkpointer(tmp_path).latest()
        )
        assert resumed.history.epoch_losses == reference.history.epoch_losses

    def test_resume_under_different_config_refused(self, runtime_dataset,
                                                   tmp_path):
        ids, trains = _fit_args(runtime_dataset)
        killer = KillingCheckpointer(tmp_path, kill_after_epoch=1)
        with pytest.raises(SimulatedKill):
            MaceTrainer(fast_config(epochs=3)).fit(ids, trains,
                                                   checkpointer=killer)
        other = MaceTrainer(fast_config(epochs=3, learning_rate=1e-4))
        with pytest.raises(CheckpointError, match="different config"):
            other.fit(ids, trains, resume=Checkpointer(tmp_path).latest())


    def test_float32_resume_keeps_float32_state(self, runtime_dataset,
                                                tmp_path):
        ids, trains = _fit_args(runtime_dataset)
        config = fast_config(epochs=3)
        assert config.dtype == "float32"
        killer = KillingCheckpointer(tmp_path, kill_after_epoch=1)
        with pytest.raises(SimulatedKill):
            MaceTrainer(config).fit(ids, trains, checkpointer=killer)
        trainer = MaceTrainer(config)
        optimizer = Adam(trainer.model.parameters(), lr=config.learning_rate)
        assert restore_trainer(trainer, optimizer,
                               Checkpointer(tmp_path).latest()) == 1
        arrays = [p.data for p in trainer.model.parameters()]
        arrays += [slot for name, slot in optimizer.state_dict().items()
                   if name != "step_count"]
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}

    def test_checkpoint_without_dtype_resumes_as_float64(self,
                                                         runtime_dataset,
                                                         tmp_path):
        """Checkpoints written before MaceConfig.dtype existed ran in
        float64."""
        ids, trains = _fit_args(runtime_dataset)
        config = fast_config(epochs=3, dtype="float64")
        killer = KillingCheckpointer(tmp_path, kill_after_epoch=1)
        with pytest.raises(SimulatedKill):
            MaceTrainer(config).fit(ids, trains, checkpointer=killer)
        latest = Checkpointer(tmp_path).latest()
        payload = load_state(latest)
        meta = json.loads(str(payload["meta"]))
        del meta["config"]["dtype"]
        payload["meta"] = np.asarray(json.dumps(meta))
        save_state(payload, latest)
        reference = MaceTrainer(config).fit(ids, trains)
        resumed = MaceTrainer(config).fit(ids, trains, resume=latest)
        assert resumed.history.epoch_losses == reference.history.epoch_losses
        with pytest.raises(CheckpointError, match="different config"):
            MaceTrainer(fast_config(epochs=3)).fit(ids, trains, resume=latest)


class TestCheckpointFiles:
    def _one_checkpoint(self, dataset, directory):
        ids, trains = _fit_args(dataset)
        checkpointer = Checkpointer(directory, every=1, keep=10)
        MaceTrainer(fast_config(epochs=2)).fit(ids, trains,
                                               checkpointer=checkpointer)
        return checkpointer

    def test_every_epoch_written_and_pruned(self, runtime_dataset, tmp_path):
        ids, trains = _fit_args(runtime_dataset)
        checkpointer = Checkpointer(tmp_path, every=1, keep=2)
        MaceTrainer(fast_config(epochs=3)).fit(ids, trains,
                                               checkpointer=checkpointer)
        names = [p.name for p in checkpointer.existing()]
        assert names == ["ckpt-epoch0002.npz", "ckpt-epoch0003.npz"]

    def test_initial_snapshot_written_and_prunable(self, runtime_dataset,
                                                   tmp_path):
        ids, trains = _fit_args(runtime_dataset)
        checkpointer = Checkpointer(tmp_path, every=1, keep=10,
                                    snapshot_initial=True)
        MaceTrainer(fast_config(epochs=2)).fit(ids, trains,
                                               checkpointer=checkpointer)
        names = [p.name for p in checkpointer.existing()]
        # The epoch-0 snapshot is a rewind anchor for first-epoch
        # divergence, and is pruned like any other checkpoint.
        assert names == ["ckpt-epoch0000.npz", "ckpt-epoch0001.npz",
                         "ckpt-epoch0002.npz"]

    def test_no_temp_files_left_behind(self, runtime_dataset, tmp_path):
        self._one_checkpoint(runtime_dataset, tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if not p.name.startswith("ckpt-epoch")]
        assert leftovers == []

    def test_truncated_checkpoint_raises_typed_error(self, runtime_dataset,
                                                     tmp_path):
        checkpointer = self._one_checkpoint(runtime_dataset, tmp_path)
        latest = checkpointer.latest()
        FaultInjector(seed=0).truncate_file(latest, keep_fraction=0.5)
        with pytest.raises(CheckpointError):
            load_training_checkpoint(latest)

    def test_truncated_resume_raises_typed_error(self, runtime_dataset,
                                                 tmp_path):
        ids, trains = _fit_args(runtime_dataset)
        checkpointer = self._one_checkpoint(runtime_dataset, tmp_path)
        latest = checkpointer.latest()
        FaultInjector(seed=0).truncate_file(latest, keep_fraction=0.3)
        with pytest.raises(CheckpointError):
            MaceTrainer(fast_config(epochs=2)).fit(ids, trains, resume=latest)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "ckpt-epoch0001.npz"
        np.savez(bogus, something=np.zeros(3))
        with pytest.raises(CheckpointError, match="no meta record"):
            load_training_checkpoint(bogus)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_training_checkpoint(tmp_path / "nope.npz")

    def test_checkpoint_contents_decoded(self, runtime_dataset, tmp_path):
        checkpointer = self._one_checkpoint(runtime_dataset, tmp_path)
        checkpoint = load_training_checkpoint(checkpointer.latest())
        assert checkpoint.epoch == 2
        assert len(checkpoint.epoch_losses) == 2
        assert "step_count" in checkpoint.optimizer_state
        assert checkpoint.rng_state["bit_generator"] == "PCG64"


class TestStreamingState:
    def _started_stream(self, detector, dataset):
        stream = StreamingDetector(detector, window=40, q=1e-2)
        for service in dataset:
            stream.start_service(service.service_id, service.train)
        return stream

    def test_restart_without_recalibration(self, fitted_detector,
                                           runtime_dataset, tmp_path):
        service = runtime_dataset[0]
        stream = self._started_stream(fitted_detector, runtime_dataset)
        for row in service.test[:30]:
            stream.update(service.service_id, row)
        path = save_streaming_state(stream, tmp_path / "stream.json")

        restarted = StreamingDetector(fitted_detector, window=40, q=1e-2)
        load_streaming_state(restarted, path)
        assert set(restarted.services()) == set(stream.services())

        for row in service.test[30:60]:
            a = stream.update(service.service_id, row)
            b = restarted.update(service.service_id, row)
            assert a.score == b.score
            assert a.is_alert == b.is_alert
            assert a.threshold == b.threshold

    def test_corrupted_state_file_rejected(self, fitted_detector,
                                           runtime_dataset, tmp_path):
        stream = self._started_stream(fitted_detector, runtime_dataset)
        path = save_streaming_state(stream, tmp_path / "stream.json")
        FaultInjector(seed=0).truncate_file(path, keep_fraction=0.5)
        fresh = StreamingDetector(fitted_detector, window=40)
        with pytest.raises(CheckpointError, match="corrupted"):
            load_streaming_state(fresh, path)

    def test_wrong_window_rejected(self, fitted_detector, runtime_dataset,
                                   tmp_path):
        stream = self._started_stream(fitted_detector, runtime_dataset)
        path = save_streaming_state(stream, tmp_path / "stream.json")
        other = StreamingDetector(fitted_detector, window=20)
        with pytest.raises(CheckpointError):
            load_streaming_state(other, path)

    def test_missing_state_file_rejected(self, fitted_detector, tmp_path):
        fresh = StreamingDetector(fitted_detector, window=40)
        with pytest.raises(CheckpointError, match="does not exist"):
            load_streaming_state(fresh, tmp_path / "absent.json")

    def test_random_json_rejected(self, fitted_detector, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"format": "other"}))
        fresh = StreamingDetector(fitted_detector, window=40)
        with pytest.raises(CheckpointError, match="not a streaming state"):
            load_streaming_state(fresh, path)
