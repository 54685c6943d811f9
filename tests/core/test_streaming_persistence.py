"""Streaming detection and detector persistence."""

import json

import numpy as np
import pytest

from repro.core import (
    CorruptArtifactError,
    MaceConfig,
    MaceDetector,
    MissingArtifactError,
    StateMismatchError,
    StreamingDetector,
    load_detector,
    save_detector,
)


def _fitted_detector(dataset):
    config = MaceConfig(window=40, num_bases=6, channels=4, epochs=3,
                        train_stride=4, gamma_time=5, gamma_freq=5,
                        kernel_freq=4, kernel_time=3)
    detector = MaceDetector(config)
    return detector.fit([s.service_id for s in dataset],
                        [s.train for s in dataset])


class TestPersistence:
    def test_roundtrip_scores_identical(self, tiny_dataset, tmp_path):
        detector = _fitted_detector(tiny_dataset)
        service = tiny_dataset[0]
        original = detector.score(service.service_id, service.test)
        manifest = save_detector(detector, tmp_path / "model")
        restored = load_detector(manifest)
        clone = restored.score(service.service_id, service.test)
        assert clone.tobytes() == original.tobytes()

    def test_subspaces_block_layout(self, tiny_dataset, tmp_path):
        """The block's layout is the on-disk format: detectors saved by
        earlier versions must keep loading, so its keys are pinned."""
        detector = _fitted_detector(tiny_dataset)
        manifest = json.loads(save_detector(detector, tmp_path / "model")
                              .read_text())
        block = manifest["subspaces"]
        assert list(block) == ["window", "k", "stride", "include_dc",
                               "subspaces"]
        assert block["window"] == 40 and block["k"] == 6
        assert block["stride"] == detector.config.subspace_stride
        assert block["include_dc"] is True
        assert list(block["subspaces"]) == [s.service_id for s in tiny_dataset]
        for subspace in block["subspaces"].values():
            assert list(subspace) == ["bases"]
            for basis in subspace["bases"]:
                assert list(basis) == ["window", "indices"]
                assert basis["window"] == 40
                assert basis["indices"][0] == 0 and len(basis["indices"]) == 6

    def test_restored_detector_keeps_config(self, tiny_dataset, tmp_path):
        detector = _fitted_detector(tiny_dataset)
        save_detector(detector, tmp_path / "model")
        restored = load_detector(tmp_path / "model")
        assert restored.config == detector.config

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_detector(MaceDetector(), tmp_path / "model")

    def test_bad_manifest_rejected(self, tmp_path):
        (tmp_path / "model.json").write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_detector(tmp_path / "model")


class TestTypedLoadErrors:
    """load_detector raises specific errors, not raw KeyError/ValueError
    from deep inside load_state."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        from repro.data import load_dataset

        dataset = load_dataset("smd", num_services=2, train_length=256,
                               test_length=64, seed=5)
        detector = _fitted_detector(dataset)
        directory = tmp_path_factory.mktemp("saved-detector")
        save_detector(detector, directory / "model")
        return directory

    def _copy(self, saved, tmp_path):
        for name in ("model.json", "model.npz"):
            (tmp_path / name).write_bytes((saved / name).read_bytes())
        return tmp_path / "model"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="does not exist"):
            load_detector(tmp_path / "absent")

    def test_truncated_manifest(self, saved, tmp_path):
        stem = self._copy(saved, tmp_path)
        full = stem.with_suffix(".json").read_text()
        stem.with_suffix(".json").write_text(full[:len(full) // 2])
        with pytest.raises(CorruptArtifactError, match="JSON"):
            load_detector(stem)

    def test_manifest_missing_keys(self, saved, tmp_path):
        stem = self._copy(saved, tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        del manifest["subspaces"]
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptArtifactError, match="missing keys"):
            load_detector(stem)

    def _rewrite_subspaces(self, saved, tmp_path, edit):
        stem = self._copy(saved, tmp_path)
        manifest = json.loads(stem.with_suffix(".json").read_text())
        edit(manifest["subspaces"])
        stem.with_suffix(".json").write_text(json.dumps(manifest))
        return stem

    def test_subspaces_not_a_mapping(self, saved, tmp_path):
        def edit(block):
            block["subspaces"] = list(block["subspaces"].values())
        stem = self._rewrite_subspaces(saved, tmp_path, edit)
        with pytest.raises(CorruptArtifactError, match="subspaces block"):
            load_detector(stem)

    def test_subspace_indices_out_of_range(self, saved, tmp_path):
        def edit(block):
            first = next(iter(block["subspaces"].values()))
            first["bases"][0]["indices"][-1] = 21  # window 40 has bins 0..20
        stem = self._rewrite_subspaces(saved, tmp_path, edit)
        with pytest.raises(CorruptArtifactError, match="must lie in"):
            load_detector(stem)

    def test_subspace_window_mismatch(self, saved, tmp_path):
        def edit(block):
            first = next(iter(block["subspaces"].values()))
            for basis in first["bases"]:
                basis["window"] = 20
                basis["indices"] = [0, 1, 2, 3, 4, 5]
        stem = self._rewrite_subspaces(saved, tmp_path, edit)
        with pytest.raises(CorruptArtifactError, match="window mismatch"):
            load_detector(stem)

    def test_missing_weights_file(self, saved, tmp_path):
        stem = self._copy(saved, tmp_path)
        stem.with_suffix(".npz").unlink()
        with pytest.raises(MissingArtifactError, match="does not exist"):
            load_detector(stem)

    def test_truncated_weights_file(self, saved, tmp_path):
        stem = self._copy(saved, tmp_path)
        weights = stem.with_suffix(".npz")
        weights.write_bytes(weights.read_bytes()[:100])
        with pytest.raises(CorruptArtifactError, match="corrupted"):
            load_detector(stem)

    def test_weights_shape_mismatch(self, saved, tmp_path):
        from repro.nn.serialization import load_state, save_state

        stem = self._copy(saved, tmp_path)
        state = load_state(stem.with_suffix(".npz"))
        first = next(iter(state))
        state[first] = np.zeros((2, 2))
        save_state(state, stem.with_suffix(".npz"))
        with pytest.raises(StateMismatchError, match="do not match"):
            load_detector(stem)

    def test_weights_missing_parameter(self, saved, tmp_path):
        from repro.nn.serialization import load_state, save_state

        stem = self._copy(saved, tmp_path)
        state = load_state(stem.with_suffix(".npz"))
        state.pop(next(iter(state)))
        save_state(state, stem.with_suffix(".npz"))
        with pytest.raises(StateMismatchError):
            load_detector(stem)

    def test_typed_errors_are_valueerrors(self):
        # Callers that caught the historical untyped errors keep working.
        assert issubclass(MissingArtifactError, ValueError)
        assert issubclass(CorruptArtifactError, ValueError)
        assert issubclass(StateMismatchError, ValueError)

    def test_save_leaves_no_temp_files(self, saved):
        names = sorted(p.name for p in saved.iterdir())
        assert names == ["model.json", "model.npz"]

    def test_interrupted_save_never_loadable(self, saved, tmp_path):
        """Weights land before the manifest: a kill between the two leaves
        no manifest, which load_detector rejects cleanly."""
        weights = tmp_path / "model.npz"
        weights.write_bytes((saved / "model.npz").read_bytes())
        with pytest.raises(MissingArtifactError):
            load_detector(tmp_path / "model")


class TestStreaming:
    def test_stream_matches_batch_tail_scores(self, tiny_dataset):
        detector = _fitted_detector(tiny_dataset)
        service = tiny_dataset[0]
        stream = StreamingDetector(detector, window=40, q=1e-2)
        stream.start_service(service.service_id, service.train)
        outcomes = [stream.update(service.service_id, row)
                    for row in service.test[:100]]
        assert all(o.ready for o in outcomes)  # buffer pre-filled by history
        scores = np.array([o.score for o in outcomes])
        assert np.isfinite(scores).all() and np.all(scores >= 0)

    def test_alerts_fire_on_injected_anomaly(self, tiny_dataset):
        detector = _fitted_detector(tiny_dataset)
        service = tiny_dataset[0]
        stream = StreamingDetector(detector, window=40, q=1e-2)
        stream.start_service(service.service_id, service.train)
        test = service.test.copy()
        test[60:63] += 8.0  # blatant spike
        alerts = [stream.update(service.service_id, row).is_alert
                  for row in test[:120]]
        assert any(alerts[58:70])

    def test_unknown_service(self, tiny_dataset):
        detector = _fitted_detector(tiny_dataset)
        stream = StreamingDetector(detector, window=40)
        with pytest.raises(KeyError):
            stream.update("nope", np.zeros(8))

    def test_short_history_rejected(self, tiny_dataset):
        detector = _fitted_detector(tiny_dataset)
        stream = StreamingDetector(detector, window=40)
        with pytest.raises(ValueError):
            stream.start_service("svc", np.zeros((30, 8)))

    def test_feature_mismatch_rejected(self, tiny_dataset):
        detector = _fitted_detector(tiny_dataset)
        service = tiny_dataset[0]
        stream = StreamingDetector(detector, window=40)
        stream.start_service(service.service_id, service.train)
        with pytest.raises(ValueError):
            stream.update(service.service_id, np.zeros(3))

    def test_threshold_accessor(self, tiny_dataset):
        detector = _fitted_detector(tiny_dataset)
        service = tiny_dataset[0]
        stream = StreamingDetector(detector, window=40)
        stream.start_service(service.service_id, service.train)
        assert np.isfinite(stream.threshold(service.service_id))


class TestNonFiniteObservations:
    """A NaN/Inf observation must never silently enter the ring buffer —
    it would corrupt every window for the next 40 updates."""

    @pytest.fixture(scope="class")
    def detector(self):
        from repro.data import load_dataset

        dataset = load_dataset("smd", num_services=2, train_length=256,
                               test_length=64, seed=5)
        return _fitted_detector(dataset), dataset

    def _started(self, detector, dataset, **kwargs):
        stream = StreamingDetector(detector, window=40, q=1e-2, **kwargs)
        service = dataset[0]
        stream.start_service(service.service_id, service.train)
        return stream, service

    def test_default_raises_on_nan(self, detector):
        stream, service = self._started(*detector)
        observation = service.test[0].copy()
        observation[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            stream.update(service.service_id, observation)

    def test_default_raises_on_inf(self, detector):
        stream, service = self._started(*detector)
        observation = service.test[0].copy()
        observation[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            stream.update(service.service_id, observation)

    def test_rejected_observation_not_buffered(self, detector):
        stream, service = self._started(*detector)
        before = stream._streams[service.service_id].buffer.copy()
        observation = service.test[0].copy()
        observation[1] = np.nan
        with pytest.raises(ValueError):
            stream.update(service.service_id, observation)
        np.testing.assert_array_equal(
            stream._streams[service.service_id].buffer, before
        )

    def test_impute_mode_repairs_and_scores(self, detector):
        stream, service = self._started(*detector, on_invalid="impute")
        observation = service.test[0].copy()
        observation[1] = np.nan
        outcome = stream.update(service.service_id, observation)
        assert outcome.ready
        assert np.isfinite(outcome.score)
        buffer = stream._streams[service.service_id].buffer
        assert np.isfinite(buffer).all()

    def test_observe_rejects_non_finite_and_wrong_shape(self, detector):
        """``observe`` validates on its own, not only through ``update``."""
        stream, service = self._started(*detector)
        before = stream._streams[service.service_id].buffer.copy()
        observation = service.test[0].copy()
        observation[2] = -np.inf
        with pytest.raises(ValueError, match="non-finite"):
            stream.observe(service.service_id, observation)
        with pytest.raises(ValueError, match="features"):
            stream.observe(service.service_id, service.test[0][:-1])
        np.testing.assert_array_equal(
            stream._streams[service.service_id].buffer, before
        )

    def test_observe_sanitized_buffers_like_observe(self, detector):
        fitted, dataset = detector
        checked, service = self._started(fitted, dataset)
        unchecked, _ = self._started(fitted, dataset)
        for row in service.test[:5]:
            expected = checked.observe(service.service_id, row)
            actual = unchecked._observe_sanitized(service.service_id, row)
            assert actual.tobytes() == expected.tobytes()

    def test_invalid_mode_rejected(self, detector):
        fitted, _ = detector
        with pytest.raises(ValueError):
            StreamingDetector(fitted, on_invalid="drop")

    def test_dirty_calibration_history_rejected(self, detector):
        fitted, dataset = detector
        stream = StreamingDetector(fitted, window=40)
        history = dataset[0].train.copy()
        history[7, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            stream.start_service(dataset[0].service_id, history)
