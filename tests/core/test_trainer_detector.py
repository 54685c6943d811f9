"""Trainer and detector end-to-end behaviour."""

import pickle

import numpy as np
import pytest

from repro.core import MaceConfig, MaceDetector, MaceTrainer, timeline_scores


def _fast_config(**overrides):
    # window 40 matches the dataset profiles (pattern periods are drawn to
    # be resolvable at that window length).
    defaults = dict(window=40, num_bases=6, channels=4, epochs=2,
                    train_stride=8, gamma_time=5, gamma_freq=5,
                    kernel_freq=4, kernel_time=3)
    defaults.update(overrides)
    return MaceConfig(**defaults)


class TestTrainer:
    def test_fit_records_history(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        trainer.fit([s.service_id for s in tiny_dataset],
                    [s.train for s in tiny_dataset])
        assert len(trainer.history.epoch_losses) == 2
        assert np.isfinite(trainer.history.final_loss)

    def test_loss_decreases(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config(epochs=5))
        trainer.fit([s.service_id for s in tiny_dataset],
                    [s.train for s in tiny_dataset])
        losses = trainer.history.epoch_losses
        assert losses[-1] < losses[0]

    def test_mismatched_inputs_rejected(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        with pytest.raises(ValueError):
            trainer.fit(["one"], [s.train for s in tiny_dataset])

    def test_window_errors_requires_known_service(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        trainer.fit([tiny_dataset[0].service_id], [tiny_dataset[0].train])
        with pytest.raises(KeyError):
            trainer.window_errors("unknown", np.zeros((2, 40, 8)))

    def test_prepare_service_enables_unseen_scoring(self, tiny_dataset):
        trainer = MaceTrainer(_fast_config())
        trainer.fit([tiny_dataset[0].service_id], [tiny_dataset[0].train])
        unseen = tiny_dataset[1]
        trainer.prepare_service(unseen.service_id, unseen.train)
        windows = np.stack([unseen.test[i:i + 40] for i in range(4)])
        errors = trainer.window_errors(unseen.service_id, windows)
        assert errors.shape == (4, 40)

    def test_window_errors_bitwise_independent_of_batch_size(self, tiny_dataset):
        """A window scores to the same bits alone (the streaming path) as
        inside any batch, so updates can be batched without changing any
        score.  Default config: the shapes the serving runtime runs."""
        trainer = MaceTrainer(MaceConfig(epochs=1))
        trainer.fit([s.service_id for s in tiny_dataset],
                    [s.train for s in tiny_dataset])
        service = tiny_dataset[0]
        windows = np.stack([service.test[i:i + 40] for i in range(0, 200, 10)])
        batched = trainer.window_errors(service.service_id, windows)
        ragged = trainer.window_errors(service.service_id, windows, batch_size=7)
        single = np.concatenate([
            trainer.window_errors(service.service_id, windows[i:i + 1])
            for i in range(len(windows))])
        assert batched.tobytes() == ragged.tobytes() == single.tobytes()


class TestDetector:
    def test_fit_score_roundtrip(self, tiny_dataset):
        detector = MaceDetector(_fast_config())
        detector.fit([s.service_id for s in tiny_dataset],
                     [s.train for s in tiny_dataset])
        service = tiny_dataset[0]
        scores = detector.score(service.service_id, service.test)
        assert scores.shape == (len(service.test),)
        assert np.all(scores >= 0)

    def test_scores_separate_obvious_anomalies(self, rng):
        """Deterministic case: clean periodic train, spiky + frequency-swapped
        test.  MACE must score the anomalous spans above the normal floor."""
        t = np.arange(1024)
        train = np.stack([np.sin(2 * np.pi * t / 10),
                          np.cos(2 * np.pi * t / 20)], axis=1)
        train += 0.05 * rng.normal(size=train.shape)
        test = train.copy()
        labels = np.zeros(1024, dtype=bool)
        test[200:204] += 5.0                      # strong spikes
        labels[200:204] = True
        swap = np.sin(2 * np.pi * np.arange(64) / 4.0)  # foreign frequency
        test[600:664, 0] = swap
        labels[600:664] = True
        detector = MaceDetector(_fast_config(epochs=5))
        detector.fit(["svc"], [train])
        scores = detector.score("svc", test)
        assert scores[labels].mean() > 1.5 * scores[~labels].mean()

    def test_fitted_detector_pickles_to_the_same_scores(self, tiny_dataset):
        """A spawn-started serving worker receives its detector by pickle.
        Scoring first fills the operand caches, which the pickle drops and
        the copy rebuilds."""
        detector = MaceDetector(MaceConfig(epochs=1))
        detector.fit([s.service_id for s in tiny_dataset],
                     [s.train for s in tiny_dataset])
        scores = [detector.score(s.service_id, s.test) for s in tiny_dataset]
        copy = pickle.loads(pickle.dumps(detector))
        for service, expected in zip(tiny_dataset, scores):
            got = copy.score(service.service_id, service.test)
            assert got.tobytes() == expected.tobytes()

    def test_unfitted_raises(self, tiny_dataset):
        detector = MaceDetector(_fast_config())
        with pytest.raises(RuntimeError):
            detector.score("svc", tiny_dataset[0].test)
        with pytest.raises(RuntimeError):
            detector.num_parameters()

    def test_num_parameters_positive(self, tiny_dataset):
        detector = MaceDetector(_fast_config())
        detector.fit([tiny_dataset[0].service_id], [tiny_dataset[0].train])
        assert detector.num_parameters() > 0

    def test_default_config(self):
        assert MaceDetector().config.window == 40


class TestTimelineScores:
    def test_validates_error_shape(self, rng):
        series = rng.normal(size=(50, 2))
        with pytest.raises(ValueError):
            timeline_scores(lambda w: np.zeros((w.shape[0], 3)), series, 10)

    def test_univariate_supported(self, rng):
        series = rng.normal(size=60)
        scores = timeline_scores(
            lambda w: np.abs(w).mean(axis=-1), series, 10,
        )
        assert scores.shape == (60,)
