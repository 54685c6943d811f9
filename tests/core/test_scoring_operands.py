"""Scoring operands prepared once per weight version.

``MaceModel.score_windows`` reads operands that depend only on the
weights or on a service's subspace: each dualistic convolution's ``|W|``
and shift correction (``DualisticConv1d._scoring_kernel``) and the
characterization's marker channels (``FrequencyCharacterization._markers``).
They are built on first use and kept until the weights or the subspace
change.  These tests pin that contract:

* after an Adam step, ``load_state_dict``, ``Module.to`` and
  ``load_detector``, scores equal those of a model that was never scored,
  by ``tobytes()``;
* a stream of batch-1 updates builds each operand once;
* a multi-chunk call builds every operand before its helper thread
  starts, so the helper only reads;
* a refitted service never gets another subspace's markers, even when the
  new subspace has the old one's ``id()``.
"""

import gc
import threading

import numpy as np
import pytest

import repro.core.characterization as characterization_module
from repro.core import (
    DualisticConv1d,
    MaceConfig,
    MaceDetector,
    MaceTrainer,
    frequency_marker_channels,
    load_detector,
    save_detector,
)
from repro.data import load_dataset, sliding_windows
from repro.frequency.context_aware import ContextAwareDFT
from repro.nn import Tensor, no_grad
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("smd", num_services=4, train_length=256,
                        test_length=300, seed=5)


@pytest.fixture(scope="module")
def windows(dataset):
    return sliding_windows(dataset[0].test, 40, 1)  # 261 windows


def _fitted(dataset, **overrides):
    service = dataset[0]
    return MaceTrainer(MaceConfig(epochs=1, **overrides)).fit(
        [service.service_id], [service.train])


def _never_scored(trainer):
    """A new trainer with ``trainer``'s weights and subspaces that has
    scored nothing, so it has built no scoring operand yet."""
    fresh = MaceTrainer(trainer.config)
    fresh.model.to(next(trainer.model.parameters()).dtype)
    fresh.model.load_state_dict(trainer.model.state_dict())
    fresh.extractor.load_dict(trainer.extractor.to_dict())
    return fresh


def _scores(trainer, service_id, windows):
    """Batch-1 and multi-chunk scores of the same windows."""
    return (trainer.window_errors(service_id, windows[:3], batch_size=1)
            .tobytes()
            + trainer.window_errors(service_id, windows, batch_size=64)
            .tobytes())


def _adam_step(trainer, service, windows):
    optimizer = Adam(trainer.model.parameters(), lr=1e-2)
    model = trainer.model
    model.train()
    loss = model.loss(model(Tensor(windows[:32]), trainer.extractor,
                            service.service_id))
    loss.backward()
    optimizer.step()
    model.eval()


def _load_other_weights(trainer, service, windows):
    other = MaceTrainer(trainer.config.ablate(seed=3)).fit(
        [service.service_id], [service.train])
    trainer.model.load_state_dict(other.model.state_dict())


def _to_float64(trainer, service, windows):
    trainer.model.to(np.float64)


CHANGES = {
    "adam_step": _adam_step,
    "load_state_dict": _load_other_weights,
    "to_float64": _to_float64,
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_scores_after_a_weight_change_equal_a_never_scored_model(
        dataset, windows, change):
    service = dataset[0]
    trainer = _fitted(dataset)
    before = _scores(trainer, service.service_id, windows)
    CHANGES[change](trainer, service, windows)
    after = _scores(trainer, service.service_id, windows)
    assert after != before  # the change reached the scores
    reference = _never_scored(trainer)
    assert after == _scores(reference, service.service_id, windows)


def test_loaded_detector_scores_equal_a_never_scored_model(dataset, windows,
                                                           tmp_path):
    service = dataset[0]
    detector = MaceDetector(MaceConfig(epochs=1)).fit(
        [service.service_id], [service.train])
    scored = _scores(detector.trainer, service.service_id, windows)
    save_detector(detector, tmp_path / "detector")
    loaded = load_detector(tmp_path / "detector")
    assert _scores(loaded.trainer, service.service_id, windows) == scored
    reference = _never_scored(loaded.trainer)
    assert _scores(reference, service.service_id, windows) == scored


def test_batch1_stream_builds_each_operand_once(monkeypatch, dataset,
                                                windows):
    trainer = _never_scored(_fitted(dataset))
    corrections = {}
    markers = []
    shift_correction = DualisticConv1d._shift_correction
    marker_channels = frequency_marker_channels

    def counted_correction(self, kernel):
        corrections[self] = corrections.get(self, 0) + 1
        return shift_correction(self, kernel)

    def counted_markers(subspace):
        markers.append(subspace)
        return marker_channels(subspace)

    monkeypatch.setattr(DualisticConv1d, "_shift_correction",
                        counted_correction)
    monkeypatch.setattr(characterization_module, "frequency_marker_channels",
                        counted_markers)
    for index in range(100):
        trainer.window_errors(dataset[0].service_id,
                              windows[index:index + 1])
    model = trainer.model
    assert corrections == {model.peak_branch.encoder: 1,
                           model.valley_branch.encoder: 1}
    assert len(markers) == 1


def test_multi_chunk_call_builds_every_operand_before_the_helper(
        monkeypatch, dataset, windows):
    trainer = _never_scored(_fitted(dataset))
    service_id = dataset[0].service_id
    started = []
    built_after_start = []

    def recording(target):
        def wrapped(*args, **kwargs):
            if started:
                built_after_start.append(target.__name__)
            return target(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(DualisticConv1d, "_shift_correction",
                        recording(DualisticConv1d._shift_correction))
    monkeypatch.setattr(characterization_module, "frequency_marker_channels",
                        recording(frequency_marker_channels))
    monkeypatch.setattr(ContextAwareDFT, "__init__",
                        recording(ContextAwareDFT.__init__))
    model = trainer.model
    convolutions = [module for module in model.modules()
                    if isinstance(module, DualisticConv1d)]
    snapshot = {}
    start = threading.Thread.start

    def checked_start(thread):
        # What the helper will read, as the caller leaves it.
        snapshot["kernels"] = [
            bool(conv._scoring_operands)
            and conv._scoring_operands[0] is (conv.weight.data
                                              if conv.learnable
                                              else conv.fixed_weight)
            for conv in convolutions]
        subspace = trainer.extractor.subspace(service_id)
        snapshot["markers"] = \
            model.characterization._marker_cache.get(subspace) is not None
        snapshot["transforms"] = \
            service_id in trainer.extractor._transforms
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", checked_start)
    trainer.window_errors(service_id, windows, batch_size=64)
    assert len(started) == 1
    assert snapshot == {"kernels": [True] * len(convolutions),
                        "markers": True, "transforms": True}
    assert built_after_start == []


def _expected_markers(subspace, dtype):
    return frequency_marker_channels(subspace).transpose(1, 0, 2) \
        .astype(dtype)


def test_refits_score_like_a_never_scored_model_and_free_old_markers(
        dataset):
    """Refit one service over four series, freeing each old subspace:
    every new subspace gets its own markers, scores as a never-scored
    model does, and the freed ones leave the cache."""
    trainer = _fitted(dataset)
    service_id = dataset[0].service_id
    characterization = trainer.model.characterization
    for refit in range(24):
        series = dataset[refit % len(dataset)].train
        trainer.prepare_service(service_id, series)
        gc.collect()
        subspace = trainer.extractor.subspace(service_id)
        window = sliding_windows(series, 40, 1)[:2]
        scores = trainer.window_errors(service_id, window, batch_size=1)
        assert characterization._markers(subspace).tobytes() == \
            _expected_markers(subspace, np.float32).tobytes()
        reference = _never_scored(trainer)
        assert scores.tobytes() == reference.window_errors(
            service_id, window, batch_size=1).tobytes()
    # Freed subspaces take their markers with them.
    assert len(characterization._marker_cache) == 1


def test_markers_follow_the_subspace_not_its_id(monkeypatch, dataset):
    """Two subspaces that report the same ``id()`` (as a freed subspace's
    successor can) still get their own markers."""
    monkeypatch.setattr(characterization_module, "id", lambda obj: 0,
                        raising=False)
    trainer = _fitted(dataset)
    characterization = trainer.model.characterization
    first = trainer.extractor.subspace(dataset[0].service_id)
    trainer.prepare_service(dataset[1].service_id, dataset[1].train)
    second = trainer.extractor.subspace(dataset[1].service_id)
    assert not np.array_equal(first.frequencies, second.frequencies)
    for subspace in (first, second, first):
        assert characterization._markers(subspace).tobytes() == \
            _expected_markers(subspace, np.float32).tobytes()


def test_markers_follow_the_dtype(dataset):
    trainer = _fitted(dataset)
    characterization = trainer.model.characterization
    subspace = trainer.extractor.subspace(dataset[0].service_id)
    assert characterization._markers(subspace).dtype == np.float32
    trainer.model.to(np.float64)
    assert characterization._markers(subspace).tobytes() == \
        _expected_markers(subspace, np.float64).tobytes()


def test_a_float32_model_cast_to_float64_scores_in_float64(dataset, windows,
                                                            monkeypatch):
    """``MaceModel.dtype`` follows the weights: after ``to(np.float64)`` a
    float32 model casts its windows to float64 and asks for float64
    DFT/IDFT modules, so it scores in float64 end to end, bitwise equal to
    its own taped forward."""
    service_id = dataset[0].service_id
    trainer = _fitted(dataset)
    assert trainer.model.dtype == np.float32
    trainer.model.to(np.float64)
    assert trainer.model.dtype == np.float64

    extractor = trainer.extractor
    requested = []
    transforms = extractor.transforms

    def recording(service, dtype):
        requested.append(np.dtype(dtype))
        return transforms(service, dtype)

    monkeypatch.setattr(extractor, "transforms", recording)
    windows32 = windows.astype(np.float32)
    scores = trainer.window_errors(service_id, windows32,
                                   batch_size=windows.shape[0])
    assert scores.dtype == np.float64
    with no_grad():
        output = trainer.model(Tensor(windows32), extractor, service_id)
    assert output.amplified.dtype == np.float64
    taped = trainer.model.timestep_errors(output)
    assert requested and set(requested) == {np.dtype(np.float64)}
    assert scores.tobytes() == taped.tobytes()
