"""Differential test: tape-free scoring against the taped forward.

``MaceTrainer.window_errors`` scores through ``MaceModel.score_windows``,
which runs every stage on plain arrays: no ``Tensor``, no tape, no
``no_grad``.  The taped ``MaceModel.forward`` stays as the training path
and as the reference here.  ``taped_window_errors`` below is the
``window_errors`` that scoring used before, verbatim.

Both must give the same ``(W, T)`` errors bit for bit (``tobytes()``):

* for the default config, each Table IX ablation, the literal
  ``valley_mode="negative_gamma"`` and ``amplifier_blend=1.0``;
* in float32 and float64;
* at batch sizes 1, 7, 64 and 256;
* on windows holding a 1e4 spike (beyond float32's power range, so the
  amplifier's overflow guard clips it) and exact ``±0.0``;
* for a service fitted in training and for one added later through
  ``prepare_service``.

The batches are the same on both sides: the float32 full-spectrum
ablation is not batch-invariant on the taped path either.
"""

import numpy as np
import pytest

from repro.core import MaceConfig, MaceTrainer
from repro.data import load_dataset, sliding_windows
from repro.nn import Tensor, no_grad
from repro.nn.autograd import register_op_hook, unregister_op_hook

BATCH_SIZES = (1, 7, 64, 256)

CONFIGS = {
    "default": {},
    "no_time_amplifier": {"use_time_amplifier": False},
    "no_dualistic_freq": {"use_dualistic_freq": False},
    "no_markers": {"use_characterization_markers": False},
    "full_spectrum": {"context_aware": False},
    "mean_error": {"select_max_error": False},
    "negative_gamma": {"valley_mode": "negative_gamma"},
    "blend_one": {"amplifier_blend": 1.0},
}


def taped_window_errors(self, service_id, windows, batch_size=256):
    """The taped ``MaceTrainer.window_errors`` the tape-free path replaced."""
    if service_id not in self.extractor:
        raise KeyError(
            f"service {service_id!r} has no fitted subspace; call "
            "fit() or prepare_service() first"
        )
    # Cast once here rather than per chunk in the model's forward.
    windows = np.asarray(windows, dtype=self.model.dtype)
    pieces = []
    with no_grad():
        for start in range(0, windows.shape[0], batch_size):
            chunk = windows[start:start + batch_size]
            output = self.model(Tensor(chunk), self.extractor, service_id)
            pieces.append(self.model.timestep_errors(output))
    return np.concatenate(pieces, axis=0)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("smd", num_services=2, train_length=256,
                        test_length=300, seed=5)


def _windows(series):
    """All test windows (261, more than one batch of 256), with a 1e4
    spike in one and exact ``±0.0`` filling another."""
    windows = sliding_windows(series, 40, 1).copy()
    windows[3, 20, 0] = 1e4
    windows[5] = 0.0
    windows[5, ::2] = -0.0
    return windows


def _fitted(config, dataset):
    """Trained on the first service; the second arrives through
    ``prepare_service``, as an unseen service does."""
    seen, unseen = dataset[0], dataset[1]
    trainer = MaceTrainer(config).fit([seen.service_id], [seen.train])
    trainer.prepare_service(unseen.service_id, unseen.train)
    return trainer


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_window_errors_bitwise_equal_to_taped_forward(dataset, name, dtype):
    config = MaceConfig(epochs=1, dtype=dtype, **CONFIGS[name])
    trainer = _fitted(config, dataset)
    for service in dataset:
        windows = _windows(service.test)
        for batch_size in BATCH_SIZES:
            with np.errstate(all="ignore"):
                got = trainer.window_errors(service.service_id, windows,
                                            batch_size=batch_size)
                expected = taped_window_errors(trainer, service.service_id,
                                               windows, batch_size=batch_size)
            assert got.dtype == np.dtype(dtype)
            assert got.shape == (windows.shape[0], 40)
            assert got.tobytes() == expected.tobytes(), \
                (service.service_id, batch_size)
        # The guard keeps the spike finite in float32 (float64 needs none).
        assert np.isfinite(got).all()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_window_errors_creates_no_tape_ops(dataset, dtype):
    """Scoring cannot drift back onto the tape: it creates no op at all."""
    trainer = _fitted(MaceConfig(epochs=1, dtype=dtype), dataset)
    service = dataset[1]
    windows = _windows(service.test)[:9]
    ops = []

    def hook(out, parents, op):
        ops.append(op)

    register_op_hook(hook)
    try:
        trainer.window_errors(service.service_id, windows, batch_size=4)
        assert ops == []
        # The hook is live: the taped reference does record ops.
        taped_window_errors(trainer, service.service_id, windows)
    finally:
        unregister_op_hook(hook)
    assert "conv1d" in ops
