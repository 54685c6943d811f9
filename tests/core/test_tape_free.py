"""Differential test: tape-free scoring against the taped forward.

``MaceTrainer.window_errors`` scores through ``MaceModel.score_windows``,
which runs every stage on plain arrays: no ``Tensor``, no tape, no
``no_grad``.  The taped ``MaceModel.forward``, whose stages 2-4 are the
training path (``reconstruct``), stays as the reference here.  ``taped_window_errors`` below is the
``window_errors`` that scoring used before, verbatim.

Both must give the same ``(W, T)`` errors bit for bit (``tobytes()``):

* for the default config, each Table IX ablation, the literal
  ``valley_mode="negative_gamma"`` and ``amplifier_blend=1.0``;
* in float32 and float64;
* at batch sizes 1, 7, 64 and 256;
* on windows holding a 1e4 spike (beyond float32's power range, so the
  amplifier's overflow guard clips it) and exact ``±0.0``;
* for a service fitted in training and for one added later through
  ``prepare_service``;
* with 3 and 5 features, at batch sizes 1, 3, 5 and 13.  With smd's 8
  features every product's column count is a multiple of 8, so a BLAS
  kernel that takes columns in groups of up to 8 has none left over;
  odd counts leave some, which BLAS computes on a separate path.

The batches are the same on both sides: scoring is not batch-invariant
on the taped path either (``test_float32.py``'s strict xfails).

``_Branch.forward_array`` runs in the encoder's tiled layout, so it is
also checked on its own against the taped ``_Branch.forward``: other
kernel sizes, channel counts and bases, size-1 axes (one channel, one
tap, one row, one tile), a decoder bias of ``-0.0`` with zero
contributions, and spectrum widths that do and do not need padding.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MaceConfig, MaceTrainer
from repro.core.model import _Branch
from repro.data import load_dataset, sliding_windows
from repro.nn import Tensor, functional as F, no_grad
from repro.nn.autograd import register_op_hook, unregister_op_hook

BATCH_SIZES = (1, 7, 64, 256)
ODD_BATCH_SIZES = (1, 3, 5, 13)

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


def _fitted(config, services):
    """Trained on the first service; the second arrives through
    ``prepare_service``, as an unseen service does."""
    seen, unseen = services[0], services[1]
    trainer = MaceTrainer(config).fit([seen.service_id], [seen.train])
    trainer.prepare_service(unseen.service_id, unseen.train)
    return trainer


def _assert_equal_to_taped(trainer, services, windows_of, batch_sizes, dtype):
    for service in services:
        windows = windows_of(service.test)
        for batch_size in batch_sizes:
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
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_window_errors_bitwise_equal_to_taped_forward(dataset, name, dtype):
    config = MaceConfig(epochs=1, dtype=dtype, **CONFIGS[name])
    trainer = _fitted(config, dataset)
    _assert_equal_to_taped(trainer, dataset, _windows, BATCH_SIZES, dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("features", [3, 5])
def test_window_errors_bitwise_equal_with_odd_feature_counts(dataset, features,
                                                             name, dtype):
    services = [replace(s, train=s.train[:, :features],
                        test=s.test[:, :features]) for s in dataset]
    config = MaceConfig(epochs=1, dtype=dtype, **CONFIGS[name])
    trainer = _fitted(config, services)
    # 40 windows: the batch sizes leave a short last chunk.
    _assert_equal_to_taped(trainer, services, lambda s: _windows(s)[:40],
                           ODD_BATCH_SIZES, dtype)


# --- one branch against the taped _Branch.forward ------------------------------

BRANCH_CASES = {
    "default": {},
    "kernel_3": {"kernel_freq": 3},
    "kernel_4": {"kernel_freq": 4},
    "kernel_7": {"kernel_freq": 7},
    "channels_4": {"channels": 4},
    "num_bases_7": {"num_bases": 7},
    "no_dualistic_freq": {"use_dualistic_freq": False},
    # Size-1 axes, where the taped operands keep their source's layout.
    "channels_1": {"channels": 1},
    "kernel_1": {"kernel_freq": 1},
    "one_tile": {"num_bases": 2, "kernel_freq": 4},
    "one_padded_tile": {"num_bases": 2, "kernel_freq": 5},
}


def _representations(rows, channels, width, dtype, seed=0):
    """A tanh-bounded representation with an exact ``+0.0`` row and a
    ``-0.0`` row: C-ordered, and as the characterization emits it, a
    transposed view of ``(C, R, W)``."""
    rng = np.random.default_rng(seed)
    data = np.tanh(rng.normal(size=(rows, channels, width)) * 2.0)
    data[0, 0] = 0.0
    data[-1, -1] = -0.0
    data = data.astype(dtype)
    return data, np.ascontiguousarray(data.transpose(1, 0, 2)).transpose(1, 0, 2)


def _assert_branch_equal(branch, config, dtype, rows=(1, 3, 13, 40)):
    spectrum = 2 * config.num_bases
    # The subspace's width, and the full spectrum's 42 slots (window 40).
    for width in (spectrum, 42):
        for count in rows:
            for representation in _representations(
                    count, config.channels, width, dtype, seed=count):
                tiles = F.tile_array(representation, config.kernel_freq)
                copy = tiles.copy()
                got = branch.forward_array(tiles, width)
                with no_grad():
                    expected = branch(Tensor(representation), width).data
                assert got.shape == (count, width)
                assert got.tobytes() == expected.tobytes(), (width, count)
                # The other branch reads the same tiles.
                assert tiles.tobytes() == copy.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", ["peak", "valley", "negative_gamma"])
@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_branch_forward_array_bitwise_equal_to_taped(case, mode, dtype):
    valley_mode = "negative_gamma" if mode == "negative_gamma" else "negated"
    config = MaceConfig(dtype=dtype, valley_mode=valley_mode,
                        **BRANCH_CASES[case])
    branch = _Branch(config, "peak" if mode == "peak" else "valley",
                     rng=np.random.default_rng(3)).to(dtype)
    _assert_branch_equal(branch, config, dtype)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_branch_negative_zero_decoder_bias(dtype):
    """Zero contributions plus a ``-0.0`` bias: the taped overlap-add
    starts every slot at ``+0.0``, so the slot is ``+0.0``."""
    config = MaceConfig(dtype=dtype)
    branch = _Branch(config, "peak", rng=np.random.default_rng(3)).to(dtype)
    state = branch.state_dict()
    state["decoder.weight"] = np.zeros_like(state["decoder.weight"])
    state["decoder.bias"] = np.full_like(state["decoder.bias"], -0.0)
    branch.load_state_dict(state)
    assert np.signbit(branch.decoder.bias.data).all()
    _assert_branch_equal(branch, config, dtype)


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
