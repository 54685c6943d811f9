"""Differential test: training in the tiled layout against the code it
replaced.

Two things changed in the taped training path without changing a result:

* ``_Branch.forward`` runs ``F.tile``, ``F.conv1d_tiles``,
  ``F.conv_transpose1d_tiles`` and ``F.pointwise_conv1d_tiles`` in the
  encoder's ``(C, K, R, L)`` layout instead of ``pad1d``, ``conv1d``,
  ``conv_transpose1d``, ``conv1d`` and ``getitem`` on ``(N*m, C, W)``;
* ``MaceTrainer.fit`` amplifies each service's windows once, cast to the
  model's dtype (``MaceModel.amplify_array``), and trains each batch
  through ``MaceModel.reconstruct``, instead of casting and amplifying
  every batch inside ``MaceModel.forward``.

The replaced ``_Branch.forward`` and ``MaceModel.forward`` are kept below,
verbatim, as the reference.  A two-epoch fit must match them bit for bit
(``tobytes()``): its loss history, gradient norms, every parameter and
the scores, for every ``CONFIGS`` entry of ``test_tape_free.py``, in
float32 and float64, with 3, 5 and 8 features.  One branch must match
too, output and every gradient, on the branch shapes ``test_tape_free.py``
scores, including a zero decoder, whose gradient holds nothing but
signed zeros.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import MaceConfig, MaceTrainer
from repro.core.model import MaceModel, MaceOutput, _Branch
from repro.core.pattern_extraction import PatternExtractor
from repro.data import load_dataset, sliding_windows
from repro.data.windows import WindowDataset
from repro.nn import functional as F
from repro.nn.tensor import Tensor, pad1d
from tests.core.test_tape_free import BRANCH_CASES, CONFIGS, _representations


# --- reference: the replaced code, verbatim ---------------------------------

def reference_branch_forward(self, representation: Tensor, width: int) -> Tensor:
    """``(N*m, C, 2k) -> (N*m, 2k)`` reconstructed spectrum."""
    padding = self._padding(representation.shape[-1])
    padded = representation
    if padding:
        padded = pad1d(representation, 0, padding)
    latent = self.encoder(padded)
    decoded = self.activation(self.decoder(latent))
    spectrum = self.head(decoded)  # (N*m, 1, padded_width)
    return spectrum[:, 0, :width]


def reference_model_forward(self, windows: Tensor, extractor: PatternExtractor,
                            service_id: str) -> MaceOutput:
    """Run all four stages for one service's window batch."""
    if windows.ndim != 3:
        raise ValueError("windows must be (N, T, m)")
    if windows.dtype != self.dtype:
        windows = windows.astype(self.dtype)
    amplified = (
        self.amplifier(windows) if self.config.use_time_amplifier else windows
    )
    dft, idft = extractor.transforms(service_id, self.dtype)
    subspace = extractor.subspace(service_id)
    coeffs = dft(amplified)  # (N, m, 2k)
    n, m, width = coeffs.shape
    representation = self.characterization(coeffs, subspace)  # (N*m, C, 2k)

    reconstructions = []
    for branch in (self.peak_branch, self.valley_branch):
        spectrum = branch(representation, width).reshape(n, m, width)
        reconstructions.append(idft(spectrum))  # (N, T, m)
    return MaceOutput(amplified, reconstructions[0], reconstructions[1])


@pytest.fixture
def reference(monkeypatch):
    """Switches training to the replaced code: the trainer's per-batch
    ``reconstruct`` call runs the old ``forward`` (cast, amplify and the
    untiled branches) on the raw windows, which ``map`` leaves alone."""

    def switch():
        monkeypatch.setattr(_Branch, "forward", reference_branch_forward)
        monkeypatch.setattr(MaceModel, "reconstruct", reference_model_forward)
        monkeypatch.setattr(WindowDataset, "map", lambda self, fn: self)

    return switch


# --- a two-epoch fit --------------------------------------------------------

@pytest.fixture(scope="module")
def dataset():
    return load_dataset("smd", num_services=2, train_length=200,
                        test_length=100, seed=5)


def _fit_digest(config, services):
    """Everything the fit and the scores write, as bytes."""
    with np.errstate(all="ignore"):
        trainer = MaceTrainer(config).fit([s.service_id for s in services],
                                          [s.train for s in services])
        scores = [trainer.window_errors(s.service_id,
                                        sliding_windows(s.test, 40, 3))
                  for s in services]
    history = trainer.history
    return {
        "losses": np.asarray(history.epoch_losses).tobytes(),
        "grad_norms": np.asarray(history.grad_norms).tobytes(),
        **{name: param.data.tobytes()
           for name, param in trainer.model.named_parameters()},
        **{f"scores/{s.service_id}": score.tobytes()
           for s, score in zip(services, scores)},
    }


@pytest.mark.parametrize("features", [3, 5, 8])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fit_bitwise_equal_to_reference(dataset, reference, name, dtype,
                                        features):
    services = [replace(s, train=s.train[:, :features],
                        test=s.test[:, :features]) for s in dataset]
    config = MaceConfig(epochs=2, dtype=dtype, batch_size=16, **CONFIGS[name])
    got = _fit_digest(config, services)
    reference()
    expected = _fit_digest(config, services)
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


def test_default_fit_runs_no_overlap_add(dataset, monkeypatch):
    """No training step scatters a gradient or an output through
    ``_overlap_add``: the branches run in the tiled layout, and the
    characterization's input needs no gradient."""

    def scatter(*args, **kwargs):
        raise AssertionError("_overlap_add ran on the training path")

    monkeypatch.setattr(F, "_overlap_add", scatter)
    trainer = MaceTrainer(MaceConfig(epochs=1)).fit(
        [s.service_id for s in dataset], [s.train for s in dataset])
    assert np.isfinite(trainer.history.final_loss)


# --- one branch -------------------------------------------------------------

def _branch_run(branch, representation, width, grad):
    """Output, representation gradient and parameter gradients of one
    backward from ``grad``.  The representation is an intermediate node,
    as in the model, whose gradient an identity node records in the
    layout the branch hands on."""
    seen = []

    def capture(upstream):
        seen.append(upstream)

    leaf = Tensor(representation, requires_grad=True)
    node = Tensor._from_op(representation, (leaf,), capture, "capture")
    branch.zero_grad()
    out = branch(node, width)
    out.backward(grad)
    (upstream,) = seen
    return {
        "out": out.data.tobytes(),
        "grad": upstream.tobytes(),
        "grad_strides": upstream.strides,
        **{name: param.grad.tobytes()
           for name, param in branch.named_parameters()},
    }


def _assert_branch_equal(branch, config, dtype, monkeypatch):
    spectrum = 2 * config.num_bases
    for width in (spectrum, 42):
        for count in (1, 3, 13):
            for representation in _representations(
                    count, config.channels, width, dtype, seed=count):
                grad = np.random.default_rng(count).normal(
                    size=(count, width)).astype(dtype)
                grad[0, ::3] = -0.0
                grad[-1, 1::3] = 0.0
                with np.errstate(all="ignore"):
                    got = _branch_run(branch, representation, width, grad)
                    with monkeypatch.context() as patch:
                        patch.setattr(_Branch, "forward",
                                      reference_branch_forward)
                        expected = _branch_run(branch, representation, width,
                                               grad)
                assert got.keys() == expected.keys()
                for key in expected:
                    assert got[key] == expected[key], (key, width, count)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", ["peak", "valley", "negative_gamma"])
@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_branch_bitwise_equal_to_reference(case, mode, dtype, monkeypatch):
    valley_mode = "negative_gamma" if mode == "negative_gamma" else "negated"
    config = MaceConfig(dtype=dtype, valley_mode=valley_mode,
                        **BRANCH_CASES[case])
    branch = _Branch(config, "peak" if mode == "peak" else "valley",
                     rng=np.random.default_rng(3)).to(dtype)
    _assert_branch_equal(branch, config, dtype, monkeypatch)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("mode", ["peak", "valley"])
def test_branch_zero_decoder(mode, dtype, monkeypatch):
    """A zero decoder weight and a ``-0.0`` decoder bias: every gradient
    reaching the encoder is a signed zero.  The untiled ``conv1d`` turns
    each into ``+0.0`` ahead of the valley's negation, which makes it
    ``-0.0`` again, so the tiled ops must add that ``0.0`` at the same
    place."""
    config = MaceConfig(dtype=dtype)
    branch = _Branch(config, mode, rng=np.random.default_rng(3)).to(dtype)
    state = branch.state_dict()
    state["decoder.weight"] = np.zeros_like(state["decoder.weight"])
    state["decoder.bias"] = np.full_like(state["decoder.bias"], -0.0)
    branch.load_state_dict(state)
    _assert_branch_equal(branch, config, dtype, monkeypatch)
