"""Differential test: the leaner MACE forward vs the code it replaced.

Five pieces changed without changing any result:

* ``TimeDomainAmplifier`` evaluates only its peak branch instead of
  averaging peak and valley: at shift 0 Eq. 2's operator is odd, so the
  valley ``-peak(-x)`` equals the peak bit for bit;
* ``odd_power``/``odd_root`` copy the sign onto the magnitude instead of
  multiplying by ``np.sign``;
* ``DualisticConv1d``'s peak mode skips ``x * 1.0`` and ``root * 1.0``;
* ``scores_to_timeline`` adds one strided slice per window offset instead
  of one row per window;
* ``StreamingDetector.observe`` shifts its buffer with one concatenate
  instead of ``np.roll`` plus an assignment.

The replaced implementations are kept below, verbatim, as the reference.
A seeded MACE fit, score and stream run must match them bit for bit
(``tobytes()``).  The reference run scores through the taped forward
(``taped_window_errors``), the only path that calls the patched ops; the
run under test scores through the tape-free path.  Per op, so must outputs and gradients, except where
``odd_power``/``odd_root`` document a difference: at ``-0.0``, and at
``±0`` with a negative power.
"""

import numpy as np
import pytest

from repro.core import (
    DualisticConv1d,
    MaceConfig,
    MaceDetector,
    MaceTrainer,
    StreamingDetector,
    TimeDomainAmplifier,
)
from repro.core import dualistic, scoring
from repro.data import scores_to_timeline, window_starts
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.tensor import odd_power, odd_root
from tests.core.test_tape_free import taped_window_errors


# --- reference: the replaced code, verbatim ---------------------------------

def reference_odd_power(x, gamma: float) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    magnitude = np.abs(x.data)
    data = np.sign(x.data) * magnitude**gamma

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * gamma * magnitude ** (gamma - 1))

    return Tensor._from_op(data, (x,), backward, "odd_power",
                           attrs={"gamma": float(gamma)})


def reference_odd_root(x, gamma: float, eps: float = 1e-8) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    magnitude = np.abs(x.data)
    data = np.sign(x.data) * magnitude ** (1.0 / gamma)

    def backward(grad):
        if x.requires_grad:
            safe = np.maximum(magnitude, eps)
            x._accumulate(grad * (1.0 / gamma) * safe ** (1.0 / gamma - 1.0))

    return Tensor._from_op(data, (x,), backward, "odd_root",
                           attrs={"gamma": float(gamma), "eps": float(eps)})


def reference_dualistic_forward(self, x: Tensor) -> Tensor:
    sign = -1.0 if (self.mode == "valley" and self.valley_mode == "negated") else 1.0
    gamma = float(self.gamma)
    if self.mode == "valley" and self.valley_mode == "negative_gamma":
        # Literal γ < −1: power the ε-clamped magnitude to −γ, keep sign.
        clamped = x.abs().clip(self.eps, np.inf) * x.sign()
        powered = reference_odd_power(clamped, -gamma) * (1.0 / self.sigma)
        conv = F.conv1d(powered, self._kernel(), stride=self.stride,
                        padding=self.padding)
        return reference_odd_root(conv, -gamma)
    kernel = self._kernel()
    shifted = x * sign + self.shift
    powered = reference_odd_power(shifted, gamma) * (1.0 / self.sigma)
    conv = F.conv1d(powered, kernel, stride=self.stride,
                    padding=self.padding)
    root = reference_odd_root(conv, gamma)
    if self.shift:
        mass = np.abs(kernel.data).sum(axis=(1, 2))  # per out-channel
        correction = self.shift * (mass / self.sigma) ** (1.0 / gamma)
        root = root - Tensor(correction[None, :, None])
    return root * sign


def reference_amplifier_forward(self, x: Tensor) -> Tensor:
    """``(N, T, m) -> (N, T, m)`` amplified windows."""
    n, t, m = x.shape
    flat = x.swapaxes(1, 2).reshape(n * m, 1, t)
    amplified = (self.peak(flat) + self.valley(flat)) * 0.5
    amplified = amplified.reshape(n, m, t).swapaxes(1, 2)
    if self.blend >= 1.0:
        return amplified
    return x * (1.0 - self.blend) + amplified * self.blend


def reference_scores_to_timeline(window_scores: np.ndarray, length: int,
                                 window: int, stride: int = 1) -> np.ndarray:
    if window_scores.ndim != 2 or window_scores.shape[1] != window:
        raise ValueError("window_scores must be (num_windows, window)")
    totals = np.zeros(length)
    counts = np.zeros(length)
    starts = window_starts(length, window, stride)
    if starts.size != window_scores.shape[0]:
        raise ValueError(
            f"expected {starts.size} windows for length={length}, "
            f"got {window_scores.shape[0]}"
        )
    for row, start in enumerate(starts):
        totals[start:start + window] += window_scores[row]
        counts[start:start + window] += 1.0
    covered = counts > 0
    timeline = np.zeros(length)
    timeline[covered] = totals[covered] / counts[covered]
    if not covered.all() and covered.any():
        # forward/backward fill uncovered edges with nearest covered value
        indices = np.where(covered)[0]
        timeline[:indices[0]] = timeline[indices[0]]
        timeline[indices[-1]:] = timeline[indices[-1]]
    return timeline


def reference_observe(self, service_id, observation):
    stream = self._require_stream(service_id)
    observation = self._validate(stream, observation)
    stream.buffer = np.roll(stream.buffer, -1, axis=0)
    stream.buffer[-1] = observation
    stream.filled = min(stream.filled + 1, self.window)
    if stream.filled < self.window:
        return None
    return stream.buffer


# --- op level ---------------------------------------------------------------

# Signed zeros, subnormals, values whose powers underflow, ±1e3 and ±inf.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.3e-315, 1e-35, -1e-35,
         1e3, -1e3, np.inf, -np.inf]


def _edge_values(shape, seed):
    """Normal samples, some scaled to about ±1e3, with ``EDGES`` mixed in."""
    values = np.random.default_rng(seed).normal(size=shape)
    flat = values.reshape(-1)
    flat[2::7] *= 1e3
    flat[::5] = np.resize(EDGES, flat[::5].size)
    return values


def _run(op, data, gamma, upstream):
    x = Tensor(data.copy(), requires_grad=True)
    with np.errstate(all="ignore"):
        out = op(x, gamma)
        out.backward(upstream)
    return out.data, x.grad


@pytest.mark.parametrize("op,reference", [(odd_power, reference_odd_power),
                                          (odd_root, reference_odd_root)],
                         ids=["odd_power", "odd_root"])
@pytest.mark.parametrize("gamma", [1.0, 3.0, 11.0, 1.0 / 3.0, -3.0, -11.0])
def test_sign_copy_matches_sign_product(op, reference, gamma):
    data = _edge_values((9, 13), seed=1)
    upstream = _edge_values((9, 13), seed=2)
    upstream[~np.isfinite(upstream)] = 1.0
    out, grad = _run(op, data, gamma, upstream)
    ref_out, ref_grad = _run(reference, data, gamma, upstream)
    assert grad.tobytes() == ref_grad.tobytes()  # backward unchanged
    zero = data == 0.0
    negative_zero = zero & np.signbit(data)
    documented = negative_zero | (zero if gamma < 0 else False)
    assert out[~documented].tobytes() == ref_out[~documented].tobytes()
    # The two documented inputs: -0.0 keeps its sign, and ±0 raised to a
    # negative power is ±inf where the product gave 0 * inf = NaN.
    if gamma > 0:
        assert np.all(out[negative_zero] == 0.0)
        assert np.all(np.signbit(out[negative_zero]))
    else:
        assert np.all(np.isinf(out[zero]))
        assert np.array_equal(np.signbit(out[zero]), np.signbit(data[zero]))
        assert np.all(np.isnan(ref_out[zero]))


@pytest.mark.parametrize("mode", ["peak", "valley"])
@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_dualistic_conv_matches_reference(mode, shift):
    conv = DualisticConv1d(3, 4, 5, stride=5, gamma=3, sigma=2.0, mode=mode,
                           shift=shift, rng=np.random.default_rng(3))
    data = _edge_values((2, 3, 20), seed=4)
    data[~np.isfinite(data)] = 0.5
    upstream = _edge_values((2, 4, 4), seed=5)
    upstream[~np.isfinite(upstream)] = 1.0

    def run(forward):
        conv.zero_grad()
        x = Tensor(data.copy(), requires_grad=True)
        with np.errstate(all="ignore"):
            out = forward(conv, x)
            out.backward(upstream)
        return out.data, x.grad, conv.weight.grad

    got = run(DualisticConv1d.forward)
    expected = run(reference_dualistic_forward)
    for value, ref in zip(got, expected):
        assert value.tobytes() == ref.tobytes()


@pytest.mark.parametrize("blend", [0.3, 1.0])
@pytest.mark.parametrize("gamma", [1, 3, 11])
def test_amplifier_peak_equals_two_branch_average(blend, gamma):
    amplifier = TimeDomainAmplifier(gamma=gamma, sigma=5.0, kernel_size=5,
                                    blend=blend)
    data = _edge_values((4, 40, 3), seed=6)
    data[~np.isfinite(data)] = -1e3
    got = amplifier(Tensor(data)).data
    expected = reference_amplifier_forward(amplifier, Tensor(data)).data
    assert np.isfinite(got).all()
    assert np.array_equal(got, expected)


def test_amplifier_keeps_valley_state_keys():
    """An uncalled valley stays registered: checkpoints keep their keys."""
    keys = TimeDomainAmplifier().state_dict().keys()
    assert sorted(keys) == ["peak.fixed_weight", "valley.fixed_weight"]


# --- timeline and stream buffer ----------------------------------------------

@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("length", [40, 41, 97, 250])
def test_timeline_bitwise_equal_to_row_loop(stride, length):
    window = 8 if length < 100 else 40
    num = window_starts(length, window, stride).size
    # Spread over many magnitudes so a different summation order would show.
    rng = np.random.default_rng(length * 10 + stride)
    scores = rng.normal(size=(num, window)) * 10.0 ** rng.integers(
        -8, 8, size=(num, window))
    got = scores_to_timeline(scores, length, window, stride)
    expected = reference_scores_to_timeline(scores, length, window, stride)
    assert got.tobytes() == expected.tobytes()


class _ConstantDetector:
    def score(self, service_id, series):
        return np.linspace(0.0, 1.0, len(series))


def test_stream_buffer_matches_roll_reference():
    def feed(observe):
        stream = StreamingDetector(_ConstantDetector(), window=6,
                                   on_invalid="impute")
        stream.start_service("svc", np.arange(36.0).reshape(12, 3))
        rng = np.random.default_rng(7)
        buffers = []
        for step in range(20):
            row = rng.normal(size=3)
            if step % 4 == 1:
                row[step % 3] = np.nan  # repaired from the newest row
            window = observe(stream, "svc", row)
            buffers.append((window, window.copy()))
        return buffers

    got = feed(StreamingDetector.observe)
    expected = feed(reference_observe)
    for (window, snapshot), (_, ref_snapshot) in zip(got, expected):
        assert snapshot.tobytes() == ref_snapshot.tobytes()
        # Every update makes a fresh array: a held window never changes.
        assert window.tobytes() == snapshot.tobytes()


# --- model level ------------------------------------------------------------

def _fit_score_stream(dataset):
    detector = MaceDetector(MaceConfig(epochs=2))
    detector.fit([s.service_id for s in dataset], [s.train for s in dataset])
    history = (np.asarray(detector.history.epoch_losses).tobytes(),
               np.asarray(detector.history.grad_norms).tobytes())
    params = {name: p.data.tobytes()
              for name, p in detector.trainer.model.named_parameters()}
    scores = [detector.score(s.service_id, s.test).tobytes() for s in dataset]
    stream = StreamingDetector(detector, window=40, q=1e-2)
    service = dataset[0]
    stream.start_service(service.service_id, service.train)
    updates = [stream.update(service.service_id, row)
               for row in service.test[:60]]
    outcomes = np.array([(u.score, u.is_alert, u.threshold) for u in updates])
    return history, params, scores, outcomes.tobytes()


def test_mace_fit_score_stream_bitwise_equal_to_reference(tiny_dataset,
                                                          monkeypatch):
    got = _fit_score_stream(tiny_dataset)
    monkeypatch.setattr(dualistic, "odd_power", reference_odd_power)
    monkeypatch.setattr(dualistic, "odd_root", reference_odd_root)
    monkeypatch.setattr(DualisticConv1d, "forward", reference_dualistic_forward)
    monkeypatch.setattr(TimeDomainAmplifier, "forward",
                        reference_amplifier_forward)
    monkeypatch.setattr(scoring, "scores_to_timeline",
                        reference_scores_to_timeline)
    monkeypatch.setattr(StreamingDetector, "observe", reference_observe)
    monkeypatch.setattr(MaceTrainer, "window_errors", taped_window_errors)
    expected = _fit_score_stream(tiny_dataset)
    for value, ref in zip(got, expected):
        assert value == ref
