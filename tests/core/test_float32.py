"""MACE in float32 (``MaceConfig.dtype``), and the float64 reference path.

* The float32 model computes in float32 end to end: every op output and
  every gradient on the tape, the parameters and the Adam moments.
* ``window_errors`` is bitwise equal across batch sizes, which the
  streaming path relies on (a batch-1 update must equal the batched
  forward): every Table IX config on smd's 8 features in float64 and
  float32, except the two float32 full-spectrum configs, which are
  strict xfails.  So are the default config's 3, 5, 6 and 7 features.
* The float64 path is bitwise equal to the code before float32 existed:
  ``golden_float64.json`` holds SHA-256 digests of a seeded fit, score
  and 400 stream updates made by that code.
* Differential: float32 against float64 from the same weights, within
  the tolerances below.
* The amplifier's overflow guard keeps a huge spike finite in float32.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    MaceConfig,
    MaceDetector,
    MaceTrainer,
    StreamingDetector,
    TimeDomainAmplifier,
    load_detector,
    save_detector,
)
from repro.data import load_dataset, sliding_windows
from repro.nn import Tensor
from repro.nn.autograd import register_op_hook, unregister_op_hook
from repro.nn.optim import Adam

GOLDEN = Path(__file__).with_name("golden_float64.json")

# Float32 against float64 from identical weights, measured on the smd,
# j-d1, j-d2 and smap profiles (3 services, 512 points, 2-epoch fit):
# window errors differ by at most 2.5e-7 of the largest error (about two
# float32 epsilons), the loss by 9.3e-8 relative, and each parameter's
# gradient by at most 1.5e-6 of its largest entry (the batch sums and
# the γ = 7 and 11 power chains compound the rounding).  The tolerances
# sit 6-10x above those maxima: reduction-order noise passes, a stage
# silently running in lower precision or dropping out does not.
SCORE_TOLERANCE = 2e-6
LOSS_TOLERANCE = 1e-6
GRAD_TOLERANCE = 1e-5


def _ids_and_trains(dataset):
    return [s.service_id for s in dataset], [s.train for s in dataset]


@pytest.fixture(scope="module")
def stream_dataset():
    return load_dataset("smd", num_services=2, train_length=512,
                        test_length=512, seed=11)


@pytest.fixture(scope="module")
def fitted32(stream_dataset):
    return MaceTrainer(MaceConfig(epochs=1)).fit(
        *_ids_and_trains(stream_dataset))


# --- float32 end to end -------------------------------------------------------

def test_default_is_float32():
    assert MaceConfig().dtype == "float32"


def test_tape_gradients_and_moments_are_float32(stream_dataset):
    trainer = MaceTrainer(MaceConfig(epochs=0))
    ids, trains = _ids_and_trains(stream_dataset)
    trainer.extractor.fit(ids, trains)
    model = trainer.model
    outputs, grads = [], []

    def hook(out, parents, op):
        outputs.append((op, out.dtype))
        backward = out._backward
        if backward is not None:
            def checked(grad, backward=backward, op=op):
                grads.append((op, grad.dtype))
                backward(grad)
            out._backward = checked

    windows = sliding_windows(stream_dataset[0].train, 40, 4)[:64]
    register_op_hook(hook)
    try:
        loss = model.loss(model(Tensor(windows), trainer.extractor, ids[0]))
        loss.backward()
    finally:
        unregister_op_hook(hook)
    # The float64 windows are cast once, at the model boundary.
    assert outputs[0] == ("astype", np.float32)
    single = np.dtype(np.float32)
    assert {dtype for _, dtype in outputs} == {single}
    assert len(grads) > 40 and {dtype for _, dtype in grads} == {single}
    assert loss.dtype == np.float32
    optimizer = Adam(model.parameters(), lr=1e-3)
    optimizer.step()
    for param in model.parameters():
        assert param.data.dtype == np.float32
        assert param.grad.dtype == np.float32
    for name, slot in optimizer.state_dict().items():
        if name != "step_count":
            assert slot.dtype == np.float32, name
    buffers = dict(model.named_buffers())
    assert {b.dtype for b in buffers.values()} == {single}


TABLE9 = {
    "MACE": {},
    "no_context_aware": {"context_aware": False},
    "no_dualistic_freq": {"use_dualistic_freq": False},
    "no_time_amplifier": {"use_time_amplifier": False},
    "no_markers": {"use_characterization_markers": False},
    "no_pattern_extraction": {"context_aware": False,
                              "use_characterization_markers": False},
}
FULL_SPECTRUM_FLOAT32 = pytest.mark.xfail(
    strict=True,
    reason="float32 full-spectrum scoring is not batch-invariant: the "
           "branch encoder's sgemm (a 16x40 weight against N*m*9 columns) "
           "rounds differently as the column count changes (CHANGES.md "
           "FOUND, float32 full-spectrum ablation)")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(TABLE9))
def test_window_errors_bitwise_equal_across_batch_sizes(request,
                                                        stream_dataset,
                                                        name, dtype):
    if dtype == "float32" and not TABLE9[name].get("context_aware", True):
        request.applymarker(FULL_SPECTRUM_FLOAT32)
    service = stream_dataset[0]
    _assert_batch_invariant(MaceConfig(epochs=1, dtype=dtype, **TABLE9[name]),
                            service.train, service.test)


def _assert_batch_invariant(config, train, test):
    trainer = MaceTrainer(config)
    trainer.fit(["service"], [train[:256]])
    windows = sliding_windows(test, 40, 1)[:256]
    single = trainer.window_errors("service", windows, batch_size=1)
    assert single.dtype == np.dtype(config.dtype)
    for batch_size in (7, 64, 256):
        batched = trainer.window_errors("service", windows,
                                        batch_size=batch_size)
        assert batched.tobytes() == single.tobytes(), batch_size


# The default config, with feature counts other than smd's 8: mc's 6, and
# smd's first 3, 5 or 7 features.  (mc in float64 is batch-invariant.)
OTHER_FEATURE_COUNTS = [("mc", 6, "float32")] + [
    ("smd", features, dtype)
    for features in (3, 5, 7) for dtype in ("float32", "float64")]


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="scoring is not batch-invariant with 3, 5, 6 or 7 features: the "
           "branch encoder's product, with N*m*L columns at batch N, m "
           "features and L tiles, rounds a window's columns differently at "
           "batch 1 than in a batch of 256, in float32 and float64 "
           "(CHANGES.md FOUND, batch invariance with odd feature counts)")
@pytest.mark.parametrize("profile,features,dtype", OTHER_FEATURE_COUNTS)
def test_window_errors_batch_invariant_with_other_feature_counts(
        stream_dataset, profile, features, dtype):
    if profile == "smd":
        service = stream_dataset[0]
    else:
        service = load_dataset(profile, num_services=1, train_length=512,
                               test_length=512, seed=11)[0]
    _assert_batch_invariant(MaceConfig(epochs=1, dtype=dtype),
                            service.train[:, :features],
                            service.test[:, :features])


def test_stream_updates_equal_batched_forward(fitted32, stream_dataset):
    detector = MaceDetector(fitted32.config)
    detector.trainer = fitted32
    service = stream_dataset[1]
    stream = StreamingDetector(detector, window=40)
    stream.start_service(service.service_id, service.train)
    rows = service.test[:120]
    streamed = [stream.update(service.service_id, row).score for row in rows]
    windows = sliding_windows(rows, 40, 1)
    batched = fitted32.window_errors(service.service_id, windows)[:, -1]
    assert np.array_equal(np.asarray(streamed[39:], dtype=np.float32), batched)


# --- float64: the reference path -----------------------------------------------

def environment() -> dict:
    """What the golden digests' bits depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"machine": platform.machine(), "numpy": np.__version__,
            "blas": blas}


def fit_score_stream_digests(config, dataset) -> dict:
    """SHA-256 digests of a seeded fit, score and 400 stream updates."""
    def digest(*arrays) -> str:
        sha = hashlib.sha256()
        for array in arrays:
            sha.update(np.ascontiguousarray(array).tobytes())
        return sha.hexdigest()

    detector = MaceDetector(config).fit(*_ids_and_trains(dataset))
    model = detector.trainer.model
    service = dataset[0]
    stream = StreamingDetector(detector, window=40, q=1e-2)
    stream.start_service(service.service_id, service.train)
    updates = [stream.update(service.service_id, row)
               for row in service.test[:400]]
    return {
        "history": digest(detector.history.epoch_losses,
                          detector.history.grad_norms),
        "parameters": digest(*(p.data for p in model.parameters())),
        "scores": digest(*(detector.score(s.service_id, s.test)
                           for s in dataset)),
        "stream": digest(np.array([(u.score, u.is_alert, u.threshold)
                                   for u in updates])),
    }


def test_float64_bitwise_equal_to_pre_float32_code(stream_dataset):
    golden = json.loads(GOLDEN.read_text())
    if golden["environment"] != environment():
        pytest.skip("golden digests were recorded with another NumPy/BLAS "
                    f"build: {golden['environment']}")
    config = MaceConfig(epochs=2, dtype="float64")
    assert fit_score_stream_digests(config, stream_dataset) == golden["digests"]


def test_float32_against_float64_from_the_same_weights(stream_dataset):
    ids, trains = _ids_and_trains(stream_dataset)
    reference = MaceTrainer(MaceConfig(epochs=1, dtype="float64"))
    reference.fit(ids, trains)
    single = MaceTrainer(MaceConfig(epochs=0))
    single.extractor.fit(ids, trains)
    single.model.load_state_dict(reference.model.state_dict())
    single.model.eval()
    for service in stream_dataset:
        windows = sliding_windows(service.test, 40, 1)
        expected = reference.window_errors(service.service_id, windows)
        got = single.window_errors(service.service_id, windows)
        assert got.dtype == np.float32
        error = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
        assert error <= SCORE_TOLERANCE

    windows = sliding_windows(trains[0], 40, 4)[:64]
    results = []
    for trainer in (reference, single):
        model = trainer.model
        model.train()
        model.zero_grad()
        loss = model.loss(model(Tensor(windows), trainer.extractor, ids[0]))
        loss.backward()
        results.append((float(loss.data), dict(model.named_parameters())))
    (loss64, params64), (loss32, params32) = results
    assert abs(loss32 - loss64) <= LOSS_TOLERANCE * abs(loss64)
    for name, param in params64.items():
        difference = np.abs(params32[name].grad - param.grad).max()
        assert difference <= GRAD_TOLERANCE * np.abs(param.grad).max(), name


# --- overflow guard ------------------------------------------------------------

@pytest.fixture(scope="module")
def spiked(fitted32, stream_dataset):
    service = stream_dataset[0]
    series = service.test[:200].copy()
    series[120, 0] = 1e4
    return fitted32, service.service_id, series


def test_spike_beyond_float32_power_range_scores_finite(spiked):
    trainer, service_id, series = spiked
    detector = MaceDetector(trainer.config)
    detector.trainer = trainer
    scores = detector.score(service_id, series)
    assert np.isfinite(scores).all()
    assert int(np.argmax(scores)) == 120


def test_spike_without_the_guard_is_not_finite(spiked, monkeypatch):
    """The guard is what keeps the spike finite."""
    trainer, service_id, series = spiked
    monkeypatch.setattr(TimeDomainAmplifier, "overflow_bound",
                        lambda self, dtype: np.inf)
    with np.errstate(all="ignore"):
        errors = trainer.window_errors(service_id,
                                       sliding_windows(series, 40, 1))
    assert not np.isfinite(errors).all()


def test_guard_bounds():
    amplifier = TimeDomainAmplifier(gamma=11, sigma=5.0)
    bound32 = amplifier.overflow_bound(np.float32)
    assert 2.9e3 < bound32 < 3.2e3
    assert np.isfinite(np.float32(bound32) ** np.float32(11))
    assert amplifier.overflow_bound(np.float64) > 1e27


def test_guard_leaves_float64_bits_unchanged(monkeypatch):
    amplifier = TimeDomainAmplifier()
    data = np.random.default_rng(0).normal(size=(8, 40, 3)) * 1e3
    guarded = amplifier(Tensor(data)).data
    monkeypatch.setattr(TimeDomainAmplifier, "overflow_bound",
                        lambda self, dtype: np.inf)
    assert amplifier(Tensor(data)).data.tobytes() == guarded.tobytes()


# --- persistence -----------------------------------------------------------------

def test_float32_save_load_roundtrip_bitwise(fitted32, stream_dataset,
                                             tmp_path):
    detector = MaceDetector(fitted32.config)
    detector.trainer = fitted32
    service = stream_dataset[0]
    original = detector.score(service.service_id, service.test)
    restored = load_detector(save_detector(detector, tmp_path / "model"))
    assert restored.config.dtype == "float32"
    assert {p.dtype for p in restored.trainer.model.parameters()} \
        == {np.dtype(np.float32)}
    assert restored.score(service.service_id, service.test).tobytes() \
        == original.tobytes()


def test_manifest_without_dtype_loads_as_float64(stream_dataset, tmp_path):
    """Detectors saved before the field existed ran in float64."""
    detector = MaceDetector(MaceConfig(epochs=1, dtype="float64"))
    detector.fit(*_ids_and_trains(stream_dataset))
    service = stream_dataset[0]
    original = detector.score(service.service_id, service.test)
    manifest_path = save_detector(detector, tmp_path / "model")
    manifest = json.loads(manifest_path.read_text())
    del manifest["config"]["dtype"]
    manifest_path.write_text(json.dumps(manifest))
    restored = load_detector(manifest_path)
    assert restored.config.dtype == "float64"
    assert restored.score(service.service_id, service.test).tobytes() \
        == original.tobytes()
