"""Differential and lifecycle tests for the two-thread chunk map.

``MaceTrainer.window_errors`` scores ``batch_size`` chunks of its windows.
With two or more chunks the calling thread scores the even-indexed ones
and one helper thread the odd-indexed ones.  The reference is the serial
loop it replaced: ``MaceModel.score_windows`` over the same chunks, one
after another, concatenated in order.  The two must agree by
``tobytes()`` for every Table IX config in float32 and float64, including
the float32 full-spectrum ablation, whose scores depend on the chunk
boundaries (it is not batch-invariant), so a helper that re-chunked its
share would fail here.

The lifecycle tests pin the rest of the contract: a helper's exception
reaches the caller, no thread outlives a call on success or failure, a
single chunk starts no thread, and zero windows score to an empty
``(0, T)`` array.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core import MaceConfig, MaceTrainer
from repro.data import load_dataset, sliding_windows

BATCH_SIZE = 64
# 1 chunk, 2 full chunks, an odd count with a ragged last chunk, and a
# ragged fifth chunk.
WINDOW_COUNTS = (50, 128, 182, 261)

TABLE9 = {
    "MACE": {},
    "no_context_aware": {"context_aware": False},
    "no_dualistic_freq": {"use_dualistic_freq": False},
    "no_time_amplifier": {"use_time_amplifier": False},
    "no_markers": {"use_characterization_markers": False},
    "no_pattern_extraction": {"context_aware": False,
                              "use_characterization_markers": False},
}


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("smd", num_services=1, train_length=256,
                        test_length=300, seed=5)


def _fitted(config, dataset):
    service = dataset[0]
    return MaceTrainer(config).fit([service.service_id], [service.train])


def _windows(dataset):
    return sliding_windows(dataset[0].test, 40, 1)  # 261 windows


def serial_window_errors(trainer, service_id, windows, batch_size):
    """The single-threaded ``window_errors`` loop: the reference."""
    pieces = [trainer.model.score_windows(windows[start:start + batch_size],
                                          trainer.extractor, service_id)
              for start in range(0, windows.shape[0], batch_size)]
    return np.concatenate(pieces, axis=0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(TABLE9))
def test_threaded_chunks_bitwise_equal_to_serial(dataset, name, dtype):
    trainer = _fitted(MaceConfig(epochs=1, dtype=dtype, **TABLE9[name]),
                      dataset)
    service_id = dataset[0].service_id
    windows = _windows(dataset)
    for count in WINDOW_COUNTS:
        got = trainer.window_errors(service_id, windows[:count],
                                    batch_size=BATCH_SIZE)
        expected = serial_window_errors(trainer, service_id, windows[:count],
                                        BATCH_SIZE)
        assert got.dtype == np.dtype(dtype)
        assert got.shape == (count, 40)
        assert got.tobytes() == expected.tobytes(), count


@pytest.fixture(scope="module")
def trainer(dataset):
    return _fitted(MaceConfig(epochs=1), dataset)


def _recording(monkeypatch, trainer, windows, fail_on_helper=None):
    """Wrap the instance's ``score_windows``: map each chunk's index in
    ``windows`` to the thread that scored it, and raise ``fail_on_helper``
    on any chunk the helper scores."""
    caller = threading.get_ident()
    threads = {}
    score_windows = trainer.model.score_windows

    def wrapped(chunk, extractor, service_id):
        offset = chunk.ctypes.data - windows.ctypes.data
        threads[offset // windows.strides[0] // BATCH_SIZE] = \
            threading.get_ident()
        if fail_on_helper is not None and threading.get_ident() != caller:
            raise fail_on_helper
        return score_windows(chunk, extractor, service_id)

    monkeypatch.setattr(trainer.model, "score_windows", wrapped)
    return caller, threads


def test_odd_chunks_run_on_one_helper(monkeypatch, dataset, trainer):
    windows = _windows(dataset)
    caller, threads = _recording(monkeypatch, trainer, windows)
    before = threading.active_count()
    trainer.window_errors(dataset[0].service_id, windows,
                          batch_size=BATCH_SIZE)
    assert threading.active_count() == before
    assert sorted(threads) == [0, 1, 2, 3, 4]
    assert [threads[index] for index in (0, 2, 4)] == [caller] * 3
    assert threads[1] == threads[3] != caller


def test_helper_exception_reaches_caller(monkeypatch, dataset, trainer):
    error = RuntimeError("injected on a helper chunk")
    windows = _windows(dataset)
    _recording(monkeypatch, trainer, windows, fail_on_helper=error)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        trainer.window_errors(dataset[0].service_id, windows,
                              batch_size=BATCH_SIZE)
    assert raised.value is error
    assert threading.active_count() == before


def test_caller_exception_joins_helper(monkeypatch, dataset, trainer):
    caller = threading.get_ident()
    score_windows = trainer.model.score_windows

    def failing(chunk, extractor, service_id):
        if threading.get_ident() == caller:
            raise ValueError("injected on a caller chunk")
        return score_windows(chunk, extractor, service_id)

    monkeypatch.setattr(trainer.model, "score_windows", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="caller chunk"):
        trainer.window_errors(dataset[0].service_id, _windows(dataset),
                              batch_size=BATCH_SIZE)
    assert threading.active_count() == before


def test_single_chunk_starts_no_thread(monkeypatch, dataset, trainer):
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chunk call started a thread")

    monkeypatch.setattr(trainer_module.threading, "Thread", no_thread)
    windows = _windows(dataset)
    before = threading.active_count()
    one = trainer.window_errors(dataset[0].service_id, windows[:1])
    full = trainer.window_errors(dataset[0].service_id, windows,
                                 batch_size=windows.shape[0])
    assert threading.active_count() == before
    assert one.tobytes() == full[:1].tobytes()


def test_errstate_reaches_the_helper(monkeypatch, dataset, trainer):
    """The helper scores under the caller's ``np.errstate``."""
    seen = []
    score_windows = trainer.model.score_windows

    def recording(chunk, extractor, service_id):
        seen.append(np.geterr()["over"])
        return score_windows(chunk, extractor, service_id)

    monkeypatch.setattr(trainer.model, "score_windows", recording)
    with np.errstate(over="raise"):
        trainer.window_errors(dataset[0].service_id, _windows(dataset)[:128],
                              batch_size=BATCH_SIZE)
    assert seen == ["raise", "raise"]


def test_concurrent_callers_match_serial(dataset):
    """Four callers, each with its helper, share one trainer whose lazy
    caches start empty; with a short switch interval every result must
    still be the serial bits."""
    trainer = _fitted(MaceConfig(epochs=1), dataset)
    service_id = dataset[0].service_id
    windows = _windows(dataset)
    results = [None] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def call(slot):
            results[slot] = trainer.window_errors(service_id, windows,
                                                  batch_size=BATCH_SIZE)

        callers = [threading.Thread(target=call, args=(slot,))
                   for slot in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = serial_window_errors(trainer, service_id, windows, BATCH_SIZE)
    for result in results:
        assert result is not None
        assert result.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_zero_windows_score_to_an_empty_array(dataset, dtype):
    trainer = _fitted(MaceConfig(epochs=1, dtype=dtype), dataset)
    empty = np.empty((0, 40, dataset[0].train.shape[1]))
    for batch_size in (1, BATCH_SIZE):
        errors = trainer.window_errors(dataset[0].service_id, empty,
                                       batch_size=batch_size)
        assert errors.shape == (0, 40)
        assert errors.dtype == np.dtype(dtype)
