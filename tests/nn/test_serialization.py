"""Saving and loading module state."""

import os
import stat

import numpy as np

from repro import nn
from repro.nn import Tensor
from repro.nn.serialization import load_module, load_state, save_module, save_state


def test_state_roundtrip(tmp_path, rng):
    state = {"a": rng.normal(size=(3, 3)), "b": np.arange(4.0)}
    path = tmp_path / "weights.npz"
    save_state(state, path)
    loaded = load_state(path)
    assert set(loaded) == {"a", "b"}
    np.testing.assert_allclose(loaded["a"], state["a"])


def test_module_roundtrip(tmp_path, rng):
    model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
    path = tmp_path / "model.npz"
    save_module(model, path)
    clone = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
    load_module(clone, path)
    x = Tensor(rng.normal(size=(5, 4)))
    np.testing.assert_allclose(model(x).data, clone(x).data)


def test_save_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "weights.npz"
    save_state({"x": np.zeros(2)}, path)
    assert path.exists()


def test_batchnorm_buffers_survive(tmp_path, rng):
    bn = nn.BatchNorm1d(3)
    bn(Tensor(rng.normal(size=(32, 3))))  # update running stats
    path = tmp_path / "bn.npz"
    save_module(bn, path)
    clone = nn.BatchNorm1d(3)
    load_module(clone, path)
    np.testing.assert_allclose(clone.running_mean, bn.running_mean)
    np.testing.assert_allclose(clone.running_var, bn.running_var)


def test_save_fsyncs_archive_before_rename(tmp_path, monkeypatch):
    """The archive's bytes reach the disk before its name does."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(descriptor):
        calls.append(("fsync", stat.S_ISREG(os.fstat(descriptor).st_mode)))
        return real_fsync(descriptor)

    def replace(source, destination):
        calls.append(("replace", None))
        return real_replace(source, destination)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_state({"x": np.arange(3.0)}, tmp_path / "weights.npz")
    assert ("replace", None) in calls
    before_rename = calls[:calls.index(("replace", None))]
    assert ("fsync", True) in before_rename
