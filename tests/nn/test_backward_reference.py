"""Differential test: the cheaper backward vs the code it replaced.

Three pieces of the autograd engine changed without changing any result:

* ``Tensor._accumulate`` no longer copies an intermediate node's first
  gradient contribution (leaves still copy; see its docstring);
* ``leaky_relu`` is one tape node instead of ``where`` over ``x`` and
  ``x * slope``;
* ``getitem``'s adjoint adds a basic-indexed gradient with a slice add
  instead of ``np.add.at``.

The replaced implementations are kept below, verbatim, as the reference.
A seeded MACE fit and score must match them bit for bit (``tobytes()``);
per op, so must outputs and gradients, except for the documented sign of
zero in ``leaky_relu``'s gradient.  The reference run scores through the
taped forward (``taped_window_errors``), the path that calls the patched
``leaky_relu`` and ``getitem``.
"""

import numpy as np
import pytest

from repro.core import MaceConfig, MaceDetector, MaceTrainer
from repro.nn import Tensor, functional as F
from repro.nn.tensor import where
from tests.core.test_tape_free import taped_window_errors


# --- reference: the replaced code, verbatim ---------------------------------

def reference_accumulate(self, grad: np.ndarray) -> None:
    if self.grad is None:
        self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
    else:
        self.grad += grad


def reference_leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return where(x.data > 0, x, x * negative_slope)


def reference_getitem(self, key) -> "Tensor":
    data = self.data[key]

    def backward(grad):
        if self.requires_grad:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

    return Tensor._from_op(np.asarray(data), (self,), backward, "getitem",
                           attrs={"key": key})


# --- op level ---------------------------------------------------------------

def _signed_zeros(shape, seed):
    """Normal samples with ``+0.0`` and ``-0.0`` mixed in."""
    values = np.random.default_rng(seed).normal(size=shape)
    flat = values.reshape(-1)
    flat[::5] = 0.0
    flat[2::7] = -0.0
    return values


def _leaky_relu_run(op, data, upstream, slope):
    x = Tensor(data.copy(), requires_grad=True)
    with np.errstate(invalid="ignore"):  # -inf * 0.0 is NaN
        out = op(x, slope)
        out.backward(upstream)
    return out.data, x.grad


@pytest.mark.parametrize("slope", [0.1, 0.01, 0.0, -0.5, 1.5])
def test_leaky_relu_matches_composite(slope):
    data = _signed_zeros((6, 7), seed=1)
    data[0, :3] = [np.inf, -np.inf, np.nan]
    upstream = _signed_zeros((6, 7), seed=2)
    out, grad = _leaky_relu_run(F.leaky_relu, data, upstream, slope)
    ref_out, ref_grad = _leaky_relu_run(reference_leaky_relu, data, upstream, slope)
    assert out.tobytes() == ref_out.tobytes()
    # The composite also adds the other branch's zero-masked term, and a
    # signed zero plus a zero of the other sign is +0.0; the fused gradient
    # keeps the sign.  So zeros may differ in sign (``==`` ignores it), and
    # everything else is bitwise equal.
    np.testing.assert_array_equal(grad, ref_grad)
    nonzero = grad != 0.0
    assert grad[nonzero].tobytes() == ref_grad[nonzero].tobytes()


def test_leaky_relu_is_one_tape_node():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    out = F.leaky_relu(x, 0.1)
    assert out._op == "leaky_relu"
    assert out._parents == (x,)
    assert out._attrs == {"negative_slope": 0.1}


BASIC_KEYS = [
    (slice(1, 4),),
    (2,),
    (-1,),
    (slice(None, None, -2),),
    ((slice(None), 1),),
    ((Ellipsis, slice(0, 5, 2)),),
    ((None, slice(1, None), -2),),
    ((np.int64(1), slice(None)),),
]


def _getitem_grad(getitem, key, upstream_seed):
    x = Tensor(_signed_zeros((4, 6), seed=3), requires_grad=True)
    out = getitem(x, key)
    out.backward(_signed_zeros(out.shape, seed=upstream_seed))
    return x.grad


@pytest.mark.parametrize("key", [k[0] for k in BASIC_KEYS], ids=repr)
def test_basic_getitem_adjoint_bitwise_equal_to_add_at(key):
    got = _getitem_grad(Tensor.__getitem__, key, upstream_seed=4)
    expected = _getitem_grad(reference_getitem, key, upstream_seed=4)
    assert got.tobytes() == expected.tobytes()


def test_advanced_getitem_accumulates_duplicate_indices():
    x = Tensor(np.arange(4.0), requires_grad=True)
    x[[0, 0, 2]].sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("key", [np.array([True, False, True, True]),
                                 (np.array([1, 1]), slice(None))], ids=repr)
def test_advanced_getitem_adjoint_matches_add_at(key):
    got = _getitem_grad(Tensor.__getitem__, key, upstream_seed=5)
    expected = _getitem_grad(reference_getitem, key, upstream_seed=5)
    assert got.tobytes() == expected.tobytes()


# --- model level ------------------------------------------------------------

def _fit_and_score(dataset):
    detector = MaceDetector(MaceConfig(epochs=2))
    detector.fit([s.service_id for s in dataset], [s.train for s in dataset])
    history = (np.asarray(detector.history.epoch_losses).tobytes(),
               np.asarray(detector.history.grad_norms).tobytes())
    params = {name: p.data.tobytes()
              for name, p in detector.trainer.model.named_parameters()}
    scores = [detector.score(s.service_id, s.test).tobytes() for s in dataset]
    return history, params, scores


def test_mace_fit_and_score_bitwise_equal_to_reference(tiny_dataset, monkeypatch):
    history, params, scores = _fit_and_score(tiny_dataset)
    monkeypatch.setattr(Tensor, "_accumulate", reference_accumulate)
    monkeypatch.setattr(Tensor, "__getitem__", reference_getitem)
    monkeypatch.setattr(F, "leaky_relu", reference_leaky_relu)
    monkeypatch.setattr(MaceTrainer, "window_errors", taped_window_errors)
    ref_history, ref_params, ref_scores = _fit_and_score(tiny_dataset)
    assert history == ref_history
    assert params == ref_params
    assert scores == ref_scores
