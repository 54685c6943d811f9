"""Differential test: matmul convolutions vs the einsum formulation.

``conv1d`` and ``conv_transpose1d`` compute each contraction as one 2-D
``@`` in the operand order and layout ``np.einsum(..., optimize=True)``
uses for it.  The einsum implementations they replaced are kept below,
verbatim, as the reference.  Outputs and every gradient must match them
bit for bit (``tobytes()``), per op over a shape grid and through a whole
seeded float64 MACE fit and score.  The einsum run scores through the
taped forward (``taped_window_errors``), the path that calls the patched
ops; the run under test scores through the tape-free path, whose array
kernels the ``F`` ops share.  (In float32 a one-row weight takes einsum's
unplanned loop instead, for batch invariance; tests/core/test_float32.py
covers that path.)
"""

import sys

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core import MaceConfig, MaceDetector, MaceTrainer
from repro.nn import Tensor, functional as F
from tests.core.test_tape_free import taped_window_errors


# --- reference: the einsum convolutions, verbatim ---------------------------

def _strided_windows(data: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Return sliding windows over the last axis: (..., L_out, kernel)."""
    windows = sliding_window_view(data, kernel, axis=-1)
    if stride > 1:
        windows = windows[..., ::stride, :]
    return windows


def einsum_conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                  stride: int = 1, padding: int = 0) -> Tensor:
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("conv1d expects x:(N,C,L) and weight:(O,C,K)")
    kernel = weight.shape[-1]
    padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    length = padded.shape[-1]
    if length < kernel:
        raise ValueError(f"input length {length} smaller than kernel {kernel}")
    windows = _strided_windows(padded, kernel, stride)  # (N, C, L_out, K)
    out = np.einsum("nclk,ock->nol", windows, weight.data, optimize=True)
    if bias is not None:
        out = out + bias.data[None, :, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if weight.requires_grad:
            weight._accumulate(np.einsum("nol,nclk->ock", grad, windows, optimize=True))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_windows = np.einsum("nol,ock->nclk", grad, weight.data, optimize=True)
            grad_padded = np.zeros_like(padded)
            positions = np.arange(grad.shape[-1]) * stride
            for k in range(kernel):
                grad_padded[..., positions + k] += grad_windows[..., k]
            if padding:
                grad_padded = grad_padded[..., padding:length - padding]
            x._accumulate(grad_padded)

    return Tensor._from_op(out, parents, backward, "conv1d",
                           attrs={"stride": int(stride),
                                  "padding": int(padding),
                                  "kernel": int(kernel),
                                  "in_channels": int(x.shape[1])})


def einsum_conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                            stride: int = 1, padding: int = 0) -> Tensor:
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("conv_transpose1d expects x:(N,C,L) and weight:(C,O,K)")
    n, c_in, length = x.shape
    _, c_out, kernel = weight.shape
    full_length = (length - 1) * stride + kernel
    out_full = np.zeros((n, c_out, full_length))
    contrib = np.einsum("ncl,cok->nokl", x.data, weight.data, optimize=True)
    positions = np.arange(length) * stride
    for k in range(kernel):
        out_full[..., positions + k] += contrib[..., k, :]
    out = out_full[..., padding:full_length - padding] if padding else out_full
    if bias is not None:
        out = out + bias.data[None, :, None]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_full = (
            np.pad(grad, ((0, 0), (0, 0), (padding, padding))) if padding else grad
        )
        grad_windows = _strided_windows(grad_full, kernel, stride)  # (N, O, L, K)
        if x.requires_grad:
            x._accumulate(
                np.einsum("nolk,cok->ncl", grad_windows, weight.data, optimize=True)
            )
        if weight.requires_grad:
            weight._accumulate(
                np.einsum("nolk,ncl->cok", grad_windows, x.data, optimize=True)
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))

    return Tensor._from_op(out, parents, backward, "conv_transpose1d",
                           attrs={"stride": int(stride),
                                  "padding": int(padding),
                                  "kernel": int(kernel),
                                  "in_channels": int(c_in)})


# --- op level ---------------------------------------------------------------

# (N, C_in, C_out, L, K, stride, padding).  The first block is every conv
# MACE runs (default MaceConfig, windows of 8 features): amplifier,
# characterization, branch encoder and head.  The rest cover the singleton
# axes and each windowing / scatter branch.
CONV1D_CASES = [
    (64, 1, 1, 40, 5, 1, 2),     # amplifier: C=1, O=1, stride < kernel
    (64, 3, 8, 20, 3, 1, 1),     # characterization
    (64, 8, 16, 20, 5, 5, 0),    # encoder: stride == kernel, exact fit
    (64, 8, 1, 20, 1, 1, 0),     # head: O=1, K=1
    (1, 1, 1, 40, 5, 1, 2),
    (1, 3, 8, 20, 3, 1, 1),
    (1, 8, 16, 20, 5, 5, 0),
    (1, 8, 1, 20, 1, 1, 0),
    (3, 2, 4, 17, 5, 5, 0),      # stride == kernel, ragged tail
    (3, 2, 4, 20, 5, 5, 3),      # stride == kernel, padding > 0
    (2, 3, 4, 15, 5, 2, 1),      # stride < kernel
    (2, 3, 4, 15, 2, 3, 0),      # stride > kernel (gaps)
    (2, 3, 4, 16, 2, 3, 2),
    (2, 1, 4, 15, 1, 1, 0),      # C=1, K=1: a single product per output
    (1, 1, 1, 12, 2, 2, 0),      # only L > 1: einsum copies out size-1 axes
    (3, 2, 1, 5, 3, 3, 0),       # L_out=1
    (3, 2, 1, 1, 2, 2, 1),       # L_out=1 from padding alone
]

# (N, C_in, C_out, L, K, stride, padding).  MACE's decoder first.
CONV_TRANSPOSE1D_CASES = [
    (64, 16, 8, 4, 5, 5, 0),     # decoder: stride == kernel
    (1, 16, 8, 4, 5, 5, 0),
    (3, 4, 2, 6, 5, 5, 2),       # stride == kernel, padding > 0
    (2, 3, 2, 6, 3, 1, 0),       # stride < kernel
    (2, 3, 2, 6, 4, 2, 1),
    (2, 3, 2, 6, 2, 3, 0),       # stride > kernel (gaps)
    (2, 3, 2, 6, 2, 3, 1),
    (2, 1, 2, 6, 3, 3, 0),       # C_in=1
    (2, 3, 1, 6, 3, 3, 0),       # C_out=1
    (2, 3, 2, 6, 1, 1, 0),       # K=1
    (3, 2, 1, 5, 1, 1, 1),       # C_out=K=1: the input gradient sums nothing
    (1, 2, 3, 1, 2, 1, 0),       # N=L=1: the weight gradient sums nothing
    (3, 1, 3, 1, 3, 1, 1),
]


def _operands(shapes, seed):
    """Fresh leaf tensors, with signed zeros mixed into the input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    flat = arrays[0].reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = -0.0
    return arrays


def _transposed(array):
    """``array`` in storage with its first two axes swapped (non-contiguous)."""
    return np.ascontiguousarray(array.swapaxes(0, 1)).swapaxes(0, 1)


def _run(op, arrays, upstream_seed, layout, **kwargs):
    """Output and input/weight/bias grads; with ``layout="transposed"`` the
    input and the upstream gradient live in non-contiguous storage, as the
    activations between MACE's layers often do."""
    place = _transposed if layout == "transposed" else np.copy
    leaves = [Tensor(place(arrays[0]), requires_grad=True)]
    leaves += [Tensor(a.copy(), requires_grad=True) for a in arrays[1:]]
    out = op(*leaves, **kwargs)
    out.backward(place(np.random.default_rng(upstream_seed).normal(size=out.shape)))
    return [out.data] + [leaf.grad for leaf in leaves]


def _assert_bitwise(got, expected):
    for g, e in zip(got, expected):
        assert g.shape == e.shape
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(e).tobytes()


LAYOUTS = pytest.mark.parametrize("layout", ["contiguous", "transposed"])


@LAYOUTS
@pytest.mark.parametrize("n,c_in,c_out,length,kernel,stride,padding", CONV1D_CASES)
def test_conv1d_bitwise_equal_to_einsum(n, c_in, c_out, length, kernel, stride,
                                        padding, layout):
    arrays = _operands([(n, c_in, length), (c_out, c_in, kernel), (c_out,)], seed=n + kernel)
    kwargs = dict(stride=stride, padding=padding)
    _assert_bitwise(_run(F.conv1d, arrays, 1, layout, **kwargs),
                    _run(einsum_conv1d, arrays, 1, layout, **kwargs))


@LAYOUTS
@pytest.mark.parametrize("n,c_in,c_out,length,kernel,stride,padding",
                         CONV_TRANSPOSE1D_CASES)
def test_conv_transpose1d_bitwise_equal_to_einsum(n, c_in, c_out, length, kernel,
                                                  stride, padding, layout):
    arrays = _operands([(n, c_in, length), (c_in, c_out, kernel), (c_out,)],
                       seed=n + kernel)
    kwargs = dict(stride=stride, padding=padding)
    _assert_bitwise(_run(F.conv_transpose1d, arrays, 2, layout, **kwargs),
                    _run(einsum_conv_transpose1d, arrays, 2, layout, **kwargs))


# --- model level ------------------------------------------------------------

def _fit_and_score(dataset):
    detector = MaceDetector(MaceConfig(epochs=2, dtype="float64"))
    detector.fit([s.service_id for s in dataset], [s.train for s in dataset])
    params = {name: p.data.tobytes()
              for name, p in detector.trainer.model.named_parameters()}
    score = detector.score(dataset[0].service_id, dataset[0].test)
    return detector.history, params, score.tobytes()


def test_mace_fit_and_score_bitwise_equal_to_einsum(tiny_dataset, monkeypatch):
    history, params, score = _fit_and_score(tiny_dataset)
    monkeypatch.setattr(F, "conv1d", einsum_conv1d)
    monkeypatch.setattr(F, "conv_transpose1d", einsum_conv_transpose1d)
    monkeypatch.setattr(MaceTrainer, "window_errors", taped_window_errors)
    ref_history, ref_params, ref_score = _fit_and_score(tiny_dataset)
    assert history.epoch_losses == ref_history.epoch_losses
    assert history.grad_norms == ref_history.grad_norms
    assert params == ref_params
    assert score == ref_score


def _fit_and_score_forbidding(dataset, monkeypatch, dtype, forbidden):
    def planned(name, original):
        def guard(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == F.__name__:
                raise AssertionError(f"np.{name} called from {F.__name__}")
            return original(*args, **kwargs)
        return guard

    for name in forbidden:
        monkeypatch.setattr(np, name, planned(name, getattr(np, name)))
    trainer = MaceTrainer(MaceConfig(epochs=1, dtype=dtype))
    trainer.fit([s.service_id for s in dataset], [s.train for s in dataset])
    service = dataset[0]
    windows = np.stack([service.test[i:i + 40] for i in range(3)])
    assert np.isfinite(trainer.window_errors(service.service_id, windows)).all()


def test_convolutions_never_call_einsum(tiny_dataset, monkeypatch):
    """No per-call contraction planning in a MACE forward and backward."""
    _fit_and_score_forbidding(tiny_dataset, monkeypatch, "float64",
                              ("einsum", "einsum_path"))


def test_float32_convolutions_never_plan_einsum(tiny_dataset, monkeypatch):
    """In float32 the one-row product's einsum runs unplanned."""
    _fit_and_score_forbidding(tiny_dataset, monkeypatch, "float32",
                              ("einsum_path",))


# --- operand layout helpers -------------------------------------------------

def _einsum_matrix(view, rows, cols):
    """einsum's size-1 handling: a stride-order copy, then a reshape."""
    if 1 in view.shape:
        view = view.copy(order="K")
    return view.reshape(rows, cols)


def _views():
    """im2col-style views with size-1 axes, below and above the size from
    which ``_matrix`` writes a C-ordered matrix directly."""
    rng = np.random.default_rng(0)
    for n in (1, 7, 1024):
        x = rng.normal(size=(n, 1, 44)).astype(np.float32)
        windows = np.lib.stride_tricks.as_strided(
            x, (n, 1, 40, 5), x.strides + (x.strides[-1],))
        yield windows.transpose(1, 3, 0, 2), 5, n * 40      # one channel
        y = rng.normal(size=(n, 8, 20))
        yield y[..., None].transpose(1, 3, 0, 2), 8, n * 20  # one tap
        yield y[:, :1].transpose(0, 2, 1), n * 20, 1         # one column
        yield y.transpose(1, 0, 2)[None], 8, n * 20          # leading 1


def test_matrix_equals_einsum_layout():
    for view, rows, cols in _views():
        got = F._matrix(view, rows, cols)
        expected = _einsum_matrix(view, rows, cols)
        assert got.dtype == expected.dtype
        assert got.strides == expected.strides, view.shape
        assert got.tobytes(order="A") == expected.tobytes(order="A")
        assert not np.shares_memory(got, view)


def test_windows_view_equals_as_strided():
    x = np.arange(2 * 3 * 23, dtype=np.float32).reshape(2, 3, 23)
    for data in (x, np.asfortranarray(x), x.transpose(1, 0, 2), x[..., ::2]):
        for kernel, stride in ((3, 1), (5, 2), (4, 4), (5, 5)):
            got = F._windows(data, kernel, stride)
            count = (data.shape[-1] - kernel) // stride + 1
            step = data.strides[-1]
            expected = np.lib.stride_tricks.as_strided(
                data, data.shape[:-1] + (count, kernel),
                data.strides[:-1] + (step * stride, step))
            assert got.shape == expected.shape
            assert got.strides == expected.strides
            assert np.array_equal(got, expected)
            assert np.shares_memory(got, data)
