"""Functional operations: convolutions, losses, activations.

Convolutions are im2col products with a fixed layout.  A view exposes the
``(N, C, L_out, K)`` windows of the input without copying them: a plain
reshape when the windows tile the axis exactly, a strided view otherwise.
Each of the six contractions — the forward pass and the input and weight
adjoints of ``conv1d`` and ``conv_transpose1d`` — is then a single 2-D
``@`` with the **weight first** (for a weight gradient, the activation or
its windows come first).  The ops on the tiled layout (below) take the
same contractions on the same operands; with non-overlapping windows
their input adjoints need no overlap-add.

The operand order and memory layout are the ones
``np.einsum(..., optimize=True)`` hands to ``matmul`` for the same
contraction: C-ordered reshapes, size-1 axes dropped by a copy in the
source's stride order (``_matrix``), and an elementwise outer product
when nothing is summed (``_product``).  BLAS accumulation order follows
the layout, so this gives:

* results bitwise equal to the einsum formulation, forward and backward
  (``tests/nn/test_conv_reference.py`` keeps einsum as the reference);
* the batch index only ever lands on the column axis of the right
  operand, so a window's columns hold the same values whether it is
  scored alone or in a batch.  That makes its result the same bits only
  where BLAS rounds a column the same at any column count.  It does not
  always: with 3, 5 or 7 features (and 6 in float32), or the float32
  full-spectrum ablations, a window scored alone differs in its last
  bits from the same window in a batch of 256 (CHANGES.md FOUND, batch
  invariance with odd feature counts; ``tests/core/test_float32.py``
  keeps strict xfails).  smd's 8 features are batch-invariant in both
  dtypes.  Below float64 a one-row weight takes einsum's loop, which
  sums each column alone (``_product``).

The obvious row-major ``cols @ W.T`` is *not* equivalent.  It changes the
summation order (up to 6e-16 relative) and breaks batch-size invariance.
Writing the products out also removes einsum's per-call path search and
parsing, and the per-call ``np.pad`` and ``sliding_window_view``, which
dominated batch-1 forwards.  The adjoints are hand-derived and checked
against numerical gradients by the test suite.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.tensor import Tensor, concatenate, maximum, pad1d_array, where

__all__ = [
    "conv1d",
    "conv1d_array",
    "conv_transpose1d",
    "conv_transpose1d_array",
    "tile",
    "tile_array",
    "conv1d_tiles",
    "conv1d_tiles_array",
    "conv_transpose1d_tiles",
    "conv_transpose1d_tiles_array",
    "pointwise_conv1d_tiles",
    "pointwise_conv1d_tiles_array",
    "avg_pool1d",
    "max_pool1d",
    "linear",
    "relu",
    "gelu",
    "leaky_relu",
    "leaky_relu_array",
    "softplus",
    "softmax",
    "log_softmax",
    "dropout",
    "layer_norm",
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "binary_cross_entropy",
    "gaussian_nll",
    "kl_diag_gaussian",
]


def _pad(data: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the last axis by ``padding`` on both sides.

    Like ``np.pad``, the result is Fortran-ordered when ``data`` is only
    Fortran-contiguous, and C-ordered otherwise.
    """
    if not padding:
        return data
    padded = np.zeros(data.shape[:-1] + (data.shape[-1] + 2 * padding,),
                      dtype=data.dtype, order="F" if data.flags.fnc else "C")
    padded[..., padding:-padding] = data
    return padded


def _windows(data: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Windows over the last axis as a view: ``(..., L_out, kernel)``.

    Window ``j`` starts at ``j * stride``.  When the windows tile the axis
    exactly (``stride == kernel`` and the length is a multiple of it) the
    view is a plain reshape, otherwise a strided view.  Both alias
    ``data``, so writes through disjoint windows (``stride >= kernel``)
    land in it.
    """
    length = data.shape[-1]
    if length < kernel:
        raise ValueError(f"input length {length} smaller than kernel {kernel}")
    count = (length - kernel) // stride + 1
    if stride == kernel and count * kernel == length:
        return data.reshape(data.shape[:-1] + (count, kernel))
    step = data.strides[-1]
    shape = data.shape[:-1] + (count, kernel)
    strides = data.strides[:-1] + (step * stride, step)
    if data.flags.forc:
        # The same view through the ndarray constructor, several times
        # cheaper than as_strided.  It needs a C-contiguous buffer at the
        # same address: the array itself, or the transpose of a
        # Fortran-ordered one (``_pad`` keeps that order).
        buffer = data if data.flags.c_contiguous else data.T
        return np.ndarray(shape, data.dtype, buffer, 0, strides)
    return as_strided(data, shape, strides)


# From this many elements on, ``_matrix`` writes a C-ordered matrix
# directly rather than through einsum's intermediate copy (same result).
_DIRECT_COPY_MIN = 1 << 14


def _matrix(view: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``(rows, cols)`` matmul operand in einsum's memory layout.

    einsum drops size-1 axes with a copy that keeps the source's stride
    order (``order="K"``), then reshapes.  When that reshape cannot be a
    view of the copy it copies again, into C order.  For a large operand
    (the im2col matrix of a one-channel or one-tap convolution) that
    C-ordered matrix is written directly instead: the same bytes and
    layout, one copy and one chunk-sized temporary fewer.  A small one
    keeps the two copies, which cost less than finding out.
    """
    if 1 not in view.shape:
        return view.reshape(rows, cols)
    if view.size < _DIRECT_COPY_MIN:
        return view.copy(order="K").reshape(rows, cols)
    copy = np.empty_like(view, order="K")  # noqa: REP110 - filled or dropped unread
    try:
        matrix = copy.reshape(rows, cols, copy=False)
    except ValueError:
        del copy
        matrix = np.empty((rows, cols), dtype=view.dtype)  # noqa: REP110 - next line fills it
        matrix.reshape(view.shape)[...] = view
        return matrix
    copy[...] = view
    return matrix


def _columnwise(a: np.ndarray) -> bool:
    """Whether ``_product(a, b)`` computes each column of its result from
    that column of ``b`` alone, the same way wherever the column sits: an
    elementwise outer product, or einsum's one-row loop.  Otherwise it
    calls BLAS, whose kernels may round a column by its position."""
    return a.shape[1] == 1 or (a.shape[0] == 1 and a.dtype != np.float64)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``; when the contracted size is 1, einsum's elementwise outer
    product instead, which keeps the products' signed zeros.

    Below float64, a single-row ``a`` goes through einsum's
    sum-of-products loop rather than BLAS: BLAS's single-row kernels round
    the last columns differently depending on how many there are, which
    would make a window's score depend on the batch it was scored in.  In
    float64 the single-row product stays on BLAS; so does every product
    with more rows, in either dtype, and they share that column-count
    dependence (CHANGES.md FOUND, batch invariance with odd feature
    counts).
    """
    if a.shape[1] == 1:
        return a * b
    if _columnwise(a):
        return np.einsum("k,kn->n", a[0], b)[None]
    return a @ b


def _overlap_add(cols: np.ndarray, length: int, stride: int) -> np.ndarray:
    """Scatter-add ``(N, C, L_out, K)`` windows into ``(N, C, length)``.

    Window ``j`` is added at ``j * stride``.  Every slot is ``0.0`` plus its
    contributions in kernel order, so uncovered slots and ``-0.0`` inputs
    come out as ``+0.0``.  Disjoint windows take one vectorised add
    through a window view of the output; overlapping ones one add per
    kernel tap.
    """
    out = np.zeros(cols.shape[:2] + (length,), dtype=cols.dtype)
    kernel = cols.shape[-1]
    if stride >= kernel:
        _windows(out, kernel, stride)[...] += cols
        return out
    positions = np.arange(cols.shape[2]) * stride
    for k in range(kernel):
        out[..., positions + k] += cols[..., k]
    return out


def conv1d_array(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None, stride: int = 1,
                 padding: int = 0) -> tuple:
    """Forward of :func:`conv1d` on arrays: ``(out, cols)``.

    ``cols`` is the ``(C_in*K, N*L_out)`` im2col matrix, which the weight
    gradient reuses.
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("conv1d expects x:(N,C,L) and weight:(O,C,K)")
    n, c_in, _ = x.shape
    c_out, _, kernel = weight.shape
    windows = _windows(_pad(x, padding), kernel, stride)  # (N, C, L_out, K)
    out_length = windows.shape[2]
    cols = _matrix(windows.transpose(1, 3, 0, 2), c_in * kernel, n * out_length)
    out = _product(_matrix(weight, c_out, c_in * kernel), cols) \
        .reshape(c_out, n, out_length).transpose(1, 0, 2)
    if bias is not None:
        # In place: the product is a fresh array, and ``out + bias`` would
        # allocate one in this same memory order.
        out += bias[None, :, None]
    return out, cols


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, L)``.
    weight:
        Kernel of shape ``(C_out, C_in, K)``.
    bias:
        Optional ``(C_out,)`` bias.
    stride, padding:
        Usual convolution hyperparameters (symmetric zero padding).

    With ``cols`` the ``(C_in*K, N*L_out)`` im2col matrix, the forward pass
    (:func:`conv1d_array`) is ``W(C_out, C_in*K) @ cols``, the weight
    gradient ``cols @ grad(N*L_out, C_out)`` and the window gradient
    ``W(C_in*K, C_out) @ grad(C_out, N*L_out)``: the products, operand
    order and layouts of ``einsum(..., optimize=True)`` (module docstring).
    """
    # The backward closure keeps ``cols`` for the weight gradient; under
    # ``no_grad`` the closure, and with it ``cols``, is dropped as soon as
    # the op returns.
    out, cols = conv1d_array(x.data, weight.data,
                             None if bias is None else bias.data,
                             stride, padding)
    n, c_in, _ = x.shape
    c_out, _, kernel = weight.shape
    length = x.shape[-1] + 2 * padding
    out_length = out.shape[-1]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if weight.requires_grad:
            grad_rows = _matrix(grad.transpose(0, 2, 1), n * out_length, c_out)
            weight._accumulate(_product(cols, grad_rows)
                               .reshape(c_in, kernel, c_out).transpose(2, 0, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = _product(
                _matrix(weight.data.transpose(1, 2, 0), c_in * kernel, c_out),
                _matrix(grad.transpose(1, 0, 2), c_out, n * out_length))
            grad_windows = grad_cols.reshape(c_in, kernel, n, out_length) \
                .transpose(2, 0, 3, 1)  # (N, C, L_out, K)
            grad_padded = _overlap_add(grad_windows, length, stride)
            if padding:
                grad_padded = grad_padded[..., padding:length - padding]
            x._accumulate(grad_padded)

    return Tensor._from_op(out, parents, backward, "conv1d",
                           attrs={"stride": int(stride),
                                  "padding": int(padding),
                                  "kernel": int(kernel),
                                  "in_channels": int(c_in)})


def conv_transpose1d_array(x: np.ndarray, weight: np.ndarray,
                           bias: np.ndarray | None = None, stride: int = 1,
                           padding: int = 0) -> tuple:
    """Forward of :func:`conv_transpose1d` on arrays: ``(out, x_rows)``.

    ``x_rows`` is the ``(C_in, N*L)`` input matrix, which the weight
    gradient reuses.
    """
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError("conv_transpose1d expects x:(N,C,L) and weight:(C,O,K)")
    n, c_in, length = x.shape
    _, c_out, kernel = weight.shape
    full_length = (length - 1) * stride + kernel
    x_rows = _matrix(x.transpose(1, 0, 2), c_in, n * length)
    contrib = _product(_matrix(weight.transpose(1, 2, 0), c_out * kernel, c_in),
                       x_rows)
    contrib = contrib.reshape(c_out, kernel, n, length).transpose(2, 0, 3, 1)
    out_full = _overlap_add(contrib, full_length, stride)  # (N, O, L_full)
    out = out_full[..., padding:full_length - padding] if padding else out_full
    if bias is not None:
        out += bias[None, :, None]  # in place: ``out_full`` is fresh
    return out, x_rows


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """1-D transposed convolution (gradient of conv1d w.r.t. its input).

    ``x`` has shape ``(N, C_in, L)``, ``weight`` has shape
    ``(C_in, C_out, K)`` (PyTorch layout), output length is
    ``(L - 1) * stride + K - 2 * padding``.

    The per-window contributions (:func:`conv_transpose1d_array`) are
    ``W(C_out*K, C_in) @ x(C_in, N*L)``, overlap-added at stride
    ``stride``.  With ``gw`` the windows of the (re-padded) output
    gradient, the input gradient is ``W(C_in, C_out*K) @ gw(C_out*K, N*L)``
    and the weight gradient ``x(C_in, N*L) @ gw(N*L, C_out*K)``: einsum's
    operand order and layouts again (module docstring).
    """
    # ``x_rows`` is kept by the backward closure (see conv1d).
    out, x_rows = conv_transpose1d_array(x.data, weight.data,
                                         None if bias is None else bias.data,
                                         stride, padding)
    n, c_in, length = x.shape
    _, c_out, kernel = weight.shape

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_windows = _windows(_pad(grad, padding), kernel, stride)  # (N, O, L, K)
        if x.requires_grad:
            grad_cols = _matrix(grad_windows.transpose(1, 3, 0, 2),
                                c_out * kernel, n * length)
            x._accumulate(_product(_matrix(weight.data, c_in, c_out * kernel), grad_cols)
                          .reshape(c_in, n, length).transpose(1, 0, 2))
        if weight.requires_grad:
            grad_rows = _matrix(grad_windows.transpose(0, 2, 1, 3),
                                n * length, c_out * kernel)
            weight._accumulate(_product(x_rows, grad_rows).reshape(c_in, c_out, kernel))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))

    return Tensor._from_op(out, parents, backward, "conv_transpose1d",
                           attrs={"stride": int(stride),
                                  "padding": int(padding),
                                  "kernel": int(kernel),
                                  "in_channels": int(c_in)})


# --- the tiled layout ----------------------------------------------------------
#
# A stack of convolutions whose windows tile the axis (stride == kernel, no
# padding) can stay in one layout from input to output: the im2col operand
# of ``conv1d_array``, ``tiles[c, k, r, l] = x[r, c, l*K + k]``, shape
# ``(C, K, R, L)``.  Each ``*_array`` kernel below takes the product its
# untiled counterpart takes, on the same operand matrices (``tile_array``
# keeps ``conv1d_array``'s layout), so the values are bitwise equal; only
# the copies into and out of the product's layout are gone.
#
# The taped ops (:func:`tile`, :func:`conv1d_tiles`,
# :func:`conv_transpose1d_tiles`, :func:`pointwise_conv1d_tiles`) run
# those kernels forward and train in the same layout.  With
# ``stride == kernel`` every window is disjoint, so each input gradient is
# a reshape of the one product the untiled adjoint takes: no
# ``_overlap_add``, no zero-filled array and no im2col rebuild.  The
# overlap-add's ``0.0 + contribution`` (``-0.0`` comes out ``+0.0``) stays
# where the untiled ``conv1d`` applies it, on the convolutions' input
# gradients; ``tile``'s adjoint is ``pad1d``'s crop.  An elementwise step
# between the two (the valley's negation) would otherwise flip a zero's
# sign.  Every weight and bias gradient takes the untiled adjoint's
# operand in its column order and memory layout, copied out of the tiles
# where the untiled adjoint had it by a view: BLAS may round a permuted or
# transposed operand differently.

def tile_array(x: np.ndarray, kernel: int) -> np.ndarray:
    """``(R, C, W)`` to its ``(C, K, R, L)`` tiles: ``conv1d_array``'s
    im2col operand for a stride-``K`` convolution, built the same way.

    The last axis is zero-padded to ``L * K`` with ``L = ceil(W / K)``,
    as ``pad1d_array`` pads it ahead of a stride-``K`` ``conv1d_array``.
    """
    rows, channels, width = x.shape
    length = -(-width // kernel)
    padding = length * kernel - width
    padded = pad1d_array(x, 0, padding) if padding else x
    cols = _matrix(_windows(padded, kernel, kernel).transpose(1, 3, 0, 2),
                   channels * kernel, rows * length)
    # Splitting axes is a view, so the layout survives.
    return cols.reshape(channels, kernel, rows, length)


def _untiled(tiles: np.ndarray) -> np.ndarray:
    """``(C, K, R, L)`` tiles as the C-ordered ``(R, C, L, K)`` array that
    untiles them: the layout the untiled ops hold a gradient in."""
    return np.ascontiguousarray(tiles.transpose(2, 0, 3, 1))


def _tile_matrix(tiles: np.ndarray) -> np.ndarray:
    """The ``(C*K, R*L)`` matrix ``_matrix`` makes of the window view of
    the untiled array: the tiles themselves, reshaped, unless an axis has
    size 1, where ``_matrix`` keeps the untiled array's stride order."""
    channels, kernel, rows, length = tiles.shape
    if 1 not in tiles.shape:
        return tiles.reshape(channels * kernel, rows * length)
    return _matrix(_untiled(tiles).transpose(1, 3, 0, 2),
                   channels * kernel, rows * length)


def tile(x: Tensor, kernel: int) -> Tensor:
    """``(R, C, W)`` to its ``(C, K, R, L)`` tiles (:func:`tile_array`),
    zero-padded to a multiple of ``K``: ``pad1d`` ahead of a stride-``K``
    :func:`conv1d`, in that convolution's im2col layout.

    The adjoint untiles the gradient into a C-ordered ``(R, C, L*K)``
    array and crops the padding by a view, as ``pad1d``'s adjoint crops
    the untiled gradient: the same values in the same layout.
    """
    rows, channels, width = x.shape
    tiles = tile_array(x.data, kernel)
    length = tiles.shape[-1]

    def backward(grad):
        if x.requires_grad:
            padded = np.empty((rows, channels, length * kernel), dtype=grad.dtype)  # noqa: REP110 - the next line writes every element
            padded.reshape(rows, channels, length, kernel)[...] = \
                grad.transpose(2, 0, 3, 1)
            x._accumulate(padded[..., :width])

    return Tensor._from_op(tiles, (x,), backward, "tile",
                           attrs={"kernel": int(kernel),
                                  "padding": int(length * kernel - width)})


def conv1d_tiles_array(tiles: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """:func:`conv1d_array` with ``stride == K``, no padding and no bias, on
    ``(C, K, R, L)`` tiles: the ``(O, R, L)`` product.

    ``conv1d_array`` returns this product as its ``(R, O, L)`` transpose,
    and ``conv_transpose1d_array`` takes that transpose back to this
    ``(O, R*L)`` matrix, so it is also :func:`conv_transpose1d_tiles_array`'s
    input.
    """
    c_in, kernel, rows, length = tiles.shape
    c_out = weight.shape[0]
    out = _product(_matrix(weight, c_out, c_in * kernel),
                   tiles.reshape(c_in * kernel, rows * length))
    return out.reshape(c_out, rows, length)


def conv1d_tiles(tiles: Tensor, weight: Tensor) -> Tensor:
    """:func:`conv1d` with ``stride == K``, no padding and no bias, from
    ``(C, K, R, L)`` tiles to the ``(O, R, L)`` product
    (:func:`conv1d_tiles_array`).

    The weight gradient is ``cols @ grad(R*L, O)`` and the input gradient
    ``W(C*K, O) @ grad(O, R*L)``, :func:`conv1d`'s products on the same
    operands; the latter, plus the overlap-add's ``0.0``, already holds
    the input's gradient tiles.
    """
    c_in, kernel, rows, length = tiles.shape
    c_out = weight.shape[0]
    out = conv1d_tiles_array(tiles.data, weight.data)

    def backward(grad):
        if weight.requires_grad:
            cols = tiles.data.reshape(c_in * kernel, rows * length)
            grad_rows = _matrix(grad.transpose(1, 2, 0), rows * length, c_out)
            weight._accumulate(_product(cols, grad_rows)
                               .reshape(c_in, kernel, c_out).transpose(2, 0, 1))
        if tiles.requires_grad:
            grad_cols = _product(
                _matrix(weight.data.transpose(1, 2, 0), c_in * kernel, c_out),
                _matrix(grad, c_out, rows * length))
            grad_cols += 0.0  # the overlap-add's 0.0 + contribution
            tiles._accumulate(grad_cols.reshape(c_in, kernel, rows, length))

    return Tensor._from_op(out, (tiles, weight), backward, "conv1d_tiles",
                           attrs={"kernel": int(kernel),
                                  "in_channels": int(c_in)})


def conv_transpose1d_tiles_array(x: np.ndarray, weight: np.ndarray,
                                 bias: np.ndarray | None = None) -> np.ndarray:
    """:func:`conv_transpose1d_array` with ``stride == K`` and no padding,
    from its ``(C_in, R, L)`` input matrix to the ``(O, K, R, L)`` tiles of
    its output.

    With ``stride == K`` each output slot takes exactly one window's
    contribution, so the product already holds the output: no zero-filled
    array and no overlap-add.  ``+ 0.0`` keeps ``_overlap_add``'s
    ``0.0 + contribution``, which turns ``-0.0`` into ``+0.0``.
    """
    c_in, rows, length = x.shape
    _, c_out, kernel = weight.shape
    out = _product(_matrix(weight.transpose(1, 2, 0), c_out * kernel, c_in),
                   x.reshape(c_in, rows * length))
    out += 0.0
    out = out.reshape(c_out, kernel, rows, length)
    if bias is not None:
        out += bias[:, None, None, None]
    return out


def conv_transpose1d_tiles(x: Tensor, weight: Tensor,
                           bias: Tensor | None = None) -> Tensor:
    """:func:`conv_transpose1d` with ``stride == K`` and no padding, from
    the ``(C_in, R, L)`` product layout to ``(O, K, R, L)`` tiles
    (:func:`conv_transpose1d_tiles_array`).

    The gradient tiles, read as ``(O*K, R*L)``, are the windows matrix
    :func:`conv_transpose1d`'s input gradient multiplies, so that
    gradient is ``W(C_in, O*K) @ grad`` with no copy.  The weight and
    bias gradients read the untiled gradient, as there.
    """
    c_in, rows, length = x.shape
    _, c_out, kernel = weight.shape
    out = conv_transpose1d_tiles_array(x.data, weight.data,
                                       None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(_product(_matrix(weight.data, c_in, c_out * kernel),
                                   _tile_matrix(grad))
                          .reshape(c_in, rows, length))
        weight_grad = weight.requires_grad
        bias_grad = bias is not None and bias.requires_grad
        if weight_grad or bias_grad:
            untiled = _untiled(grad)  # (R, O, L, K)
            if weight_grad:
                grad_rows = _matrix(untiled.transpose(0, 2, 1, 3),
                                    rows * length, c_out * kernel)
                weight._accumulate(_product(_matrix(x.data, c_in, rows * length),
                                            grad_rows)
                                   .reshape(c_in, c_out, kernel))
            if bias_grad:
                bias._accumulate(untiled.reshape(rows, c_out, length * kernel)
                                 .sum(axis=(0, 2)))

    return Tensor._from_op(out, parents, backward, "conv_transpose1d_tiles",
                           attrs={"stride": int(kernel), "kernel": int(kernel),
                                  "in_channels": int(c_in)})


def pointwise_conv1d_tiles_array(tiles: np.ndarray, weight: np.ndarray,
                                 bias: np.ndarray | None = None) -> np.ndarray:
    """:func:`conv1d_array` with a one-tap ``(O, C, 1)`` kernel on
    ``(C, K, R, L)`` tiles: its ``(R, O, L*K)`` output, untiled.

    ``conv1d_array`` multiplies the weight with a ``(C, R*L*K)`` copy of
    the input whose columns run in ``(r, l*K + k)`` order.  When
    ``_product`` sums each column alone (``_columnwise``) the tiles, read
    as ``(C, K*R*L)``, are that matrix with its columns permuted: the same
    values from no copy, and only the ``O``-row result is permuted back.
    A BLAS product keeps the copy, because BLAS may round a column by its
    position.
    """
    c_in, kernel, rows, length = tiles.shape
    c_out = weight.shape[0]
    w = _matrix(weight, c_out, c_in)
    if _columnwise(w):
        out = _product(w, tiles.reshape(c_in, kernel * rows * length))
        order = (2, 0, 3, 1)  # (O, K, R, L) -> (R, O, L, K)
        shape = (c_out, kernel, rows, length)
    else:
        out = _product(w, _pointwise_cols(tiles))
        order = (1, 0, 2)  # (O, R, L*K) -> (R, O, L*K)
        shape = (c_out, rows, length * kernel)
    if bias is not None:
        out += bias[:, None]
    return out.reshape(shape).transpose(order).reshape(
        rows, c_out, length * kernel)


def _pointwise_cols(tiles: np.ndarray) -> np.ndarray:
    """The C-ordered ``(C, R*L*K)`` im2col matrix of a one-tap
    ``conv1d_array`` on the untiled input, copied out of the tiles."""
    return tiles.transpose(0, 2, 3, 1).reshape(tiles.shape[0], -1)


def pointwise_conv1d_tiles(tiles: Tensor, weight: Tensor,
                           bias: Tensor | None, width: int) -> Tensor:
    """:func:`conv1d` with a one-tap, one-output-channel ``(1, C, 1)``
    kernel on ``(C, K, R, L)`` tiles, untiled and cropped to
    ``(R, width)``: :func:`pointwise_conv1d_tiles_array`'s
    ``[:, 0, :width]``.

    The adjoint pads the gradient back to ``(R, 1, L*K)`` as ``getitem``'s
    adjoint does (``0.0 + grad``), and takes :func:`conv1d`'s weight and
    bias gradients on it.  With one output channel the input gradient is
    an outer product, computed straight in the tiles' column order, plus
    the overlap-add's ``0.0``.
    """
    c_in, kernel, rows, length = tiles.shape
    if weight.shape[0] != 1 or weight.shape[2] != 1:
        raise ValueError("pointwise_conv1d_tiles expects a (1, C, 1) weight")
    padded = length * kernel
    out = pointwise_conv1d_tiles_array(
        tiles.data, weight.data, None if bias is None else bias.data)
    parents = (tiles, weight) if bias is None else (tiles, weight, bias)

    def backward(grad):
        if width == padded:
            full = (grad + 0.0).reshape(rows, 1, padded)
        else:
            full = np.zeros((rows, 1, padded), dtype=grad.dtype)
            full[:, 0, :width] += grad
        if weight.requires_grad:
            grad_rows = _matrix(full.transpose(0, 2, 1), rows * padded, 1)
            weight._accumulate(_product(_pointwise_cols(tiles.data), grad_rows)
                               .reshape(c_in, 1, 1).transpose(2, 0, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(full.sum(axis=(0, 2)))
        if tiles.requires_grad:
            # (K, R, L): the gradient in the tiles' column order.
            columns = full.reshape(rows, length, kernel).transpose(2, 0, 1)
            grad_tiles = _matrix(weight.data.transpose(1, 2, 0), c_in, 1) \
                * columns.reshape(1, kernel * rows * length)
            grad_tiles += 0.0
            tiles._accumulate(grad_tiles.reshape(c_in, kernel, rows, length))

    return Tensor._from_op(out[:, 0, :width], parents, backward,
                           "pointwise_conv1d_tiles",
                           attrs={"kernel": 1, "in_channels": int(c_in)})


def avg_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over the last axis of ``(N, C, L)``."""
    stride = kernel if stride is None else stride
    windows = _windows(x.data, kernel, stride)
    out = windows.mean(axis=-1)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        positions = np.arange(out.shape[-1]) * stride
        share = grad / kernel
        for k in range(kernel):
            grad_x[..., positions + k] += share
        x._accumulate(grad_x)

    return Tensor._from_op(out, (x,), backward, "avg_pool1d",
                           attrs={"kernel": int(kernel), "stride": int(stride)})


def max_pool1d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over the last axis of ``(N, C, L)``."""
    stride = kernel if stride is None else stride
    windows = _windows(x.data, kernel, stride)
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        positions = np.arange(out.shape[-1]) * stride  # window starts
        flat_positions = positions[None, None, :] + arg
        np.add.at(
            grad_x.reshape(-1, grad_x.shape[-1]),
            (
                np.repeat(np.arange(grad_x[..., 0].size), out.shape[-1]),
                flat_positions.reshape(-1),
            ),
            grad.reshape(-1),
        )
        x._accumulate(grad_x)

    return Tensor._from_op(out, (x,), backward, "max_pool1d",
                           attrs={"kernel": int(kernel), "stride": int(stride)})


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight ``(out, in)``."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu_array(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """Forward of :func:`leaky_relu` on an array.

    The values of ``np.where(x > 0, x, x * negative_slope)``, bit for bit.
    For a slope in ``(0, 1]`` that is ``max(x, x * negative_slope)``:
    ``x * negative_slope`` keeps the sign of ``x`` (zeros included), and
    ``inf`` and NaN come out of either operand alike.  It needs no
    per-element branch, which the masked copy other slopes take costs
    wherever the signs of ``x`` are irregular.
    """
    out = x * negative_slope
    if 0.0 < negative_slope <= 1.0:
        return np.maximum(x, out, out=out)
    np.copyto(out, x, where=x > 0)
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """``x`` where positive, ``negative_slope * x`` elsewhere: one tape node.

    The forward bits equal those of the composite
    ``where(x > 0, x, x * negative_slope)``.  Its gradient
    ``where(x > 0, grad, grad * negative_slope)`` skips the composite's
    second, zero-masked term, so the two can differ only in the sign of a
    zero (and where ``grad`` is infinite, the composite's ``inf * 0``
    gave NaN).
    """
    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.where(x.data > 0, grad, grad * negative_slope))

    return Tensor._from_op(leaky_relu_array(x.data, negative_slope), (x,),
                           backward, "leaky_relu",
                           attrs={"negative_slope": float(negative_slope)})


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of GELU (as used by most transformer codebases)."""
    inner = (x + x * x * x * 0.044715) * 0.7978845608028654
    return x * 0.5 * (inner.tanh() + 1.0)


def softplus(x: Tensor, beta: float = 1.0) -> Tensor:
    """Numerically stable softplus ``log(1 + exp(beta x)) / beta``."""
    return _softplus_stable(x * beta) * (1.0 / beta)


def _softplus_stable(x: Tensor) -> Tensor:
    # softplus(x) = max(x, 0) + log1p(exp(-|x|))
    positive = maximum(x, 0.0)
    return positive + ((x.abs() * -1.0).exp() + 1.0).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax with a detached max-shift for numerical stability.

    The analyzer cannot see that the detached shift equals the running max,
    which guarantees ``x - shift <= 0`` and a denominator ``>= 1``; the
    range assertions below state those facts (DESIGN.md section 9).
    """
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    exps = (x - shift).exp()  # analyzer: ok range=[0,1]
    return exps / exps.sum(axis=axis, keepdims=True)  # analyzer: ok range=[0,1]


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    # Same max-shift argument as softmax: the summed exp term is >= 1.
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    summed = shifted.exp().sum(axis=axis, keepdims=True)  # analyzer: ok range=[1,inf]
    return shifted - summed.log()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def layer_norm(x: Tensor, weight: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean  # analyzer: ok
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / (variance + eps).sqrt()
    if weight is not None:
        normed = normed * weight
    if bias is not None:
        normed = normed + bias
    return normed


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(input: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = input - target
    return _reduce(diff * diff, reduction)


def l1_loss(input: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    return _reduce((input - target).abs(), reduction)


def huber_loss(input: Tensor, target: Tensor, delta: float = 1.0,
               reduction: str = "mean") -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = input - target
    abs_diff = diff.abs()
    quadratic = diff * diff * 0.5
    linear_part = abs_diff * delta - 0.5 * delta * delta
    return _reduce(where(abs_diff.data <= delta, quadratic, linear_part), reduction)


def binary_cross_entropy(probs: Tensor, target: Tensor, eps: float = 1e-7,
                         reduction: str = "mean") -> Tensor:
    target = target if isinstance(target, Tensor) else Tensor(target)
    clipped = probs.clip(eps, 1.0 - eps)
    loss = -(target * clipped.log() + (1.0 - target) * (1.0 - clipped).log())
    return _reduce(loss, reduction)


def gaussian_nll(mean: Tensor, log_var: Tensor, target: Tensor,
                 reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of a diagonal Gaussian (up to the constant)."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = target - mean
    loss = 0.5 * (log_var + diff * diff / log_var.exp())
    return _reduce(loss, reduction)


def kl_diag_gaussian(mean: Tensor, log_var: Tensor, reduction: str = "mean") -> Tensor:
    """KL( N(mean, exp(log_var)) || N(0, I) ) per element."""
    kl = 0.5 * (mean * mean + log_var.exp() - log_var - 1.0)
    return _reduce(kl, reduction)
