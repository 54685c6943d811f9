"""The tiled-layout kernels and ops against the convolutions they stand
in for.

``F.tile_array`` lays a ``(R, C, W)`` input out as the ``(C, K, R, L)``
im2col operand of a stride-``K`` ``conv1d_array``, zero-padded to a
multiple of ``K``.  ``conv1d_tiles_array``, ``conv_transpose1d_tiles_array``
and ``pointwise_conv1d_tiles_array`` then take the products of
``conv1d_array`` and ``conv_transpose1d_array`` without the copies
between layouts.  Each must equal its counterpart bit for bit
(``tobytes()``), in float32 and float64, with size-1 axes, exact
``±0.0`` inputs and a ``-0.0`` bias, whose sign the counterparts'
``0.0 + contribution`` drops.

The taped ops (``F.tile``, ``F.conv1d_tiles``, ``F.conv_transpose1d_tiles``
and ``F.pointwise_conv1d_tiles``) are pinned the same way to the taped
``pad1d``, ``conv1d``, ``conv_transpose1d`` and ``getitem`` they replace
in training: forward, and the gradients of the input, weight and bias
for an upstream gradient that holds ``±0.0`` too.
"""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F
from repro.nn.tensor import pad1d, pad1d_array

DTYPES = ["float32", "float64"]
# (rows, channels, width, kernel): size-1 axes, a width the kernel tiles
# exactly, one it does not, and the branch's shapes (8 channels, 20 and
# 42 slots, kernel 5).
SHAPES = [
    (1, 1, 5, 5),
    (1, 3, 7, 2),
    (3, 1, 20, 5),
    (13, 3, 20, 4),
    (5, 8, 20, 5),
    (40, 8, 42, 5),
    (2, 2, 6, 1),
]


def _signed(shape, dtype, seed):
    """Random values with exact ``+0.0`` and ``-0.0`` entries."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)
    flat = data.reshape(-1)
    flat[::7] = 0.0
    flat[3::7] = -0.0
    return data.astype(dtype)


def _padded(x, kernel):
    remainder = x.shape[-1] % kernel
    return pad1d_array(x, 0, kernel - remainder) if remainder else x


def _untiled(tiles):
    """``(C, K, R, L)`` tiles back to ``(R, C, L*K)``."""
    channels, kernel, rows, length = tiles.shape
    return tiles.transpose(2, 0, 3, 1).reshape(rows, channels,
                                               length * kernel)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_tile_array_is_the_im2col_operand(shape, dtype):
    rows, channels, width, kernel = shape
    x = _signed((rows, channels, width), dtype, seed=1)
    tiles = F.tile_array(x, kernel)
    length = -(-width // kernel)
    assert tiles.shape == (channels, kernel, rows, length)
    if 1 not in tiles.shape:
        assert tiles.flags.c_contiguous
    weight = np.ones((1, channels, kernel), dtype=dtype)
    _, cols = F.conv1d_array(_padded(x, kernel), weight, stride=kernel)
    assert tiles.reshape(channels * kernel, -1).tobytes() == cols.tobytes()
    assert _untiled(tiles).tobytes() == _padded(x, kernel).tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("c_out", [1, 16])
def test_conv1d_tiles_equals_conv1d_array(shape, c_out, dtype):
    rows, channels, width, kernel = shape
    x = _signed((rows, channels, width), dtype, seed=2)
    weight = _signed((c_out, channels, kernel), dtype, seed=3)
    got = F.conv1d_tiles_array(F.tile_array(x, kernel), weight)
    expected, _ = F.conv1d_array(_padded(x, kernel), weight, stride=kernel)
    assert got.shape == (c_out, rows, expected.shape[-1])
    assert got.transpose(1, 0, 2).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("c_in", [1, 2, 16])
@pytest.mark.parametrize("c_out,kernel", [(1, 1), (1, 5), (8, 5), (3, 4)])
@pytest.mark.parametrize("rows,length", [(1, 1), (3, 4), (13, 9)])
def test_conv_transpose1d_tiles_equals_conv_transpose1d_array(
        rows, length, c_out, kernel, c_in, dtype):
    x = _signed((c_in, rows, length), dtype, seed=4)
    weight = _signed((c_in, c_out, kernel), dtype, seed=5)
    # A -0.0 bias: the reference's slots start at +0.0, so a -0.0
    # contribution (one input channel: an elementwise product) plus
    # this bias is +0.0 there.
    bias = np.full(c_out, -0.0, dtype=dtype)
    bias[1::2] = 0.25
    got = F.conv_transpose1d_tiles_array(x, weight, bias)
    expected, _ = F.conv_transpose1d_array(x.transpose(1, 0, 2), weight,
                                           bias, stride=kernel)
    assert got.shape == (c_out, kernel, rows, length)
    assert _untiled(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("c_out", [1, 2])
def test_pointwise_conv1d_tiles_equals_conv1d_array(shape, c_out, dtype):
    rows, channels, width, kernel = shape
    tiles = F.tile_array(_signed((rows, channels, width), dtype, seed=6),
                         kernel)
    weight = _signed((c_out, channels, 1), dtype, seed=7)
    bias = np.linspace(-0.5, 0.5, c_out).astype(dtype)
    got = F.pointwise_conv1d_tiles_array(tiles, weight, bias)
    expected, _ = F.conv1d_array(_untiled(tiles), weight, bias)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# --- the taped ops against the untiled taped ops ---------------------------


def _leaf(data):
    return Tensor(data, requires_grad=True)


def _backward(out, grad):
    """Backward from ``grad``.  A convolution's gradient reaches it from
    elementwise adjoints, in its output's memory order: ``conv1d``'s is
    the ``(O, N, L)`` transpose, which the callers below pass, since
    BLAS may round a product on a transposed operand differently."""
    out.backward(grad)


def _assert_same(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_tile_equals_pad1d(shape, dtype):
    """``tile``'s adjoint is ``pad1d``'s crop of the untiled gradient,
    ``-0.0`` kept."""
    rows, channels, width, kernel = shape
    data = _signed((rows, channels, width), dtype, seed=8)
    x, ref = _leaf(data), _leaf(data)
    tiles = F.tile(x, kernel)
    padded = pad1d(ref, 0, -width % kernel)
    _assert_same(tiles.data, F.tile_array(data, kernel))
    grad = _signed(tiles.shape, dtype, seed=9)
    _backward(tiles, grad)
    _backward(padded, _untiled(grad))
    _assert_same(x.grad, ref.grad)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("c_out", [1, 16])
def test_conv1d_tiles_equals_conv1d(shape, c_out, dtype):
    rows, channels, width, kernel = shape
    data = _padded(_signed((rows, channels, width), dtype, seed=10), kernel)
    weight_data = _signed((c_out, channels, kernel), dtype, seed=11)
    tiles, weight = _leaf(F.tile_array(data, kernel)), _leaf(weight_data)
    x, ref_weight = _leaf(data), _leaf(weight_data)
    out = F.conv1d_tiles(tiles, weight)
    expected = F.conv1d(x, ref_weight, stride=kernel)
    _assert_same(out.data.transpose(1, 0, 2), expected.data)
    grad = _signed(out.shape, dtype, seed=12)
    _backward(out, grad)
    _backward(expected, grad.transpose(1, 0, 2))
    # The input gradient keeps conv1d's 0.0 + contribution.
    _assert_same(_untiled(tiles.grad), x.grad)
    _assert_same(weight.grad, ref_weight.grad)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_tile_then_conv1d_tiles_equals_pad1d_then_conv1d(shape, dtype):
    """The encoder's front: the gradient reaching the representation."""
    rows, channels, width, kernel = shape
    data = _signed((rows, channels, width), dtype, seed=13)
    weight_data = _signed((4, channels, kernel), dtype, seed=14)
    x, weight = _leaf(data), _leaf(weight_data)
    ref, ref_weight = _leaf(data), _leaf(weight_data)
    out = F.conv1d_tiles(F.tile(x, kernel), weight)
    expected = F.conv1d(pad1d(ref, 0, -width % kernel), ref_weight,
                        stride=kernel)
    grad = _signed(out.shape, dtype, seed=15)
    _backward(out, grad)
    _backward(expected, grad.transpose(1, 0, 2))
    _assert_same(x.grad, ref.grad)
    _assert_same(weight.grad, ref_weight.grad)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("c_in", [1, 16])
@pytest.mark.parametrize("c_out,kernel", [(1, 1), (1, 5), (8, 5), (3, 4)])
@pytest.mark.parametrize("rows,length", [(1, 1), (3, 4), (13, 9)])
def test_conv_transpose1d_tiles_equals_conv_transpose1d(
        rows, length, c_out, kernel, c_in, dtype):
    data = _signed((c_in, rows, length), dtype, seed=16)
    weight_data = _signed((c_in, c_out, kernel), dtype, seed=17)
    bias_data = np.full(c_out, -0.0, dtype=dtype)
    bias_data[1::2] = 0.25
    x, weight, bias = _leaf(data), _leaf(weight_data), _leaf(bias_data)
    ref = _leaf(np.ascontiguousarray(data.transpose(1, 0, 2)))
    ref_weight, ref_bias = _leaf(weight_data), _leaf(bias_data)
    out = F.conv_transpose1d_tiles(x, weight, bias)
    expected = F.conv_transpose1d(ref, ref_weight, ref_bias, stride=kernel)
    _assert_same(_untiled(out.data), expected.data)
    grad = _signed(out.shape, dtype, seed=18)
    _backward(out, grad)
    _backward(expected, _untiled(grad))
    _assert_same(x.grad.transpose(1, 0, 2), ref.grad)
    _assert_same(weight.grad, ref_weight.grad)
    _assert_same(bias.grad, ref_bias.grad)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("crop", [0, 1])
def test_pointwise_conv1d_tiles_equals_conv1d_getitem(shape, crop, dtype):
    """The head: a ``(1, C, 1)`` ``conv1d`` and the ``[:, 0, :width]``
    crop, whose adjoint pads the gradient with ``0.0 + grad``."""
    rows, channels, width, kernel = shape
    tiles_data = F.tile_array(_signed((rows, channels, width), dtype, seed=19),
                              kernel)
    padded_width = tiles_data.shape[1] * tiles_data.shape[3]
    width = padded_width - crop
    weight_data = _signed((1, channels, 1), dtype, seed=20)
    bias_data = np.full(1, -0.0, dtype=dtype)
    tiles, weight, bias = (_leaf(tiles_data), _leaf(weight_data),
                           _leaf(bias_data))
    x = _leaf(_untiled(tiles_data))
    ref_weight, ref_bias = _leaf(weight_data), _leaf(bias_data)
    out = F.pointwise_conv1d_tiles(tiles, weight, bias, width)
    expected = F.conv1d(x, ref_weight, ref_bias)[:, 0, :width]
    _assert_same(out.data, expected.data)
    grad = _signed(out.shape, dtype, seed=21)
    _backward(out, grad)
    _backward(expected, grad)
    _assert_same(_untiled(tiles.grad), x.grad)
    _assert_same(weight.grad, ref_weight.grad)
    _assert_same(bias.grad, ref_bias.grad)
