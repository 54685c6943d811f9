"""Property-based gradient checks: every differentiable op vs finite
differences on hypothesis-generated inputs."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor, functional as F, gradcheck

settings.register_profile("fast", max_examples=15, deadline=None)
settings.load_profile("fast")


def _tensor(shape, seed, low=-2.0, high=2.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(low, high, size=shape) + offset,
                  requires_grad=True)


@given(seed=st.integers(0, 10_000))
def test_grad_add_mul_div(seed):
    a = _tensor((3, 4), seed)
    b = _tensor((3, 4), seed + 1, low=0.5, high=2.0)
    assert gradcheck(lambda x, y: x * y + x / y - y, [a, b])


@given(seed=st.integers(0, 10_000))
def test_grad_broadcasting(seed):
    a = _tensor((1, 4), seed)
    b = _tensor((3, 1), seed + 1)
    assert gradcheck(lambda x, y: x * y + x, [a, b])


@given(seed=st.integers(0, 10_000))
def test_grad_matmul(seed):
    a = _tensor((3, 4), seed)
    b = _tensor((4, 2), seed + 1)
    assert gradcheck(lambda x, y: x @ y, [a, b])


@given(seed=st.integers(0, 10_000))
def test_grad_batched_matmul(seed):
    a = _tensor((2, 3, 4), seed)
    b = _tensor((2, 4, 2), seed + 1)
    assert gradcheck(lambda x, y: x @ y, [a, b])


@given(seed=st.integers(0, 10_000))
def test_grad_elementwise_chain(seed):
    x = _tensor((5,), seed, low=0.2, high=1.5)
    assert gradcheck(lambda a: (a.exp() + a.log() + a.sqrt()).tanh(), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_sigmoid_relu(seed):
    x = _tensor((4, 3), seed)
    assert gradcheck(lambda a: a.sigmoid() * (a + 3.0).relu(), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_reductions(seed):
    x = _tensor((3, 5), seed)
    assert gradcheck(lambda a: a.sum(axis=1) * a.mean(axis=1), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_max_min(seed):
    # Uniform floats are distinct a.s., so the subgradient choice is unique.
    x = _tensor((4, 6), seed)
    assert gradcheck(lambda a: a.max(axis=1) - a.min(axis=1), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_shape_ops(seed):
    x = _tensor((2, 6), seed)
    assert gradcheck(lambda a: a.reshape(3, 4).transpose()[1:, :2], [x])


@given(seed=st.integers(0, 10_000))
def test_grad_concat_stack(seed):
    a = _tensor((2, 3), seed)
    b = _tensor((2, 3), seed + 1)
    assert gradcheck(lambda x, y: nn.concatenate([x, y], axis=1) * 2.0, [a, b])
    assert gradcheck(lambda x, y: nn.stack([x, y], axis=0).sum(axis=0), [a, b])


@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([3, 5, 7]))
def test_grad_odd_power(seed, gamma):
    x = _tensor((6,), seed, low=0.3, high=1.5)
    assert gradcheck(lambda a: nn.odd_power(a, gamma), [x])


@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([3, 5]))
def test_grad_odd_root_away_from_zero(seed, gamma):
    x = _tensor((6,), seed, low=0.5, high=2.0)
    assert gradcheck(lambda a: nn.odd_root(a, gamma), [x], atol=1e-3)


# The explicit examples pin each windowing / scatter branch: overlapping
# windows (stride < kernel), windows that tile the padded input exactly
# (stride == kernel, the reshape path) and windows with gaps between them
# (stride > kernel).
@given(seed=st.integers(0, 10_000),
       stride=st.sampled_from([1, 2, 3, 4]),
       padding=st.sampled_from([0, 1, 2]))
@example(seed=0, stride=2, padding=1)
@example(seed=1, stride=3, padding=1)
@example(seed=2, stride=4, padding=0)
@example(seed=3, stride=5, padding=2)
def test_grad_conv1d(seed, stride, padding):
    x = _tensor((2, 3, 10), seed)
    w = _tensor((4, 3, 3), seed + 1)
    b = _tensor((4,), seed + 2)
    assert gradcheck(
        lambda a, ww, bb: F.conv1d(a, ww, bb, stride=stride, padding=padding),
        [x, w, b],
    )


@given(seed=st.integers(0, 10_000), stride=st.sampled_from([1, 2, 3, 4]))
@example(seed=0, stride=2)
@example(seed=1, stride=3)
@example(seed=2, stride=5)
def test_grad_conv_transpose1d(seed, stride):
    x = _tensor((2, 3, 6), seed)
    w = _tensor((3, 2, 3), seed + 1)
    b = _tensor((2,), seed + 2)
    assert gradcheck(
        lambda a, ww, bb: F.conv_transpose1d(a, ww, bb, stride=stride),
        [x, w, b],
    )


@given(seed=st.integers(0, 10_000),
       stride=st.sampled_from([1, 2, 4, 5]),
       padding=st.sampled_from([0, 1, 2]))
@example(seed=0, stride=4, padding=1)
@example(seed=1, stride=5, padding=2)
def test_grad_conv_transpose1d_padding(seed, stride, padding):
    # Padding crops the full-length output, so its backward must pad the
    # incoming gradient back before re-windowing — checked per combination.
    x = _tensor((2, 3, 6), seed)
    w = _tensor((3, 2, 4), seed + 1)
    b = _tensor((2,), seed + 2)
    assert gradcheck(
        lambda a, ww, bb: F.conv_transpose1d(a, ww, bb, stride=stride,
                                             padding=padding),
        [x, w, b],
    )


@given(seed=st.integers(0, 10_000),
       stride=st.sampled_from([1, 2]),
       padding=st.sampled_from([0, 1]))
def test_grad_conv_transpose1d_module(seed, stride, padding):
    from repro.nn.modules.conv import ConvTranspose1d

    layer = ConvTranspose1d(3, 2, 3, stride=stride, padding=padding,
                            rng=np.random.default_rng(seed))
    x = _tensor((2, 3, 5), seed)
    params = list(layer.parameters())
    assert gradcheck(lambda a, *ps: layer(a), [x, *params])


@given(seed=st.integers(0, 10_000))
def test_grad_gru(seed):
    from repro.nn.modules.recurrent import GRU

    gru = GRU(2, 3, rng=np.random.default_rng(seed))
    x = _tensor((2, 4, 2), seed)
    params = list(gru.parameters())

    def fn(a, *ps):
        sequence, last = gru(a)
        return sequence.sum() + last.sum()

    assert gradcheck(fn, [x, *params], atol=1e-3)


@given(seed=st.integers(0, 10_000))
def test_grad_pools(seed):
    x = _tensor((2, 3, 12), seed)
    assert gradcheck(lambda a: F.avg_pool1d(a, 3, 2), [x])
    assert gradcheck(lambda a: F.max_pool1d(a, 3, 2), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_softmax_logsoftmax(seed):
    x = _tensor((3, 5), seed)
    assert gradcheck(lambda a: F.softmax(a, axis=-1) * 3.0, [x])
    assert gradcheck(lambda a: F.log_softmax(a, axis=-1), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_layer_norm(seed):
    x = _tensor((4, 6), seed)
    w = _tensor((6,), seed + 1, low=0.5, high=1.5)
    b = _tensor((6,), seed + 2)
    assert gradcheck(lambda a, ww, bb: F.layer_norm(a, ww, bb), [x, w, b],
                     atol=1e-3)


@given(seed=st.integers(0, 10_000))
def test_grad_losses(seed):
    x = _tensor((3, 4), seed)
    target = Tensor(np.random.default_rng(seed + 9).normal(size=(3, 4)))
    assert gradcheck(lambda a: F.mse_loss(a, target), [x])
    assert gradcheck(lambda a: F.huber_loss(a, target, delta=0.7), [x],
                     atol=1e-3)


@given(seed=st.integers(0, 10_000))
def test_grad_vae_losses(seed):
    mu = _tensor((3, 4), seed)
    logvar = _tensor((3, 4), seed + 1, low=-1.0, high=1.0)
    target = Tensor(np.random.default_rng(seed + 2).normal(size=(3, 4)))
    assert gradcheck(lambda m, lv: F.gaussian_nll(m, lv, target), [mu, logvar])
    assert gradcheck(lambda m, lv: F.kl_diag_gaussian(m, lv), [mu, logvar])


@given(seed=st.integers(0, 10_000))
def test_grad_softplus_gelu(seed):
    x = _tensor((8,), seed)
    assert gradcheck(lambda a: F.softplus(a, beta=1.5), [x])
    assert gradcheck(lambda a: F.gelu(a), [x])


@given(seed=st.integers(0, 10_000))
def test_grad_where_maximum(seed):
    a = _tensor((5,), seed)
    b = _tensor((5,), seed + 1)
    assert gradcheck(lambda x, y: nn.maximum(x, y) + nn.minimum(x, y), [a, b])


@given(seed=st.integers(0, 10_000))
def test_grad_leaky_relu(seed):
    data = _tensor((4, 5), seed).data
    # Keep every element at least 0.1 away from the kink at 0.
    x = Tensor(data + np.where(data < 0, -0.1, 0.1), requires_grad=True)
    assert gradcheck(lambda a: F.leaky_relu(a, 0.1) + F.leaky_relu(a, -0.3), [x])


# The tiled ops (``F.tile`` and the convolutions on its ``(C, K, R, L)``
# layout).  Each output is weighted by fixed random values before the sum,
# so an adjoint that permutes its gradient does not pass on all-ones.
# Kernels 1, 3 and 5, one and several channels; width 7 leaves a padded
# tile for kernels 3 and 5.
TILE_CASES = [(1, 1, 7), (3, 1, 7), (3, 2, 6), (5, 3, 7), (5, 1, 10)]


def _weighted(out, seed):
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=out.shape)
    return out * Tensor(weights)


@given(seed=st.integers(0, 10_000),
       case=st.sampled_from(TILE_CASES))
def test_grad_tile(seed, case):
    kernel, channels, width = case
    x = _tensor((2, channels, width), seed)
    assert gradcheck(lambda a: _weighted(F.tile(a, kernel), seed), [x])


@given(seed=st.integers(0, 10_000),
       case=st.sampled_from(TILE_CASES),
       c_out=st.sampled_from([1, 4]))
def test_grad_conv1d_tiles(seed, case, c_out):
    kernel, channels, width = case
    x = _tensor((2, channels, width), seed)
    w = _tensor((c_out, channels, kernel), seed + 1)
    assert gradcheck(
        lambda a, ww: _weighted(F.conv1d_tiles(F.tile(a, kernel), ww), seed),
        [x, w],
    )


@given(seed=st.integers(0, 10_000),
       case=st.sampled_from(TILE_CASES),
       c_in=st.sampled_from([1, 4]))
def test_grad_conv_transpose1d_tiles(seed, case, c_in):
    kernel, c_out, length = case
    x = _tensor((c_in, 2, length), seed)
    w = _tensor((c_in, c_out, kernel), seed + 1)
    b = _tensor((c_out,), seed + 2)
    assert gradcheck(
        lambda a, ww, bb: _weighted(F.conv_transpose1d_tiles(a, ww, bb), seed),
        [x, w, b],
    )


@given(seed=st.integers(0, 10_000),
       case=st.sampled_from(TILE_CASES))
def test_grad_pointwise_conv1d_tiles(seed, case):
    kernel, channels, width = case
    length = -(-width // kernel)
    tiles = _tensor((channels, kernel, 2, length), seed)
    w = _tensor((1, channels, 1), seed + 1)
    b = _tensor((1,), seed + 2)
    # ``width`` crops the padded tile, where the kernel leaves one.
    assert gradcheck(
        lambda t, ww, bb: _weighted(
            F.pointwise_conv1d_tiles(t, ww, bb, width), seed),
        [tiles, w, b],
    )


def test_numerical_gradient_on_noncontiguous_storage():
    """Perturbations must reach non-contiguous storage (transposed views).

    ``reshape(-1)`` silently *copies* a non-contiguous array, so a
    numerical-gradient loop writing through it would perturb the copy and
    measure a zero gradient everywhere.  The nditer-based implementation
    writes through the tensor's own storage.
    """
    from repro.nn.gradcheck import numerical_gradient

    rng = np.random.default_rng(7)
    view = rng.normal(size=(3, 4)).T  # (4, 3), C-noncontiguous
    t = Tensor(view, requires_grad=True)
    assert not t.data.flags["C_CONTIGUOUS"]
    numeric = numerical_gradient(lambda x: (x * x).sum(), [t], 0)
    np.testing.assert_allclose(numeric, 2.0 * view, rtol=1e-6, atol=1e-7)


def test_gradcheck_noncontiguous_end_to_end():
    rng = np.random.default_rng(11)
    t = Tensor(rng.normal(size=(2, 5)).T, requires_grad=True)
    assert not t.data.flags["C_CONTIGUOUS"]
    assert gradcheck(lambda x: (x * x * 0.5).sum(), [t])
