"""Differential tests: the sign-free fast paths vs the formulas they replaced.

``odd_power_array``/``odd_root_array`` skip ``abs`` and ``copysign`` when
every input element is above zero, and so do the backwards of the taped
``odd_power``/``odd_root``.  ``leaky_relu_array`` takes
``max(x, x * slope)`` for a slope in ``(0, 1]`` instead of a masked copy.
The replaced formulas are kept below, verbatim, as the reference; every
case must match them bit for bit (``tobytes()``), in float32 and float64,
on positive, non-negative, mixed-sign, signed-zero, subnormal, infinite
and NaN inputs.
"""

import numpy as np
import pytest

from repro.core.dualistic import DualisticConv1d
from repro.nn import Tensor, functional as F, gradcheck
from repro.nn.tensor import odd_power, odd_power_array, odd_root, odd_root_array


# --- reference: the replaced code, verbatim ---------------------------------

def reference_odd_power_array(x, gamma):
    power = np.abs(x)
    power **= gamma
    return np.copysign(power, x, out=power)


def reference_odd_root_array(x, gamma):
    root = np.abs(x)
    root **= 1.0 / gamma
    return np.copysign(root, x, out=root)


def reference_odd_power_grad(x, grad, gamma):
    return grad * gamma * np.abs(x) ** (gamma - 1)


def reference_odd_root_grad(x, grad, gamma, eps=1e-8):
    safe = np.maximum(np.abs(x), eps)
    return grad * (1.0 / gamma) * safe ** (1.0 / gamma - 1.0)


def reference_leaky_relu_array(x, negative_slope):
    out = x * negative_slope
    np.copyto(out, x, where=x > 0)
    return out


# --- inputs -----------------------------------------------------------------

DTYPES = (np.float32, np.float64)


def _case(name, dtype):
    """One input array per case; ``positive`` takes the fast path."""
    rng = np.random.default_rng(7)
    tiny = float(np.finfo(dtype).smallest_subnormal)
    values = {
        "positive": rng.uniform(0.5, 3.0, size=64),
        "positive_wide": np.abs(rng.normal(size=64)) * 10.0 ** rng.integers(
            -3, 4, size=64) + 1e-3,
        "nonneg_plus_zero": np.r_[0.0, rng.uniform(0.5, 3.0, size=15)],
        "nonneg_minus_zero": np.r_[rng.uniform(0.5, 3.0, size=15), -0.0],
        "mixed": rng.normal(size=64),
        "signed_zeros": np.r_[0.0, -0.0, 1.5, -1.5, -0.0, 0.0],
        "subnormal_positive": np.r_[1.0, 2.0, tiny, 3 * tiny, 17 * tiny],
        "subnormal_mixed": np.r_[-1.0, 2.0, tiny, -5 * tiny, 17 * tiny],
        "inf_positive": np.r_[np.inf, 1.0, 2.5],
        "inf_mixed": np.r_[np.inf, -np.inf, 1.0, -2.5],
        "nan_positive": np.r_[np.nan, 1.0, 2.5],
        "nan_mixed": np.r_[np.nan, -np.nan, -1.0, 2.5, -0.0],
    }[name]
    array = np.asarray(values, dtype=dtype)
    assert not name.startswith("subnormal") or (
        0 < np.abs(array).min() < np.finfo(dtype).smallest_normal)
    return array


CASES = ("positive", "positive_wide", "nonneg_plus_zero", "nonneg_minus_zero",
         "mixed", "signed_zeros", "subnormal_positive", "subnormal_mixed",
         "inf_positive", "inf_mixed", "nan_positive", "nan_mixed")


def _same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


# --- forward ----------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("gamma", [7.0, 3.0, 11.0, 1.0, 0.5, -3.0])
def test_odd_power_array_matches_reference(dtype, case, gamma):
    x = _case(case, dtype)
    with np.errstate(all="ignore"):
        _same_bits(odd_power_array(x.copy(), gamma),
                   reference_odd_power_array(x, gamma))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("gamma", [7.0, 3.0, 1.0, -7.0])
def test_odd_root_array_matches_reference(dtype, case, gamma):
    x = _case(case, dtype)
    with np.errstate(all="ignore"):
        _same_bits(odd_root_array(x.copy(), gamma),
                   reference_odd_root_array(x, gamma))


@pytest.mark.parametrize("kernel", [odd_power_array, odd_root_array])
def test_array_kernels_power_positive_input_in_place(kernel):
    """Positive input is consumed: the result is the input's memory.
    Other input gets a fresh array and is left alone."""
    positive = np.array([0.5, 2.0, 9.0])
    assert kernel(positive, 3.0) is positive
    mixed = np.array([-0.5, 2.0, 9.0])
    before = mixed.copy()
    assert not np.shares_memory(kernel(mixed, 3.0), mixed)
    _same_bits(mixed, before)


@pytest.mark.parametrize("dtype", DTYPES)
def test_root_of_minus_zero_keeps_its_sign(dtype):
    """An input with no negative value but a ``-0.0``: the plain ``**``
    would give ``+0.0`` for a fractional exponent."""
    x = np.asarray([-0.0, 1.0, 8.0], dtype=dtype)
    root = odd_root_array(x, 3.0)
    assert np.signbit(root[0])
    _same_bits(root, reference_odd_root_array(x, 3.0))


def test_empty_input():
    empty = np.zeros((0, 3), dtype=np.float32)
    assert odd_power_array(empty, 3.0).shape == (0, 3)
    assert odd_root_array(empty, 3.0).shape == (0, 3)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("slope", [0.1, 0.01, 1.0, 1e-30, 0.0, -0.3, 1.5])
def test_leaky_relu_array_matches_reference(dtype, case, slope):
    x = _case(case, dtype)
    with np.errstate(all="ignore"):
        _same_bits(F.leaky_relu_array(x, slope),
                   reference_leaky_relu_array(x, slope))


# --- backward ---------------------------------------------------------------

def _upstream(x):
    return np.random.default_rng(3).normal(size=x.shape).astype(x.dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("gamma", [7.0, 3.0, 1.0, 0.5])
def test_odd_power_backward_matches_reference(dtype, case, gamma):
    x = _case(case, dtype)
    grad = _upstream(x)
    with np.errstate(all="ignore"):
        leaf = Tensor(x, requires_grad=True)
        out = odd_power(leaf, gamma)
        _same_bits(out.data, reference_odd_power_array(x, gamma))
        out.backward(grad)
        _same_bits(leaf.grad, reference_odd_power_grad(x, grad, gamma))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("gamma", [7.0, 3.0, 1.0])
def test_odd_root_backward_matches_reference(dtype, case, gamma):
    x = _case(case, dtype)
    grad = _upstream(x)
    with np.errstate(all="ignore"):
        leaf = Tensor(x, requires_grad=True)
        out = odd_root(leaf, gamma)
        _same_bits(out.data, reference_odd_root_array(x, gamma))
        out.backward(grad)
        _same_bits(leaf.grad, reference_odd_root_grad(x, grad, gamma))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("slope", [0.1, -0.3])
def test_leaky_relu_backward_matches_reference(dtype, case, slope):
    x = _case(case, dtype)
    grad = _upstream(x)
    with np.errstate(all="ignore"):
        leaf = Tensor(x, requires_grad=True)
        out = F.leaky_relu(leaf, slope)
        _same_bits(out.data, reference_leaky_relu_array(x, slope))
        out.backward(grad)
        _same_bits(leaf.grad, np.where(x > 0, grad, grad * slope))


# --- gradcheck on non-negative and on mixed inputs ---------------------------

def _leaf(sign, seed, low, high):
    """float64 magnitudes in ``[low, high]``, all positive or mixed-sign."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, size=(3, 5))
    if sign == "mixed":
        values *= np.where(rng.random(values.shape) < 0.5, -1.0, 1.0)
    return Tensor(values, requires_grad=True)


@pytest.mark.parametrize("sign", ["positive", "mixed"])
@pytest.mark.parametrize("gamma", [3.0, 7.0])
def test_gradcheck_odd_power(sign, gamma):
    x = _leaf(sign, 11, 0.3, 1.5)
    assert gradcheck(lambda a: odd_power(a, gamma), [x])


@pytest.mark.parametrize("sign", ["positive", "mixed"])
@pytest.mark.parametrize("gamma", [3.0, 7.0])
def test_gradcheck_odd_root(sign, gamma):
    x = _leaf(sign, 12, 0.5, 2.0)
    assert gradcheck(lambda a: odd_root(a, gamma), [x], atol=1e-3)


@pytest.mark.parametrize("sign", ["positive", "mixed"])
def test_gradcheck_leaky_relu(sign):
    x = _leaf(sign, 13, 0.1, 2.0)
    assert gradcheck(lambda a: F.leaky_relu(a, 0.1), [x])


# --- the in-place power of DualisticConv1d.forward_array --------------------

@pytest.mark.parametrize("mode,valley_mode,shift", [
    ("peak", "negated", 2.0), ("valley", "negated", 2.0),
    ("peak", "negated", 0.0), ("valley", "negative_gamma", 0.0)])
def test_forward_array_leaves_its_input_alone(mode, valley_mode, shift):
    layer = DualisticConv1d(2, 4, 3, stride=3, gamma=7, mode=mode,
                            shift=shift, valley_mode=valley_mode,
                            rng=np.random.default_rng(0))
    x = np.tanh(np.random.default_rng(1).normal(size=(5, 2, 12)))
    before = x.copy()
    out = layer.forward_array(x)
    _same_bits(x, before)
    _same_bits(out, layer(Tensor(x)).data)
