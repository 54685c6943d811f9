"""Optimizers: convergence on analytic problems."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter, Tensor
from repro.nn.optim import SGD, Adam, AdamW, clip_grad_norm


def _quadratic_steps(optimizer_factory, steps=200):
    """Minimise ``(x - 3)^2``; return the final parameter value."""
    param = Parameter(np.array([0.0]))
    optimizer = optimizer_factory([param])
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (param - 3.0) * (param - 3.0)
        loss.sum().backward()
        optimizer.step()
    return float(param.data[0])


class TestSGD:
    def test_converges_on_quadratic(self):
        final = _quadratic_steps(lambda p: SGD(p, lr=0.1))
        assert abs(final - 3.0) < 1e-4

    def test_momentum_converges(self):
        final = _quadratic_steps(lambda p: SGD(p, lr=0.05, momentum=0.9))
        assert abs(final - 3.0) < 1e-3

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=0.1, nesterov=True)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.array([10.0]))
        optimizer = SGD([param], lr=0.1, weight_decay=0.5)
        param.grad = np.zeros(1)
        optimizer.step()
        assert abs(float(param.data[0])) < 10.0

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.array([1.0]))
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [1.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        final = _quadratic_steps(lambda p: Adam(p, lr=0.1))
        assert abs(final - 3.0) < 1e-3

    def test_adamw_decoupled_decay(self):
        final = _quadratic_steps(lambda p: AdamW(p, lr=0.1, weight_decay=0.01))
        assert abs(final - 3.0) < 0.2

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        params = [Parameter(np.zeros(3)) for _ in range(2)]
        for p in params:
            p.grad = np.full(3, 10.0)
        pre = clip_grad_norm(params, 1.0)
        total = np.sqrt(sum((p.grad**2).sum() for p in params))
        assert pre > 1.0
        np.testing.assert_allclose(total, 1.0, rtol=1e-9)

    def test_no_clip_when_under_limit(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.1, 0.1])
        clip_grad_norm([param], 10.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])


class TestTrainingIntegration:
    def test_small_network_fits_linear_map(self, rng):
        model = nn.Sequential(nn.Linear(3, 16), nn.Tanh(), nn.Linear(16, 1))
        optimizer = Adam(model.parameters(), lr=0.01)
        w_true = np.array([1.0, -2.0, 0.5])
        x = rng.normal(size=(128, 3))
        y = (x @ w_true)[:, None]
        losses = []
        from repro.nn import functional as F

        for _ in range(150):
            optimizer.zero_grad()
            loss = F.mse_loss(model(Tensor(x)), Tensor(y))
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        assert losses[-1] < 0.05 * losses[0]
