"""Backward-pass semantics: accumulation, graph traversal, grad modes."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.autograd import topological_order


class TestBackwardBasics:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_product_rule(self):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        (x * y).backward()
        np.testing.assert_allclose(x.grad, [5.0])
        np.testing.assert_allclose(y.grad, [2.0])

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dy/dx = 2x
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_broadcast_gradient_unbroadcast(self):
        x = Tensor(np.ones((1, 3)), requires_grad=True)
        y = Tensor(np.ones((4, 3)), requires_grad=True)
        (x + y).sum().backward()
        assert x.grad.shape == (1, 3)
        np.testing.assert_allclose(x.grad, [[4.0, 4.0, 4.0]])
        assert y.grad.shape == (4, 3)

    def test_backward_with_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_backward_grad_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(3))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_multiple_backward_calls_accumulate_on_leaves(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 2).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None


class TestGradModes:
    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_enable_grad_inside_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            with nn.enable_grad():
                y = x * 2
        assert y.requires_grad

    def test_no_grad_restores_state_on_exception(self):
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert nn.is_grad_enabled()


class TestTopologicalOrder:
    def test_order_ends_at_root_reversed(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2
        z = y + 1
        order = topological_order(z)
        assert order[0] is z
        assert any(node is x for node in order)
        # every parent appears after its child (reverse-topological)
        assert order.index(y) > 0

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([0.1], requires_grad=True)
        y = x
        for _ in range(3000):  # would overflow Python recursion otherwise
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_diamond_graph_counts_paths(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [5.0])


class TestCompositeGradients:
    def test_mean_of_square(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * x).mean().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data / 3)

    def test_max_routes_gradient_to_argmax(self):
        x = Tensor(np.array([1.0, 5.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_ties_share_gradient(self):
        x = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])

    def test_getitem_scatters_gradient(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 1, 0, 0])

    def test_concat_routes_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        out = nn.concatenate([a, b])
        (out * Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_stack_routes_gradient(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        nn.stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [1.0])


class TestGradientOwnership:
    """Intermediate nodes may alias gradient arrays; leaves own theirs."""

    def test_leaf_grads_of_a_shared_gradient_are_distinct_arrays(self):
        # ``add`` hands the very same array to both operands.
        p = nn.Parameter(np.array([1.0, 2.0]))
        q = nn.Parameter(np.array([5.0, 7.0]))
        ((p + q) * Tensor([3.0, 4.0])).sum().backward()
        assert not np.shares_memory(p.grad, q.grad)
        # clip_grad_norm scales in place: a shared array would be scaled twice.
        total = nn.clip_grad_norm([p, q], max_norm=1.0)
        assert total == np.sqrt(50.0)
        factor = 1.0 / total
        np.testing.assert_array_equal(p.grad, np.array([3.0, 4.0]) * factor)
        np.testing.assert_array_equal(q.grad, np.array([3.0, 4.0]) * factor)

    def test_mutating_the_seed_gradient_leaves_grads_unchanged(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = x.reshape(2, 3)  # reshape's adjoint passes a view of its grad
        seed = np.arange(6.0).reshape(2, 3) + 1.0
        y.backward(seed)
        seed[...] = -99.0
        np.testing.assert_array_equal(y.grad, np.arange(6.0).reshape(2, 3) + 1.0)
        np.testing.assert_array_equal(x.grad, np.arange(6.0) + 1.0)

    def test_second_contribution_to_an_aliased_gradient(self):
        # ``m = a' + c'`` hands one array to both reshapes, whose adjoints
        # give A and C views of it.  A then gets a second contribution,
        # from ``a * v``, before C (A's input) runs its backward: adding it
        # in place would leak into C's gradient.
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([10.0, 20.0, 30.0, 40.0])
        c = x * 3.0
        a = c * 2.0
        m = a.reshape(2, 2) + c.reshape(2, 2)
        ((m * Tensor(w)).sum() + (a * Tensor(v)).sum()).backward()
        # Integer-valued operands: every sum is exact.
        np.testing.assert_array_equal(x.grad, 9.0 * w.reshape(-1) + 6.0 * v)

    def test_second_contribution_with_mismatched_shape_raises(self):
        h = Tensor(np.ones(3), requires_grad=True) * 1.0
        h._accumulate(np.ones(3))
        with pytest.raises(ValueError):
            h._accumulate(np.ones((2, 3)))
