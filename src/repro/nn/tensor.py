"""A small NumPy-backed tensor with reverse-mode automatic differentiation.

This is the foundation substrate of the reproduction: the paper's models are
implemented in PyTorch, which is unavailable offline, so we provide the
subset of a deep-learning framework the paper actually needs.  The ``Tensor``
class wraps a ``numpy.ndarray`` and records a backward closure per operation;
``Tensor.backward`` walks the graph in reverse-topological order.

Every differentiable op here is covered by numerical-gradient property tests
in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.autograd import _OP_HOOKS, is_grad_enabled, topological_order

__all__ = [
    "Tensor",
    "Parameter",
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "clip_array",
    "odd_power",
    "odd_power_array",
    "odd_root",
    "odd_root_array",
    "pad1d",
    "pad1d_array",
]

_DEFAULT_DTYPE = np.float64


def _as_array(value) -> np.ndarray:
    """``value`` as an array.  Floating arrays and NumPy floating scalars
    keep their precision; everything else (Python numbers, lists, integer
    and boolean arrays) becomes float64."""
    if isinstance(value, Tensor):
        return value.data
    floating = isinstance(value, (np.ndarray, np.floating)) \
        and value.dtype.kind == "f"
    return np.asarray(value, dtype=value.dtype if floating else _DEFAULT_DTYPE)


def _operand(value, like: "Tensor") -> "Tensor":
    """``value`` as a tensor; a Python or 0-d scalar takes ``like``'s dtype.

    NumPy promotes ``float32 array * float64 0-d array`` to float64, so a
    scalar wrapped as float64 would silently upcast a float32 graph.
    """
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.number)) or (
            isinstance(value, np.ndarray) and value.ndim == 0):
        return Tensor(np.asarray(value, dtype=like.data.dtype))
    return Tensor(value)


def _consumed_marker(_grad):
    raise AssertionError("consumed backward closure must never be invoked")


_CONSUMED = _consumed_marker


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting.

    ``grad`` must be the result of broadcasting an array of ``shape``
    against other operands: it has at least as many dimensions, and every
    trailing-aligned axis either matches ``shape`` or broadcast up from
    size 1.  Anything else raises ``ValueError`` instead of silently
    producing a mis-shaped gradient.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra < 0:
        raise ValueError(
            f"gradient of shape {grad.shape} has fewer dimensions than the "
            f"operand shape {shape}; broadcasting cannot remove dimensions"
        )
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = []
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            axes.append(axis)
        elif grad.shape[axis] != size:
            raise ValueError(
                f"gradient of shape {grad.shape} is not a broadcast of the "
                f"operand shape {shape} (axis {axis}: {grad.shape[axis]} vs {size})"
            )
    if axes:
        grad = grad.sum(axis=tuple(axes), keepdims=True)
    return grad.reshape(shape)


def _is_basic_key(key) -> bool:
    """Whether ``key`` is NumPy basic indexing: ints, slices, ``None`` and
    ``Ellipsis`` (alone or in a tuple).  Booleans are advanced indices."""
    return all(item is None or item is Ellipsis or isinstance(item, slice)
               or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
               for item in (key if isinstance(key, tuple) else (key,)))


def _pair(a, b) -> tuple:
    """Both operands as tensors, a scalar one taking the other's dtype."""
    if isinstance(a, Tensor):
        return a, _operand(b, a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    return _operand(a, b), b


class Tensor:
    """A NumPy array plus gradient bookkeeping.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Floating arrays keep
        their dtype; anything else is coerced to float64.
    requires_grad:
        When true, operations involving this tensor record backward closures
        and ``backward()`` will populate ``grad``.
    """

    __slots__ = (
        "_data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_parent_versions",
        "_op",
        "_attrs",
        "_version",
    )

    def __init__(self, data, requires_grad: bool = False):
        # Op outputs are floating ndarrays already: skip the conversion.
        self._data = data if type(data) is np.ndarray and data.dtype.kind == "f" \
            else _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple = ()
        self._parent_versions: tuple = ()
        self._op = "leaf"
        self._attrs: dict | None = None
        self._version = 0

    @property
    def data(self) -> np.ndarray:
        """The underlying array.  Rebinding it bumps the version counter."""
        return self._data

    @data.setter
    def data(self, value) -> None:
        # Every in-place update in the repository goes through this setter
        # (``param.data -= ...`` rebinds the attribute), so the version
        # counter catches mutation of tensors already recorded on a tape.
        self._data = value if isinstance(value, np.ndarray) else _as_array(value)
        self._version += 1

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        out = Tensor(self.data)
        return out

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        """This tensor cast to ``dtype``; the gradient is cast back."""
        data = self.data.astype(dtype)

        def backward(grad):
            if self.requires_grad:
                # ``_accumulate`` converts to this tensor's dtype.
                self._accumulate(grad)

        return Tensor._from_op(data, (self,), backward, "astype")

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, backward, op: str,
                 attrs: dict | None = None) -> "Tensor":
        """Create the output tensor of an op, recording the graph if enabled.

        ``attrs`` carries static op parameters (clip bounds, exponents,
        strides) for observers such as the dataflow analyzer; it is not
        consulted by autograd itself.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out._attrs = attrs
        if requires:
            out.requires_grad = True
            out._backward = backward
            out._parents = parents
            out._parent_versions = tuple(p._version for p in parents)
            out._op = op
        if _OP_HOOKS:
            for hook in tuple(_OP_HOOKS):
                hook(out, parents, op)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one gradient contribution to ``self.grad``.

        Ownership rule: a leaf (no ``_backward``) owns its gradient, which
        optimizers and ``clip_grad_norm`` update in place, so its first
        contribution is copied and later ones are added in place.  An
        intermediate node only hands its gradient to its own backward
        closure, and no closure writes into its incoming gradient, so it
        keeps the first contribution as is, even when that array is shared
        with (or a view of) another node's gradient.  A later contribution
        therefore goes into a fresh array, never into the shared one.
        A first contribution that is not a plain ndarray of the node's
        dtype (a NumPy scalar, another dtype) is still converted by a copy.
        """
        if self.grad is None:
            if (self._backward is None or type(grad) is not np.ndarray
                    or grad.dtype != self.data.dtype):
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
            else:
                self.grad = grad
        elif self._backward is None:
            self.grad += grad
        else:
            fresh = np.empty_like(self.grad)  # noqa: REP110 - np.add writes every element
            self.grad = np.add(self.grad, grad, out=fresh)

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor.

        ``grad`` is the gradient of the final objective with respect to
        this tensor and defaults to ones, so for a scalar loss it is 1.0,
        matching the usual convention.  A supplied ``grad`` is copied: the
        caller keeps ownership of the array it passed.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.array(_as_array(grad), dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )
        self._accumulate(grad)
        for node in topological_order(self):
            if node._backward is _CONSUMED:
                raise RuntimeError(
                    "part of this graph was already backpropagated and "
                    "freed; recompute the forward pass before calling "
                    "backward() again (retain_graph is not supported)"
                )
            if node._backward is None:
                continue
            for parent, recorded in zip(node._parents, node._parent_versions):
                if parent._version != recorded:
                    raise RuntimeError(
                        f"an input of op '{node._op}' (shape {parent.shape}) "
                        f"was modified in-place after being recorded on the "
                        f"tape (version {parent._version} vs {recorded}); the "
                        "gradient would be silently wrong.  Recompute the "
                        "forward pass after mutating tensor data."
                    )
            node._backward(node.grad)
            # Free intermediate gradient/graph memory once consumed; mark
            # the node so a second backward through it fails loudly instead
            # of silently dropping gradient contributions.
            if node is not self:
                node.grad = None
            node._backward = _CONSUMED
            node._parents = ()
            node._parent_versions = ()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _operand(other, self)
        data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._from_op(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _operand(other, self)
        data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._from_op(data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return _operand(other, self) - self

    def __mul__(self, other) -> "Tensor":
        other = _operand(other, self)
        data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._from_op(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _operand(other, self)
        data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._from_op(data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return _operand(other, self) / self

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(log(x) * y)")
        data = self.data**exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(data, (self,), backward, "pow",
                               attrs={"exponent": float(exponent)})

    def __matmul__(self, other) -> "Tensor":
        other = _operand(other, self)
        data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(
                        _unbroadcast(np.outer(grad, other.data).reshape(self.shape), self.shape)
                        if self.data.ndim <= 2
                        else _unbroadcast(grad[..., None] * other.data, self.shape)
                    )
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(_unbroadcast(np.outer(self.data, grad), other.shape))
                elif other.data.ndim == 1:
                    axes = tuple(range(grad.ndim - 1))
                    contribution = np.tensordot(grad, self.data, axes=(axes, axes))
                    # tensordot yields (n,) gradient for the vector operand
                    other._accumulate(_unbroadcast(contribution, other.shape))
                else:
                    other._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                    )

        return Tensor._from_op(data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._from_op(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * 0.5 / np.maximum(data, 1e-300))

        return Tensor._from_op(data, (self,), backward, "sqrt")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._from_op(data, (self,), backward, "abs")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return Tensor._from_op(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._from_op(data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(data, (self,), backward, "relu")

    def clip(self, low: float, high: float) -> "Tensor":
        data = clip_array(self.data, low, high)

        def backward(grad):
            if self.requires_grad:
                # The tape's version check guarantees ``self.data`` is
                # still the forward's input.
                mask = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * mask)

        return Tensor._from_op(data, (self,), backward, "clip",
                               attrs={"low": float(low), "high": float(high)})

    def sign(self) -> "Tensor":
        """Sign of each element; gradient is zero everywhere (like torch)."""
        return Tensor(np.sign(self.data))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return Tensor._from_op(np.asarray(data), (self,), backward, "sum",
                               attrs={"axis": axis, "keepdims": bool(keepdims)})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else math.prod(
            self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def _extreme(self, axis, keepdims, np_fn, op_name) -> "Tensor":
        data = np_fn(self.data, axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            expanded_val = data
            expanded_grad = grad
            if axis is not None and not keepdims:
                expanded_val = np.expand_dims(data, axis=axis)
                expanded_grad = np.expand_dims(grad, axis=axis)
            mask = self.data == expanded_val
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * expanded_grad / counts)

        return Tensor._from_op(np.asarray(data), (self,), backward, op_name,
                               attrs={"axis": axis, "keepdims": bool(keepdims)})

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction; ties share the gradient evenly."""
        return self._extreme(axis, keepdims, np.max, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum reduction; ties share the gradient evenly."""
        return self._extreme(axis, keepdims, np.min, "min")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._from_op(data, (self,), backward, "reshape",
                               attrs={"shape": tuple(data.shape)})

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(np.argsort(axes)))

        return Tensor._from_op(data, (self,), backward, "transpose",
                               attrs={"axes": tuple(int(a) for a in axes)})

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]
        basic = _is_basic_key(key)

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    # A basic key selects each element at most once.
                    full[key] += grad
                else:
                    # Advanced keys may repeat an index; ``add.at``
                    # accumulates every occurrence.
                    np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._from_op(np.asarray(data), (self,), backward, "getitem",
                               attrs={"key": key})

    def broadcast_to(self, shape: tuple) -> "Tensor":
        data = np.broadcast_to(self.data, shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, original))

        return Tensor._from_op(data.copy(), (self,), backward, "broadcast",
                               attrs={"shape": tuple(shape)})


class Parameter(Tensor):
    """A tensor registered as a trainable module parameter."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return "Parameter(" + super().__repr__() + ")"


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------

def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a tensor (alias mirroring ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(start), int(stop))
                t._accumulate(grad[tuple(slicer)])

    return Tensor._from_op(data, tuple(tensors), backward, "concat",
                           attrs={"axis": int(axis)})


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        moved = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, moved):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._from_op(data, tuple(tensors), backward, "stack",
                           attrs={"axis": int(axis)})


def where(condition, a, b, *, _op: str = "where") -> Tensor:
    """Elementwise select; the condition is treated as constant.

    ``_op`` lets wrappers whose condition is derived from the operands
    (``maximum``/``minimum``) record a more precise op name, so the static
    analyzer can apply a tighter transfer function than the select union.
    """
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a, b = _pair(a, b)
    data = np.where(cond, a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~cond if cond.dtype == bool else 1 - cond), b.shape))

    return Tensor._from_op(data, (a, b), backward, _op,
                           attrs={"cond": cond})


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties route gradient to the first argument."""
    a, b = _pair(a, b)
    take_a = a.data >= b.data
    return where(take_a, a, b, _op="maximum")


def minimum(a, b) -> Tensor:
    """Elementwise minimum; ties route gradient to the first argument."""
    a, b = _pair(a, b)
    take_a = a.data <= b.data
    return where(take_a, a, b, _op="minimum")


def clip_array(x: np.ndarray, low: float, high: float) -> np.ndarray:
    """``np.clip``'s values, without its per-call wrapper overhead."""
    return np.minimum(np.maximum(x, low), high)


def _positive(x: np.ndarray) -> bool:
    """True when every element of ``x`` is above zero.

    One reduction: NaN fails the test, and so does an empty array.  A zero
    of either sign fails it too, so ``-0.0`` always takes the signed path.
    """
    return x.size > 0 and x.min() > 0.0


def _copysign_power(x: np.ndarray, exponent: float) -> np.ndarray:
    """``sign(x) * |x|**exponent`` in one fresh array; ``x`` is left alone.

    The sign is copied onto the magnitude (``np.copysign``) rather than
    multiplied in, which saves a full-array pass.  The power is taken in
    place (``**=`` keeps ``**``'s scalar-power dispatch: ``2.0`` squares,
    ``0.5`` takes a square root).
    """
    power = np.abs(x)
    power **= exponent
    return np.copysign(power, x, out=power)


def odd_power_array(x: np.ndarray, gamma: float) -> np.ndarray:
    """Sign-preserving power ``sign(x) * |x|**gamma`` of an array.

    Bitwise equal to ``np.sign(x) * |x|**gamma`` except at zero: ``-0.0``
    keeps its sign, and ``±0`` with a negative ``gamma`` gives ``±inf``
    instead of ``0 * inf``.  An input with every element above zero (the
    shifted dualistic convolution's) is its own magnitude and sign, so it
    is powered in place with ``**=``: the same bits, without the ``abs``
    and ``copysign`` passes.  ``x`` is therefore consumed: callers pass
    an array of their own and use only the returned one.
    """
    if _positive(x):
        x **= gamma
        return x
    return _copysign_power(x, gamma)


def odd_root_array(x: np.ndarray, gamma: float) -> np.ndarray:
    """Sign-preserving ``gamma``-th root of an array, inverse of
    :func:`odd_power_array`, with the same two exceptions at zero; it
    consumes ``x`` in the same way."""
    return odd_power_array(x, 1.0 / gamma)


def odd_power(x, gamma: float) -> Tensor:
    """Sign-preserving power ``sign(x) * |x|**gamma`` (:func:`odd_power_array`).

    For odd integer ``gamma`` this equals ``x**gamma`` but stays real-valued
    for any positive ``gamma``, which is what the dualistic convolution
    (paper Eq. 2) requires.  The derivative is ``gamma * |x|**(gamma-1)``;
    on positive input ``x`` is its own magnitude, so the backward skips
    the ``abs``.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    positive = _positive(x.data)

    def backward(grad):
        if x.requires_grad:
            magnitude = x.data if positive else np.abs(x.data)
            slope = grad * gamma
            slope *= magnitude ** (gamma - 1)
            x._accumulate(slope)

    data = x.data ** gamma if positive else _copysign_power(x.data, gamma)
    return Tensor._from_op(data, (x,), backward, "odd_power",
                           attrs={"gamma": float(gamma)})


def odd_root(x, gamma: float, eps: float = 1e-8) -> Tensor:
    """Sign-preserving ``gamma``-th root (:func:`odd_root_array`).

    The true derivative diverges at 0; ``eps`` clamps the magnitude in the
    backward pass to keep training numerically stable (documented deviation,
    standard practice for fractional-power activations).  On positive
    input the backward skips the ``abs``, as :func:`odd_power`'s does.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    positive = _positive(x.data)

    def backward(grad):
        if x.requires_grad:
            safe = np.maximum(x.data if positive else np.abs(x.data), eps)
            safe **= 1.0 / gamma - 1.0
            slope = grad * (1.0 / gamma)
            slope *= safe
            x._accumulate(slope)

    exponent = 1.0 / gamma
    data = (x.data ** exponent if positive
            else _copysign_power(x.data, exponent))
    return Tensor._from_op(data, (x,), backward, "odd_root",
                           attrs={"gamma": float(gamma), "eps": float(eps)})


def pad1d_array(x: np.ndarray, left: int, right: int,
                value: float = 0.0) -> np.ndarray:
    """Pad the last axis of an array with ``value`` (constant padding)."""
    if left < 0 or right < 0:
        raise ValueError("padding must be non-negative")
    widths = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    return np.pad(x, widths, constant_values=value)


def pad1d(x: Tensor, left: int, right: int, value: float = 0.0) -> Tensor:
    """Pad the last axis of ``x`` with ``value`` (:func:`pad1d_array`)."""
    data = pad1d_array(x.data, left, right, value)
    length = x.shape[-1]

    def backward(grad):
        if x.requires_grad:
            slicer = [slice(None)] * (x.ndim - 1) + [slice(left, left + length)]
            x._accumulate(grad[tuple(slicer)])

    return Tensor._from_op(data, (x,), backward, "pad1d",
                           attrs={"left": int(left), "right": int(right),
                                  "value": float(value)})
