"""Module base class: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.analysis.spec import ContractError, TensorSpec
from repro.nn.tensor import Parameter

__all__ = ["Module"]


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; registration happens automatically through ``__setattr__``,
    mirroring PyTorch.  ``forward`` must be overridden; calling the module
    dispatches to it.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def to(self, dtype) -> "Module":
        """Cast every parameter and floating buffer to ``dtype``, in place."""
        dtype = np.dtype(dtype)
        for param in self.parameters():
            if param.data.dtype != dtype:
                param.data = param.data.astype(dtype)
        for module in self.modules():
            for name, buf in module._buffers.items():
                if np.asarray(buf).dtype.kind == "f":
                    module.update_buffer(name, np.asarray(buf, dtype=dtype))
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat mapping of dotted names to parameter/buffer arrays (copies)."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters/buffers in place from :meth:`state_dict` output."""
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - set(own_params) - set(own_buffers)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            if name in state:
                value = np.asarray(state[name])
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                    )
                param.data = value.astype(param.data.dtype, copy=True)
        self._load_buffers(state, prefix="")

    def _load_buffers(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name in list(self._buffers):
            key = prefix + name
            if key in state:
                # Like parameters, a buffer keeps its own dtype.
                dtype = np.asarray(self._buffers[name]).dtype
                self.update_buffer(name, np.array(state[key], dtype=dtype,
                                                  copy=True))
        for name, module in self._modules.items():
            module._load_buffers(state, prefix + name + ".")

    # ------------------------------------------------------------------
    # Static contracts (repro.analysis.check_model)
    # ------------------------------------------------------------------
    def contract(self, spec: TensorSpec) -> TensorSpec:
        """Map an input :class:`TensorSpec` to the output spec.

        Subclasses with a stable shape semantics override this so
        :func:`repro.analysis.check_model` can validate architectures
        without running data.  The default refuses rather than guessing.
        """
        raise ContractError(
            f"{type(self).__name__} does not declare a shape contract"
        )

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            body = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {body}")
        lines.append(")")
        return "\n".join(lines) if self._modules else self.__class__.__name__ + "()"
