"""Symbolic graph capture for the static analyzer.

:func:`trace` runs a model's forward/loss computation once while an
op hook (:mod:`repro.nn.autograd`) records every ``Tensor._from_op`` call
into a :class:`Graph` of :class:`GraphNode` entries.  The captured graph
is independent of autograd state: hooks fire even under ``no_grad``, so
intentionally detached subpaths still appear (which is exactly what the
gradient-flow audit needs to inspect).

Each op node records:

* the op name and static attributes (from ``Tensor._attrs``),
* parent node indices (preserving object identity, so ``x * x`` is
  distinguishable from a product of two equal-valued tensors),
* the concrete output shape of the traced run,
* the dotted module path active when the op ran (read off the call
  stack: the innermost ``Module.__call__`` frame below the trace), and
* up to ``FRAME_LIMIT`` non-framework source frames, used for finding
  locations and ``# analyzer: ok`` suppression.

Leaves are classified ``input`` (tensors the caller passed in ``inputs``),
``param`` (:class:`~repro.nn.tensor.Parameter` instances), or ``const``
(everything else — inline constants, detached tensors).  Param and const
leaves carry the concrete envelope of their current data.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.domains import Interval
from repro.nn.autograd import register_op_hook, unregister_op_hook
from repro.nn.modules.base import Module
from repro.nn.tensor import Parameter, Tensor

__all__ = ["GraphNode", "Graph", "trace", "FRAME_LIMIT"]

FRAME_LIMIT = 5

# Frames from the autograd substrate itself carry no user-facing location;
# the first interesting frame is the one that *invoked* the op (which may
# legitimately live in repro/nn/functional.py, e.g. softmax).
_SKIP_BASENAMES = frozenset({"tensor.py", "autograd.py", "trace.py"})


class GraphNode:
    """One vertex of the traced computation graph."""

    __slots__ = ("index", "kind", "op", "shape", "parents", "attrs",
                 "module_path", "frames", "name", "envelope", "dtype")

    def __init__(self, index: int, kind: str, op: str, shape: tuple,
                 parents: Tuple[int, ...] = (), attrs: Optional[dict] = None,
                 module_path: str = "", frames: tuple = (),
                 name: Optional[str] = None,
                 envelope: Optional[Interval] = None,
                 dtype: str = "float64"):
        self.index = index
        self.kind = kind  # "op" | "input" | "param" | "const"
        self.op = op
        self.shape = shape
        self.parents = parents
        self.attrs = attrs
        self.module_path = module_path
        self.frames = frames
        self.name = name
        self.envelope = envelope
        self.dtype = dtype

    @property
    def location(self) -> Tuple[str, int]:
        """Best-effort source location: (file, line) of the first frame."""
        if self.frames:
            return self.frames[0][0], self.frames[0][1]
        return "<unknown>", 0

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"GraphNode({self.index}, {self.kind}:{label}, shape={self.shape})"


class Graph:
    """A traced computation DAG plus the tensors that keep ids stable."""

    def __init__(self):
        self.nodes: List[GraphNode] = []
        self.outputs: List[int] = []
        # id(tensor) -> node index; valid while _keepalive pins the tensors.
        self.tensor_index: Dict[int, int] = {}
        self._keepalive: List[Tensor] = []

    def add(self, node: GraphNode) -> GraphNode:
        self.nodes.append(node)
        return node

    @property
    def loss_index(self) -> Optional[int]:
        return self.outputs[0] if self.outputs else None

    def consumer_counts(self) -> List[int]:
        counts = [0] * len(self.nodes)
        for node in self.nodes:
            for parent in node.parents:
                counts[parent] += 1
        return counts

    def ancestors(self, index: int) -> Set[int]:
        """All node indices reachable backwards from ``index`` (inclusive)."""
        seen: Set[int] = set()
        stack = [index]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.nodes[current].parents)
        return seen


def _capture_frames() -> tuple:
    frames = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < FRAME_LIMIT:
        filename = frame.f_code.co_filename
        if os.path.basename(filename) not in _SKIP_BASENAMES:
            frames.append((filename, frame.f_lineno, frame.f_code.co_name))
        frame = frame.f_back
    return tuple(frames)


_MODULE_CALL = Module.__call__.__code__


def _module_path(module_paths: Dict[int, str], stop) -> str:
    """Dotted path of the innermost module call below frame ``stop``.

    Reads the call stack instead of instrumenting ``Module.__call__``, so
    nested traces and traces started inside a module call need no shared
    state: each trace only looks at the frames it created.  Ops outside
    every module call below ``stop`` get ``""``.
    """
    frame = sys._getframe(1)
    while frame is not None and frame is not stop:
        if frame.f_code is _MODULE_CALL:
            module = frame.f_locals["self"]
            return module_paths.get(id(module), type(module).__name__)
        frame = frame.f_back
    return ""


def _module_paths(root: Module) -> Dict[int, str]:
    paths: Dict[int, str] = {}

    def walk(module: Module, path: str) -> None:
        paths[id(module)] = path
        for child_name, child in module._modules.items():
            walk(child, f"{path}.{child_name}")

    walk(root, type(root).__name__)
    return paths


def trace(fn: Callable[[], object], inputs: Sequence[Tensor] = (),
          module: Optional[Module] = None) -> Graph:
    """Run ``fn`` once and capture its autograd graph.

    Parameters
    ----------
    fn:
        Zero-argument callable performing the computation to analyze; it
        should return the loss tensor (or a tuple whose first element is
        the loss — auxiliary outputs become additional graph sinks).
    inputs:
        Tensors that are model *inputs*: the analyzer later seeds them
        with the configurable abstract envelope instead of their concrete
        values.
    module:
        The root module, used to resolve dotted module paths and
        parameter names.  Optional: anonymous graphs still trace.
    """
    graph = Graph()
    input_ids = {id(t): i for i, t in enumerate(inputs)}
    graph._keepalive.extend(inputs)
    param_names: Dict[int, str] = {}
    module_paths: Dict[int, str] = {}
    if module is not None:
        param_names = {id(p): name for name, p in module.named_parameters()}
        module_paths = _module_paths(module)

    stop = sys._getframe()

    def current_path() -> str:
        return _module_path(module_paths, stop)

    def make_leaf(t: Tensor) -> GraphNode:
        if id(t) in input_ids:
            kind, name, envelope = "input", f"input{input_ids[id(t)]}", None
        elif isinstance(t, Parameter):
            kind, name = "param", param_names.get(id(t))
            envelope = Interval.from_data(t.data)
        else:
            kind, name = "const", None
            envelope = Interval.from_data(t.data)
        node = graph.add(GraphNode(
            index=len(graph.nodes), kind=kind, op="leaf", shape=t.shape,
            module_path=current_path(), name=name, envelope=envelope,
            dtype=t.dtype.name,
        ))
        graph.tensor_index[id(t)] = node.index
        graph._keepalive.append(t)
        return node

    def node_of(t: Tensor) -> GraphNode:
        index = graph.tensor_index.get(id(t))
        return graph.nodes[index] if index is not None else make_leaf(t)

    def hook(out: Tensor, parents: tuple, op: str) -> None:
        parent_indices = tuple(node_of(p).index for p in parents)
        node = graph.add(GraphNode(
            index=len(graph.nodes), kind="op", op=op, shape=out.shape,
            parents=parent_indices, attrs=out._attrs,
            module_path=current_path(), frames=_capture_frames(),
            dtype=out.dtype.name,
        ))
        graph.tensor_index[id(out)] = node.index
        graph._keepalive.append(out)

    register_op_hook(hook)
    try:
        result = fn()
    finally:
        unregister_op_hook(hook)

    returned = result if isinstance(result, tuple) else (result,)
    for value in returned:
        if isinstance(value, Tensor):
            graph.outputs.append(node_of(value).index)
    return graph
