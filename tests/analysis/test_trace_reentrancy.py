"""Nested and re-entrant tracing resolve module paths without patching.

``trace`` reads each op's module path off the call stack: the innermost
``Module.__call__`` frame below the ``trace`` call's own frame.  Nested
traces, traces that raise, and traces started inside a module call must
each see only the module calls they made, and ``Module.__call__`` is
never rebound along the way.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.trace import trace
from repro.nn.modules.base import Module
from repro.nn.tensor import Parameter, Tensor

SRC = Path(__file__).resolve().parents[2] / "src"


class Scale(Module):
    def __init__(self, factor: float = 2.0):
        super().__init__()
        self.factor = Parameter(np.array(factor))

    def forward(self, x):
        return x * self.factor


class Outer(Module):
    def __init__(self):
        super().__init__()
        self.inner = Scale()

    def forward(self, x):
        return self.inner(x) + 1.0


@pytest.fixture(autouse=True)
def pristine_call():
    original = Module.__call__
    yield original
    assert Module.__call__ is original, "a trace rebound Module.__call__"


def test_single_trace_restores_call(pristine_call):
    model = Scale()
    x = Tensor(np.ones(3))

    def fn():
        assert Module.__call__ is pristine_call
        return model(x).sum()

    graph = trace(fn, inputs=(x,), module=model)
    paths = {n.module_path for n in graph.nodes if n.op == "mul"}
    assert paths == {"Scale"}


def test_nested_trace_restores_call(pristine_call):
    outer_model = Outer()
    inner_model = Scale(3.0)
    x = Tensor(np.ones(3))
    captured = {}

    def outer_fn():
        # A traced computation that itself traces: the inner trace enters
        # and exits while the outer trace is live.
        y = Tensor(np.ones(3))
        captured["inner"] = trace(lambda: inner_model(y).sum(),
                                  inputs=(y,), module=inner_model)
        return outer_model(x).sum()

    outer = trace(outer_fn, inputs=(x,), module=outer_model)
    inner = captured["inner"]
    assert {n.module_path for n in inner.nodes if n.op == "mul"} == {"Scale"}
    # The outer graph records its own module paths, undisturbed by the
    # inner trace's enter/exit.
    mul_paths = {n.module_path for n in outer.nodes
                 if n.op == "mul" and n.module_path}
    assert "Outer.inner" in mul_paths


def test_inner_ops_do_not_leak_outer_paths(pristine_call):
    inner_model = Scale()

    def outer_fn():
        y = Tensor(np.ones(3))
        inner = trace(lambda: inner_model(y).sum(),
                      inputs=(y,), module=inner_model)
        paths = {n.module_path for n in inner.nodes if n.op == "mul"}
        assert paths == {"Scale"}
        return Tensor(np.ones(2)).sum()

    trace(outer_fn)


def test_exception_during_trace_restores_call(pristine_call):
    model = Scale()

    def boom():
        model(Tensor(np.ones(3)))
        raise RuntimeError("mid-trace failure")

    with pytest.raises(RuntimeError, match="mid-trace failure"):
        trace(boom, module=model)


def test_exception_in_nested_trace_keeps_outer_paths(pristine_call):
    model = Scale()

    def outer_fn():
        with pytest.raises(RuntimeError):
            trace(lambda: (_ for _ in ()).throw(RuntimeError()), module=model)
        return model(Tensor(np.ones(3))).sum()

    graph = trace(outer_fn, module=model)
    paths = {n.module_path for n in graph.nodes if n.op == "mul"}
    assert "Scale" in paths


def test_trace_inside_forward_sees_only_calls_below_it(pristine_call):
    class Host(Module):
        def __init__(self):
            super().__init__()
            self.child = Scale()
            self.graph = None

        def forward(self, x):
            def fn():
                return (self.child(x) + 1.0).sum()

            self.graph = trace(fn, inputs=(x,), module=self)
            return x

    host = Host()
    host(Tensor(np.ones(3)))
    paths = {n.op: n.module_path for n in host.graph.nodes if n.kind == "op"}
    # ``Host.__call__`` is running, but it began above the trace: only the
    # child call below it counts, and ops outside that call get "".
    assert paths == {"mul": "Host.child", "add": "", "sum": ""}


def _call_rebinds(source: str) -> list:
    """Line numbers that assign ``Module.__call__`` or setattr it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "__call__"
                   and isinstance(t.value, ast.Name) and t.value.id == "Module"
                   for t in targets):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id == "Module"
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "__call__"):
            lines.append(node.lineno)
    return lines


def test_guard_catches_an_injected_rebind():
    assert _call_rebinds("Module.__call__ = wrapper\n") == [1]
    assert _call_rebinds("x = 1\nsetattr(Module, '__call__', f)\n") == [2]
    assert _call_rebinds("self.__call__ = f\nModule.forward = g\n") == []


def test_no_source_file_rebinds_module_call():
    """Module paths come from the call stack; nothing patches the class."""
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 for line in _call_rebinds(path.read_text(encoding="utf-8"))]
    assert not offenders, f"Module.__call__ assigned at {offenders}"
