"""Graph tracing + abstract interpretation + gradient-flow audit.

The centrepiece is the seeded-bug regression: four injected bug classes —
log-of-nonpositive, division by a zero-straddling interval, a dead
(gradient-severed) parameter, and a detached subgraph — that the dataflow
analyzer must flag while BOTH the AST linter and the static shape
contracts validate the same code cleanly.  That is the analyzer's reason
to exist: these are value-range and connectivity properties invisible to
syntax and shape.
"""

import inspect

import numpy as np
import pytest

from repro.analysis import check_model
from repro.analysis.dataflow import coverage, propagate
from repro.analysis.domains import Interval
from repro.analysis.gradflow import audit_gradient_flow
from repro.analysis.lint import lint_source
from repro.analysis.spec import TensorSpec
from repro.analysis.trace import Graph, GraphNode, trace
from repro.nn.modules.base import Module
from repro.nn.tensor import Parameter, Tensor, odd_power


# ----------------------------------------------------------------------
# Injected bug classes.  Each declares a *passing* shape contract and
# contains nothing the AST linter objects to — the bugs live purely in
# value ranges and tape connectivity.
# ----------------------------------------------------------------------

class LogOfShifted(Module):
    """DF201: logs a sum whose interval reaches non-positive values."""

    def forward(self, x):
        return (x.sum() + 1.0).log()

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "LogOfShifted")
        return TensorSpec((), spec.dtype)


class NormalizedBySum(Module):
    """DF203: normalizes by a sum whose interval straddles zero."""

    def forward(self, x):
        return (x / x.sum()).sum()

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "NormalizedBySum")
        return TensorSpec((), spec.dtype)


class SeveredScale(Module):
    """GF301: a parameter whose only use is severed by ``Tensor(...)``."""

    def __init__(self):
        super().__init__()
        self.scale = Parameter(np.full(3, 2.0))
        self.bias = Parameter(np.zeros(3))

    def forward(self, x):
        scaled = x * self.scale
        detached = Tensor(scaled.data)  # severs the tape
        return (detached + self.bias).sum()

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_axis(-1, 3, "SeveredScale", "features")
        return TensorSpec((), spec.dtype)


class DroppedBranch(Module):
    """GF302: an auxiliary branch computed but reaching no output."""

    def forward(self, x):
        auxiliary = (x * 0.5).tanh().sum()  # noqa  (intentionally unused)
        return (x * x).sum()

    def contract(self, spec: TensorSpec) -> TensorSpec:
        spec.require_ndim(3, "DroppedBranch")
        return TensorSpec((), spec.dtype)


INJECTED_CASES = [
    (LogOfShifted, "DF201", "error"),
    (NormalizedBySum, "DF203", "error"),
    (SeveredScale, "GF301", "error"),
    (DroppedBranch, "GF302", "warn"),
]


def _analyze(module, envelope=1e3):
    x = Tensor(np.full((2, 4, 3), 0.25))
    graph = trace(lambda: module(x), inputs=(x,), module=module)
    values, findings = propagate(graph, envelope=envelope)
    findings = findings + audit_gradient_flow(graph, values, module)
    return graph, values, findings


class TestInjectedBugRegression:
    @pytest.mark.parametrize("cls,rule,severity", INJECTED_CASES)
    def test_analyzer_catches(self, cls, rule, severity):
        _, _, findings = _analyze(cls())
        hits = [f for f in findings if f.rule == rule and not f.suppressed]
        assert hits, f"{cls.__name__}: analyzer missed {rule}"
        assert all(f.severity == severity for f in hits)

    @pytest.mark.parametrize("cls,rule,severity", INJECTED_CASES)
    def test_lint_misses(self, cls, rule, severity):
        # Same class source, presented as library code (all src-gated
        # rules active).  The AST linter has no concept of value ranges
        # or tape connectivity, so it must come back clean.
        source = f'__all__ = ["{cls.__name__}"]\n\n' + inspect.getsource(cls)
        assert lint_source(source, path="src/repro/injected.py") == []

    @pytest.mark.parametrize("cls,rule,severity", INJECTED_CASES)
    def test_shape_contracts_miss(self, cls, rule, severity):
        # The declared contracts validate cleanly: shapes and dtypes are
        # fine, the bug is in values/gradients.
        out = check_model(cls(), ("N", 4, 3))
        assert isinstance(out, TensorSpec)

    def test_severed_parameter_is_named(self):
        _, _, findings = _analyze(SeveredScale())
        dead = [f for f in findings if f.rule == "GF301"]
        assert len(dead) == 1
        assert "scale" in dead[0].message
        assert dead[0].module_path == "SeveredScale"
        # the bias parameter has a live path and must NOT be flagged
        assert not any("bias" in f.message for f in dead)


# ----------------------------------------------------------------------
# Suppression markers and range assertions
# ----------------------------------------------------------------------

class SuppressedNormalize(Module):
    """Audited div; the range assertion stops downstream poisoning."""

    def forward(self, x):
        weights = x / x.sum()  # analyzer: ok range=[-1,1]
        return (weights + 2.0).log().sum()


class UnsuppressedNormalize(Module):
    """Same computation without the marker: two findings, not one."""

    def forward(self, x):
        weights = x / x.sum()
        return (weights + 2.0).log().sum()


class TestSuppression:
    def test_marker_suppresses_but_still_reports(self):
        graph, values, findings = _analyze(SuppressedNormalize())
        div_findings = [f for f in findings if f.rule == "DF203"]
        assert div_findings and all(f.suppressed for f in div_findings)

    def test_range_assertion_replaces_abstract_value(self):
        graph, values, findings = _analyze(SuppressedNormalize())
        div_nodes = [n for n in graph.nodes if n.kind == "op" and n.op == "div"]
        assert len(div_nodes) == 1
        assert values[div_nodes[0].index] == Interval(-1.0, 1.0)
        # [-1,1] + 2 = [1,3]: the log is provably safe, no DF201.
        assert not any(f.rule == "DF201" for f in findings)
        assert not any(not f.suppressed for f in findings)

    def test_without_marker_imprecision_propagates(self):
        _, _, findings = _analyze(UnsuppressedNormalize())
        rules = {f.rule for f in findings if not f.suppressed}
        assert "DF203" in rules
        assert "DF201" in rules  # unbounded div output poisons the log


# ----------------------------------------------------------------------
# Trace structure
# ----------------------------------------------------------------------

class Inner(Module):
    def forward(self, x):
        return x.tanh()


class Outer(Module):
    def __init__(self):
        super().__init__()
        self.inner = Inner()

    def forward(self, x):
        return self.inner(x).sum()


class TestTrace:
    def test_module_paths_attributed(self):
        module = Outer()
        x = Tensor(np.zeros((2, 3)))
        graph = trace(lambda: module(x), inputs=(x,), module=module)
        by_op = {n.op: n for n in graph.nodes if n.kind == "op"}
        assert by_op["tanh"].module_path == "Outer.inner"
        assert by_op["sum"].module_path == "Outer"

    def test_leaf_classification(self):
        module = SeveredScale()
        x = Tensor(np.full((2, 4, 3), 0.25))
        graph = trace(lambda: module(x), inputs=(x,), module=module)
        kinds = {}
        for node in graph.nodes:
            kinds.setdefault(node.kind, []).append(node)
        assert len(kinds["input"]) == 1
        assert {n.name for n in kinds["param"]} == {"scale", "bias"}
        assert kinds["const"], "the Tensor(...) detach must appear as const"
        assert kinds["param"][0].envelope == Interval(2.0, 2.0)

    def test_same_object_product_uses_square_transfer(self):
        x = Tensor(np.zeros((3,)))
        graph = trace(lambda: (x * x).sum(), inputs=(x,))
        values, _ = propagate(graph)
        mul_node = next(n for n in graph.nodes if n.op == "mul")
        assert values[mul_node.index].lo >= 0.0

    def test_loss_index_and_ancestors(self):
        module = LogOfShifted()
        x = Tensor(np.full((2, 4, 3), 0.25))
        graph = trace(lambda: module(x), inputs=(x,), module=module)
        assert graph.loss_index == graph.outputs[0]
        ancestors = graph.ancestors(graph.loss_index)
        assert 0 in ancestors  # the input leaf feeds the loss

    def test_coverage_reports_unregistered_ops(self):
        graph = Graph()
        graph.add(GraphNode(0, "op", "mystery", (1,)))
        assert coverage(graph) == {"mystery": 1}

    def test_propagate_rejects_bad_envelope(self):
        with pytest.raises(ValueError):
            propagate(Graph(), envelope=0.0)


class TestDtypeBounds:
    """Overflow bounds follow each node's dtype (88.7 and 3.4e38 in
    float32, 709 and 1e300 in float64)."""

    @pytest.mark.parametrize("dtype, flagged", [("float32", True),
                                                ("float64", False)])
    def test_exp_over_0_to_100(self, dtype, flagged):
        x = Tensor(np.zeros(3, dtype=dtype))
        graph = trace(lambda: x.clip(0.0, 100.0).exp(), inputs=(x,))
        _, findings = propagate(graph, envelope=100.0)
        assert ("DF204" in {f.rule for f in findings}) is flagged

    @pytest.mark.parametrize("dtype, flagged", [("float32", True),
                                                ("float64", False)])
    def test_odd_power_11_over_5e3(self, dtype, flagged):
        x = Tensor(np.zeros(3, dtype=dtype))
        graph = trace(lambda: odd_power(x, 11), inputs=(x,))
        _, findings = propagate(graph, envelope=5e3)
        assert ("DF205" in {f.rule for f in findings}) is flagged

    def test_float32_mace_amplifier_guard_is_seen(self):
        """The amplifier's clip bounds its power for any input envelope."""
        from repro.analysis.audit import audit_models

        report = audit_models(["MACE"], envelope=1e6)
        (model,) = report["models"]
        assert [f["rule"] for f in model["findings"]] == []

