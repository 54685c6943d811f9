"""Forward abstract interpretation of a traced autograd graph.

:func:`propagate` walks a :class:`~repro.analysis.trace.Graph` in
construction order (which is topological — parents are always recorded
before their consumers) and assigns every node an
:class:`~repro.analysis.domains.Interval` via the per-op transfer
functions registered in :mod:`repro.nn.opinfo`.  Leaves are seeded as:

* ``input`` nodes — a configurable symmetric envelope ``[-E, E]``
  (default ``E = 1000``), justified by the serving-time sanitizer which
  clips observations before they reach a model;
* ``param`` / ``const`` nodes — the concrete envelope of their current
  data (a documented incompleteness: the analysis certifies the shipped
  initialisation, not every reachable training state).

Issues flagged by transfer functions become :class:`Finding` records with
source locations from the trace; a ``# analyzer: ok`` comment on any
recorded frame's source line suppresses the finding (it is still emitted,
marked ``suppressed``, so reports can show audited sites).

The marker takes an optional *range assertion*, ``# analyzer: ok
range=[lo,hi]``, stating a fact the interval domain cannot derive (e.g.
that a softmax denominator is at least 1 because the detached max-shift
makes one exponent exactly ``exp(0)``).  The asserted interval *replaces*
the abstract output of every op recorded on that line, so the imprecision
stops propagating downstream.  Assertions are trusted, not checked — keep
one op per annotated line when the ranges differ (DESIGN.md section 9).
"""

from __future__ import annotations

import linecache
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.domains import Interval
from repro.analysis.trace import Graph, GraphNode
from repro.nn.opinfo import DF_RULES, OpContext, transfer

__all__ = ["Finding", "propagate", "coverage", "repo_relative",
           "SUPPRESS_MARKER"]

SUPPRESS_MARKER = "# analyzer: ok"
_MARKER_RE = re.compile(
    r"#\s*analyzer:\s*ok(?:\s+range=\[\s*([^,\]\s]+)\s*,\s*([^\]\s]+)\s*\])?"
)


def repo_relative(path: str) -> str:
    """Stable repo-relative path (posix separators) for reports, so a
    report reads the same from any checkout; the base name for a file
    outside the repository, and ``""`` for no file."""
    if not path:
        return ""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    absolute = os.path.abspath(path)
    if absolute.startswith(root + os.sep):
        return absolute[len(root) + 1:].replace(os.sep, "/")
    return os.path.basename(path)


@dataclass
class Finding:
    """One analyzer finding, locatable in both the graph and the source."""

    rule: str
    severity: str  # "error" | "warn"
    message: str
    op: str
    node_index: int
    module_path: str = ""
    file: str = ""
    line: int = 0
    model: str = ""
    suppressed: bool = False
    frames: Tuple[Tuple[str, int, str], ...] = field(default_factory=tuple)
    rule_name: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.rule_name or (
                DF_RULES[self.rule].name if self.rule in DF_RULES else self.rule),
            "severity": self.severity,
            "message": self.message,
            "model": self.model,
            "module_path": self.module_path,
            "op": self.op,
            "file": self.file,
            "line": self.line,
            "suppressed": self.suppressed,
        }


def _marker_for(node: GraphNode) -> Optional[re.Match]:
    for filename, lineno, _ in node.frames:
        match = _MARKER_RE.search(linecache.getline(filename, lineno))
        if match:
            return match
    return None


def _is_suppressed(node: GraphNode) -> bool:
    return _marker_for(node) is not None


def _asserted_range(node: GraphNode) -> Optional[Interval]:
    match = _marker_for(node)
    if match is None or match.group(1) is None:
        return None
    return Interval(float(match.group(1)), float(match.group(2)))


def _finding_from_issue(node: GraphNode, code: str, message: str) -> Finding:
    rule = DF_RULES.get(code)
    filename, lineno = node.location
    return Finding(
        rule=code,
        severity=rule.severity if rule else "warn",
        message=message,
        op=node.op,
        node_index=node.index,
        module_path=node.module_path,
        file=filename,
        line=lineno,
        suppressed=_is_suppressed(node),
        frames=node.frames,
        rule_name=rule.name if rule else code,
    )


def propagate(graph: Graph, envelope: float = 1e3
              ) -> Tuple[List[Interval], List[Finding]]:
    """Assign an interval to every node; return (values, findings).

    ``values[i]`` is the abstract value of ``graph.nodes[i]``; findings
    include suppressed ones (filter on ``Finding.suppressed``).
    """
    if envelope <= 0:
        raise ValueError("input envelope must be positive")
    input_interval = Interval(-float(envelope), float(envelope))
    nodes = graph.nodes
    values: List[Interval] = []
    findings: List[Finding] = []
    for node in nodes:
        if node.kind == "input":
            values.append(input_interval)
            continue
        if node.kind != "op":
            values.append(node.envelope or Interval.unbounded())
            continue
        ins = [values[p] for p in node.parents]
        shapes = [nodes[p].shape for p in node.parents]
        same = len(node.parents) == 2 and node.parents[0] == node.parents[1]
        ctx = OpContext(node.op, ins, node.attrs, shapes, node.shape,
                        same_input=same, dtype=node.dtype)
        value = transfer(ctx)
        asserted = _asserted_range(node) if node.frames else None
        values.append(asserted if asserted is not None else value)
        for code, message in ctx.issues:
            findings.append(_finding_from_issue(node, code, message))
    return values, findings


def coverage(graph: Graph) -> Dict[str, int]:
    """Ops in the graph with no registered transfer (analysis blind spots)."""
    from repro.nn.opinfo import OP_INFO

    missing: Dict[str, int] = {}
    for node in graph.nodes:
        if node.kind == "op" and node.op not in OP_INFO:
            missing[node.op] = missing.get(node.op, 0) + 1
    return missing

