"""``repro.analysis`` — correctness tooling for the NumPy autograd stack.

Each tool is usable on its own:

* :func:`detect_anomaly` — autograd anomaly mode.  Inside the context every
  op's forward output and backward gradients are checked for NaN/Inf and
  the first offender is reported with per-op provenance (op name, parent
  shapes/dtypes, creation stack).  Complemented by tape version counters in
  :class:`repro.nn.Tensor` that make in-place mutation of a taped tensor
  raise instead of silently corrupting gradients.
* :func:`check_model` — static shape/dtype contract checking.  Layers
  declare ``contract`` methods; ``check_model(model, ("N", 40, 3))``
  validates an architecture symbolically without running any data.
* :mod:`repro.analysis.lint` — AST lint with repo-specific rules
  (``python -m repro.analysis.lint`` or ``repro lint``).
* :mod:`repro.analysis.dataflow` / :mod:`repro.analysis.gradflow` —
  abstract interpretation of traced autograd graphs (interval × finiteness
  domain, gradient-flow audit).  ``repro analyze`` drives both over every
  shipped model; :mod:`repro.analysis.audit` holds that harness (imported
  lazily — it pulls in the model zoo).
* :mod:`repro.analysis.effects` / :mod:`repro.analysis.purity` /
  :mod:`repro.analysis.forksafety` — the determinism analyzer: an
  interprocedural effect system over the ``repro`` package's own AST.
  Every declared determinism root (``MaceTrainer.fit``,
  ``MaceDetector.score``, serving ``update``, the fleet ``run``,
  ``run_drill``) is checked against the pure-modulo-seed contract (DET5xx
  findings with provenance chains); the multiprocessing layers get a
  fork-safety pass (FS6xx).  ``repro analyze --effects`` drives it and
  gates the audited set against ``det_baseline.json``.
"""

from repro.analysis.anomaly import AnomalyError, detect_anomaly
from repro.analysis.contracts import check_model, input_spec
from repro.analysis.dataflow import Finding, coverage, propagate
from repro.analysis.domains import Interval
from repro.analysis.effects import (
    ATOMS,
    EffectAnnotation,
    EffectSite,
    RepoModel,
    analyze_package,
)
from repro.analysis.forksafety import FS_RULES, check_fork_safety
from repro.analysis.purity import (
    DET_RULES,
    DETERMINISM_ROOTS,
    check_roots,
    det_regressions,
    effects_report,
)
from repro.analysis.gradflow import audit_gradient_flow
from repro.analysis.lint import Violation, lint_paths, lint_source
from repro.analysis.spec import ContractError, Dim, TensorSpec, child_contract, merge_dtype
from repro.analysis.trace import Graph, GraphNode, trace

__all__ = [
    "AnomalyError",
    "detect_anomaly",
    "check_model",
    "input_spec",
    "ContractError",
    "Dim",
    "TensorSpec",
    "child_contract",
    "merge_dtype",
    "Violation",
    "lint_paths",
    "lint_source",
    "Interval",
    "Finding",
    "propagate",
    "coverage",
    "Graph",
    "GraphNode",
    "trace",
    "audit_gradient_flow",
    "ATOMS",
    "EffectAnnotation",
    "EffectSite",
    "RepoModel",
    "analyze_package",
    "FS_RULES",
    "check_fork_safety",
    "DET_RULES",
    "DETERMINISM_ROOTS",
    "check_roots",
    "det_regressions",
    "effects_report",
]
