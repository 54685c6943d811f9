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
  domain, gradient-flow audit) over every shipped model.
* :mod:`repro.analysis.effects` / :mod:`repro.analysis.purity` /
  :mod:`repro.analysis.forksafety` — the determinism analyzer: an
  interprocedural effect system over the ``repro`` package's own AST.
  Every declared determinism root (``MaceTrainer.fit``,
  ``MaceDetector.score``, serving ``update``, the fleet ``run``) is
  checked against the pure-modulo-seed contract (DET5xx
  findings with provenance chains); the multiprocessing layers get a
  fork-safety pass (FS6xx).
* :mod:`repro.analysis.audit` — ``repro analyze``: runs both analyzers
  and gates every finding against ``analysis_baseline.json`` (any
  unaudited finding fails; the audited fingerprints must match its
  ``audited`` set exactly).  Imported on its own — it pulls in the
  model zoo.

The names below are re-exported lazily (PEP 562): every ``Module`` in
``repro.nn``, ``repro.core`` and the baselines imports its shape contracts
from :mod:`repro.analysis.spec`, which loads this package, and a process
that fits, scores or serves a model should not load the analyzers with it.
Each name's submodule is imported on first access.
"""

import importlib

# Re-exported name -> the submodule that defines it.  ``trace`` (the
# function) is not re-exported: it shares its name with its submodule,
# which would shadow it once loaded; import it from
# ``repro.analysis.trace``.
_EXPORTS = {
    "AnomalyError": "anomaly",
    "detect_anomaly": "anomaly",
    "check_model": "contracts",
    "input_spec": "contracts",
    "ContractError": "spec",
    "Dim": "spec",
    "TensorSpec": "spec",
    "child_contract": "spec",
    "merge_dtype": "spec",
    "Violation": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "Interval": "domains",
    "Finding": "dataflow",
    "propagate": "dataflow",
    "coverage": "dataflow",
    "Graph": "trace",
    "GraphNode": "trace",
    "audit_gradient_flow": "gradflow",
    "ATOMS": "effects",
    "EffectAnnotation": "effects",
    "EffectSite": "effects",
    "RepoModel": "effects",
    "analyze_package": "effects",
    "FS_RULES": "forksafety",
    "check_fork_safety": "forksafety",
    "DET_RULES": "purity",
    "DETERMINISM_ROOTS": "purity",
    "check_roots": "purity",
    "effects_report": "purity",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
