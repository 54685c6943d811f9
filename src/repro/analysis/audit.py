"""``repro analyze``: the model-graph audit, the effect analyzer, one gate.

For each shipped model (the full MACE detector plus every baseline in
:data:`repro.baselines.ALL_BASELINES`) this module builds the model at its
default configuration, traces one forward/loss computation
(:mod:`repro.analysis.trace`), runs the forward interval pass
(:mod:`repro.analysis.dataflow`) and the gradient-flow audit
(:mod:`repro.analysis.gradflow`), and assembles a machine-readable report.

JumpStarter is the one registered baseline with no autograd graph (it is a
compressed-sensing method, not a neural model); it appears in the report
as explicitly skipped rather than silently missing.

:func:`analyze` adds the determinism and fork-safety passes over the
``repro`` package itself (:func:`repro.analysis.purity.effects_report`)
and :func:`gate` holds every resulting :class:`Finding` to one rule.
Finding *fingerprints* — ``rule|model|module_path|op|file-basename``,
deliberately excluding line numbers and messages — are compared against
the ``audited`` set of a committed baseline file
(``analysis_baseline.json``):

* an *unaudited* finding (no ``# analyzer: ok`` / ``# effects: ok`` on
  its line), error or warning, always fails;
* an audited finding whose fingerprint the baseline does not list is an
  annotation nobody reviewed, and fails;
* a listed fingerprint with no current finding has *vanished* — fixed
  (rewrite the baseline) or lost analyzer coverage — and fails too.

The fingerprint carries the model (or determinism root), so an audit
on a shared line — ``layer_norm``'s centering, say — covers only the
models the baseline names.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.dataflow import Finding, coverage, propagate, repo_relative
from repro.analysis.gradflow import audit_gradient_flow
from repro.analysis.trace import trace

__all__ = [
    "analyze",
    "audit_models",
    "available_models",
    "fingerprint",
    "gate",
    "load_baseline",
    "write_baseline",
    "BASELINE_VERSION",
]

BASELINE_VERSION = 2

_SYNTH_FEATURES = 3
_SYNTH_BATCH = 2


def fingerprint(finding: Finding) -> str:
    """Line-number-free identity of a finding, stable across edits."""
    return "|".join((finding.rule, finding.model, finding.module_path,
                     finding.op, os.path.basename(finding.file)))


def _synthetic_windows(window: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.arange(window)[None, :, None]
    phase = rng.uniform(0, 2 * np.pi, size=(_SYNTH_BATCH, 1, _SYNTH_FEATURES))
    wave = np.sin(2 * np.pi * t / max(window // 4, 1) + phase)
    return wave + 0.1 * rng.standard_normal(
        (_SYNTH_BATCH, window, _SYNTH_FEATURES))


def _analyze_graph(fn, inputs, module, envelope: float) -> dict:
    graph = trace(fn, inputs=inputs, module=module)
    values, findings = propagate(graph, envelope=envelope)
    findings.extend(audit_gradient_flow(graph, values, module))
    return {"graph": graph, "findings": findings,
            "uncovered_ops": coverage(graph)}


def _mace_case():
    from repro.core import MaceConfig, MaceModel, PatternExtractor
    from repro.nn.tensor import Tensor

    config = MaceConfig()
    rng = np.random.default_rng(0)
    series = np.sin(np.arange(8 * config.window)[:, None]
                    * (2 * np.pi / config.window)
                    + rng.uniform(0, np.pi, _SYNTH_FEATURES)[None, :])
    series = series + 0.05 * rng.standard_normal(series.shape)
    extractor = PatternExtractor(config.window, config.num_bases)
    extractor.fit_service("svc", series)
    model = MaceModel(config)
    windows = Tensor(_synthetic_windows(config.window))

    def fn():
        output = model.forward(windows, extractor, "svc")
        return model.loss(output)

    return fn, (windows,), model


def _baseline_case(name: str):
    from repro.baselines import ALL_BASELINES, BaselineConfig
    from repro.nn.tensor import Tensor

    detector = ALL_BASELINES[name](BaselineConfig())
    model = detector.build_model(_SYNTH_FEATURES)
    windows = Tensor(_synthetic_windows(detector.config.window))

    def fn():
        return detector.model_loss(model, windows, "svc")

    return fn, (windows,), model


def available_models() -> List[str]:
    from repro.baselines import ALL_BASELINES

    return ["MACE"] + list(ALL_BASELINES)


def audit_models(models: Optional[Sequence[str]] = None,
                 envelope: float = 1e3) -> dict:
    """Run the graph analyzer over the requested models (default: all).

    Returns the report dict (the graph half of :func:`analyze`): per-model
    node counts, findings, uncovered ops, and timing, plus a summary.
    """
    from repro.baselines import ALL_BASELINES

    known = available_models()
    requested = list(models) if models else known
    unknown = [m for m in requested if m not in known]
    if unknown:
        raise ValueError(f"unknown models {unknown}; available: {known}")

    report_models: List[dict] = []
    all_findings: List[Finding] = []
    for name in requested:
        if name == "JumpStarter":
            report_models.append({
                "model": name, "skipped":
                    "compressed-sensing baseline with no autograd graph",
                "nodes": 0, "findings": [], "uncovered_ops": {},
            })
            continue
        case = _mace_case() if name == "MACE" else _baseline_case(name)
        result = _analyze_graph(*case, envelope)
        for finding in result["findings"]:
            finding.model = name
            finding.file = repo_relative(finding.file)
        findings = sorted(
            result["findings"],
            key=lambda f: (f.rule, f.module_path, f.op, f.file, f.line),
        )
        all_findings.extend(findings)
        report_models.append({
            "model": name,
            "skipped": None,
            "nodes": len(result["graph"].nodes),
            "findings": [f.to_dict() for f in findings],
            "uncovered_ops": result["uncovered_ops"],
        })

    return {"version": BASELINE_VERSION, "envelope": envelope,
            "models": report_models, "summary": _summary(all_findings),
            "_findings": all_findings}  # live objects, stripped before JSON


def _summary(findings: Sequence[Finding]) -> Dict[str, int]:
    active = [f for f in findings if not f.suppressed]
    return {"errors": sum(f.severity == "error" for f in active),
            "warnings": sum(f.severity == "warn" for f in active),
            "audited": sum(f.suppressed for f in findings)}


def analyze() -> dict:
    """The ``repro analyze`` report: every model graph plus the effect
    analyzer's determinism roots, one finding list for :func:`gate`."""
    from repro.analysis.purity import effects_report

    graphs = audit_models()
    effects = effects_report()
    findings = graphs["_findings"] + effects["_findings"]
    return {"version": BASELINE_VERSION, "envelope": graphs["envelope"],
            "models": graphs["models"], "roots": effects["roots"],
            "effects": effects["findings"], "summary": _summary(findings),
            "_findings": findings}


# ----------------------------------------------------------------------
# The baseline file and the gate
# ----------------------------------------------------------------------

def load_baseline(path: str) -> List[str]:
    """The ``audited`` fingerprints of a ``{"version", "audited"}`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"analyzer baseline {path} has version {data.get('version')}, "
            f"expected {BASELINE_VERSION}")
    return list(data.get("audited", []))


def write_baseline(path: str, report: dict) -> None:
    """Snapshot the sorted, de-duplicated audited fingerprints."""
    payload = {"version": BASELINE_VERSION,
               "audited": sorted({fingerprint(f) for f in report["_findings"]
                                  if f.suppressed})}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def gate(report: dict, audited: Iterable[str] = ()
         ) -> Tuple[List[Finding], List[Finding], List[str]]:
    """Hold a report to the baseline's ``audited`` fingerprints.

    Returns ``(unaudited, new_audited, vanished)``; the gate passes only
    when all three are empty:

    * *unaudited* — findings no annotation covers; they always fail.
    * *new_audited* — audited findings whose fingerprint ``audited``
      does not list: an annotation nobody reviewed.
    * *vanished* — listed fingerprints with no current audited finding:
      fixed (rewrite the baseline) or lost analyzer coverage.
    """
    expected = set(audited)
    unaudited = [f for f in report["_findings"] if not f.suppressed]
    current: Dict[str, Finding] = {}
    for finding in report["_findings"]:
        if finding.suppressed:
            current.setdefault(fingerprint(finding), finding)
    new_audited = [f for fp, f in sorted(current.items())
                   if fp not in expected]
    vanished = sorted(expected - set(current))
    return unaudited, new_audited, vanished
