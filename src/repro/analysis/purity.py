"""Determinism-root contract check (DET501-DET508) over effect signatures.

The repo's reproducibility guarantee is *pure modulo declared seeds*:
given the same inputs and the same seed material, every declared
determinism root must produce bitwise-identical outputs.  This pass
consumes the :class:`~repro.analysis.effects.RepoModel` built by
:func:`~repro.analysis.effects.analyze_package` and checks each root in
:data:`DETERMINISM_ROOTS` against that contract.

For every effect atom reachable from a root through the call graph, one
finding is emitted per intrinsic site, carrying the shortest call chain
from the root down to the site (``fit -> span -> _ActiveSpan.__enter__
reads time.perf_counter``).  Sites audited with ``# effects: ok`` are
still reported, flagged ``suppressed`` — declared, not silenced — and
their fingerprints are gated against ``det_baseline.json``: an audited
finding that is *new* (an unreviewed annotation) fails exactly like one
that *vanished* (either genuinely fixed — update the baseline — or the
analyzer silently lost coverage, which must not pass unnoticed).

Rules:

========  ==============  ======  ==========================================
code      atom            level   meaning
========  ==============  ======  ==========================================
DET501    RNG_GLOBAL      error   hidden global RNG stream reachable
DET502    TIME            warn    wall-clock read reachable
DET503    FS_ORDER        error   OS-ordered directory listing reachable
DET504    UNORDERED_ITER  error   set-order-dependent iteration reachable
DET505    ENV             warn    environment read reachable
DET506    ID_HASH         warn    object-identity value reachable
DET507    (structural)    error   declared root not found in the package
DET508    (structural)    error   stale or malformed ``# effects: ok``
========  ==============  ======  ==========================================

``RNG_SEEDED`` never produces a finding: an explicitly threaded
``Generator`` is exactly what the contract permits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.audit import (
    fingerprint,
    load_fingerprints,
    write_fingerprints,
)
from repro.analysis.dataflow import Finding
from repro.analysis.effects import EffectSite, RepoModel, analyze_package

__all__ = [
    "DET_RULES",
    "DETERMINISM_ROOTS",
    "DET_BASELINE_VERSION",
    "check_roots",
    "effects_report",
    "load_det_baseline",
    "write_det_baseline",
    "det_regressions",
]

DET_BASELINE_VERSION = 1

# Declared determinism roots: public entry points whose outputs the
# repo promises are bitwise-reproducible modulo declared seeds.
DETERMINISM_ROOTS: Tuple[str, ...] = (
    "repro.core.trainer.MaceTrainer.fit",
    "repro.core.detector.MaceDetector.score",
    "repro.runtime.serving.ServingRuntime.update",
    "repro.runtime.orchestrator.FleetOrchestrator.run",
    "repro.runtime.remediation.drill.run_drill",
)

_ATOM_RULES: Dict[str, Tuple[str, str, str]] = {
    # atom -> (code, severity, name)
    "RNG_GLOBAL": ("DET501", "error", "global-rng-reachable"),
    "TIME": ("DET502", "warn", "wall-clock-reachable"),
    "FS_ORDER": ("DET503", "error", "fs-order-reachable"),
    "UNORDERED_ITER": ("DET504", "error", "unordered-iter-reachable"),
    "ENV": ("DET505", "warn", "env-read-reachable"),
    "ID_HASH": ("DET506", "warn", "id-hash-reachable"),
}

DET_RULES: Dict[str, Tuple[str, str]] = {
    code: (severity, name)
    for code, severity, name in _ATOM_RULES.values()
}
DET_RULES["DET507"] = ("error", "missing-determinism-root")
DET_RULES["DET508"] = ("error", "stale-effects-annotation")


def _root_short(qname: str) -> str:
    """``MaceTrainer.fit`` from the full dotted qname."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qname


def _site_finding(model: RepoModel, root: str, site: EffectSite,
                  chain: List[Tuple[str, int, str]]) -> Finding:
    code, severity, name = _ATOM_RULES[site.atom]
    hops = [_root_short(root)]
    hops += [qname.split(".")[-1] for _, _, qname in chain[1:]]
    hops.append(site.function.split(".")[-1])
    # drop consecutive duplicates (site inside the last chained function)
    path: List[str] = []
    for hop in hops:
        if not path or path[-1] != hop:
            path.append(hop)
    message = " -> ".join(path) + f" {site.detail}"
    if site.audited:
        message += f" [audited: {site.reason}]"
    frames = tuple((file, line, qname) for file, line, qname in chain)
    frames += ((site.file, site.line, site.detail),)
    return Finding(
        rule=code, severity=severity, message=message, op=site.atom,
        node_index=-1, module_path=f"{_root_short(root)}<-{site.function}",
        file=site.file, line=site.line, model=_root_short(root),
        suppressed=site.audited, frames=frames, rule_name=name)


def check_roots(model: Optional[RepoModel] = None,
                roots: Sequence[str] = DETERMINISM_ROOTS) -> List[Finding]:
    """All DET findings for the declared roots (audited ones suppressed)."""
    if model is None:
        model = analyze_package()
    findings: List[Finding] = []
    for root in roots:
        if root not in model.functions:
            findings.append(Finding(
                rule="DET507", severity="error",
                message=f"declared determinism root {root} was not found "
                        "in the analyzed package",
                op="missing-root", node_index=-1,
                module_path=_root_short(root), model=_root_short(root),
                rule_name=DET_RULES["DET507"][1]))
            continue
        order, parent = model.reachable(root)
        for qname in order:
            for site in model.functions[qname].sites:
                if site.atom not in _ATOM_RULES:
                    continue  # RNG_SEEDED: allowed by the contract
                chain = model.chain(root, qname, parent)
                findings.append(_site_finding(model, root, site, chain))
    # stale / malformed annotations anywhere in the package
    for annotation in model.annotations():
        if annotation.malformed:
            detail = annotation.problem
        elif not annotation.consumed:
            detail = (f"no {annotation.atom} site detected on this line "
                      "(fixed, moved, or never real)")
        else:
            continue
        findings.append(Finding(
            rule="DET508", severity="error",
            message=f"stale effects annotation: {detail}",
            op="annotation", node_index=-1,
            module_path=f"line:{annotation.line}",
            file=annotation.file, line=annotation.line, model="annotations",
            rule_name=DET_RULES["DET508"][1]))
    findings.sort(key=lambda f: (f.rule, f.model, f.module_path, f.op,
                                 f.file, f.line))
    return findings


def effects_report(model: Optional[RepoModel] = None,
                   roots: Sequence[str] = DETERMINISM_ROOTS) -> dict:
    """The ``repro analyze --effects`` report (DET + FS findings).

    Deliberately free of wall-clock timing so the report is
    byte-identical across runs (the analyzer must pass its own gate).
    """
    from repro.analysis.forksafety import check_fork_safety

    if model is None:
        model = analyze_package()
    # Fork safety runs first: it consumes FS-atom annotations, which the
    # stale-annotation sweep inside check_roots must observe as consumed.
    findings = check_fork_safety(model)
    findings.extend(check_roots(model, roots))
    findings.sort(key=lambda f: (f.rule, f.model, f.module_path, f.op,
                                 f.file, f.line))
    root_rows = []
    for root in roots:
        if root not in model.functions:
            root_rows.append({"root": root, "found": False,
                              "functions": 0, "signature": {}})
            continue
        order, _ = model.reachable(root)
        root_rows.append({
            "root": root, "found": True, "functions": len(order),
            "signature": model.signature(root),
        })
    active = [f for f in findings if not f.suppressed]
    report = {
        "version": DET_BASELINE_VERSION,
        "roots": root_rows,
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "errors": sum(f.severity == "error" for f in active),
            "warnings": sum(f.severity == "warn" for f in active),
            "audited": sum(f.suppressed for f in findings),
        },
    }
    report["_findings"] = findings  # live objects, stripped before JSON
    return report


# ----------------------------------------------------------------------
# Baseline handling (det_baseline.json)
# ----------------------------------------------------------------------

def load_det_baseline(path: str) -> Dict[str, List[str]]:
    return load_fingerprints(path, "audited", DET_BASELINE_VERSION,
                             "determinism")


def write_det_baseline(path: str, report: dict) -> None:
    """Snapshot every audited (suppressed) finding fingerprint."""
    write_fingerprints(path, "audited", DET_BASELINE_VERSION,
                       (f for f in report["_findings"] if f.suppressed))


def det_regressions(report: dict,
                    baseline: Optional[Dict[str, List[str]]] = None,
                    ) -> Tuple[List[Finding], List[Finding], List[str]]:
    """Gate a report against ``det_baseline.json``.

    Returns ``(unaudited, new_audited, vanished)``:

    * *unaudited* — active findings; these always fail, baseline or not.
    * *new_audited* — audited findings whose fingerprint is not in the
      baseline: an annotation nobody reviewed.  Fails.
    * *vanished* — baseline fingerprints with no current finding: either
      genuinely fixed (run ``--update-baseline``) or the analyzer lost
      coverage.  Fails either way so it cannot pass unnoticed.
    """
    expected = set(baseline["audited"]) if baseline else set()
    unaudited = [f for f in report["_findings"] if not f.suppressed]
    current: Dict[str, Finding] = {}
    for finding in report["_findings"]:
        if finding.suppressed:
            current.setdefault(fingerprint(finding), finding)
    new_audited = [f for fp, f in sorted(current.items())
                   if fp not in expected]
    vanished = sorted(expected - set(current))
    return unaudited, new_audited, vanished
