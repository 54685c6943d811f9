"""Model audit harness + the one ``repro analyze`` gate.

The golden-file test pins the *fingerprint set* of every shipped model's
findings (line numbers and messages excluded on purpose): any new analyzer
finding, newly-uncovered op, or model becoming skipped shows up as a diff
against ``golden_analyze.json``.  The gate tests hold every finding —
graph and effect alike — to ``analysis_baseline.json``'s ``audited`` set.
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.audit import (
    BASELINE_VERSION,
    analyze,
    audit_models,
    available_models,
    fingerprint,
    gate,
    load_baseline,
    write_baseline,
)
from repro.analysis.dataflow import Finding

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).parent / "golden_analyze.json"
BASELINE_PATH = REPO_ROOT / "analysis_baseline.json"


def _finding(rule="DF208", severity="warn", model="M", module_path="M.layer",
             op="sub", file="src/repro/nn/functional.py", line=10,
             suppressed=False, message="msg"):
    return Finding(rule=rule, severity=severity, message=message, op=op,
                   node_index=0, module_path=module_path, file=file,
                   line=line, model=model, suppressed=suppressed)


class TestFingerprint:
    def test_excludes_line_and_message(self):
        a = _finding(line=10, message="one")
        b = _finding(line=99, message="two")
        assert fingerprint(a) == fingerprint(b)

    def test_distinguishes_rule_model_path_op(self):
        base = _finding()
        assert fingerprint(base) != fingerprint(_finding(rule="DF201"))
        assert fingerprint(base) != fingerprint(_finding(model="Other"))
        assert fingerprint(base) != fingerprint(_finding(module_path="M.x"))
        assert fingerprint(base) != fingerprint(_finding(op="div"))


class TestBaselinePolicy:
    def test_roundtrip_records_only_audited_findings(self, tmp_path):
        active = _finding(severity="warn")
        audited_warn = _finding(severity="warn", suppressed=True, op="div")
        audited_error = _finding(severity="error", rule="DF201", op="log",
                                 suppressed=True)
        report = {"_findings": [active, audited_warn, audited_error]}
        path = tmp_path / "baseline.json"
        write_baseline(str(path), report)
        baseline = load_baseline(str(path))
        assert baseline == sorted([fingerprint(audited_warn),
                                   fingerprint(audited_error)])
        assert gate(report, baseline) == ([active], [], [])

    def test_rewrite_reproduces_committed_baseline(self, tmp_path):
        path = tmp_path / "analysis_baseline.json"
        write_baseline(str(path), analyze())
        assert path.read_bytes() == BASELINE_PATH.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION + 1, "audited": []}
        ))
        with pytest.raises(ValueError):
            load_baseline(str(path))
        # the version-1 layout, accepted warnings only, is refused too
        path.write_text(json.dumps({"version": 1, "accepted_warnings": []}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_errors_always_fail_even_if_accepted(self):
        error = _finding(severity="error", rule="DF201", op="log")
        unaudited, _, _ = gate({"_findings": [error]}, [fingerprint(error)])
        assert unaudited == [error]

    def test_accepted_warning_passes_new_warning_fails(self):
        known = _finding(severity="warn", suppressed=True)
        fresh = _finding(severity="warn", op="div")
        report = {"_findings": [known, fresh]}
        assert gate(report, [fingerprint(known)]) == ([fresh], [], [])

    def test_new_audited_finding_fails(self):
        audited = _finding(severity="error", rule="DF201", suppressed=True)
        assert gate({"_findings": [audited]}, []) == ([], [audited], [])

    def test_no_baseline_means_every_warning_fails(self):
        warn = _finding(severity="warn")
        unaudited, _, _ = gate({"_findings": [warn]})
        assert unaudited == [warn]


class TestAuditModels:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown models"):
            audit_models(["NotAModel"])

    def test_mace_is_clean(self):
        report = audit_models(["MACE"])
        (entry,) = report["models"]
        assert entry["skipped"] is None
        assert entry["nodes"] > 0
        assert entry["uncovered_ops"] == {}
        assert report["summary"]["errors"] == 0
        assert [f for f in entry["findings"] if not f["suppressed"]] == []

    def test_jumpstarter_explicitly_skipped(self):
        report = audit_models(["JumpStarter"])
        (entry,) = report["models"]
        assert "compressed-sensing" in entry["skipped"]


class TestAnalyzeGolden:
    """End-to-end CLI gate against the committed golden fingerprints."""

    @pytest.fixture(scope="class")
    def payload(self):
        import contextlib
        import io

        from repro.cli import main

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(["analyze", "--json",
                           "--baseline", str(BASELINE_PATH)])
        assert status == 0, stdout.getvalue()
        return json.loads(stdout.getvalue())

    @staticmethod
    def _normalize(payload):
        models = {}
        for entry in payload["models"]:
            findings = sorted(
                "|".join((f["rule"], f["model"], f["module_path"], f["op"],
                          os.path.basename(f["file"]), f["severity"],
                          "suppressed" if f["suppressed"] else "active"))
                for f in entry["findings"]
            )
            models[entry["model"]] = {
                "skipped": bool(entry["skipped"]),
                "findings": findings,
                "uncovered_ops": entry["uncovered_ops"],
            }
        return {"version": payload["version"], "models": models}

    def test_matches_golden_file(self, payload):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert self._normalize(payload) == golden

    def test_payload_reads_the_same_from_any_checkout(self, payload):
        """No wall-clock timing and no absolute path: ``repro analyze
        --json`` is byte-identical across runs and checkouts."""
        import repro

        checkout = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__))))
        assert checkout not in json.dumps(payload)
        assert all("seconds" not in entry for entry in payload["models"])

    def test_covers_every_registered_model(self, payload):
        assert [m["model"] for m in payload["models"]] == available_models()

    def test_gate_reports_nothing_failing(self, payload):
        assert payload["unaudited"] == []
        assert payload["new_audited"] == []
        assert payload["vanished"] == []
        assert payload["summary"]["errors"] == 0


class TestFreshAudit:
    def test_fresh_analyzer_ok_site_fails_the_gate(self, monkeypatch,
                                                   capsys):
        # A new `# analyzer: ok` site is an annotation nobody reviewed:
        # its fingerprint is missing from the baseline, so the gate fails.
        from repro.analysis import audit
        from repro.cli import main

        mace_case = audit._mace_case

        def case_with_fresh_audit():
            fn, inputs, model = mace_case()
            (windows,) = inputs

            def audited_fn():
                return fn() + windows.abs().log().mean() * 0.0  # analyzer: ok

            return audited_fn, inputs, model

        monkeypatch.setattr(audit, "_mace_case", case_with_fresh_audit)
        assert main(["analyze", "--baseline", str(BASELINE_PATH)]) == 1
        out = capsys.readouterr().out
        assert "NEW-AUDITED ERROR DF201 [MACE ::" in out
        assert "test_audit.py" in out
