"""Importing the model, runtime, data and eval packages loads no analyzer.

Every ``Module`` imports its shape contracts from ``repro.analysis.spec``,
which loads the ``repro.analysis`` package.  The package re-exports its
analyzers lazily, so that import costs the spec module alone.  The guard
runs in a fresh interpreter, since this test process has loaded the
analyzers already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ANALYZERS = ("effects", "lint", "purity", "dataflow", "forksafety", "audit",
             "anomaly")

GUARD = r"""
import sys

import repro.core, repro.runtime, repro.data, repro.eval

loaded = sorted(name for name in sys.modules
                if name.startswith("repro.analysis"))
print("analysis modules:", loaded)
"""


def test_core_runtime_data_eval_load_no_analyzer():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", GUARD], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = completed.stdout.strip().splitlines()[-1]
    loaded = ast.literal_eval(line.removeprefix("analysis modules: "))
    assert "repro.analysis.spec" in loaded, loaded
    assert not [name for name in ANALYZERS
                if f"repro.analysis.{name}" in loaded], loaded


def test_lazy_exports_resolve():
    import repro.analysis

    for name in repro.analysis.__all__:
        assert hasattr(repro.analysis, name), name
    with pytest.raises(AttributeError):
        repro.analysis.no_such_name
