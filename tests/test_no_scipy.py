"""Fitting, scoring and serving MACE import no scipy.

``scipy.stats`` costs about 60 MB of resident memory and half a second of
start-up in every process that loads it.  Only ``pairwise_kde_kl`` (an
analysis helper) needs it, and imports it when called; the GPD tail fit of
POT and SPOT is ``repro.eval.gpd.fit_gpd``.  The guard runs the paths in a
fresh interpreter, since this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = r"""
import sys

import numpy as np

from repro.core import MaceConfig, MaceDetector
from repro.data import load_dataset
from repro.eval import pot_threshold
from repro.runtime import ServingRuntime

dataset = load_dataset("smd", num_services=1, train_length=512,
                       test_length=256, seed=5)
service = dataset[0]
detector = MaceDetector(MaceConfig(epochs=1)).fit(
    [service.service_id], [service.train])
scores = detector.score(service.service_id, service.test)

runtime = ServingRuntime(detector, window=40, q=1e-3)
runtime.start_service(service.service_id, service.train)
spot = runtime.streaming._streams[service.service_id].spot
refits = 0
fit = spot.state_dict()["fit"]
for step in range(4000):
    runtime.update(service.service_id,
                   service.test[step % len(service.test)])
    if spot.state_dict()["fit"] != fit:
        refits += 1
        fit = spot.state_dict()["fit"]
        if refits == 2:
            break
assert refits == 2, refits

assert np.isfinite(pot_threshold(scores))
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "scipy")
print("scipy modules:", loaded)
assert not loaded, loaded
"""


def test_fit_score_serve_and_pot_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", GUARD], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "scipy modules: []" in completed.stdout
