"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper and prints it in
the paper's layout.  Scale is controlled by the ``REPRO_BENCH_SCALE``
environment variable:

* ``small`` (default) — reduced service counts / lengths / epochs so the
  whole suite runs on a laptop CPU in tens of minutes;
* ``full`` — the dataset profiles of DESIGN.md §3 (closest to the paper's
  relative scale this substrate supports).

Measured numbers are also appended to ``benchmarks/results/<name>.json`` so
EXPERIMENTS.md can be refreshed from actual runs.

Every bench and ``quality.py`` import this module before NumPy, which pins
one BLAS thread: OpenBLAS splits some large products across threads, which
changes their rounding and, on the full-spectrum Table IX variants, the F1.
So the committed tables and the ``make quality`` gate that compares against
them are made under the same setting.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Sequence

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread pin)

from repro.baselines import (
    ALL_BASELINES,
    BaselineConfig,
    JumpStarterDetector,
)
from repro.core import MaceConfig, MaceDetector
from repro.data import Dataset, load_dataset

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower()

# The paper evaluates on SMD, J-D1, J-D2 and SMAP (Tables V/VI/VIII/IX);
# MC appears only in Table VII.
TABLE_DATASETS = ("smd", "j-d1", "j-d2", "smap")

# Paper-reported F1 numbers used for the paper-vs-measured printouts.
PAPER_TABLE5_F1 = {
    "DCdetector": {"smd": 0.669, "j-d1": 0.626, "j-d2": 0.923, "smap": 0.597},
    "AnomalyTransformer": {"smd": 0.562, "j-d1": 0.639, "j-d2": 0.891,
                           "smap": 0.699},
    "DVGCRN": {"smd": 0.481, "j-d1": 0.421, "j-d2": 0.742, "smap": 0.549},
    "OmniAnomaly": {"smd": 0.713, "j-d1": 0.899, "j-d2": 0.938, "smap": 0.819},
    "MSCRED": {"smd": 0.407, "j-d1": 0.819, "j-d2": 0.932, "smap": 0.884},
    "TranAD": {"smd": 0.471, "j-d1": 0.258, "j-d2": 0.797, "smap": 0.291},
    "ProS": {"smd": 0.214, "j-d1": 0.534, "j-d2": 0.805, "smap": 0.468},
    "VAE": {"smd": 0.246, "j-d1": 0.425, "j-d2": 0.665, "smap": 0.557},
    "MACE": {"smd": 0.910, "j-d1": 0.934, "j-d2": 0.961, "smap": 0.977},
}

PAPER_TABLE9_F1 = {
    "no context-aware DFT/IDFT": {"smd": 0.762, "j-d1": 0.689, "j-d2": 0.953,
                                  "smap": 0.831},
    "no dualistic conv (freq)": {"smd": 0.184, "j-d1": 0.820, "j-d2": 0.886,
                                 "smap": 0.713},
    "no dualistic conv (time)": {"smd": 0.084, "j-d1": 0.152, "j-d2": 0.250,
                                 "smap": 0.720},
    "no frequency characterization": {"smd": 0.868, "j-d1": 0.857,
                                      "j-d2": 0.975, "smap": 0.967},
    "no pattern extraction": {"smd": 0.696, "j-d1": 0.740, "j-d2": 0.954,
                              "smap": 0.797},
    "MACE": {"smd": 0.910, "j-d1": 0.934, "j-d2": 0.961, "smap": 0.977},
}


def scale_params() -> Dict:
    """Workload knobs for the current scale."""
    if SCALE == "full":
        return {
            "num_services": 20,
            "train_length": 2048,
            "test_length": 2048,
            "group_size": 10,
            "mace_epochs": 5,
            "baseline_epochs": 4,
            "tailored_epochs": 20,
            "tailored_stride": 4,
            "tailored_limit": 10,
            "grid_points": None,      # paper grids
            "grid_services": 6,
            "grid_length": 1024,
        }
    return {
        "num_services": 10,
        "train_length": 1024,
        "test_length": 1024,
        "group_size": 10,
        "mace_epochs": 5,
        "baseline_epochs": 4,
        "tailored_epochs": 20,
        "tailored_stride": 2,
        "tailored_limit": 5,
        "grid_points": 3,             # coarse grids
        "grid_services": 4,
        "grid_length": 768,
    }


@functools.lru_cache(maxsize=None)
def bench_dataset(name: str, num_services: int | None = None,
                  train_length: int | None = None,
                  test_length: int | None = None) -> Dataset:
    """Cached dataset for the current scale (overridable per bench)."""
    params = scale_params()
    return load_dataset(
        name,
        num_services=num_services or params["num_services"],
        train_length=train_length or params["train_length"],
        test_length=test_length or params["test_length"],
    )


def mace_factory(**overrides) -> Callable[[], MaceDetector]:
    params = scale_params()
    defaults = dict(epochs=params["mace_epochs"])
    defaults.update(overrides)

    def factory():
        return MaceDetector(MaceConfig(**defaults))

    return factory


def baseline_factory(name: str, epochs: int | None = None,
                     **overrides) -> Callable[[], object]:
    params = scale_params()
    epochs = epochs if epochs is not None else params["baseline_epochs"]
    cls = ALL_BASELINES[name]

    def factory():
        if cls is JumpStarterDetector:
            return cls(window=40)
        return cls(BaselineConfig(epochs=epochs, **overrides))

    return factory


def tailored_factory(name: str) -> Callable[[], object]:
    """Per-service training setup: more epochs and denser windows, matching
    the converged-per-service regime the paper grants the baselines."""
    params = scale_params()
    return baseline_factory(name, epochs=params["tailored_epochs"],
                            train_stride=params["tailored_stride"])


def save_results(name: str, payload: Dict) -> Path:
    """Persist a bench's measured numbers for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    payload = {"scale": SCALE, **payload}
    path.write_text(json.dumps(payload, indent=2, default=float))
    return path


def run_once(benchmark, fn):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
